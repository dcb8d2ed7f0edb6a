// The control core: the manager's scheduling decisions and bookkeeping
// (paper §3.3) as one single-threaded, sans-I/O state machine. The real
// Manager and ClusterSim each embed a Core and implement the small Host
// interface below, so which task goes where, which source stages an input,
// what to prefetch or replicate, and what a worker loss re-queues or
// recovers is decided by one implementation for both halves.
//
// The core owns the task view and ready set, the dense WorkerSnapshot
// vector with its id -> slot map and Σ available cores, the replica and
// transfer tables, the scheduler, the redundancy engine, the lookahead
// state and the ControlStats counters. A host moves bytes, starts tasks,
// cancels background transfers and emits events on its clock, then
// reports what happened: a transfer closed, a task finished, an object was
// announced or dropped, a worker left. The core does the accounting; its
// tables are read-only to hosts.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/invariant.hpp"
#include "factory/factory.hpp"
#include "obs/event.hpp"
#include "redundancy/redundancy.hpp"
#include "sched/dag_view.hpp"
#include "sched/scheduler.hpp"
#include "task/task_spec.hpp"

namespace vine::control {

/// Counters the core advances for both halves; ManagerStats and SimStats
/// extend this with host-only fields.
struct ControlStats {
  std::int64_t cache_hits = 0;       ///< inputs already present at placement
  std::int64_t sched_passes = 0;     ///< schedule_pass invocations
  std::int64_t tasks_scanned = 0;    ///< ready tasks examined across all passes
  std::int64_t prefetch_issued = 0;  ///< prefetch transfers started
  std::int64_t prefetch_hits = 0;    ///< placed task found a prefetched input
  std::int64_t recoveries = 0;       ///< recovery episodes (producer re-runs)
  /// Producer re-runs for temps that had reached k copies at some point —
  /// each one is a replication invariant miss (the soaks assert zero).
  std::int64_t recoveries_replicated = 0;
  std::int64_t replica_repairs = 0;  ///< survivors re-queued after a holder died
  std::int64_t tasks_done = 0;
  std::int64_t tasks_failed = 0;
  // ---- completed task-critical transfers, by source ----
  std::int64_t transfers_from_manager = 0;
  std::int64_t transfers_from_url = 0;
  std::int64_t transfers_from_peers = 0;
  std::int64_t mini_tasks_run = 0;  ///< objects materialized in place
  std::int64_t bytes_from_manager = 0;
  std::int64_t bytes_from_url = 0;
  std::int64_t bytes_from_peers = 0;
  std::int64_t transfer_failures = 0;  ///< failed transfers, any class
  // ---- background classes ----
  std::int64_t transfers_prefetch = 0;     ///< completed prefetches
  std::int64_t bytes_prefetch = 0;         ///< bytes they moved
  std::int64_t prefetch_cancelled = 0;     ///< cancelled (stale prediction)
  std::int64_t prefetch_wasted_bytes = 0;  ///< bytes cancelled prefetches moved
  std::int64_t replications = 0;           ///< completed replication copies
  std::int64_t replication_bytes = 0;      ///< bytes they moved
};

/// The core's view of one task.
struct TaskEntry {
  TaskSpec spec;
  TaskState state = TaskState::ready;
  WorkerId worker;         ///< placed/executing worker; "" when unplaced
  bool committed = false;  ///< spec.resources counted in the worker's snapshot
  /// Set when the recovery walk re-queues this producer, cleared when a
  /// consumer of its outputs completes (task_done): one episode counts once.
  bool recovering = false;
  std::string category;  ///< task_state event label
};

/// A transfer the core asks the host to carry out; it is already in the
/// transfer table and its destination replica is pending.
struct Transfer {
  enum class Kind : std::uint8_t {
    fetch,      ///< task-critical staging (manager push, url, peer)
    mini_task,  ///< run `file`'s mini-task at `dest`
    prefetch,   ///< lookahead background staging
    replica,    ///< redundancy copy, pinned at the destination on arrival
  };
  Kind kind = Kind::fetch;
  std::string uuid;
  FileRef file;  ///< fetch / mini_task; background plans carry only a name
  std::string cache_name;
  WorkerId dest;
  TransferSource source;
  std::int64_t bytes = 0;  ///< declared or planned size
};

/// Trace label of a transfer: its background class, else its source kind.
const char* transfer_label(Transfer::Kind kind, TransferSource::Kind source);

struct PrefetchTrack {
  std::string cache_name;
  WorkerId dest;
  TransferSource source;
  TaskId consumer = 0;
  bool cancel_sent = false;  ///< host asked to cancel; awaiting its close
};

/// A transfer record dropped because its source or destination left.
struct DroppedTransfer {
  TransferRecord record;
  Transfer::Kind kind = Transfer::Kind::fetch;
};

/// How a host saw a transfer end.
enum class TransferOutcome : std::uint8_t { ok, failed, cancelled };

/// What transfer_closed closed, for the host's own transfer_end: the record
/// (empty when a worker loss already dropped it) and its class.
struct ClosedTransfer {
  std::optional<TransferRecord> record;
  Transfer::Kind kind = Transfer::Kind::fetch;
};

/// An object a worker holds: a task output, or its cache at hello.
struct CachedObject {
  std::string cache_name;
  std::int64_t size = 0;
};

/// The I/O a host supplies; called only from inside Core methods.
class Host {
 public:
  virtual ~Host() = default;
  /// Carry out `t`; false = it cannot start (the core rolls back, the host
  /// reports the failure).
  virtual bool move_bytes(const Transfer& t) = 0;
  /// Start `task` on task.worker; it is already TaskState::dispatched.
  virtual void dispatch(TaskEntry& task) = 0;
  /// Abort a live prefetch; the host reports its close (transfer_closed,
  /// cancelled) now or when the worker answers.
  virtual void cancel_transfer(const std::string& uuid,
                               const PrefetchTrack& track) = 0;
  virtual void emit(obs::Event ev) = 0;
  virtual double now() const = 0;
  /// The manager itself holds a copy (the sim's retrieved outputs).
  virtual bool held_at_manager(const std::string&) const { return false; }
  /// A copy is on its way to the manager: not produced yet, not lost either.
  virtual bool arriving_at_manager(const std::string&) const { return false; }
};

class Core {
 public:
  Core(Host& host, ControlStats& stats, SchedulerConfig sched, std::uint64_t seed,
       redundancy::RedundancyConfig redundancy);

  // ---- workers
  /// Register a worker, or start a re-registering worker's snapshot over.
  void worker_joined(WorkerSnapshot snap);
  const WorkerSnapshot* worker(const WorkerId& id) const;  ///< null when unknown
  std::span<const WorkerSnapshot> workers() const { return snapshots_; }

  /// First half of a worker loss: swap-pop its snapshot, emit a cache_evict
  /// (detail `reason`) per replica it held, drop its replicas, transfers and
  /// lookahead state, and re-queue its tasks. The host tears down its own
  /// I/O for the returned transfers, then calls recover_after_loss.
  struct Purge {
    std::vector<std::string> lost;  ///< files the worker held
    std::vector<DroppedTransfer> dropped;
  };
  Purge purge_worker(const WorkerId& id, const char* reason);
  /// Second half: replica repair first, then the recovery walk for every
  /// live task's temp input that has no copy left.
  void recover_after_loss(const WorkerId& id, const std::vector<std::string>& lost);

  // ---- tasks
  /// Add a task in TaskState::ready (emits its `ready` event).
  TaskEntry& submit(TaskSpec spec, std::string category);
  TaskEntry* task(TaskId id);
  const std::unordered_map<TaskId, TaskEntry>& tasks() const { return tasks_; }
  void erase_task(TaskId id);
  /// Every transition goes through here: keeps the ready set in lockstep and
  /// emits the task_state event.
  void set_state(TaskEntry& task, TaskState state);

  // ---- decisions
  /// One pass over the ready set (see DESIGN.md "Control core"). Emits
  /// sched_pass only when it scanned something.
  void schedule_pass();
  /// Ensure `file` is (or is becoming) present at `worker`; true when
  /// already present. Issues at most one new transfer per call.
  bool ensure_file_at(const FileRef& file, const WorkerId& worker);

  /// Catalog tables plus the core's invariants: slot map <-> snapshots is a
  /// bijection, the ready set mirrors TaskState::ready, Σ available cores
  /// matches the snapshots, transfers and commitments name live workers.
  void audit(AuditReport& report) const;

  // ---- what a host reports
  /// A transfer ended at `dest`: finishes its record, sets (ok) or removes
  /// the replica, pins a replication copy, scores the source (a success
  /// from any source but the destination itself, a failure only for a
  /// task-critical fetch), closes or refunds prefetch and replication
  /// state, and advances the counters. A record a worker loss already
  /// dropped moves only the replica table and the failure count.
  ClosedTransfer transfer_closed(const std::string& uuid, const WorkerId& dest,
                                 const std::string& cache_name,
                                 TransferOutcome outcome, std::int64_t bytes);
  /// `task` finished on its worker as `state`: done, failed, or ready for a
  /// retry. Releases its resources, records `outputs` at its worker (none
  /// when the host retrieves them) and forgets its expected outputs; a
  /// done task also closes its producers' recovery episodes and tells the
  /// redundancy engine what it produced in `runtime_s`. Then sets the
  /// state, counts the task and unplaces it.
  void task_done(TaskEntry& task, TaskState state,
                 std::span<const CachedObject> outputs, double runtime_s);
  /// `worker` holds `object` outside any transfer: its cache at hello, a
  /// preload, a task output announced ahead of its task_done.
  void object_announced(const WorkerId& worker, const CachedObject& object);
  /// `cache_name` left `worker`'s cache: an unlink or an eviction.
  void object_dropped(const WorkerId& worker, const std::string& cache_name);
  /// Library instance `task` is up on `worker`: it stays placed, holding
  /// its resources, and FunctionCalls to `library` may go there.
  void library_ready(const WorkerId& worker, TaskId task, const std::string& library);
  /// End of workflow: every copy of `names` is gone and every library
  /// instance stopped.
  void workflow_ended(std::span<const std::string> names);

  // ---- elasticity
  /// One pass worth of factory inputs: unplaced ready tasks, cores, replica
  /// bytes against the disk of the workers that report one, and the
  /// replication backlog.
  factory::FactorySignals factory_signals(double now) const;
  /// Up to `n` workers the factory may retire, in id order: factory-spawned
  /// ("fw" prefix), nothing committed, no transfer to or from them, and no
  /// object loses its last copy to the whole batch.
  std::vector<WorkerId> retirable(int n) const;

  // ---- read-only views
  const FileReplicaTable& replicas() const { return replicas_; }
  const CurrentTransferTable& transfers() const { return transfers_; }
  const Scheduler& scheduler() const { return scheduler_; }
  const redundancy::RedundancyEngine& redundancy() const { return redundancy_; }
  const std::map<std::string, PrefetchTrack>& prefetches() const {
    return prefetch_live_;
  }

 private:
  /// Return a task's committed resources to its worker's snapshot.
  void release(TaskEntry& task);
  /// Gate, saturation shortcut, pick and commit; false = stays unplaced.
  bool place(TaskEntry& task);
  /// Present replica anywhere, or a copy at the manager.
  bool produced(const std::string& cache_name) const;
  void build_dag_view();
  void cancel_stale_prefetches();
  void issue_prefetches();
  void issue_replications();
  /// Record `t` and hand it to the host; rolls back when it cannot start.
  /// `consumer` is a prefetch's predicted consumer.
  void start_transfer(Transfer t, TaskId consumer = 0);
  /// Re-queue the done producer of a temp whose last copy is gone, and
  /// transitively the producers of its own lost temp inputs.
  void recover_lost(const FileRef& file);

  Host& host_;
  ControlStats& stats_;
  Scheduler scheduler_;
  redundancy::RedundancyEngine redundancy_;
  FileReplicaTable replicas_;
  CurrentTransferTable transfers_;

  /// Hashed: the gate probes a producer per waiting input on every pass.
  std::unordered_map<TaskId, TaskEntry> tasks_;
  std::set<TaskId> ready_;  ///< ids in TaskState::ready: all a pass visits
  /// One snapshot per registered worker, maintained at every join, commit,
  /// release and loss (swap-pop) so a pass never rebuilds it.
  std::vector<WorkerSnapshot> snapshots_;
  std::map<WorkerId, std::size_t> slot_;
  double avail_cores_ = 0;  ///< Σ available().cores over snapshots_

  // ---- lookahead (empty while off) and replication state
  DagView dag_view_;
  /// Where each not-yet-produced output's producer was placed.
  std::map<std::string, WorkerId> expected_outputs_;
  std::map<std::string, PrefetchTrack> prefetch_live_;  ///< uuid -> track
  /// Replicas that arrived by prefetch, not yet claimed by a placement.
  std::set<std::pair<std::string, WorkerId>> prefetched_;
  std::set<std::string> replication_live_;  ///< uuids of replication copies
};

}  // namespace vine::control
