// The control core: the manager's scheduling decisions (paper §3.3) as one
// single-threaded, sans-I/O state machine. The real Manager and ClusterSim
// each embed a Core and implement the small Host interface below, so which
// task goes where, which source stages an input, what to prefetch or
// replicate, and what a worker loss re-queues or recovers is decided by one
// implementation for both halves.
//
// The core owns the task view and ready set, the dense WorkerSnapshot
// vector with its id -> slot map and Σ available cores, the replica and
// transfer tables, the scheduler, the redundancy engine, and the lookahead
// state. The host moves bytes, starts tasks, cancels background transfers
// and emits events on its clock; its accounting of transfer completions and
// task results updates the core through the accessors at the end.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/invariant.hpp"
#include "obs/event.hpp"
#include "redundancy/redundancy.hpp"
#include "sched/dag_view.hpp"
#include "sched/scheduler.hpp"
#include "task/task_spec.hpp"

namespace vine::control {

/// Counters the core advances; ManagerStats and SimStats extend this.
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
};

/// The core's view of one task.
struct TaskEntry {
  TaskSpec spec;
  TaskState state = TaskState::ready;
  WorkerId worker;         ///< placed/executing worker; "" when unplaced
  bool committed = false;  ///< spec.resources counted in the worker's snapshot
  /// Set when the recovery walk re-queues this producer, cleared by the host
  /// when a consumer of its outputs completes: one episode counts once.
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

/// The I/O a host supplies; called only from inside Core methods.
class Host {
 public:
  virtual ~Host() = default;
  /// Carry out `t`; false = it cannot start (the core rolls back, the host
  /// reports the failure).
  virtual bool move_bytes(const Transfer& t) = 0;
  /// Start `task` on task.worker; it is already TaskState::dispatched.
  virtual void dispatch(TaskEntry& task) = 0;
  /// Abort a live prefetch; the host closes it (close_prefetch) now or when
  /// the worker answers.
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
  WorkerSnapshot* worker(const WorkerId& id);  ///< null when not registered
  const WorkerSnapshot* worker(const WorkerId& id) const;
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
  const std::set<TaskId>& ready() const { return ready_; }
  void erase_task(TaskId id);
  /// Every transition goes through here: keeps the ready set in lockstep and
  /// emits the task_state event.
  void set_state(TaskEntry& task, TaskState state);
  /// Return a task's committed resources to its worker's snapshot.
  void release(TaskEntry& task);

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

  // ---- host accounting
  FileReplicaTable& replicas() { return replicas_; }
  const FileReplicaTable& replicas() const { return replicas_; }
  CurrentTransferTable& transfers() { return transfers_; }
  const CurrentTransferTable& transfers() const { return transfers_; }
  Scheduler& scheduler() { return scheduler_; }
  redundancy::RedundancyEngine& redundancy() { return redundancy_; }
  const redundancy::RedundancyEngine& redundancy() const { return redundancy_; }
  const std::map<std::string, PrefetchTrack>& prefetches() const {
    return prefetch_live_;
  }
  void close_prefetch(const std::string& uuid) { prefetch_live_.erase(uuid); }
  /// A completed prefetch left an unclaimed replica at `worker`.
  void note_prefetched(const std::string& cache_name, const WorkerId& worker) {
    prefetched_.insert({cache_name, worker});
  }
  /// Close a live replication; false when `uuid` was not one.
  bool close_replication(const std::string& uuid) {
    return replication_live_.erase(uuid) > 0;
  }
  /// A producer finished or is retrying: its output is no longer expected.
  void forget_expected(const std::string& cache_name) {
    expected_outputs_.erase(cache_name);
  }

 private:
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
