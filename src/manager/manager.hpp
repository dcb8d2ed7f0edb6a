// The TaskVine manager (paper §2.2): accepts the workflow definition,
// names every file, schedules data placement and task execution, tracks
// replicas and transfers, collects results, and garbage-collects.
//
// The manager directs all policy; workers only provide mechanism. Progress
// happens when the application thread calls wait() (or the other pumping
// entry points) — the conventional TaskVine model where the manager runs
// inside the application process.
//
// Thread contract: the Manager API must be used from one thread (the
// application's). Transport threads (the reactor, or a worker's sending
// thread on an in-process channel) only enqueue events into the inbox.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/clock.hpp"
#include "common/invariant.hpp"
#include "common/mutex.hpp"
#include "control/core.hpp"
#include "files/file_decl.hpp"
#include "files/url_fetcher.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "proto/messages.hpp"

namespace vine {

struct ManagerConfig {
  std::string name = "vine-manager";

  /// Listen address: "" auto-creates an in-process channel; "tcp" listens
  /// on a free TCP port; "chan:NAME" uses that channel name.
  std::string listen;

  SchedulerConfig sched{};

  /// Proactive k-replication of temp outputs (vine::redundancy). Off by
  /// default; when off, no replication path runs and traces stay
  /// byte-identical to a build without the engine.
  redundancy::RedundancyConfig redundancy{};

  /// URL access used for cache naming (HEAD requests); workers use their
  /// own fetcher for the actual downloads. Defaults to file:// support.
  std::shared_ptr<UrlFetcher> fetcher;

  std::uint64_t seed = 1;

  /// Evict a worker that has sent nothing (not even a heartbeat) for this
  /// long: its connection is torn down and the usual worker-lost recovery
  /// (requeue, replica purge, lost-temp re-runs) kicks in. This is what
  /// turns a hung-but-connected worker from a forever-wedge into a
  /// recoverable loss. 0 disables eviction.
  int heartbeat_deadline_ms = 30000;

  /// Shared structured-trace sink (vine::obs). Null disables tracing —
  /// every emission site guards on the pointer, so the disabled path is a
  /// branch. A LocalCluster passes the same sink to the manager and all
  /// its workers so the whole deployment shares one event stream.
  std::shared_ptr<obs::TraceSink> trace;
};

/// Counters the benches and examples report. Scheduling, task and
/// transfer counts come from the control core (ControlStats); these are the
/// manager's own.
struct ManagerStats : control::ControlStats {
  std::int64_t workers_lost = 0;     ///< disconnects + evictions
  std::int64_t workers_evicted = 0;  ///< of which: heartbeat-deadline evictions
};

/// The manager hosts a control::Core: the core decides placement, staging
/// sources, prefetch, replication and loss recovery; the manager carries
/// those decisions out over the wire protocol.
class Manager : private control::Host {
 public:
  explicit Manager(ManagerConfig config = {});
  ~Manager();
  Manager(const Manager&) = delete;
  Manager& operator=(const Manager&) = delete;

  /// Open the listener and start accepting workers.
  Status start();

  /// Address workers connect to.
  const std::string& address() const { return address_; }

  // ----------------------------------------------------- declarations

  /// Declare a file or directory on the manager-visible filesystem.
  /// Content is hashed now (Merkle tree for directories) to produce the
  /// cache name.
  Result<FileRef> declare_local(const std::string& path,
                                CacheLevel level = CacheLevel::workflow);

  /// Declare literal bytes held by the manager.
  FileRef declare_buffer(std::string content,
                         CacheLevel level = CacheLevel::workflow);

  /// Declare a remote object; naming uses the three-tier header scheme.
  Result<FileRef> declare_url(const std::string& url,
                              CacheLevel level = CacheLevel::workflow);

  /// Declare an ephemeral in-cluster file (output of a task). Its cache
  /// name is derived from the producing task at submit time.
  FileRef declare_temp();

  /// Declare a file produced on demand by running `mini` at the worker.
  /// `output_name` is the sandbox path the mini-task leaves behind. The
  /// cache name is the Merkle hash of the mini-task specification.
  Result<FileRef> declare_mini_task(TaskSpec mini, const std::string& output_name,
                                    CacheLevel level = CacheLevel::workflow);

  /// Built-in mini-task: unpack a vpak archive file into a directory
  /// object (the paper's declare_untar).
  Result<FileRef> declare_unpack(const FileRef& archive,
                                 CacheLevel level = CacheLevel::workflow);

  // ----------------------------------------------------- tasks

  /// Submit a task. Temp outputs are named here; ids are assigned here.
  Result<TaskId> submit(TaskSpec spec);

  /// Pump the manager until a task completes (or fails terminally); the
  /// completion order is arrival order. Errc::timeout when none completed
  /// within `timeout`.
  Result<TaskReport> wait(std::chrono::milliseconds timeout);

  /// True when no submitted task remains incomplete. Completed reports may
  /// still be queued for wait() — check has_completed() when draining.
  bool idle() const;

  /// True when completed task reports are waiting to be collected.
  bool has_completed() const { return !completed_.empty(); }

  /// Number of incomplete tasks.
  std::size_t outstanding() const;

  // ----------------------------------------------------- serverless

  /// Install a library on every current and future worker. Instances
  /// occupy `per_instance` resources and receive `inputs` in their
  /// sandbox. Returns after bookkeeping; deployment is asynchronous
  /// (FunctionCalls dispatch as instances come up, Figure 12c).
  Status install_library(const std::string& library_name, Resources per_instance,
                         std::vector<Mount> inputs = {});

  /// Convenience builder for a FunctionCall task.
  static TaskSpec function_call(const std::string& library,
                                const std::string& function, std::string args,
                                Resources resources = {});

  /// Workers currently advertising a live instance of `library_name`.
  int library_instances(const std::string& library_name) const;

  // ----------------------------------------------------- data access

  /// Retrieve a file's bytes to the manager: buffers/local files directly,
  /// cluster-resident objects via a send_file round trip to some worker.
  /// Directory objects come back as vpak archive bytes.
  Result<std::string> fetch_file(const FileRef& file,
                                 std::chrono::milliseconds timeout);

  /// Ask for `copies` replicas of an in-cluster file (reliability: a temp
  /// surviving any single worker loss needs >= 2). Transfers are scheduled
  /// asynchronously on subsequent pumps; returns immediately.
  Status replicate_file(const FileRef& file, int copies);

  // ----------------------------------------------------- cluster

  /// Pump until at least `count` workers registered.
  Status wait_for_workers(int count, std::chrono::milliseconds timeout);

  /// Make progress without waiting for a task completion (useful while
  /// waiting on background work such as replication).
  void poll(std::chrono::milliseconds timeout) { pump(timeout); }

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// End-of-workflow GC: workers drop task/workflow-lifetime objects and
  /// stop library instances; replica bookkeeping follows.
  void end_workflow();

  /// Shut down all workers and stop the manager.
  void shutdown();

  /// Graceful removal of worker `id` (the elastic factory's retirement):
  /// the worker-loss teardown with the replica drops and the trace saying
  /// "retired". Call on the pumping thread, before stopping the worker;
  /// its later disconnect is then ignored. No-op for an unknown id.
  void retire_worker(const WorkerId& id);

  const ManagerStats& stats() const { return stats_; }
  /// The control core, read-only: the elastic factory's signals and
  /// retirement candidates come from here.
  const control::Core& core() const { return core_; }
  const FileReplicaTable& replicas() const { return core_.replicas(); }
  const CurrentTransferTable& transfers() const { return core_.transfers(); }
  double now() const override { return clock_.now(); }

  /// Validate the catalog state machines plus their cross-invariants
  /// (control::Core::audit). Debug builds run this at quiescent points
  /// (worker loss, end_workflow, shutdown) and abort on violation.
  void audit(AuditReport& report) const;

 private:
  struct Connection {
    std::string conn_id;
    std::shared_ptr<Endpoint> endpoint;
    WorkerId worker_id;  ///< "" until hello
  };

  struct WorkerState {
    std::shared_ptr<Endpoint> endpoint;
    std::string conn_id;
    double last_heard = 0;  ///< clock_ time of the last frame (heartbeats too)
  };

  /// What the manager tracks per task beyond the core's TaskEntry.
  struct TaskRuntime {
    int attempts = 0;
    bool report_delivered = false;  ///< re-runs after recovery stay silent
    TaskReport report;
  };

  struct Event {
    std::string conn_id;
    Frame frame;
    bool closed = false;
  };

  struct LibraryDef {
    std::string name;
    Resources per_instance;
    std::vector<Mount> inputs;
  };

  // --- event pumping (application thread) ---
  void pump(std::chrono::milliseconds timeout);
  void handle_event(Event ev);
  void handle_hello(const std::string& conn_id, const proto::HelloMsg& msg);
  void handle_cache_update(const WorkerId& worker, const proto::CacheUpdateMsg& msg);
  void handle_task_done(const WorkerId& worker, const proto::TaskDoneMsg& msg);
  void handle_library_ready(const WorkerId& worker, const proto::LibraryReadyMsg& msg);
  /// How a worker left: its connection dropped, the heartbeat deadline
  /// expelled it (traced as worker_evicted), or the factory retired it
  /// (traced as worker_lost "retired", like the simulator).
  enum class Departure { disconnect, evicted, retired };
  void handle_worker_lost(const std::string& conn_id,
                          Departure how = Departure::disconnect);
  /// Tear down workers whose last frame is older than the heartbeat
  /// deadline; each goes through the full handle_worker_lost path.
  void evict_silent_workers();

  // --- control::Host: carry out the core's decisions over the wire ---
  /// PutMsg (manager push), FetchMsg (url, peer, prefetch, replica) or
  /// MiniTaskMsg; false when a manager-side file cannot be read.
  bool move_bytes(const control::Transfer& t) override;
  void dispatch(control::TaskEntry& task) override;
  /// Best-effort cancel_transfer; the worker's cache_update reply closes
  /// the record whichever way the race went.
  void cancel_transfer(const std::string& uuid,
                       const control::PrefetchTrack& track) override;

  /// Record the final report and queue it for wait() once.
  void deliver(const control::TaskEntry& entry, TaskRuntime& task, TaskReport report);
  void send_to_worker(const WorkerId& worker, const proto::AnyMessage& msg);
  void install_library_on(const LibraryDef& def, const WorkerId& worker);
  void process_replication_requests();

  // --- helpers ---
  FileRef register_file(std::shared_ptr<FileDecl> decl);
  void accept_loop();
  /// Run audit() and abort on violation when audits_enabled() (debug builds).
  void maybe_audit(const char* where) const;

  // --- structured tracing (vine::obs); all no-ops when config_.trace is null ---
  void emit(obs::Event ev) override;
  /// Snapshot metrics_ (ManagerStats gauges) into a `counters` event and
  /// flush the sink. Called at quiescent points (end_workflow, shutdown).
  void emit_counters();

  ManagerConfig config_;
  std::unique_ptr<Listener> listener_;
  std::string address_;
  SteadyClock clock_;

  // Guards connections_ and next_conn_ (shared with the accept thread); all
  // other workflow state below is application-thread-only. Connections are
  // closed and dropped only after extraction from the map: a TCP
  // endpoint's destructor waits for the reactor, a blocking call.
  Mutex conn_mutex_{lock_rank::Rank::manager_connections};
  std::map<std::string, std::unique_ptr<Connection>> connections_
      VINE_GUARDED_BY(conn_mutex_);
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};

  MsgQueue<Event> inbox_;

  // Workflow state (application thread only).
  std::map<WorkerId, WorkerState> workers_;
  std::map<FileId, std::shared_ptr<FileDecl>> files_;
  std::map<std::string, CacheLevel> level_of_;  // cache_name -> lifetime
  std::map<TaskId, TaskRuntime> tasks_;
  std::deque<TaskReport> completed_;
  std::vector<LibraryDef> libraries_;
  ManagerStats stats_;
  // Task view, worker snapshots, replica/transfer tables, lookahead and
  // redundancy state: every scheduling decision.
  control::Core core_;
  // Exposes every ManagerStats field as a gauge (registered in the
  // constructor); snapshotted into the trace by emit_counters().
  obs::MetricsRegistry metrics_;

  // Outstanding replication goals: cache_name -> desired replica count.
  std::map<FileId, int> replication_goals_;

  // Blobs that arrived for fetch_file round trips, keyed by tag.
  std::map<std::string, std::string> blob_stash_;
  std::map<std::string, proto::FileDataMsg> file_replies_;  // by request_id

  FileId next_file_id_ = 1;
  TaskId next_task_id_ = 1;
  std::uint64_t next_conn_ VINE_GUARDED_BY(conn_mutex_) = 1;
};

}  // namespace vine
