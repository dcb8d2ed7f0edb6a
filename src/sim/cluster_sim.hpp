// ClusterSim: a discrete-event TaskVine cluster at paper scale.
//
// The simulator hosts the same vine::control::Core the real manager runs —
// placement by cached dependencies, transfer planning with per-source
// limits, mini-task staging, lookahead, replication and loss recovery are
// one implementation — and supplies only the I/O: worker transfer queues
// and library deployment against a fair-share flow network standing in for
// the 10 GbE cluster fabric, a Panasas-like shared filesystem, and an
// external archive. It exists because Figures 9-13 need 50-500 workers
// moving hundreds of gigabytes, which a single build machine cannot host
// natively; every mechanism measured by those figures runs the same
// decision code as the real runtime in src/manager.
#pragma once

#include <deque>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "catalog/replica_table.hpp"
#include "catalog/transfer_table.hpp"
#include "common/faults.hpp"
#include "common/invariant.hpp"
#include "common/rng.hpp"
#include "control/core.hpp"
#include "factory/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "obs/views.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulation.hpp"

namespace vinesim {

struct SimConfig {
  std::uint64_t seed = 1;

  // Fabric (paper §4: 10 GbE everywhere; Panasas: 5 GB/s aggregate).
  double worker_nic_Bps = 1.25e9;
  double manager_nic_Bps = 1.25e9;
  double archive_Bps = 1.25e9;
  double sharedfs_Bps = 5e9;

  /// Local staging throughput for unpack mini-tasks (decompression is
  /// disk/CPU bound, not network bound).
  double unpack_Bps = 400e6;

  /// Width of each worker's own transfer queue (fetches beyond this wait).
  int worker_parallel_transfers = 4;

  /// Serving-efficiency knee for every data source (see FlowNetwork): a
  /// node serving more than `stream_knee` concurrent transfers gets only
  /// `stream_beta` of a stream's worth of extra capacity per stream. This
  /// is what makes unmanaged fan-out (Figure 11a/b) hurt.
  int stream_knee = 4;
  double stream_beta = 0.25;

  /// Aggregate fabric backplane (oversubscribed core switch); 0 = off.
  double backplane_Bps = 0;

  /// Manager per-dispatch overhead in seconds (§6 discusses ~1 ms/task).
  double dispatch_overhead = 0.001;

  /// Scheduling policies under test.
  vine::SchedulerConfig sched{};

  /// When true, every temp output is retrieved to the manager immediately
  /// and consumers re-fetch it from there — the "shared storage" mode of
  /// Figure 13a. When false (default), temps stay in-cluster.
  bool retrieve_temp_outputs = false;

  /// Proactive k-replication of temp outputs (the shared vine::redundancy
  /// policy; same engine the real Manager runs). Off by default — off must
  /// leave the event stream byte-identical to a build without the engine.
  vine::redundancy::RedundancyConfig redundancy{};

  /// Elastic worker pool (vine::factory): spawn "fw<N>" workers / retire
  /// idle factory-spawned ones from the factory's per-pass verdicts.
  vine::factory::FactoryConfig factory{};

  /// Cores given to each factory-spawned worker.
  double factory_worker_cores = 8;

  /// Shared event sink (emitter "sim"). When null the sim creates a private
  /// sink with full-event retention off, so the evaluation views stay
  /// available without holding a paper-scale event stream in memory; pass
  /// a sink with retention or a jsonl_path to capture the whole trace.
  std::shared_ptr<vine::obs::TraceSink> trace;
};

struct SimTask;

/// A declared file in the simulated workflow.
struct SimFile {
  std::string name;
  std::int64_t size = 0;
  enum class Origin {
    archive,   ///< external archive (URL); fetched over the archive link
    sharedfs,  ///< cluster shared filesystem
    manager,   ///< pushed by the manager (buffers, local files)
    temp,      ///< produced in-cluster by a task
    unpack,    ///< materialized at the worker by an unpack mini-task
  } origin = Origin::manager;
  const SimFile* archive_of = nullptr;  ///< unpack: the packed source
  /// For temps: the task whose outputs include this file, linked at run()
  /// start. Crash recovery walks these backlinks to re-run the ancestor
  /// chain of a lost replica.
  SimTask* producer = nullptr;
  /// For temps: the producer's declared output size, recorded at run()
  /// start. `size` stays 0 until the file is actually produced, so the
  /// lookahead DagView reads this hint to weigh not-yet-produced inputs.
  std::int64_t planned_bytes = 0;
};

/// A task in the simulated workflow.
struct SimTask {
  std::uint64_t id = 0;
  std::string category;   ///< workload phase label for the trace
  double duration = 1;    ///< execution seconds once inputs are staged
  double cores = 1;
  double submit_at = 0;   ///< manager submission time
  std::vector<const SimFile*> inputs;

  struct Output {
    SimFile* file;
    std::int64_t size;
  };
  std::vector<Output> outputs;

  std::string library;      ///< FunctionCall target; "" for plain tasks
  bool is_library = false;  ///< library-install task (internal)
  bool retrieve_outputs = false;  ///< force retrieval of outputs (Fig 13)
  std::string pin_worker;   ///< optional placement pin
};

/// Aggregate counters for the bench summaries. Scheduling, task and
/// transfer counts come from the control core (ControlStats; its
/// mini_tasks_run are the sim's unpacks); these are the sim's own.
struct SimStats : vine::control::ControlStats {
  // ---- the url fetches split by origin, and retrievals (Figure 13a) ----
  std::int64_t transfers_from_archive = 0;
  std::int64_t transfers_from_sharedfs = 0;
  std::int64_t retrievals_to_manager = 0;
  std::int64_t bytes_from_archive = 0;
  std::int64_t bytes_from_sharedfs = 0;
  std::int64_t bytes_to_manager = 0;
  int tasks_unfinished = 0;

  /// Highest concurrent transfer count observed from any worker source —
  /// must never exceed the configured worker_source_limit in supervised
  /// mode (invariant checked by the property tests).
  int max_worker_source_inflight = 0;

  // ---- fault injection (apply_fault_plan / fail_worker) ----
  int worker_crashes = 0;     ///< fail_worker teardowns executed
  int worker_rejoins = 0;     ///< crashed workers that came back
  int faults_injected = 0;    ///< fault-plan events that found a target

  // ---- elasticity (advance only when the factory is on) ----
  int factory_spawned = 0;  ///< workers the elastic factory brought up
  int factory_retired = 0;  ///< idle factory workers gracefully retired
};

class ClusterSim : private vine::control::Host {
 public:
  explicit ClusterSim(SimConfig config);

  // ------------------------------------------------ workflow building

  /// Declare a file. Names must be unique (they are cache names).
  SimFile* declare_file(std::string name, std::int64_t size,
                        SimFile::Origin origin);

  /// Declare the unpacked form of an archive file (unpack mini-task).
  SimFile* declare_unpack(const SimFile* archive, std::int64_t unpacked_size);

  /// Declare a task; attach inputs/outputs on the returned object before
  /// run(). Output files must have Origin::temp.
  SimTask* add_task(std::string category, double duration, double cores = 1,
                    double submit_at = 0);

  /// Add a worker joining at `t_join` with `cores` (its NIC from config).
  void add_worker(const std::string& id, double t_join, double cores);

  /// Install a library on every worker: `init_duration` models the
  /// expensive per-instance startup; `inputs` are staged first; instances
  /// hold `cores` for the rest of the run.
  void install_library(const std::string& name, double init_duration,
                       double cores, std::vector<const SimFile*> inputs = {});

  /// Mark a file as already cached on a worker before the run (hot-cache
  /// experiments, Figure 9b).
  void preload(const std::string& worker, const SimFile* file);

  // ------------------------------------------------ running & results

  /// Run to completion (all events drained). Returns the makespan.
  double run();

  // ------------------------------------------------ fault injection

  /// Schedule a deterministic fault plan against this cluster. Worker
  /// indices are applied modulo the worker list (add workers first). Timed
  /// crashes that would take down the last joined worker are skipped, so a
  /// plan can always converge. Call before run().
  void apply_fault_plan(const vine::faults::FaultPlan& plan);

  /// Crash a worker now: its snapshot leaves the scheduler view, running
  /// and dispatched tasks are re-queued, fetches to it are aborted and
  /// fetches *from* it fail at their destinations, its replicas vanish,
  /// and lost temps have their producer chain transitively re-queued.
  void fail_worker(const std::string& id);

  /// Bring a crashed worker back with an empty cache (libraries redeploy).
  void rejoin_worker(const std::string& id);

  /// Workers currently joined (survives crashes/rejoins).
  std::size_t joined_workers() const;

  /// Catalog and control-core consistency sweep (control::Core::audit).
  /// Chaos tests run this at quiescent points and after every crash.
  void audit(vine::AuditReport& report) const;

  /// The Figure-12 views derived from the event stream.
  const vine::obs::ViewBuilder& trace() const { return sink_->views(); }
  /// The event sink every "sim" event flows through.
  vine::obs::TraceSink& trace_sink() { return *sink_; }
  const SimStats& stats() const { return stats_; }
  double makespan() const { return makespan_; }
  Simulation& sim() { return sim_; }

 private:
  struct WorkerSim {
    vine::Resources total{
        .cores = 0, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
    NodeToken node = kInvalidNode;  ///< flow-network port; valid once joined
    double join_at = 0;
    bool joined = false;
    int active_fetches = 0;  ///< fetches currently drawing on the NIC
    int tasks_completed = 0;  ///< real-task completions (after_tasks triggers)
  };

  struct PendingFetch {
    using Kind = vine::control::Transfer::Kind;
    std::string uuid;
    const SimFile* file = nullptr;
    std::string dest;
    vine::TransferSource source;
    /// mini_task = unpack at the destination; prefetch and replica are the
    /// background class (lower priority; a replica is pinned on arrival).
    Kind kind = Kind::fetch;
    FlowId flow = 0;        ///< network fetch: the flow moving the bytes
    EventId event = 0;      ///< unpack completion / stall-timeout event
    std::uint64_t seq = 0;  ///< start order; fault victims picked by min seq
    bool corrupted = false; ///< frame_corrupt: digest check fails on arrival

    bool background() const { return kind == Kind::prefetch || kind == Kind::replica; }
    const char* label() const { return vine::control::transfer_label(kind, source.kind); }
  };

  /// Per-task simulation state; placement and task state live in core_.
  struct TaskRun {
    SimTask* task = nullptr;
    double started_at = 0;
    EventId dispatch_event = 0;    ///< pending dispatch; cancelled on crash
    EventId completion_event = 0;  ///< pending completion; cancelled on crash
  };

  // ---- control::Host: the simulated I/O behind the core's decisions ----
  bool move_bytes(const vine::control::Transfer& t) override;
  void dispatch(vine::control::TaskEntry& task) override;
  /// Tear the prefetch down now (dequeue it or cancel its flow) and write
  /// the bytes it already moved off as waste.
  void cancel_transfer(const std::string& uuid,
                       const vine::control::PrefetchTrack& track) override;
  void emit(vine::obs::Event ev) override { sink_->emit("sim", std::move(ev)); }
  double now() const override { return sim_.now(); }
  bool held_at_manager(const std::string& name) const override {
    return at_manager_.count(name) > 0;
  }
  bool arriving_at_manager(const std::string& name) const override {
    return retrieving_.count(name) > 0;
  }

  /// The FileDecl the core sees for `file`, built once and memoized.
  /// Temps carry kind temp and their producer; unpacks become mini-tasks
  /// over their archive; archive/sharedfs files are urls named by the file.
  vine::FileRef decl_of(const SimFile* file);
  /// Hand task `id` to the core (it enters the ready set now).
  void submit(std::uint64_t id);
  void worker_join(const std::string& id);
  void request_schedule();
  /// Feed the factory one pass worth of signals and execute its verdict.
  void evaluate_factory(double now);
  /// Gracefully retire a worker the core found retirable.
  void retire_worker(const std::string& id, double now);
  void enqueue_fetch(PendingFetch fetch);
  void start_next_fetches(const std::string& worker);
  void start_fetch(PendingFetch fetch);
  /// Completion path for a started fetch: looks it up by uuid (no-op when
  /// a crash already tore it down) and finishes or — when the blob arrived
  /// corrupted — fails it.
  void finish_inflight(const std::string& uuid);
  /// Failure path by uuid (stall timeout); cancels whatever is still
  /// scheduled and runs fetch_failed.
  void fail_inflight(const std::string& uuid);
  void fetch_complete(const PendingFetch& fetch);
  /// A fetch died: report it to the core (transfer_closed), free the
  /// destination's transfer slot, and schedule a retry pass when the
  /// source's backoff window closes.
  void fetch_failed(const PendingFetch& fetch);
  // ---- fault-plan handlers ----
  PendingFetch* pick_peer_victim();
  void inject_peer_fail();
  void inject_peer_stall(double timeout);
  void inject_frame_corrupt();
  void delay_running_task(double duration);
  void maybe_fire_task_triggers(const std::string& worker);
  void task_complete(std::uint64_t id);
  void retrieve_output(const SimFile* file, const std::string& worker);

  /// Expose SimStats through the MetricsRegistry and emit the final
  /// `counters` snapshot event (end of run()).
  void emit_counters();

  NodeToken source_node(const vine::TransferSource& src, const SimFile* file) const;

  SimConfig config_;
  Simulation sim_;
  FlowNetwork net_;
  // Fixed infrastructure ports, interned once at construction so the
  // fetch/retrieval hot path never does a name lookup.
  NodeToken manager_node_ = kInvalidNode;
  NodeToken archive_node_ = kInvalidNode;
  NodeToken sharedfs_node_ = kInvalidNode;
  vine::Rng rng_;
  SimStats stats_;
  // Task view, worker snapshots, replica/transfer tables, lookahead and
  // redundancy state: every scheduling decision.
  vine::control::Core core_;
  // ---- elasticity (inert while the factory config is off) ----
  vine::factory::WorkerFactory factory_;
  int next_factory_worker_ = 1;  ///< fw<N> id allocator

  std::map<std::string, std::unique_ptr<SimFile>> files_;
  std::map<const SimFile*, std::shared_ptr<vine::FileDecl>> decls_;
  std::vector<std::unique_ptr<SimTask>> tasks_;
  std::map<std::uint64_t, TaskRun> runs_;
  std::map<std::string, WorkerSim> workers_;
  std::vector<std::string> worker_order_;

  struct LibraryDef {
    std::string name;
    double init_duration;
    double cores;
    std::vector<const SimFile*> inputs;
  };
  std::vector<LibraryDef> libraries_;

  std::map<std::string, PendingFetch> inflight_;     // uuid -> fetch
  std::map<std::string, std::deque<PendingFetch>> worker_queue_;
  std::set<std::string> at_manager_;  ///< temp files retrieved to manager
  std::set<std::string> retrieving_;  ///< temp files on their way there

  // Fault-plan events with after_tasks triggers, waiting on the target
  // worker's Nth real-task completion.
  std::map<std::string, std::vector<vine::faults::FaultEvent>> task_triggers_;

  std::shared_ptr<vine::obs::TraceSink> sink_;
  vine::obs::MetricsRegistry metrics_;
  double makespan_ = 0;
  double next_dispatch_at_ = 0;
  bool pass_scheduled_ = false;
  std::uint64_t next_task_id_ = 1;
  std::uint64_t next_unpack_id_ = 1;
  std::uint64_t next_fetch_seq_ = 1;
  std::uint64_t next_retrieval_id_ = 1;
};

}  // namespace vinesim
