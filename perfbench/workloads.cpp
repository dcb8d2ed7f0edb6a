#include "workloads.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/taskvine.hpp"
#include "obs/trace_sink.hpp"
#include "probes.hpp"
#include "wfgen/replay.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using vine::Manager;
using vine::TaskId;
using vine::TaskReport;
using vine::TaskSpec;

// ------------------------------------------------------------ sizing ----
// No run has more task slots or worker connections than the 4 CPUs the
// benchmark was sized on.

constexpr int kCmdWorkers = 2;
constexpr double kCmdCores = 2;
constexpr int kCmdWindow = 8;        // about 2x the 4 slots
constexpr int kCmdRoundTasks = 120;  // one round of the closed loop

constexpr int kCallWorkers = 2;
constexpr double kCallCores = 2;
constexpr int kCallBurst = 2000;  // calls submitted at once per round
constexpr const char* kCallLibrary = "perfbench.echo";

constexpr int kDagWorkers = 4;
constexpr double kDagCores = 1;
constexpr int kDagWidth = 16;                       // 3 * 16 + 2 = 50 tasks
constexpr std::int64_t kDagBytesCap = 4 << 20;      // materialized bytes/file

constexpr int kSimWorkers = 500;
constexpr double kSimWorkerCores = 4;

constexpr auto kWaitTimeout = std::chrono::seconds(60);
constexpr double kHardStopSeconds = 120;  // never start a round after this

std::runtime_error failure(const std::string& what, const vine::Error& err) {
  return std::runtime_error(what + ": " + err.message);
}

// ------------------------------------------------------------- rounds ----

/// Everything one round measured. Runtime rounds fill the manager fields,
/// sim rounds the sim fields; traced rounds also fill `trace` and `proc`.
struct Round {
  bool traced = false;
  double setup_s = 0;
  double work_s = 0;
  double teardown_s = 0;
  std::int64_t tasks = 0;   ///< tasks or calls attempted
  std::int64_t failed = 0;  ///< failed, timed out, or wrong output
  double cpu_s = 0;         ///< process user+sys over the work region
  double sys_s = 0;
  double thread_cpu_s = 0;  ///< the pumping thread over the work region
  std::vector<double> latency_ms;
  std::vector<double> exec_ms;
  std::vector<double> nonexec_ms;
  std::vector<double> submit_us;
  double declare_ms = 0;
  std::int64_t input_mounts = 0;
  vine::ManagerStats manager{};
  vinesim::SimStats sim{};
  double makespan_s = 0;
  TraceFigures trace;
  ProcSampler proc;
};

/// Work-region bracket: wall, process CPU and pumping-thread CPU.
class WorkTimer {
 public:
  WorkTimer()
      : t0_(Clock::now()), cpu0_(process_cpu()), thread0_(thread_cpu_s()) {}
  void stop(Round& r) const {
    const CpuTimes cpu = process_cpu();
    r.work_s = seconds_between(t0_, Clock::now());
    r.cpu_s = (cpu.user_s - cpu0_.user_s) + (cpu.sys_s - cpu0_.sys_s);
    r.sys_s = cpu.sys_s - cpu0_.sys_s;
    r.thread_cpu_s = thread_cpu_s() - thread0_;
  }

 private:
  Clock::time_point t0_;
  CpuTimes cpu0_;
  double thread0_;
};

/// The generator side of a runtime round: submits on the application
/// thread, timing each call, and turns each wait() into latency samples
/// on the benchmark's own clock (TaskReport's submit time is on a
/// different clock than its finish time, so only finish - start is used).
class Pump {
 public:
  Pump(Manager& m, Round& r) : m_(m), r_(r) {}

  TaskId submit(TaskSpec spec) {
    const auto t0 = Clock::now();
    auto id = m_.submit(std::move(spec));
    const auto t1 = Clock::now();
    if (!id.ok()) throw failure("submit", id.error());
    r_.submit_us.push_back(seconds_between(t0, t1) * 1e6);
    submitted_at_[*id] = t1;
    ++r_.tasks;
    return *id;
  }

  TaskReport wait() {
    auto report = m_.wait(kWaitTimeout);
    const auto now = Clock::now();
    if (!report.ok()) throw failure("wait", report.error());
    auto it = submitted_at_.find(report->id);
    if (it != submitted_at_.end()) {
      const double latency_ms = seconds_between(it->second, now) * 1e3;
      const double exec_ms = (report->finished_at - report->started_at) * 1e3;
      r_.latency_ms.push_back(latency_ms);
      r_.exec_ms.push_back(exec_ms);
      r_.nonexec_ms.push_back(latency_ms - exec_ms);
      submitted_at_.erase(it);
    }
    if (r_.traced) r_.proc.sample();
    return std::move(*report);
  }

 private:
  Manager& m_;
  Round& r_;
  std::unordered_map<TaskId, Clock::time_point> submitted_at_;
};

/// A LocalCluster for one round: storage under its own directory, trace
/// sink attached when traced. Set-up is timed from create() until the
/// workers are registered (create() returns only then).
struct Deployment {
  std::shared_ptr<vine::obs::TraceSink> sink;
  std::unique_ptr<vine::LocalCluster> cluster;
  fs::path dir;

  Deployment(vine::LocalClusterConfig cc, const fs::path& dir_in, Round& r)
      : dir(dir_in) {
    if (r.traced) {
      sink = std::make_shared<vine::obs::TraceSink>(
          vine::obs::TraceSinkOptions{.retain_events = true, .jsonl_path = {}});
    }
    fs::remove_all(dir);
    fs::create_directories(dir);
    cc.root_dir = dir;
    cc.trace = sink;
    const auto t0 = Clock::now();
    auto created = vine::LocalCluster::create(std::move(cc));
    if (!created.ok()) throw failure("LocalCluster::create", created.error());
    cluster = std::move(*created);
    r.setup_s = seconds_between(t0, Clock::now());
  }

  Manager& manager() { return cluster->manager(); }

  /// end_workflow() + shutdown(), timed; then counters and trace figures.
  void teardown(Round& r) {
    r.manager = manager().stats();
    const auto t0 = Clock::now();
    manager().end_workflow();
    cluster->shutdown();
    r.teardown_s = seconds_between(t0, Clock::now());
    if (sink) add_trace(sink->events(), r.trace);
    if (r.traced) r.proc.sample_now();
  }

  ~Deployment() {
    cluster.reset();
    std::error_code ec;
    fs::remove_all(dir, ec);
  }
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
};

vine::Resources worker_resources(double cores) {
  return vine::Resources{.cores = cores, .memory_mb = 4000, .disk_mb = 20000, .gpus = 0};
}

/// Tasks, calls and library instances ask for cores only.
vine::Resources task_resources(double cores) {
  return vine::Resources{.cores = cores, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
}

std::string hex_token(vine::Rng& rng) {
  static const char* kHex = "0123456789abcdef";
  std::string s(16, '0');
  std::uint64_t v = rng.next();
  for (char& c : s) {
    c = kHex[v & 15];
    v >>= 4;
  }
  return s;
}

// ---------------------------------------------------------- cmd_window ----

/// Closed loop of no-op command tasks: kCmdWindow stay outstanding; each
/// completion is checked (exit 0) and immediately replaced.
class CmdWindow {
 public:
  explicit CmdWindow(const Options& opt) : opt_(opt) {
    vine::Rng rng(opt.seed);
    for (int i = 0; i < kCmdRoundTasks; ++i) commands_.push_back("true " + hex_token(rng));
  }

  Round round(int index, bool traced) {
    Round r;
    r.traced = traced;
    vine::LocalClusterConfig cc;
    cc.workers = kCmdWorkers;
    cc.per_worker = worker_resources(kCmdCores);
    Deployment d(std::move(cc), opt_.work_dir / ("cmd" + std::to_string(index)), r);
    Manager& m = d.manager();
    Pump pump(m, r);

    WorkTimer timer;
    std::size_t next = 0;
    auto submit_next = [&] {
      pump.submit(vine::TaskBuilder(commands_[next++]).cores(1).build());
    };
    while (next < commands_.size() && next < static_cast<std::size_t>(kCmdWindow)) {
      submit_next();
    }
    for (std::size_t done = 0; done < commands_.size(); ++done) {
      TaskReport rep = pump.wait();
      if (!rep.ok() || rep.exit_code != 0) ++r.failed;
      if (next < commands_.size()) submit_next();
    }
    timer.stop(r);
    d.teardown(r);
    return r;
  }

 private:
  const Options& opt_;
  std::vector<std::string> commands_;
};

// ---------------------------------------------------------- call_burst ----

void register_echo_library() {
  static const bool registered = [] {
    vine::LibraryBlueprint bp;
    bp.name = kCallLibrary;
    bp.init = [](const vine::FunctionContext&) -> vine::Result<vine::LibraryState> {
      return vine::LibraryState(std::make_shared<int>(0));
    };
    bp.functions["echo"] = [](const vine::LibraryState&, const std::string& args,
                              const vine::FunctionContext&) -> vine::Result<std::string> {
      return args;
    };
    vine::LibraryRegistry::instance().register_library(std::move(bp));
    return true;
  }();
  (void)registered;
}

/// A burst of FunctionCalls submitted at once over TCP; every call must
/// return its own arguments.
class CallBurst {
 public:
  explicit CallBurst(const Options& opt) : opt_(opt) {
    register_echo_library();
    vine::Rng rng(opt.seed);
    for (int i = 0; i < kCallBurst; ++i) args_.push_back(hex_token(rng) + hex_token(rng));
  }

  Round round(int index, bool traced) {
    Round r;
    r.traced = traced;
    vine::LocalClusterConfig cc;
    cc.workers = kCallWorkers;
    cc.per_worker = worker_resources(kCallCores);
    cc.manager.listen = "tcp";
    Deployment d(std::move(cc), opt_.work_dir / ("call" + std::to_string(index)), r);
    Manager& m = d.manager();
    const auto t0 = Clock::now();
    // Set-up also covers the library instances coming up on every worker.
    if (auto st = m.install_library(kCallLibrary, task_resources(0)); !st.ok()) {
      throw failure("install_library", st.error());
    }
    while (m.library_instances(kCallLibrary) < kCallWorkers) {
      if (seconds_between(t0, Clock::now()) > 60) {
        throw std::runtime_error("library instances did not come up");
      }
      m.poll(std::chrono::milliseconds(2));
    }
    r.setup_s += seconds_between(t0, Clock::now());

    Pump pump(m, r);
    WorkTimer timer;
    std::unordered_map<TaskId, std::size_t> arg_of;
    for (std::size_t i = 0; i < args_.size(); ++i) {
      arg_of[pump.submit(Manager::function_call(kCallLibrary, "echo", args_[i],
                                                task_resources(1)))] = i;
    }
    for (std::size_t done = 0; done < args_.size(); ++done) {
      TaskReport rep = pump.wait();
      auto it = arg_of.find(rep.id);
      if (!rep.ok() || it == arg_of.end() || rep.output != args_[it->second]) ++r.failed;
    }
    timer.stop(r);
    d.teardown(r);
    return r;
  }

 private:
  const Options& opt_;
  std::vector<std::string> args_;
};

// --------------------------------------------------------- dag_montage ----

/// Sandbox-safe file name (the scheme wfgen/replay.cpp uses).
std::string sandbox_name(const std::string& logical) {
  std::string out = logical;
  for (char& c : out) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_' && c != '-') {
      c = '_';
    }
  }
  return out;
}

std::int64_t capped(std::int64_t bytes) { return std::clamp<std::int64_t>(bytes, 1, kDagBytesCap); }

/// A generated montage DAG run by the benchmark's own driver over TCP with
/// the TCP peer-transfer service: external inputs are manager buffers,
/// every other file is a temp, and each task writes its outputs with
/// `head -c`. Sink outputs are fetched back and their sizes checked.
class DagMontage {
 public:
  explicit DagMontage(const Options& opt)
      : opt_(opt), inst_(vine::wfgen::generate(montage_spec(opt.seed, kDagWidth))) {
    std::map<std::string, int> consumers;
    for (const auto& t : inst_.tasks) {
      for (const auto& f : t.inputs) ++consumers[f.name];
    }
    for (const auto& t : inst_.tasks) {
      for (const auto& f : t.outputs) {
        if (!consumers.count(f.name)) sinks_.push_back(f);
      }
    }
  }

  Round round(int index, bool traced) {
    Round r;
    r.traced = traced;
    vine::LocalClusterConfig cc;
    cc.workers = kDagWorkers;
    cc.per_worker = worker_resources(kDagCores);
    cc.manager.listen = "tcp";
    cc.tweak_worker = [](vine::WorkerConfig& w) { w.tcp_transfer_service = true; };
    Deployment d(std::move(cc), opt_.work_dir / ("dag" + std::to_string(index)), r);
    Manager& m = d.manager();
    const auto t0 = Clock::now();

    // Set-up also covers declaring every file.
    std::map<std::string, vine::FileRef> refs;
    for (const auto& t : inst_.tasks) {
      for (const auto& f : t.outputs) refs.emplace(f.name, m.declare_temp());
    }
    for (const auto& t : inst_.tasks) {
      for (const auto& f : t.inputs) {
        if (refs.count(f.name)) continue;
        // Content starts with the logical name so distinct inputs never
        // collapse into one content-addressed cache object.
        std::string content = f.name + ":";
        content.resize(std::max<std::size_t>(static_cast<std::size_t>(capped(f.bytes)),
                                             content.size()),
                       'x');
        const auto d0 = Clock::now();
        refs.emplace(f.name, m.declare_buffer(std::move(content)));
        r.declare_ms += seconds_between(d0, Clock::now()) * 1e3;
      }
    }
    r.setup_s += seconds_between(t0, Clock::now());

    Pump pump(m, r);
    WorkTimer timer;
    for (const auto& t : inst_.tasks) {
      std::string command;
      for (const auto& f : t.outputs) {
        if (!command.empty()) command += " && ";
        command += "head -c " + std::to_string(capped(f.bytes)) + " /dev/zero > " +
                   sandbox_name(f.name);
      }
      vine::TaskBuilder b(command.empty() ? "true" : command);
      b.cores(std::min(t.cores, kDagCores));
      for (const auto& f : t.inputs) b.input(refs.at(f.name), sandbox_name(f.name));
      for (const auto& f : t.outputs) b.output(refs.at(f.name), sandbox_name(f.name));
      r.input_mounts += static_cast<std::int64_t>(t.inputs.size());
      pump.submit(b.build());
    }
    for (std::size_t done = 0; done < inst_.tasks.size(); ++done) {
      TaskReport rep = pump.wait();
      if (!rep.ok() || rep.exit_code != 0) ++r.failed;
    }
    timer.stop(r);

    for (const auto& f : sinks_) {
      auto bytes = m.fetch_file(refs.at(f.name), std::chrono::milliseconds(60000));
      if (!bytes.ok() || static_cast<std::int64_t>(bytes->size()) != capped(f.bytes)) {
        ++r.failed;
      }
    }
    d.teardown(r);
    return r;
  }

 private:
  const Options& opt_;
  vine::wfgen::WorkflowInstance inst_;
  std::vector<vine::wfgen::InstanceFile> sinks_;
};

// --------------------------------------------------------- sim_montage ----

/// The montage family at paper scale through the simulator with lookahead
/// scheduling. Every round regenerates the instance (set-up) and replays
/// it; the export and the virtual makespan must repeat exactly.
class SimMontage {
 public:
  explicit SimMontage(const Options& opt) : opt_(opt) {}

  Round round(int, bool traced) {
    Round r;
    r.traced = traced;
    const auto t0 = Clock::now();
    vine::wfgen::WorkflowInstance inst =
        vine::wfgen::generate(montage_spec(opt_.seed, kSimMontageWidth));
    r.setup_s = seconds_between(t0, Clock::now());
    const std::string exported = vine::wfgen::export_instance(inst);
    if (first_export_.empty()) first_export_ = exported;
    const bool same_instance = exported == first_export_;

    vine::wfgen::ReplayOptions ro;
    ro.backend = vine::wfgen::Backend::sim;
    ro.workers = kSimWorkers;
    ro.worker_cores = kSimWorkerCores;
    ro.seed = opt_.seed;
    ro.sched.lookahead.enabled = true;
    // Without retention the sink costs what the simulator's own private
    // sink costs, and its task view gives per-task virtual latencies.
    ro.trace = std::make_shared<vine::obs::TraceSink>(
        vine::obs::TraceSinkOptions{.retain_events = traced, .jsonl_path = {}});

    WorkTimer timer;
    auto result = vine::wfgen::run_workload(inst, ro);
    timer.stop(r);
    if (!result.ok()) throw failure("run_workload", result.error());

    r.tasks = static_cast<std::int64_t>(inst.tasks.size());
    r.failed = r.tasks - result->tasks_done;
    r.sim = result->sim_stats;
    r.makespan_s = result->makespan;
    for (const auto& row : ro.trace->views().tasks()) {
      r.latency_ms.push_back((row.finished_at - row.ready_at) * 1e3);
    }
    // The pumping thread is the simulator here, not a manager; and only
    // the shared scheduler's figures apply to it, the rest of the trace
    // describes simulated transfers and caches, reported as sim.*.
    r.thread_cpu_s = 0;
    if (traced) {
      TraceFigures tf;
      add_trace(ro.trace->events(), tf);
      r.trace.sched_scanned = tf.sched_scanned;
      r.trace.sched_dispatched = tf.sched_dispatched;
      r.proc.sample_now();
    }
    if (first_makespan_ < 0) first_makespan_ = r.makespan_s;
    if (!same_instance || r.makespan_s != first_makespan_) {
      r.failed = std::max<std::int64_t>(r.failed, 1);
    }
    return r;
  }

 private:
  const Options& opt_;
  std::string first_export_;
  double first_makespan_ = -1;
};

// ---------------------------------------------------------- reporting ----

constexpr double kMiB = 1024.0 * 1024.0;

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Aggregates of one field over a set of rounds.
class Rounds {
 public:
  explicit Rounds(std::vector<const Round*> rounds) : rounds_(std::move(rounds)) {}

  template <class F>
  double total(F f) const {
    double sum = 0;
    for (const Round* r : rounds_) sum += static_cast<double>(f(*r));
    return sum;
  }
  template <class F>
  double per_round(F f) const {
    return ratio(total(f), static_cast<double>(rounds_.size()));
  }
  template <class F>
  double max(F f) const {
    double m = 0;
    for (const Round* r : rounds_) m = std::max(m, static_cast<double>(f(*r)));
    return m;
  }
  template <class F>
  double median_of(F f) const {
    std::vector<double> v;
    for (const Round* r : rounds_) v.push_back(static_cast<double>(f(*r)));
    return median(std::move(v));
  }
  /// All samples of a per-round sample vector, pooled.
  template <class F>
  std::vector<double> pooled(F f) const {
    std::vector<double> out;
    for (const Round* r : rounds_) {
      const std::vector<double>& v = f(*r);
      out.insert(out.end(), v.begin(), v.end());
    }
    return out;
  }

 private:
  std::vector<const Round*> rounds_;
};

std::vector<Metric> end_to_end(const Rounds& rs) {
  const auto latency = rs.pooled([](const Round& r) -> auto& { return r.latency_ms; });
  return {
      {"setup_s", rs.median_of([](const Round& r) { return r.setup_s; }), "s"},
      {"tasks_per_s",
       rs.median_of([](const Round& r) { return ratio(r.tasks - r.failed, r.work_s); }),
       "1/s"},
      {"wall_s", rs.median_of([](const Round& r) { return r.work_s; }), "s"},
      {"latency_p50_ms", quantile(latency, 0.50), "ms"},
      {"latency_p99_ms", quantile(latency, 0.99), "ms"},
      {"cpu_ms_per_task",
       rs.median_of([](const Round& r) { return ratio(r.cpu_s * 1e3, r.tasks); }), "ms"},
      {"peak_rss_mb", vm_hwm_mb(), "MiB"},
  };
}

std::vector<Metric> per_layer(const Rounds& rs, double overhead) {
  const double tasks = rs.total([](const Round& r) { return r.tasks; });
  const double sim_done = rs.total([](const Round& r) { return r.sim.tasks_done; });
  const auto queue = rs.pooled([](const Round& r) -> auto& { return r.trace.queue_ms; });
  const auto exec = rs.pooled([](const Round& r) -> auto& { return r.exec_ms; });
  const auto xfer = rs.pooled([](const Round& r) -> auto& { return r.trace.xfer_ms; });
  return {
      {"manager.scanned_per_task",
       ratio(rs.total([](const Round& r) { return r.manager.tasks_scanned; }), tasks), "count"},
      {"manager.passes_per_task",
       ratio(rs.total([](const Round& r) { return r.manager.sched_passes; }), tasks), "count"},
      {"manager.thread_cpu_s", rs.per_round([](const Round& r) { return r.thread_cpu_s; }), "s"},
      {"manager.submit_us_p50",
       median(rs.pooled([](const Round& r) -> auto& { return r.submit_us; })), "us"},
      {"manager.queue_ms_p50", quantile(queue, 0.50), "ms"},
      {"manager.queue_ms_p99", quantile(queue, 0.99), "ms"},
      {"sched.dispatch_ratio",
       ratio(rs.total([](const Round& r) { return r.trace.sched_dispatched; }),
             rs.total([](const Round& r) { return r.trace.sched_scanned; })),
       "ratio"},
      {"worker.exec_ms_p50", quantile(exec, 0.50), "ms"},
      {"worker.exec_ms_p99", quantile(exec, 0.99), "ms"},
      {"worker.nonexec_ms_p50",
       median(rs.pooled([](const Round& r) -> auto& { return r.nonexec_ms; })), "ms"},
      {"proc.threads_peak", rs.max([](const Round& r) { return r.proc.threads_peak; }), "count"},
      {"proc.vm_peak_mb", rs.max([](const Round& r) { return r.proc.vm_peak_mb; }), "MiB"},
      {"proc.fds_peak", rs.max([](const Round& r) { return r.proc.fds_peak; }), "count"},
      {"proc.cpu_sys_s", rs.per_round([](const Round& r) { return r.sys_s; }), "s"},
      {"xfer.peer_mb",
       rs.per_round([](const Round& r) { return r.manager.bytes_from_peers; }) / kMiB, "MiB"},
      {"xfer.manager_mb",
       rs.per_round([](const Round& r) { return r.manager.bytes_from_manager; }) / kMiB, "MiB"},
      {"xfer.peer_mb_per_s",
       ratio(rs.total([](const Round& r) { return r.trace.peer_bytes; }) / kMiB,
             rs.total([](const Round& r) { return r.trace.peer_busy_s; })),
       "MiB/s"},
      {"xfer.time_ms_p99", quantile(xfer, 0.99), "ms"},
      {"xfer.failures",
       rs.per_round([](const Round& r) { return r.manager.transfer_failures; }), "count"},
      {"cache.hit_ratio",
       ratio(rs.total([](const Round& r) { return r.manager.cache_hits; }),
             rs.total([](const Round& r) { return r.input_mounts; })),
       "ratio"},
      {"cache.inserts", rs.per_round([](const Round& r) { return r.trace.cache_inserts; }),
       "count"},
      {"cache.evicts", rs.per_round([](const Round& r) { return r.trace.cache_evicts; }),
       "count"},
      {"files.declare_ms", rs.median_of([](const Round& r) { return r.declare_ms; }), "ms"},
      {"sim.scanned_per_task",
       ratio(rs.total([](const Round& r) { return r.sim.tasks_scanned; }), sim_done), "count"},
      {"sim.passes_per_task",
       ratio(rs.total([](const Round& r) { return r.sim.sched_passes; }), sim_done), "count"},
      {"sim.prefetch_hit_ratio",
       ratio(rs.total([](const Round& r) { return r.sim.prefetch_hits; }),
             rs.total([](const Round& r) { return r.sim.prefetch_issued; })),
       "ratio"},
      {"sim.prefetch_wasted_mb",
       rs.per_round([](const Round& r) { return r.sim.prefetch_wasted_bytes; }) / kMiB, "MiB"},
      {"sim.peer_mb",
       rs.per_round([](const Round& r) { return r.sim.bytes_from_peers; }) / kMiB, "MiB"},
      {"sim_makespan_s", rs.median_of([](const Round& r) { return r.makespan_s; }), "s"},
      {"teardown_s", rs.median_of([](const Round& r) { return r.teardown_s; }), "s"},
      {"trace.overhead_ratio", overhead, "ratio"},
  };
}

/// Repeat rounds until `seconds` have passed and each needed kind (plain,
/// and traced when tracing) has at least kMinRounds samples. A traced run
/// alternates plain and traced rounds so trace.overhead_ratio compares
/// rounds made under the same conditions.
template <class W>
Outcome drive(const Options& opt, W& workload) {
  constexpr int kMinRounds = 3;
  std::vector<Round> rounds;
  const auto start = Clock::now();
  int plain = 0;
  int traced = 0;
  for (int i = 0;; ++i) {
    const bool trace_this = opt.trace && i % 2 == 1;
    rounds.push_back(workload.round(i, trace_this));
    (trace_this ? traced : plain) += 1;
    const double elapsed = seconds_between(start, Clock::now());
    const bool enough = plain >= kMinRounds && (!opt.trace || traced >= kMinRounds);
    if ((elapsed >= opt.seconds && enough) || elapsed >= kHardStopSeconds) break;
  }

  Outcome out;
  std::vector<const Round*> plain_rounds;
  std::vector<const Round*> traced_rounds;
  for (const Round& r : rounds) {
    out.attempted += r.tasks;
    out.failed += r.failed;
    (r.traced ? traced_rounds : plain_rounds).push_back(&r);
  }
  out.correct = out.failed == 0;
  const Rounds plain_set(std::move(plain_rounds));
  if (!opt.trace) {
    out.metrics = end_to_end(plain_set);
  } else {
    const Rounds traced_set(std::move(traced_rounds));
    const auto work = [](const Round& r) { return r.work_s; };
    out.metrics = per_layer(traced_set, ratio(traced_set.median_of(work),
                                              plain_set.median_of(work)));
  }
  return out;
}

}  // namespace

vine::wfgen::WorkloadSpec montage_spec(std::uint64_t seed, int width) {
  vine::wfgen::WorkloadSpec spec;
  spec.shape = vine::wfgen::Shape::montage;
  spec.seed = seed;
  spec.width = width;
  spec.cores = 1;
  // Narrow distributions: the seed changes every draw, but a run's
  // figures should not hinge on one heavy-tailed task or file.
  spec.duration = vine::wfgen::Dist::uniform(10, 30);
  spec.input_bytes = vine::wfgen::Dist::lognormal(std::log(2e6), 0.05, 1e6, 4e6);
  spec.output_bytes = vine::wfgen::Dist::lognormal(std::log(2e6), 0.05, 1e6, 4e6);
  return spec;
}

Outcome run(const Options& opt) {
  if (opt.workload == "cmd_window") {
    CmdWindow w(opt);
    return drive(opt, w);
  }
  if (opt.workload == "call_burst") {
    CallBurst w(opt);
    return drive(opt, w);
  }
  if (opt.workload == "dag_montage") {
    DagMontage w(opt);
    return drive(opt, w);
  }
  if (opt.workload == "sim_montage") {
    SimMontage w(opt);
    return drive(opt, w);
  }
  throw std::invalid_argument("unknown workload '" + opt.workload + "'");
}

}  // namespace perfbench
