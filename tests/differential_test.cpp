// Runtime <-> simulator differential test: the same two-task DAG runs on a
// real LocalCluster and on vinesim::ClusterSim, both with tracing on, and
// the two event streams must agree on the structural facts the paper's
// model cares about — the set of completed tasks, a dependency-respecting
// completion order, the worker each pinned task ran on, and which worker
// received each logical file from which source kind. Neither stream may
// record a scheduler pass that examined nothing.
//
// The DAG pins tasks to exercise all three source kinds at once:
//   task 1 @ w0:  url input U (worker downloads it)      -> source "url"
//                 buffer input B (manager pushes it)     -> source "manager"
//                 temp output T1
//   task 2 @ w1:  temp input T1 (peer transfer w0 -> w1) -> source "worker"
//                 temp output T2
// Timestamps, uuids, cache-object naming, and event interleavings are free
// to differ between the halves; everything asserted here must not. Both
// halves count through the same control core, so its ControlStats must
// agree too.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "core/taskvine.hpp"
#include "files/url_fetcher.hpp"
#include "obs/trace_sink.hpp"
#include "sim/cluster_sim.hpp"
#include "wfgen/generator.hpp"
#include "wfgen/replay.hpp"

namespace vine {
namespace {

using namespace std::chrono_literals;
using obs::Event;
using obs::EventKind;

/// (destination worker, transfer source kind) of one materialization.
using Delivery = std::pair<std::string, std::string>;

/// The structural digest both halves must agree on. `file` keys are the
/// *logical* names (U, B, T1) — callers translate their half's cache names.
struct TraceDigest {
  std::set<std::uint64_t> tasks_done;
  std::map<std::uint64_t, std::uint64_t> done_seq;    ///< task -> seq of done
  std::map<std::uint64_t, std::string> ran_on;        ///< task -> worker
  std::map<std::string, std::set<Delivery>> file_sources;  ///< file -> deliveries
  int empty_passes = 0;  ///< sched_pass events with scanned == 0
};

TraceDigest digest(const std::vector<Event>& events,
                   const std::map<std::string, std::string>& cache_to_logical) {
  TraceDigest d;
  for (const Event& ev : events) {
    if (ev.kind == EventKind::task_state && ev.state == "done") {
      d.tasks_done.insert(ev.task);
      d.done_seq[ev.task] = ev.seq;
      d.ran_on[ev.task] = ev.worker;
    }
    if (ev.kind == EventKind::transfer_end && ev.ok) {
      auto it = cache_to_logical.find(ev.file);
      if (it != cache_to_logical.end()) {
        d.file_sources[it->second].insert({ev.dest, ev.source});
      }
    }
    if (ev.kind == EventKind::sched_pass && ev.scanned == 0) ++d.empty_passes;
  }
  return d;
}

TEST(Differential, SameDagAgreesAcrossRuntimeAndSim) {
  constexpr std::int64_t kUrlBytes = 64;
  constexpr std::int64_t kBufBytes = 32;

  // ---- runtime half -------------------------------------------------------
  auto fetcher = std::make_shared<MemoryUrlFetcher>();
  fetcher->put("http://archive/u.dat", std::string(kUrlBytes, 'u'),
               /*content_md5=*/"im9vLXU=");
  auto sink = std::make_shared<obs::TraceSink>(
      obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});

  std::map<std::string, std::string> runtime_names;
  control::ControlStats rt_stats;
  {
    LocalClusterConfig cc;
    cc.workers = 2;
    cc.fetcher = fetcher;
    cc.trace = sink;
    auto cluster = LocalCluster::create(std::move(cc));
    ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
    Manager& m = (*cluster)->manager();

    auto u = m.declare_url("http://archive/u.dat");
    ASSERT_TRUE(u.ok()) << u.error().to_string();
    auto b = m.declare_buffer(std::string(kBufBytes, 'b'));
    auto t1 = m.declare_temp();
    auto t2 = m.declare_temp();

    ASSERT_TRUE(m.submit(TaskBuilder("cat u.dat b.dat > t1.dat")
                             .input(*u, "u.dat")
                             .input(b, "b.dat")
                             .output(t1, "t1.dat")
                             .pin_to_worker("w0")
                             .build())
                    .ok());
    ASSERT_TRUE(m.submit(TaskBuilder("wc -c < t1.dat > t2.dat")
                             .input(t1, "t1.dat")
                             .output(t2, "t2.dat")
                             .pin_to_worker("w1")
                             .build())
                    .ok());
    for (int i = 0; i < 2; ++i) {
      auto r = m.wait(20000ms);
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      ASSERT_TRUE(r->ok()) << r->error_message;
    }
    // Temp cache names are assigned at submit; read them before teardown.
    runtime_names[(*u)->cache_name] = "U";
    runtime_names[b->cache_name] = "B";
    runtime_names[t1->cache_name] = "T1";
    rt_stats = m.stats();
    (*cluster)->shutdown();
  }
  TraceDigest rt = digest(sink->events(), runtime_names);

  // ---- sim half -----------------------------------------------------------
  vinesim::SimConfig cfg;
  cfg.seed = 11;
  cfg.trace = std::make_shared<obs::TraceSink>(
      obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
  vinesim::ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 4);
  cs.add_worker("w1", 0, 4);

  auto* su = cs.declare_file("U", kUrlBytes, vinesim::SimFile::Origin::archive);
  auto* sb = cs.declare_file("B", kBufBytes, vinesim::SimFile::Origin::manager);
  auto* st1 = cs.declare_file("T1", 0, vinesim::SimFile::Origin::temp);
  auto* st2 = cs.declare_file("T2", 0, vinesim::SimFile::Origin::temp);

  auto* task1 = cs.add_task("command", 0.5, 1.0);
  task1->inputs = {su, sb};
  task1->outputs.push_back({st1, kUrlBytes + kBufBytes});
  task1->pin_worker = "w0";
  auto* task2 = cs.add_task("command", 0.5, 1.0);
  task2->inputs = {st1};
  task2->outputs.push_back({st2, 8});
  task2->pin_worker = "w1";

  cs.run();
  ASSERT_EQ(cs.stats().tasks_unfinished, 0);
  TraceDigest sim = digest(cfg.trace->events(),
                           {{"U", "U"}, {"B", "B"}, {"T1", "T1"}});

  // ---- the halves must agree ----------------------------------------------
  EXPECT_EQ(rt.tasks_done, sim.tasks_done);
  EXPECT_EQ(rt.tasks_done, (std::set<std::uint64_t>{1, 2}));

  // Dependency order: task 2 consumes task 1's output in both streams.
  ASSERT_TRUE(rt.done_seq.count(1) && rt.done_seq.count(2));
  EXPECT_LT(rt.done_seq.at(1), rt.done_seq.at(2));
  ASSERT_TRUE(sim.done_seq.count(1) && sim.done_seq.count(2));
  EXPECT_LT(sim.done_seq.at(1), sim.done_seq.at(2));

  // Pins were honored identically.
  EXPECT_EQ(rt.ran_on, sim.ran_on);
  EXPECT_EQ(rt.ran_on.at(1), "w0");
  EXPECT_EQ(rt.ran_on.at(2), "w1");

  // Every logical file reached the same worker from the same source kind on
  // both halves: U from the url and B from the manager to w0, T1 from a
  // peer to w1.
  const std::map<std::string, std::set<Delivery>> want = {
      {"U", {{"w0", "url"}}}, {"B", {{"w0", "manager"}}}, {"T1", {{"w1", "worker"}}}};
  EXPECT_EQ(rt.file_sources, want);
  EXPECT_EQ(sim.file_sources, want);

  // Idle passes are counted, never traced.
  EXPECT_EQ(rt.empty_passes, 0);
  EXPECT_EQ(sim.empty_passes, 0);

  // The same counts on both halves: U (64 B) from the url and B (32 B) from
  // the manager, T1 (96 B) from a peer, two tasks done, nothing failed.
  auto counts = [](const control::ControlStats& s) {
    return std::vector<std::int64_t>{s.transfers_from_url,     s.bytes_from_url,
                                     s.transfers_from_manager, s.bytes_from_manager,
                                     s.transfers_from_peers,   s.bytes_from_peers,
                                     s.tasks_done,             s.transfer_failures};
  };
  EXPECT_EQ(counts(rt_stats), counts(cs.stats()));
  EXPECT_EQ(counts(cs.stats()),
            (std::vector<std::int64_t>{1, kUrlBytes, 1, kBufBytes, 1,
                                       kUrlBytes + kBufBytes, 2, 0}));
}

// ---------------------------------------------------- generated workloads ----

// One small generated instance per shape family through both halves via the
// wfgen replay harness, with round-robin pinning forcing identical
// placement. The halves must agree on the completed task set, the worker
// each task ran on, the destination and source kind of every logical
// file's transfers, and a dependency-respecting completion order.
TEST(Differential, GeneratedWorkloadsAgreeAcrossRuntimeAndSim) {
  using wfgen::Dist;
  using wfgen::Shape;
  using wfgen::WorkloadSpec;

  std::vector<WorkloadSpec> specs;
  for (Shape shape : {Shape::chain, Shape::fanout, Shape::fanin, Shape::diamond}) {
    WorkloadSpec spec;
    spec.shape = shape;
    spec.seed = 13;
    spec.tasks = 4;  // chain length / fanout cap
    spec.width = 3;
    spec.depth = 2;
    spec.fan = 2;
    spec.duration = Dist::constant(0.2);
    spec.input_bytes = Dist::constant(64);
    spec.output_bytes = Dist::constant(128);
    specs.push_back(spec);
  }

  for (const WorkloadSpec& spec : specs) {
    SCOPED_TRACE(wfgen::to_string(spec.shape));
    const wfgen::WorkflowInstance inst = wfgen::generate(spec);

    wfgen::ReplayOptions opt;
    opt.workers = 2;
    opt.worker_cores = 4;
    opt.seed = 29;
    opt.pin_round_robin = true;

    // ---- runtime half -----------------------------------------------------
    opt.backend = wfgen::Backend::runtime;
    opt.trace = std::make_shared<obs::TraceSink>(
        obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
    auto rt_result = wfgen::run_workload(inst, opt);
    ASSERT_TRUE(rt_result.ok()) << rt_result.error().message;
    std::map<std::string, std::string> rt_names;
    for (const auto& [logical, cache] : rt_result->cache_names) {
      rt_names[cache] = logical;
    }
    TraceDigest rt = digest(opt.trace->events(), rt_names);

    // ---- sim half ---------------------------------------------------------
    opt.backend = wfgen::Backend::sim;
    opt.trace = std::make_shared<obs::TraceSink>(
        obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
    auto sim_result = wfgen::run_workload(inst, opt);
    ASSERT_TRUE(sim_result.ok()) << sim_result.error().message;
    EXPECT_EQ(sim_result->tasks_unfinished, 0);
    std::map<std::string, std::string> sim_names;
    for (const auto& [logical, cache] : sim_result->cache_names) {
      sim_names[cache] = logical;
    }
    TraceDigest sim = digest(opt.trace->events(), sim_names);

    // ---- agreement --------------------------------------------------------
    EXPECT_EQ(rt.tasks_done.size(), inst.tasks.size());
    EXPECT_EQ(rt.tasks_done, sim.tasks_done);
    EXPECT_EQ(rt.ran_on, sim.ran_on);  // round-robin pins honored identically
    EXPECT_EQ(rt.file_sources, sim.file_sources);
    EXPECT_EQ(rt.empty_passes, 0);
    EXPECT_EQ(sim.empty_passes, 0);

    // Dependency-respecting completion order in both halves: every parent's
    // done event precedes its child's. Task N of the instance is id N.
    std::map<std::string, std::uint64_t> task_ids;
    for (std::size_t i = 0; i < inst.tasks.size(); ++i) {
      task_ids[inst.tasks[i].id] = i + 1;
    }
    for (const auto& t : inst.tasks) {
      for (const std::string& parent : t.parents) {
        const std::uint64_t p = task_ids.at(parent), c = task_ids.at(t.id);
        ASSERT_TRUE(rt.done_seq.count(p) && rt.done_seq.count(c));
        EXPECT_LT(rt.done_seq.at(p), rt.done_seq.at(c))
            << parent << " -> " << t.id << " (runtime)";
        ASSERT_TRUE(sim.done_seq.count(p) && sim.done_seq.count(c));
        EXPECT_LT(sim.done_seq.at(p), sim.done_seq.at(c))
            << parent << " -> " << t.id << " (sim)";
      }
    }
  }
}

}  // namespace
}  // namespace vine
