// Property tests for the seeded workflow generator and the versioned
// instance format (src/wfgen):
//   * determinism — the same spec always exports byte-identical JSON, and
//     import(export(x)) round-trips to the same bytes;
//   * structure — across hundreds of random specs every generated DAG is
//     acyclic (validate()), every duration/size is strictly positive, and
//     exactly one childless task exists, so (by acyclicity) every task has
//     a path to that single sink;
//   * importer rejection — malformed instances (cycle, dangling parent,
//     negative bytes, duplicate id, bad version, truncated JSON) come back
//     as line-numbered errors whose line actually contains the offending
//     construct, never an assert;
//   * chaos replay — a generated instance replayed through the simulator
//     under a seeded FaultPlan is bit-deterministic across reruns.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/faults.hpp"
#include "common/rng.hpp"
#include "obs/schema.hpp"
#include "obs/trace_sink.hpp"
#include "wfgen/generator.hpp"
#include "wfgen/instance.hpp"
#include "wfgen/replay.hpp"

namespace vine::wfgen {
namespace {

constexpr int kRandomSpecs = 200;

/// A random but valid spec drawn from `rng` (sizes kept modest so the 200
/// instances stay cheap to build and serialize).
WorkloadSpec random_spec(Rng& rng) {
  WorkloadSpec spec;
  spec.shape = kAllShapes[rng.below(std::size(kAllShapes))];
  spec.seed = rng.next();
  spec.tasks = static_cast<int>(rng.range(1, 40));
  spec.width = static_cast<int>(rng.range(1, 8));
  spec.depth = static_cast<int>(rng.range(1, 5));
  spec.fan = static_cast<int>(rng.range(2, 4));
  spec.cores = rng.chance(0.5) ? 1.0 : 2.0;
  switch (rng.below(3)) {
    case 0:
      spec.duration = Dist::lognormal(2.0, 1.5, 0.01, 3600);
      break;
    case 1:
      spec.duration = Dist::exponential(30.0);
      break;
    default:
      spec.duration = Dist::uniform(0.5, 90.0);
      break;
  }
  spec.input_bytes = Dist::pareto(1e6, 1.4, 1e3, 1e9);
  spec.output_bytes = rng.chance(0.5) ? Dist::pareto(2e6, 1.2, 1e3, 1e9)
                                      : Dist::lognormal(14.0, 2.0, 1e3, 1e9);
  return spec;
}

/// Childless tasks under the parent-edge relation. Data edges always imply
/// a parent edge (validate() enforces producer-among-parents), so this is
/// the full child relation.
std::vector<std::string> childless_tasks(const WorkflowInstance& inst) {
  std::set<std::string> has_child;
  for (const InstanceTask& t : inst.tasks) {
    for (const std::string& p : t.parents) has_child.insert(p);
  }
  std::vector<std::string> out;
  for (const InstanceTask& t : inst.tasks) {
    if (!has_child.count(t.id)) out.push_back(t.id);
  }
  return out;
}

TEST(WfGen, SameSeedExportsByteIdenticalJson) {
  Rng rng(2026);
  for (int i = 0; i < kRandomSpecs; ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const WorkloadSpec spec = random_spec(rng);
    const std::string a = export_instance(generate(spec));
    const std::string b = export_instance(generate(spec));
    ASSERT_EQ(a, b) << "same spec produced different bytes";

    // And a different seed produces a different workload (no accidental
    // seed-independence): durations/sizes must diverge somewhere.
    WorkloadSpec other = spec;
    other.seed = spec.seed + 1;
    EXPECT_NE(a, export_instance(generate(other)));
  }
}

TEST(WfGen, GeneratedDagsAreValidPositiveAndSinkConnected) {
  Rng rng(77);
  for (int i = 0; i < kRandomSpecs; ++i) {
    const WorkloadSpec spec = random_spec(rng);
    SCOPED_TRACE("spec " + std::to_string(i) + " shape " +
                 to_string(spec.shape) + " seed " + std::to_string(spec.seed));
    const WorkflowInstance inst = generate(spec);

    auto valid = inst.validate();  // includes acyclicity (Kahn)
    ASSERT_TRUE(valid.ok()) << valid.error().message;
    ASSERT_FALSE(inst.tasks.empty());

    for (const InstanceTask& t : inst.tasks) {
      EXPECT_GT(t.runtime_s, 0.0) << t.id;
      EXPECT_GT(t.cores, 0.0) << t.id;
      for (const InstanceFile& f : t.inputs) EXPECT_GT(f.bytes, 0) << f.name;
      for (const InstanceFile& f : t.outputs) EXPECT_GT(f.bytes, 0) << f.name;
    }

    // Exactly one childless task: combined with acyclicity, every task's
    // child chain terminates, and it can only terminate at the sink.
    auto sinks = childless_tasks(inst);
    ASSERT_EQ(sinks.size(), 1u)
        << "expected a single sink, got " << sinks.size();
  }
}

TEST(WfGen, ImportExportRoundTripsByteIdentically) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    const std::string text = export_instance(generate(random_spec(rng)));
    auto imported = import_instance(text);
    ASSERT_TRUE(imported.ok()) << imported.error().message;
    EXPECT_EQ(export_instance(*imported), text);
  }
}

TEST(WfGen, DistSamplesRespectClampsAndStayPositive) {
  Rng rng(9);
  const Dist dists[] = {
      Dist::lognormal(3.0, 1.0, 0.05, 7200), Dist::pareto(2e6, 1.3, 1e4, 4e9),
      Dist::exponential(10.0),               Dist::uniform(1.0, 5.0),
      Dist::constant(42.0),
  };
  for (const Dist& d : dists) {
    for (int i = 0; i < 1000; ++i) {
      const double v = d.sample(rng);
      EXPECT_GT(v, 0.0);
      if (d.min > 0) EXPECT_GE(v, d.min);
      if (d.max > 0) EXPECT_LE(v, d.max);
    }
  }
}

// --------------------------------------------------------- importer side ----

/// A tiny valid instance (a -> b via a data file) to mutate.
WorkflowInstance tiny_instance() {
  WorkflowInstance inst;
  inst.name = "tiny";
  InstanceTask a;
  a.id = "a";
  a.category = "stage";
  a.inputs.push_back({"ext", 100});
  a.outputs.push_back({"mid", 200});
  InstanceTask b;
  b.id = "b";
  b.category = "stage";
  b.parents = {"a"};
  b.inputs.push_back({"mid", 200});
  b.outputs.push_back({"out", 300});
  inst.tasks = {a, b};
  return inst;
}

/// Expect `text` to be rejected with "line N: ...<needle>..." where line N
/// of `text` actually contains `on_line` (the offending construct).
void expect_rejected(const std::string& text, const std::string& needle,
                     const std::string& on_line) {
  auto r = import_instance(text);
  ASSERT_FALSE(r.ok()) << "importer accepted a malformed instance";
  const std::string& msg = r.error().message;
  ASSERT_EQ(msg.rfind("line ", 0), 0) << "error not line-numbered: " << msg;
  EXPECT_NE(msg.find(needle), std::string::npos) << msg;

  std::size_t line = std::strtoull(msg.c_str() + 5, nullptr, 10);
  ASSERT_GE(line, 1u) << msg;
  std::size_t start = 0;
  for (std::size_t i = 1; i < line; ++i) {
    start = text.find('\n', start);
    ASSERT_NE(start, std::string::npos) << "line " << line << " out of range";
    ++start;
  }
  std::size_t end = text.find('\n', start);
  const std::string line_text = text.substr(start, end - start);
  EXPECT_NE(line_text.find(on_line), std::string::npos)
      << "line " << line << " (\"" << line_text << "\") does not mention \""
      << on_line << "\": " << msg;
}

TEST(WfGenImport, RejectsCycleWithLineNumber) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[0].parents = {"b"};  // a <-> b
  expect_rejected(export_instance(inst), "dependency cycle", "a");
}

TEST(WfGenImport, RejectsDanglingParentWithLineNumber) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[1].parents = {"ghost"};
  expect_rejected(export_instance(inst), "unknown parent", "ghost");
}

TEST(WfGenImport, RejectsNegativeBytesWithLineNumber) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[0].inputs[0].bytes = -5;
  expect_rejected(export_instance(inst), "negative sizeInBytes", "ext");
}

TEST(WfGenImport, RejectsDuplicateTaskIdWithLineNumber) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[1].id = "a";
  inst.tasks[1].parents.clear();
  expect_rejected(export_instance(inst), "duplicate task id", "a");
}

TEST(WfGenImport, RejectsConflictingFileSizes) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[1].inputs[0].bytes = 999;  // producer says 200
  expect_rejected(export_instance(inst), "conflicting", "mid");
}

TEST(WfGenImport, RejectsUnsupportedVersionWithLineNumber) {
  std::string text = export_instance(tiny_instance());
  const std::string from = "\"version\": 1";
  text.replace(text.find(from), from.size(), "\"version\": 99");
  expect_rejected(text, "unsupported instance version", "version");
}

TEST(WfGenImport, RejectsTruncatedJsonWithLineNumber) {
  std::string text = export_instance(tiny_instance());
  text.resize(text.size() / 2);
  auto r = import_instance(text);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().message.rfind("line ", 0), 0) << r.error().message;
}

TEST(WfGenImport, RejectsNonParentProducerConsumption) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[1].parents.clear();  // b consumes "mid" but no longer lists a
  expect_rejected(export_instance(inst), "not among its parents", "b");
}

// ------------------------------------------------------------ replay side ----

std::vector<std::string> sim_trace_lines(const WorkflowInstance& inst,
                                         const faults::FaultPlan& plan) {
  ReplayOptions opt;
  opt.backend = Backend::sim;
  opt.workers = 4;
  opt.worker_cores = 4;
  opt.seed = 5;
  opt.faults = &plan;
  opt.trace = std::make_shared<obs::TraceSink>(
      obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});

  auto result = run_workload(inst, opt);
  EXPECT_TRUE(result.ok()) << result.error().message;
  if (result.ok()) EXPECT_EQ(result->tasks_unfinished, 0);

  std::vector<std::string> lines;
  for (const auto& ev : opt.trace->events()) {
    lines.push_back(obs::event_to_jsonl(ev));
  }
  return lines;
}

TEST(WfGenReplay, ChaosReplayIsBitDeterministic) {
  WorkloadSpec spec;
  spec.shape = Shape::diamond;
  spec.seed = 11;
  spec.width = 5;
  spec.duration = Dist::uniform(0.2, 1.5);
  spec.input_bytes = Dist::constant(50e6);
  spec.output_bytes = Dist::constant(80e6);
  const WorkflowInstance inst = generate(spec);

  faults::FaultPlanConfig fp;
  fp.seed = 21;
  fp.workers = 4;
  fp.horizon = 4.0;
  fp.crashes = 2;
  fp.peer_faults = 2;
  fp.delays = 1;
  fp.rejoin_mean = 1.0;
  fp.stall_timeout = 0.5;
  const auto plan = faults::FaultPlan::generate(fp);

  const auto first = sim_trace_lines(inst, plan);
  const auto second = sim_trace_lines(inst, plan);
  ASSERT_FALSE(first.empty());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ASSERT_EQ(first[i], second[i]) << "trace diverges at event " << i;
  }
}

TEST(WfGenReplay, EveryShapeRunsToCompletionInSim) {
  for (Shape shape : kAllShapes) {
    SCOPED_TRACE(to_string(shape));
    WorkloadSpec spec;
    spec.shape = shape;
    spec.seed = 4;
    spec.tasks = 10;
    spec.width = 4;
    spec.depth = 2;
    spec.input_bytes = Dist::constant(1e6);
    spec.output_bytes = Dist::constant(2e6);

    ReplayOptions opt;
    opt.workers = 4;
    auto result = run_workload(generate(spec), opt);
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result->tasks_unfinished, 0);
    EXPECT_GT(result->makespan, 0.0);
  }
}

TEST(WfGenReplay, RuntimeMakespanCoversEveryTask) {
  WorkloadSpec spec;
  spec.shape = Shape::diamond;
  spec.seed = 6;
  spec.width = 3;
  spec.input_bytes = Dist::constant(1e4);
  spec.output_bytes = Dist::constant(1e4);

  ReplayOptions opt;
  opt.backend = Backend::runtime;
  opt.workers = 2;
  opt.trace = std::make_shared<obs::TraceSink>(
      obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
  auto result = run_workload(generate(spec), opt);
  ASSERT_TRUE(result.ok()) << result.error().message;

  // Each task's dispatch-to-done span on the manager's clock lies inside
  // the replay, so the makespan must cover the longest one.
  std::map<std::uint64_t, double> dispatched;
  double longest = 0;
  for (const auto& ev : opt.trace->events()) {
    if (ev.kind != obs::EventKind::task_state) continue;
    if (ev.state == "dispatched") dispatched[ev.task] = ev.t;
    if (ev.state == "done" && dispatched.count(ev.task)) {
      longest = std::max(longest, ev.t - dispatched[ev.task]);
    }
  }
  EXPECT_GT(longest, 0.0);
  EXPECT_GT(result->makespan, 0.0);
  EXPECT_GE(result->makespan, longest);
}

TEST(WfGenReplay, RejectsInvalidInstance) {
  WorkflowInstance inst = tiny_instance();
  inst.tasks[0].parents = {"b"};
  ReplayOptions opt;
  auto result = run_workload(inst, opt);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.error().message.find("cycle"), std::string::npos);
}

}  // namespace
}  // namespace vine::wfgen
