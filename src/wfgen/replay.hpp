// Replay a WorkflowInstance through either half of the repo from one entry
// point: run_workload(instance, options) drives vinesim::ClusterSim (virtual
// time, paper-scale fabrics, deterministic) or vine::core's LocalCluster
// (real manager/workers in-process, functional replay) with the same
// scheduler policy, redundancy, and fault knobs. Task N of the instance
// becomes task id N in both halves, and the result maps every logical file
// name to its half's cache name, so differential tests can compare the two
// event streams structurally.
//
// Runtime replay is functional, not temporal: declared runtimes are not
// slept (the sim models them), and materialized file bytes are capped by
// runtime_bytes_cap so tests stay fast. Pure control-dependency edges
// (parents sharing no file) are backed by a synthetic 1-byte file in both
// halves so the ordering is enforced identically.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/faults.hpp"
#include "obs/trace_sink.hpp"
#include "redundancy/redundancy.hpp"
#include "sched/scheduler.hpp"
#include "sim/cluster_sim.hpp"
#include "wfgen/instance.hpp"

namespace vine::wfgen {

enum class Backend : std::uint8_t {
  sim,      ///< vinesim::ClusterSim — discrete-event, deterministic
  runtime,  ///< vine::LocalCluster — real manager + in-process workers
};

struct ReplayOptions {
  Backend backend = Backend::sim;

  int workers = 8;
  double worker_cores = 4;

  /// Simulator seed; also reseeds the uuid generator before a sim run so
  /// replays are bit-deterministic.
  std::uint64_t seed = 1;

  /// Scheduling policy under test (placement, lookahead, source limits).
  SchedulerConfig sched{};

  /// Proactive k-replication (sim backend).
  redundancy::RedundancyConfig redundancy{};

  /// Deterministic fault schedule, replayed as discrete events (sim backend
  /// only; the runtime chaos harness replays plans in wall-clock time and
  /// stays in tests/chaos_test.cpp). Not owned.
  const faults::FaultPlan* faults = nullptr;

  /// Shared event sink for the run; null leaves tracing off (sim creates a
  /// private retention-free sink).
  std::shared_ptr<obs::TraceSink> trace;

  /// Pin task i (0-based instance order) to worker "w<i % workers>" in both
  /// halves — forces identical placement for differential comparisons.
  bool pin_round_robin = false;

  /// Runtime backend: cap on bytes actually materialized per file (buffer
  /// contents and output writes). Declared sizes above the cap replay at
  /// the cap; the sim backend always uses declared sizes.
  std::int64_t runtime_bytes_cap = 1 << 20;

  /// Runtime backend: per-task completion wait.
  int runtime_wait_ms = 60000;
};

struct ReplayResult {
  /// Virtual seconds (sim); wall seconds from first submit to last
  /// completion on the manager's clock (runtime).
  double makespan = 0;
  int tasks_done = 0;
  int tasks_unfinished = 0;

  /// Logical file name -> cache name in the executed half (identity for the
  /// sim; manager-assigned names for the runtime). Differential digests use
  /// this to translate transfer events back to logical names.
  std::map<std::string, std::string> cache_names;

  /// Sim backend only: the full counter block of the run.
  vinesim::SimStats sim_stats{};
};

/// Validate and replay `instance` per `options`. Errors: invalid instance,
/// cluster bring-up failure, or a task failing/timing out (runtime).
Result<ReplayResult> run_workload(const WorkflowInstance& instance,
                                  const ReplayOptions& options);

/// Parse + validate + replay a JSON instance document in one call.
Result<ReplayResult> run_workload_json(std::string_view instance_json,
                                       const ReplayOptions& options);

}  // namespace vine::wfgen
