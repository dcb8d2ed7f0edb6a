// The benchmark's four workloads. Each run repeats fixed-size rounds until
// the requested seconds have passed; every round sets its system up,
// does one unit of work and tears it down, so set-up and teardown get one
// sample per round and the reported times are medians over rounds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "wfgen/generator.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch root for worker storage; each round uses and removes a subdir.
  std::filesystem::path work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Run one workload: cmd_window, call_burst, dag_montage or sim_montage.
/// Throws std::invalid_argument for another name, and std::runtime_error
/// when the system under test cannot be brought up or stalls.
Outcome run(const Options& options);

/// The montage family both dag_montage and sim_montage draw from.
vine::wfgen::WorkloadSpec montage_spec(std::uint64_t seed, int width);

/// Montage width of sim_montage (3 * width + 2 tasks).
inline constexpr int kSimMontageWidth = 400;

}  // namespace perfbench
