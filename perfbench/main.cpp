// vine_perfbench — end-to-end benchmark driver.
//
//   vine_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//   vine_perfbench --export-instance --seed N
//
// The first form runs one workload and prints one "name value unit" line
// per metric, then, as the last line, one JSON object:
//   {"correct": B, "attempted": N, "failed": N, "metrics": {NAME: {"value": V, "unit": U}}}
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The second form prints the sim_montage workflow instance for the seed.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"
#include "wfgen/instance.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: vine_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--work-dir DIR]\n"
               "       vine_perfbench --export-instance --seed N\n");
  return 2;
}

bool parse_uint(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') return false;
  *out = v;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.work_dir = "perfbench-work";
  bool export_instance = false;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--export-instance") {
      export_instance = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (arg == "--workload") {
      opt.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_uint(value, &n)) {
      opt.seed = n;
    } else if (arg == "--seconds" && parse_uint(value, &n) && n >= 1 && n <= 3600) {
      opt.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_uint(value, &n) && n <= 1) {
      opt.trace = n == 1;
    } else if (arg == "--work-dir") {
      opt.work_dir = value;
    } else {
      return usage();
    }
  }

  if (export_instance) {
    const auto inst = vine::wfgen::generate(
        perfbench::montage_spec(opt.seed, perfbench::kSimMontageWidth));
    std::fputs(vine::wfgen::export_instance(inst).c_str(), stdout);
    return 0;
  }
  if (!have_workload) return usage();

  perfbench::Outcome out;
  try {
    out = perfbench::run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vine_perfbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  bool finite = true;
  std::string metrics;
  for (const auto& m : out.metrics) {
    finite = finite && std::isfinite(m.value);
    std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.correct && finite;
  std::printf("%-26s %lld of %lld\n", "failed", static_cast<long long>(out.failed),
              static_cast<long long>(out.attempted));
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {" + metrics + "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
