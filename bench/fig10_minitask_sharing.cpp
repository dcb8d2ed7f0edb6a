// Figure 10 — independent per-task environment unpacking vs a shared
// unpack mini-task.
//
// Paper claim: 1000 ten-second tasks needing a 610 MB package finish much
// faster when a mini-task unpacks the environment once per worker instead
// of each task expanding it itself.
#include <cstdio>
#include <cstring>

#include "apps/envpkg.hpp"
#include "apps/report.hpp"

using namespace vineapps;

int main(int argc, char** argv) {
  EnvPkgParams params;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--quick")) {
      params.tasks = 200;
      params.workers = 10;
    }
  }

  std::printf("# fig10: independent tasks vs shared mini-tasks (%d tasks, %d workers, %lldMB package)\n",
              params.tasks, params.workers,
              static_cast<long long>(params.package_bytes / 1000000));

  auto independent = run_envpkg(params, /*shared=*/false);
  auto shared = run_envpkg(params, /*shared=*/true);

  print_completion_curve("fig10a_independent", *independent.sim);
  print_completion_curve("fig10b_shared", *shared.sim);
  print_worker_view("fig10a_independent", *independent.sim, 10);
  print_worker_view("fig10b_shared", *shared.sim, 10);
  print_summary("fig10a_independent", *independent.sim);
  print_summary("fig10b_shared", *shared.sim);

  double speedup = independent.makespan / shared.makespan;
  summary_row("fig10", "independent_makespan_s", independent.makespan);
  summary_row("fig10", "shared_makespan_s", shared.makespan);
  summary_row("fig10", "speedup_from_sharing", speedup);
  summary_row("fig10", "unpacks_shared_mode",
              static_cast<double>(shared.sim->stats().mini_tasks_run));

  // Shape: sharing wins clearly; one unpack per worker, not per task.
  bool shape_ok = speedup > 1.5 &&
                  shared.sim->stats().mini_tasks_run <= params.workers;
  summary_row("fig10", "shape_holds", shape_ok ? "yes" : "NO");
  return shape_ok ? 0 : 1;
}
