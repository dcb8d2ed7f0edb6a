// Figure 12 — the three application case studies, each rendered as the
// paper's two views: the task view (rows = tasks, execution intervals) and
// the worker view (rows = workers, busy/transfer/idle over time).
//
//   12a/d TopEFT     — accumulation DAG over gradually arriving workers,
//                      with the real-data -> Monte-Carlo phase shift.
//   12b/e Colmena    — 1.4 GB environment spread worker-to-worker; only a
//                      handful of shared-FS reads (108 -> 3 claim).
//   12c/f BGD        — serverless library deployment ramp, then peak
//                      FunctionCall throughput.
#include <cstdio>
#include <cstring>

#include "apps/bgd.hpp"
#include "apps/colmena.hpp"
#include "apps/report.hpp"
#include "apps/topeft.hpp"

using namespace vineapps;

int main(int argc, char** argv) {
  double topeft_scale = 0.125;  // ~3.4K tasks by default; --full for ~27K
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--full")) topeft_scale = 1.0;
    if (!std::strcmp(argv[i], "--quick")) quick = true;
  }

  bool all_ok = true;

  // ------------------------------------------------------------- TopEFT
  {
    TopEftParams p;
    p.scale = quick ? 0.02 : topeft_scale;
    auto run = run_topeft(p, /*shared_storage=*/false);
    std::printf("# fig12a/d: TopEFT (%d tasks, %d workers arriving over %.0fs)\n",
                run.total_tasks, p.workers, p.worker_arrival_span);
    print_task_view("fig12a_topeft", *run.sim);
    print_worker_view("fig12d_topeft", *run.sim, 25);
    print_summary("fig12a_topeft", *run.sim);
    all_ok &= run.sim->stats().tasks_unfinished == 0;
  }

  // ------------------------------------------------------------ Colmena
  {
    ColmenaParams p;
    if (quick) {
      p.simulation_tasks = 200;
      p.inference_tasks = 50;
      p.workers = 30;
    }
    auto with_peers = run_colmena(p, /*peer_transfers=*/true);
    auto without = run_colmena(p, /*peer_transfers=*/false);
    std::printf("# fig12b/e: Colmena-XTB (%d+%d tasks, %d workers, %lldMB env)\n",
                p.inference_tasks, p.simulation_tasks, p.workers,
                static_cast<long long>(p.env_bytes / 1000000));
    print_task_view("fig12b_colmena", *with_peers.sim);
    print_worker_view("fig12e_colmena", *with_peers.sim, 25);
    print_summary("fig12b_colmena", *with_peers.sim);

    // The 108 -> 3 shared-filesystem-query claim.
    auto fs_with = with_peers.sim->stats().transfers_from_sharedfs;
    auto fs_without = without.sim->stats().transfers_from_sharedfs;
    auto peer_with = with_peers.sim->stats().transfers_from_peers;
    summary_row("fig12_colmena", "sharedfs_reads_without_peers",
                static_cast<double>(fs_without));
    summary_row("fig12_colmena", "sharedfs_reads_with_peers",
                static_cast<double>(fs_with));
    summary_row("fig12_colmena", "peer_copies", static_cast<double>(peer_with));
    all_ok &= fs_with <= p.transfer_limit && fs_without == p.workers;
  }

  // ---------------------------------------------------------------- BGD
  {
    BgdParams p;
    if (quick) {
      p.function_calls = 300;
      p.workers = 40;
    }
    auto run = run_bgd(p, /*serverless=*/true);
    std::printf("# fig12c/f: BGD serverless (%d calls, %d workers, %lldMB env)\n",
                p.function_calls, p.workers,
                static_cast<long long>(p.env_bytes / 1000000));
    print_task_view("fig12c_bgd", *run.sim);
    print_worker_view("fig12f_bgd", *run.sim, 25);
    print_summary("fig12c_bgd", *run.sim);

    // Ramp shape: throughput in the first minutes is below steady state
    // because libraries are still deploying; env staged once per worker.
    all_ok &= run.sim->stats().mini_tasks_run == p.workers;
    all_ok &= run.sim->stats().tasks_unfinished == 0;
    summary_row("fig12_bgd", "library_env_unpacks",
                static_cast<double>(run.sim->stats().mini_tasks_run));
  }

  summary_row("fig12", "shape_holds", all_ok ? "yes" : "NO");
  return all_ok ? 0 : 1;
}
