// Tests for the paper-workload generators (src/apps) at reduced scale:
// each application's headline claim must hold even on a small instance,
// which guards the bench harnesses against regressions in seconds.
#include <gtest/gtest.h>

#include "apps/bgd.hpp"
#include "apps/blast.hpp"
#include "apps/colmena.hpp"
#include "apps/envpkg.hpp"
#include "apps/filedist.hpp"
#include "apps/topeft.hpp"

namespace vineapps {
namespace {

TEST(BlastApp, HotCacheBeatsColdAndSkipsArchive) {
  BlastParams p;
  p.tasks = 200;
  p.workers = 20;
  auto cold = run_blast(p, false);
  auto hot = run_blast(p, true);
  EXPECT_EQ(cold.sim->stats().tasks_unfinished, 0);
  EXPECT_EQ(hot.sim->stats().tasks_unfinished, 0);
  EXPECT_GT(cold.makespan, hot.makespan);
  EXPECT_GT(cold.sim->stats().transfers_from_archive, 0);
  EXPECT_EQ(hot.sim->stats().transfers_from_archive, 0);
  EXPECT_EQ(hot.sim->stats().mini_tasks_run, 0);
}

TEST(BlastApp, ColdRunUnpacksOncePerWorkerPerAsset) {
  BlastParams p;
  p.tasks = 100;
  p.workers = 10;
  auto cold = run_blast(p, false);
  // Two assets (software + database), each unpacked once per worker that
  // ran tasks; never more than 2 * workers.
  EXPECT_LE(cold.sim->stats().mini_tasks_run, 2 * p.workers);
  EXPECT_GE(cold.sim->stats().mini_tasks_run, 2);
}

TEST(BlastApp, DeterministicForSeed) {
  BlastParams p;
  p.tasks = 100;
  p.workers = 10;
  auto a = run_blast(p, false);
  auto b = run_blast(p, false);
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(EnvPkgApp, SharingBeatsIndependentUnpacking) {
  EnvPkgParams p;
  p.tasks = 100;
  p.workers = 10;
  auto independent = run_envpkg(p, false);
  auto shared = run_envpkg(p, true);
  EXPECT_GT(independent.makespan, shared.makespan * 1.2);
  EXPECT_LE(shared.sim->stats().mini_tasks_run, p.workers);
  EXPECT_EQ(shared.sim->stats().tasks_unfinished, 0);
}

TEST(FileDistApp, SupervisedBeatsBothBaselines) {
  FileDistParams p;
  p.workers = 60;
  auto url = run_filedist(p, DistMode::worker_to_url);
  auto unsup = run_filedist(p, DistMode::unsupervised);
  auto sup = run_filedist(p, DistMode::supervised);
  EXPECT_LT(sup.makespan, url.makespan);
  EXPECT_LT(sup.makespan, unsup.makespan);
  // Supervised mode's peer cap is honored.
  EXPECT_LE(sup.sim->stats().max_worker_source_inflight, p.transfer_limit);
  for (auto* run : {&url, &unsup, &sup}) {
    EXPECT_EQ((*run).sim->stats().tasks_unfinished, 0);
  }
}

TEST(FileDistApp, UrlModeNeverUsesPeers) {
  FileDistParams p;
  p.workers = 30;
  auto url = run_filedist(p, DistMode::worker_to_url);
  EXPECT_EQ(url.sim->stats().transfers_from_peers, 0);
  EXPECT_EQ(url.sim->stats().transfers_from_archive, p.workers);
}

TEST(TopEftApp, InClusterAvoidsManagerTraffic) {
  TopEftParams p;
  p.scale = 0.01;
  p.worker_arrival_span = 0;
  p.workers = 20;
  auto shared = run_topeft(p, true);
  auto incluster = run_topeft(p, false);
  EXPECT_EQ(shared.sim->stats().tasks_unfinished, 0);
  EXPECT_EQ(incluster.sim->stats().tasks_unfinished, 0);
  EXPECT_EQ(shared.total_tasks, incluster.total_tasks);
  EXPECT_GT(shared.sim->stats().bytes_to_manager,
            5 * incluster.sim->stats().bytes_to_manager);
  EXPECT_LE(incluster.makespan, shared.makespan);
}

TEST(TopEftApp, AccumulationTreeShape) {
  TopEftParams p;
  p.scale = 0.01;  // 48 + 192 processors
  p.workers = 10;
  p.worker_arrival_span = 0;
  auto run = run_topeft(p, false);
  // 48 -> 3 -> 1 and 192 -> 12 -> 1 accumulators, + 1 final.
  int procs = 48 + 192;
  int accums = 3 + 1 + 12 + 1;
  EXPECT_EQ(run.total_tasks, procs + accums + 1);
}

TEST(ColmenaApp, SharedFsReadsDropToTransferLimit) {
  ColmenaParams p;
  p.inference_tasks = 30;
  p.simulation_tasks = 100;
  p.workers = 40;
  auto with_peers = run_colmena(p, true);
  auto without = run_colmena(p, false);
  EXPECT_EQ(with_peers.sim->stats().transfers_from_sharedfs, p.transfer_limit);
  EXPECT_EQ(with_peers.sim->stats().transfers_from_peers,
            p.workers - p.transfer_limit);
  EXPECT_EQ(without.sim->stats().transfers_from_sharedfs, p.workers);
  EXPECT_EQ(without.sim->stats().transfers_from_peers, 0);
}

TEST(BgdApp, ServerlessPaysInitOncePerWorker) {
  BgdParams p;
  p.function_calls = 200;
  p.workers = 20;
  auto serverless = run_bgd(p, true);
  EXPECT_EQ(serverless.sim->stats().tasks_done, p.function_calls);
  EXPECT_EQ(serverless.sim->stats().mini_tasks_run, p.workers);  // env once/worker
  EXPECT_EQ(serverless.sim->stats().tasks_unfinished, 0);
}

TEST(BgdApp, ServerlessBeatsPerTaskSetup) {
  BgdParams p;
  p.function_calls = 400;
  p.workers = 20;
  auto serverless = run_bgd(p, true);
  auto baseline = run_bgd(p, false);
  // Paying init per task instead of per worker must cost throughput.
  EXPECT_LT(serverless.makespan, baseline.makespan);
}

}  // namespace
}  // namespace vineapps
