// Unit tests for src/sim: event queue, fair-share flow network, trace
// recording, and the cluster simulator's core behaviours (placement,
// caching, transfer limits, libraries, retrieval modes).
#include <gtest/gtest.h>

#include <cstdint>

#include "obs/views.hpp"
#include "sim/cluster_sim.hpp"
#include "sim/flow_network.hpp"
#include "sim/simulation.hpp"

namespace vinesim {
namespace {

using vine::obs::WorkerState;

// ------------------------------------------------------------ Simulation

TEST(Simulation, EventsFireInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.at(2.0, [&] { order.push_back(2); });
  sim.at(1.0, [&] { order.push_back(1); });
  sim.at(3.0, [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 3.0);
}

TEST(Simulation, SimultaneousEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.at(1.0, [&order, i] { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, EventsScheduleMoreEvents) {
  Simulation sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 10) sim.after(1.0, chain);
  };
  sim.at(0.0, chain);
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_EQ(sim.now(), 9.0);
}

TEST(Simulation, CancelPreventsFiring) {
  Simulation sim;
  bool fired = false;
  auto id = sim.at(1.0, [&] { fired = true; });
  sim.cancel(id);
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelledEventDoesNotAdvanceClock) {
  // A cancelled event's stale heap entry is discarded without the clock
  // ever visiting its timestamp.
  Simulation sim;
  auto id = sim.at(5.0, [] {});
  double seen = -1;
  sim.at(2.0, [&] { seen = sim.now(); });
  sim.cancel(id);
  sim.run();
  EXPECT_EQ(seen, 2.0);
  EXPECT_EQ(sim.now(), 2.0);  // never advanced to the cancelled t=5
}

TEST(Simulation, CancelOfFiredOrBogusIdsLeavesNoResidue) {
  // Cancelling an already-fired event or a garbage id must be a no-op:
  // no permanent tombstone, no pending-count drift, no pool growth.
  Simulation sim;
  int fired = 0;
  auto id = sim.at(1.0, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);

  sim.cancel(id);                // already fired
  sim.cancel(id);                // twice
  sim.cancel(0);                 // never a valid id
  sim.cancel(~std::uint64_t{0});  // out-of-range slot
  EXPECT_EQ(sim.pending(), 0u);

  // The slot is genuinely free again: new events reuse it and fire.
  auto id2 = sim.at(2.0, [&] { ++fired; });
  EXPECT_NE(id2, id);  // generation stamp distinguishes reincarnations
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, ScheduleCancelChurnKeepsPoolBounded) {
  // The old core kept every cancelled id in a tombstone set forever; the
  // slot pool must instead stay bounded by peak concurrency under churn.
  Simulation sim;
  for (int round = 0; round < 10000; ++round) {
    auto a = sim.at(1.0, [] {});
    auto b = sim.at(1.0, [] {});
    sim.cancel(a);
    sim.cancel(b);
    sim.cancel(a);  // double-cancel mixed in
  }
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_LE(sim.slot_pool_size(), 2u);
  sim.run();
  EXPECT_EQ(sim.now(), 0.0);  // nothing live, nothing fired, no clock motion
}

TEST(Simulation, RunUntilBound) {
  Simulation sim;
  int fired = 0;
  sim.at(1.0, [&] { ++fired; });
  sim.at(5.0, [&] { ++fired; });
  sim.run(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 2.0);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, PastTimeClampsToNow) {
  Simulation sim;
  double fired_at = -1;
  sim.at(5.0, [&] {
    sim.at(1.0, [&] { fired_at = sim.now(); });  // in the past -> now
  });
  sim.run();
  EXPECT_EQ(fired_at, 5.0);
}

// ------------------------------------------------------------ FlowNetwork

TEST(FlowNetwork, SingleFlowFullBandwidth) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("a", 100.0, 100.0);
  net.add_node("b", 100.0, 100.0);
  double done_at = -1;
  net.start_flow("a", "b", 1000, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);  // 1000 bytes at 100 B/s
}

TEST(FlowNetwork, SlowerPortGoverns) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("fast", 1000.0, 1000.0);
  net.add_node("slow", 10.0, 10.0);
  double done_at = -1;
  net.start_flow("fast", "slow", 100, [&] { done_at = sim.now(); });
  sim.run();
  EXPECT_NEAR(done_at, 10.0, 1e-6);  // ingress 10 B/s dominates
}

TEST(FlowNetwork, SourceSharedByTwoFlows) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("src", 100.0, 100.0);
  net.add_node("d1", 1000.0, 1000.0);
  net.add_node("d2", 1000.0, 1000.0);
  double t1 = -1, t2 = -1;
  net.start_flow("src", "d1", 500, [&] { t1 = sim.now(); });
  net.start_flow("src", "d2", 500, [&] { t2 = sim.now(); });
  sim.run();
  // Both share 100 B/s egress -> 50 each -> 10s.
  EXPECT_NEAR(t1, 10.0, 1e-6);
  EXPECT_NEAR(t2, 10.0, 1e-6);
}

TEST(FlowNetwork, BandwidthReallocatedWhenFlowEnds) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("src", 100.0, 100.0);
  net.add_node("d1", 1000.0, 1000.0);
  net.add_node("d2", 1000.0, 1000.0);
  double t_small = -1, t_big = -1;
  net.start_flow("src", "d1", 100, [&] { t_small = sim.now(); });  // small
  net.start_flow("src", "d2", 600, [&] { t_big = sim.now(); });    // big
  sim.run();
  // Phase 1: 50 B/s each. Small done at t=2 (100/50). Big then has 100 B/s
  // with 500 left -> done at 2 + 5 = 7.
  EXPECT_NEAR(t_small, 2.0, 1e-6);
  EXPECT_NEAR(t_big, 7.0, 1e-6);
}

TEST(FlowNetwork, HotspotManyReadersFromOneSource) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("hot", 100.0, 100.0);
  constexpr int kN = 20;
  std::vector<double> done(kN, -1);
  for (int i = 0; i < kN; ++i) {
    net.add_node("w" + std::to_string(i), 100.0, 100.0);
  }
  for (int i = 0; i < kN; ++i) {
    net.start_flow("hot", "w" + std::to_string(i), 100,
                   [&done, i, &sim] { done[i] = sim.now(); });
  }
  sim.run();
  // All 20 share 100 B/s: each gets 5 B/s -> 20s. 20x worse than solo.
  for (double t : done) EXPECT_NEAR(t, 20.0, 1e-6);
}

TEST(FlowNetwork, UnknownNodeRejected) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("a", 1, 1);
  EXPECT_EQ(net.start_flow("a", "ghost", 10, [] {}), 0u);
  EXPECT_EQ(net.start_flow("ghost", "a", 10, [] {}), 0u);
}

TEST(FlowNetwork, BytesAccounting) {
  Simulation sim;
  FlowNetwork net(sim);
  net.add_node("a", 10, 10);
  net.add_node("b", 10, 10);
  net.start_flow("a", "b", 100, [] {});
  net.start_flow("a", "b", 50, [] {});
  sim.run();
  EXPECT_EQ(net.bytes_sent_from("a"), 150);
  EXPECT_EQ(net.active_flows(), 0u);
}

// ------------------------------------------------------------ Trace
//
// The old sim-only TraceRecorder became a derivation over vine::obs events
// (ViewBuilder). These tests keep the historical behavior pinned through
// the event-driven path.

using vine::obs::Event;
using vine::obs::ViewBuilder;

TEST(Trace, TimelineStates) {
  ViewBuilder vb;
  vb.apply(Event::make_worker_join(0, "w"));
  vb.apply(Event::make_transfer_begin(1, "f", "manager", "", "w", "w", 10, "x1"));
  vb.apply(Event::make_transfer_end(3, "f", "manager", "", "w", "w", 10, "x1", true));
  vb.apply(Event::make_task_state(3, 1, "running", "w", "x"));
  vb.apply(Event::make_task_state(7, 1, "done", "w", "x"));
  auto tl = vb.timelines(10.0);
  ASSERT_TRUE(tl.count("w"));
  const auto& ivs = tl["w"];
  ASSERT_EQ(ivs.size(), 4u);
  EXPECT_EQ(ivs[0].state, WorkerState::idle);      // 0-1
  EXPECT_EQ(ivs[1].state, WorkerState::transfer);  // 1-3
  EXPECT_EQ(ivs[2].state, WorkerState::busy);      // 3-7
  EXPECT_EQ(ivs[3].state, WorkerState::idle);      // 7-10
  EXPECT_EQ(ivs[3].end, 10.0);
}

TEST(Trace, BusyDominatesTransfer) {
  ViewBuilder vb;
  vb.apply(Event::make_worker_join(0, "w"));
  vb.apply(Event::make_transfer_begin(0, "f", "manager", "", "w", "w", 10, "x1"));
  vb.apply(Event::make_task_state(1, 1, "running", "w", "x"));
  vb.apply(Event::make_task_state(2, 1, "done", "w", "x"));
  vb.apply(Event::make_transfer_end(3, "f", "manager", "", "w", "w", 10, "x1", true));
  auto u = vb.utilization("w", 3.0);
  EXPECT_NEAR(u.transfer, 2.0, 1e-9);  // 0-1 and 2-3
  EXPECT_NEAR(u.busy, 1.0, 1e-9);
  EXPECT_NEAR(u.idle, 0.0, 1e-9);
}

TEST(Trace, CompletionCurveSorted) {
  ViewBuilder vb;
  vb.apply(Event::make_task_state(5.0, 1, "done", "w", "x"));
  vb.apply(Event::make_task_state(2.0, 2, "done", "w", "x"));
  vb.apply(Event::make_task_state(9.0, 3, "failed", "w", "x", false));  // excluded
  auto c = vb.completion_times();
  EXPECT_EQ(c, (std::vector<double>{2.0, 5.0}));
}

TEST(Trace, OpenTransferFlushedAtHorizon) {
  // Regression for the old trace.cpp defect: a worker still mid-transfer at
  // sim end lost its final interval (and changes past t_end overshot it).
  ViewBuilder vb;
  vb.apply(Event::make_worker_join(0, "w"));
  vb.apply(Event::make_transfer_begin(4, "f", "worker", "p", "w", "w", 10, "x1"));
  // The end lands after the horizon we render at.
  vb.apply(Event::make_transfer_end(12, "f", "worker", "p", "w", "w", 10, "x1", true));
  auto tl = vb.timelines(8.0);
  ASSERT_TRUE(tl.count("w"));
  const auto& ivs = tl["w"];
  ASSERT_EQ(ivs.size(), 2u);
  EXPECT_EQ(ivs[0].state, WorkerState::idle);
  EXPECT_EQ(ivs[1].state, WorkerState::transfer);  // flushed 4-8, not dropped
  EXPECT_EQ(ivs[1].begin, 4.0);
  EXPECT_EQ(ivs[1].end, 8.0);  // clamped at the horizon, no overshoot
  auto u = vb.utilization("w", 8.0);
  EXPECT_NEAR(u.transfer, 4.0, 1e-9);
  EXPECT_NEAR(u.idle, 4.0, 1e-9);
}

// ------------------------------------------------------------ ClusterSim

SimConfig fast_config() {
  SimConfig cfg;
  cfg.dispatch_overhead = 0;  // most tests want exact arithmetic
  return cfg;
}

TEST(ClusterSim, SingleTaskRuns) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 4);
  cs.add_task("t", 10.0);
  double makespan = cs.run();
  EXPECT_NEAR(makespan, 10.0, 1e-6);
  EXPECT_EQ(cs.stats().tasks_done, 1);
  EXPECT_EQ(cs.stats().tasks_unfinished, 0);
}

TEST(ClusterSim, SchedCountersAdvance) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 4);
  for (int i = 0; i < 3; ++i) cs.add_task("t", 1.0);
  cs.run();
  EXPECT_GE(cs.stats().sched_passes, 1);
  // Every task is scanned at least once before it dispatches; once
  // dispatched it leaves the ready queue and costs no further scans.
  EXPECT_GE(cs.stats().tasks_scanned, 3);
}

TEST(ClusterSim, TasksPackByCores) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 2);  // two cores
  for (int i = 0; i < 4; ++i) cs.add_task("t", 10.0, 1.0);
  double makespan = cs.run();
  // 4 single-core 10s tasks on 2 cores -> 2 waves -> 20s.
  EXPECT_NEAR(makespan, 20.0, 1e-6);
}

TEST(ClusterSim, InputStagingDelaysExecution) {
  SimConfig cfg = fast_config();
  cfg.worker_nic_Bps = 100;
  cfg.archive_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 4);
  auto* f = cs.declare_file("data", 1000, SimFile::Origin::archive);
  auto* t = cs.add_task("t", 5.0);
  t->inputs.push_back(f);
  double makespan = cs.run();
  // 10s transfer (1000B @ 100B/s) + 5s run.
  EXPECT_NEAR(makespan, 15.0, 1e-6);
  EXPECT_EQ(cs.stats().transfers_from_archive, 1);
  EXPECT_EQ(cs.stats().bytes_from_archive, 1000);
}

TEST(ClusterSim, CachedInputReused) {
  SimConfig cfg = fast_config();
  cfg.worker_nic_Bps = 100;
  cfg.archive_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 1);  // serialize the two tasks
  auto* f = cs.declare_file("data", 1000, SimFile::Origin::archive);
  for (int i = 0; i < 2; ++i) {
    auto* t = cs.add_task("t", 5.0);
    t->inputs.push_back(f);
  }
  double makespan = cs.run();
  // One 10s fetch, then two serial 5s runs; the second task hits cache.
  EXPECT_NEAR(makespan, 20.0, 1e-6);
  EXPECT_EQ(cs.stats().transfers_from_archive, 1);
  EXPECT_GE(cs.stats().cache_hits, 1);
}

TEST(ClusterSim, PreloadMakesHotCache) {
  SimConfig cfg = fast_config();
  cfg.worker_nic_Bps = 100;
  cfg.archive_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 4);
  auto* f = cs.declare_file("data", 1000, SimFile::Origin::archive);
  cs.preload("w0", f);
  auto* t = cs.add_task("t", 5.0);
  t->inputs.push_back(f);
  double makespan = cs.run();
  EXPECT_NEAR(makespan, 5.0, 1e-6);  // no staging at all
  EXPECT_EQ(cs.stats().transfers_from_archive, 0);
}

TEST(ClusterSim, PlacementPrefersCachedWorker) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 4);
  cs.add_worker("w1", 0, 4);
  auto* f = cs.declare_file("big", 1000000, SimFile::Origin::archive);
  cs.preload("w1", f);
  auto* t = cs.add_task("t", 1.0);
  t->inputs.push_back(f);
  cs.run();
  ASSERT_EQ(cs.trace().tasks().size(), 1u);
  EXPECT_EQ(cs.trace().tasks()[0].worker, "w1");
}

TEST(ClusterSim, PeerTransferPreferredOverArchive) {
  SimConfig cfg = fast_config();
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 4);
  cs.add_worker("w1", 0, 4);
  auto* f = cs.declare_file("pkg", 1000, SimFile::Origin::archive);
  cs.preload("w0", f);
  auto* t = cs.add_task("t", 1.0);
  t->inputs.push_back(f);
  t->pin_worker = "w1";  // force the non-cached worker
  cs.run();
  EXPECT_EQ(cs.stats().transfers_from_peers, 1);
  EXPECT_EQ(cs.stats().transfers_from_archive, 0);
}

TEST(ClusterSim, TempOutputFeedsConsumer) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 1);
  auto* mid = cs.declare_file("mid", 0, SimFile::Origin::temp);
  auto* producer = cs.add_task("produce", 4.0);
  producer->outputs.push_back({mid, 500});
  auto* consumer = cs.add_task("consume", 3.0);
  consumer->inputs.push_back(mid);
  double makespan = cs.run();
  // Same worker: no transfer needed. 4 + 3 = 7.
  EXPECT_NEAR(makespan, 7.0, 1e-6);
  EXPECT_EQ(cs.stats().tasks_done, 2);
}

TEST(ClusterSim, UnpackRunsOncePerWorker) {
  SimConfig cfg = fast_config();
  cfg.unpack_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 2);
  auto* ar = cs.declare_file("pkg.vpak", 100, SimFile::Origin::manager);
  auto* tree = cs.declare_unpack(ar, 1000);  // 10s unpack
  for (int i = 0; i < 4; ++i) {
    auto* t = cs.add_task("t", 1.0);
    t->inputs.push_back(tree);
  }
  cs.run();
  EXPECT_EQ(cs.stats().mini_tasks_run, 1);
  EXPECT_EQ(cs.stats().tasks_done, 4);
}

TEST(ClusterSim, LateWorkersJoinAndWork) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 1);
  cs.add_worker("w1", 50.0, 1);  // joins late
  for (int i = 0; i < 4; ++i) cs.add_task("t", 30.0);
  double makespan = cs.run();
  // w0 runs serially from 0; w1 takes over some tasks after 50.
  // w0: 0-30, 30-60, 60-90 (3 tasks); w1: 50-80 (1 task) -> 90.
  EXPECT_NEAR(makespan, 90.0, 1e-6);
}

TEST(ClusterSim, LibraryInitOncePerWorkerThenCalls) {
  ClusterSim cs(fast_config());
  cs.add_worker("w0", 0, 4);
  cs.install_library("opt", /*init=*/10.0, /*cores=*/1.0);
  for (int i = 0; i < 6; ++i) {
    auto* t = cs.add_task("call", 5.0, 1.0);
    t->library = "opt";
  }
  double makespan = cs.run();
  // Init 10s; 3 free cores run calls 2 waves of 3 -> 10 + 10 = 20.
  EXPECT_NEAR(makespan, 20.0, 1e-6);
  EXPECT_EQ(cs.stats().tasks_done, 6);
}

TEST(ClusterSim, RetrieveOutputsMode) {
  SimConfig cfg = fast_config();
  cfg.retrieve_temp_outputs = true;
  cfg.worker_nic_Bps = 100;
  cfg.manager_nic_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 1);
  auto* mid = cs.declare_file("mid", 0, SimFile::Origin::temp);
  auto* producer = cs.add_task("produce", 1.0);
  producer->outputs.push_back({mid, 1000});
  auto* consumer = cs.add_task("consume", 1.0);
  consumer->inputs.push_back(mid);
  double makespan = cs.run();
  // Produce 1s; retrieval 10s; re-fetch from manager 10s; run 1s = 22.
  EXPECT_NEAR(makespan, 22.0, 1e-6);
  EXPECT_EQ(cs.stats().retrievals_to_manager, 1);
  EXPECT_EQ(cs.stats().transfers_from_manager, 1);
}

TEST(ClusterSim, InClusterModeAvoidsRoundTrip) {
  SimConfig cfg = fast_config();
  cfg.retrieve_temp_outputs = false;
  cfg.worker_nic_Bps = 100;
  cfg.manager_nic_Bps = 100;
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 1);
  auto* mid = cs.declare_file("mid", 0, SimFile::Origin::temp);
  auto* producer = cs.add_task("produce", 1.0);
  producer->outputs.push_back({mid, 1000});
  auto* consumer = cs.add_task("consume", 1.0);
  consumer->inputs.push_back(mid);
  double makespan = cs.run();
  EXPECT_NEAR(makespan, 2.0, 1e-6);  // no manager round trip at all
  EXPECT_EQ(cs.stats().retrievals_to_manager, 0);
}

TEST(ClusterSim, DispatchOverheadSerializes) {
  SimConfig cfg;
  cfg.dispatch_overhead = 1.0;  // exaggerated for visibility
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 10);
  for (int i = 0; i < 5; ++i) cs.add_task("t", 0.5);
  double makespan = cs.run();
  // Dispatches at 1,2,3,4,5; last finishes at 5.5.
  EXPECT_NEAR(makespan, 5.5, 1e-6);
}

TEST(ClusterSim, DeterministicAcrossRuns) {
  auto run_once = [] {
    SimConfig cfg;
    cfg.seed = 42;
    cfg.sched.placement = vine::PlacementPolicy::random;
    ClusterSim cs(cfg);
    for (int w = 0; w < 5; ++w) cs.add_worker("w" + std::to_string(w), 0, 2);
    auto* f = cs.declare_file("d", 5000, SimFile::Origin::archive);
    for (int i = 0; i < 20; ++i) {
      auto* t = cs.add_task("t", 3.0);
      t->inputs.push_back(f);
    }
    return cs.run();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ClusterSim, WorkerSourceLimitCapsConcurrentServing) {
  // One seeded worker, five needing the file, peer limit 2. Because a
  // replica exists in the cluster from the start, the archive is never
  // consulted: the conservative planner waits for peer slots instead.
  SimConfig cfg = fast_config();
  cfg.sched.worker_source_limit = 2;
  cfg.sched.url_source_limit = 1;
  ClusterSim cs(cfg);
  constexpr int kWorkers = 6;
  for (int i = 0; i < kWorkers; ++i) cs.add_worker("w" + std::to_string(i), 0, 1);
  auto* f = cs.declare_file("pkg", 1000000, SimFile::Origin::archive);
  cs.preload("w0", f);
  for (int i = 1; i < kWorkers; ++i) {
    auto* t = cs.add_task("t", 1.0);
    t->pin_worker = "w" + std::to_string(i);
    t->inputs.push_back(f);
  }
  cs.run();
  EXPECT_EQ(cs.stats().tasks_done, kWorkers - 1);
  EXPECT_EQ(cs.stats().transfers_from_archive, 0);
  EXPECT_EQ(cs.stats().transfers_from_peers, kWorkers - 1);
}

// The elastic factory in the simulator, with no hysteresis or cooldown: a
// queue deeper than the pool spawns an "fw" worker, and once the queue has
// drained that worker, idle and holding only objects replicated elsewhere
// (k = 2), retires through the graceful path: its cache is evicted with
// reason "retired" and no producer re-runs.
TEST(ClusterSim, FactorySpawnsForDeepQueueAndRetiresIdleReplicatedWorker) {
  SimConfig cfg = fast_config();
  cfg.factory.enabled = true;
  cfg.factory.hysteresis = 1;
  cfg.factory.cooldown_s = 0;
  cfg.factory.min_workers = 1;
  cfg.factory.max_workers = 2;
  cfg.factory_worker_cores = 1;
  cfg.redundancy.enabled = true;
  cfg.trace = std::make_shared<vine::obs::TraceSink>(
      vine::obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
  ClusterSim cs(cfg);
  cs.add_worker("w0", 0, 1);
  auto* in = cs.declare_file("in", 1000, SimFile::Origin::manager);
  for (int i = 0; i < 6; ++i) {
    auto* t = cs.add_task("t", 1.0);
    t->inputs.push_back(in);
    t->outputs.push_back(
        {cs.declare_file("out" + std::to_string(i), 0, SimFile::Origin::temp), 100});
  }
  cs.run();
  EXPECT_EQ(cs.stats().tasks_done, 6);
  EXPECT_EQ(cs.stats().tasks_unfinished, 0);
  EXPECT_EQ(cs.stats().factory_spawned, 1);
  EXPECT_EQ(cs.stats().factory_retired, 1);
  EXPECT_EQ(cs.stats().recoveries, 0);

  int fw_tasks = 0, retired_evicts = 0;
  bool retired = false;
  for (const auto& ev : cfg.trace->events()) {
    using vine::obs::EventKind;
    if (ev.kind == EventKind::task_state && ev.state == "done" && ev.worker == "fw1") {
      ++fw_tasks;
    }
    if (ev.kind == EventKind::cache_evict && ev.worker == "fw1") {
      EXPECT_EQ(ev.detail, "retired") << ev.file;
      ++retired_evicts;
    }
    if (ev.kind == EventKind::worker_lost && ev.worker == "fw1") {
      EXPECT_EQ(ev.detail, "retired");
      retired = true;
    }
  }
  EXPECT_GT(fw_tasks, 0);  // the spawned worker took queued work
  EXPECT_GT(retired_evicts, 0);
  EXPECT_TRUE(retired);
}

}  // namespace
}  // namespace vinesim
