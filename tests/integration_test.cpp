// End-to-end integration tests: a real manager and real workers executing
// real workflows in-process (channel transport) and over TCP. These cover
// the paper's mechanisms working together: declarations, staging, caching,
// peer transfers, mini-tasks, temp files, retries, and serverless calls.
#include <gtest/gtest.h>

#include <set>

#include "archive/vpak.hpp"
#include "core/taskvine.hpp"
#include "fsutil/fsutil.hpp"
#include "hash/digest.hpp"
#include "obs/trace_sink.hpp"

namespace vine {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

constexpr auto kWait = 20000ms;

/// Drain all outstanding tasks; returns reports indexed by task id.
std::map<TaskId, TaskReport> drain(Manager& m) {
  std::map<TaskId, TaskReport> out;
  while (!m.idle() || m.has_completed()) {
    auto r = m.wait(kWait);
    if (!r.ok()) {
      ADD_FAILURE() << "wait failed: " << r.error().to_string();
      break;
    }
    out[r->id] = *r;
  }
  return out;
}

TEST(Integration, EchoTaskRoundTrip) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  Manager& m = (*cluster)->manager();

  auto id = m.submit(TaskBuilder("echo vine-works").build());
  ASSERT_TRUE(id.ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok()) << r.error().to_string();
  EXPECT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "vine-works\n");
  EXPECT_EQ(r->id, *id);
  EXPECT_EQ(r->worker_id, "w0");
  EXPECT_TRUE(m.idle());
}

TEST(Integration, BufferInputTempOutputFetch) {
  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto in = m.declare_buffer("hello-buffer", CacheLevel::workflow);
  auto out = m.declare_temp();
  auto task = TaskBuilder("tr a-z A-Z < in.txt > out.txt")
                  .input(in, "in.txt")
                  .output(out, "out.txt")
                  .build();
  ASSERT_TRUE(m.submit(std::move(task)).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;

  auto content = m.fetch_file(out, kWait);
  ASSERT_TRUE(content.ok()) << content.error().to_string();
  EXPECT_EQ(*content, "HELLO-BUFFER");
}

TEST(Integration, TempOutputConsumedByDownstreamTask) {
  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto mid = m.declare_temp();
  ASSERT_TRUE(m.submit(TaskBuilder("printf 41 > stage1.txt")
                           .output(mid, "stage1.txt")
                           .build())
                  .ok());
  auto final_out = m.declare_temp();
  ASSERT_TRUE(m.submit(TaskBuilder("expr $(cat stage1.txt) + 1 > stage2.txt")
                           .input(mid, "stage1.txt")
                           .output(final_out, "stage2.txt")
                           .build())
                  .ok());
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), 2u);
  for (auto& [_, r] : reports) EXPECT_TRUE(r.ok()) << r.error_message;

  auto content = m.fetch_file(final_out, kWait);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "42\n");
}

TEST(Integration, ManyTasksSpreadAcrossWorkers) {
  auto cluster = LocalCluster::create({.workers = 4});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  constexpr int kN = 40;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("echo " + std::to_string(i)).build()).ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kN));
  std::set<std::string> workers_used;
  for (auto& [_, r] : reports) {
    EXPECT_TRUE(r.ok());
    workers_used.insert(r.worker_id);
  }
  EXPECT_GT(workers_used.size(), 1u);  // work actually spread
  EXPECT_EQ(m.stats().tasks_done, kN);
}

TEST(Integration, SharedInputStagedOncePerWorker) {
  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto shared = m.declare_buffer(std::string(100000, 's'), CacheLevel::workflow);
  constexpr int kN = 12;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(
        m.submit(TaskBuilder("wc -c < data.bin").input(shared, "data.bin").build())
            .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kN));
  for (auto& [_, r] : reports) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.output, "100000\n");
  }
  // The shared file moved to each worker at most once, from any source.
  // (Tasks assigned before the first copy landed are not cache hits, so
  // only a lower bound on hits is meaningful.)
  auto& st = m.stats();
  EXPECT_LE(st.transfers_from_manager + st.transfers_from_peers, 2);
  EXPECT_GE(st.cache_hits, 1);
}

TEST(Integration, UrlInputFetchedByWorkerNotManager) {
  auto fetcher = std::make_shared<MemoryUrlFetcher>();
  fetcher->put("http://archive/data.bin", "URL-CONTENT", "cafecafe01");

  auto cluster = LocalCluster::create({.workers = 1, .fetcher = fetcher});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto url = m.declare_url("http://archive/data.bin", CacheLevel::workflow);
  ASSERT_TRUE(url.ok()) << url.error().to_string();
  EXPECT_EQ((*url)->cache_name, "md5-cafecafe01");

  ASSERT_TRUE(
      m.submit(TaskBuilder("cat remote.bin").input(*url, "remote.bin").build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "URL-CONTENT");
  EXPECT_EQ(fetcher->fetch_count("http://archive/data.bin"), 1);
  EXPECT_EQ(m.stats().transfers_from_url, 1);
}

TEST(Integration, UnpackMiniTaskSharedByTasks) {
  TempDir stage("vine_itest");
  // Build a software package archive on the "shared filesystem".
  ASSERT_TRUE(write_file_atomic(stage.path() / "pkg/bin/tool.sh",
                                "#!/bin/sh\necho tool-ran\n")
                  .ok());
  auto ar = stage.path() / "pkg.vpak";
  ASSERT_TRUE(vpak_pack_tree(stage.path() / "pkg", ar).ok());

  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto archive = m.declare_local(ar.string(), CacheLevel::workflow);
  ASSERT_TRUE(archive.ok());
  auto tree = m.declare_unpack(*archive, CacheLevel::workflow);
  ASSERT_TRUE(tree.ok());

  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("sh pkg/bin/tool.sh")
                             .input(*tree, "pkg")
                             .build())
                    .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kN));
  for (auto& [_, r] : reports) {
    EXPECT_TRUE(r.ok()) << r.error_message;
    EXPECT_EQ(r.output, "tool-ran\n");
  }
  // One unpack mini-task served all five tasks.
  EXPECT_EQ(m.stats().mini_tasks_run, 1);
}

TEST(Integration, PeerTransfersReduceManagerLoad) {
  // Manager may serve only one concurrent push; with several workers the
  // replicas must propagate worker-to-worker.
  LocalClusterConfig cfg;
  cfg.workers = 4;
  cfg.manager.sched.manager_source_limit = 1;
  cfg.manager.sched.worker_source_limit = 3;
  auto cluster = LocalCluster::create(cfg);
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto shared = m.declare_buffer(std::string(200000, 'p'), CacheLevel::workflow);
  // Pin one task per worker so every worker needs the file.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("wc -c < f.bin")
                             .input(shared, "f.bin")
                             .pin_to_worker("w" + std::to_string(i))
                             .build())
                    .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), 4u);
  for (auto& [_, r] : reports) EXPECT_TRUE(r.ok()) << r.error_message;

  auto& st = m.stats();
  EXPECT_GE(st.transfers_from_peers, 1);
  EXPECT_EQ(st.transfers_from_manager + st.transfers_from_peers, 4);
  EXPECT_EQ(m.replicas().present_count(shared->cache_name), 4);
}

TEST(Integration, HotCacheAcrossWorkflows) {
  TempDir persistent("vine_hotcache");
  auto fetcher = std::make_shared<MemoryUrlFetcher>();
  std::string body(50000, 'D');
  fetcher->put("http://archive/dataset", body, md5_buffer(body));

  auto run_workflow = [&](int expected_url_fetches) {
    LocalClusterConfig cfg;
    cfg.workers = 2;
    cfg.root_dir = persistent.path();
    cfg.fetcher = fetcher;
    // One download slot at the archive: the second worker must wait and
    // then prefers the peer replica, so the archive is touched once.
    cfg.manager.sched.url_source_limit = 1;
    auto cluster = LocalCluster::create(cfg);
    ASSERT_TRUE(cluster.ok());
    Manager& m = (*cluster)->manager();

    auto url = m.declare_url("http://archive/dataset", CacheLevel::worker);
    ASSERT_TRUE(url.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          m.submit(TaskBuilder("wc -c < d.bin").input(*url, "d.bin").build()).ok());
    }
    auto reports = drain(m);
    ASSERT_EQ(reports.size(), 4u);
    for (auto& [_, r] : reports) EXPECT_TRUE(r.ok()) << r.error_message;
    EXPECT_EQ(fetcher->fetch_count("http://archive/dataset"), expected_url_fetches);
    m.end_workflow();
    (*cluster)->shutdown();
  };

  // Cold run: the archive is touched (once; then peers share).
  run_workflow(1);
  // Hot run: worker-lifetime object survived on disk; zero archive loads.
  run_workflow(1);
}

TEST(Integration, TaskLevelInputsAreUnlinked) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();
  Worker& w = (*cluster)->worker(0);

  auto query = m.declare_buffer("q-content", CacheLevel::task);
  ASSERT_TRUE(
      m.submit(TaskBuilder("cat query").input(query, "query").build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok());

  // The manager unlinks task-level inputs after completion; allow the
  // unlink message a moment to land.
  for (int i = 0; i < 100 && w.cache().contains(query->cache_name); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_FALSE(w.cache().contains(query->cache_name));
  EXPECT_EQ(m.replicas().present_count(query->cache_name), 0);
}

// The elastic factory on the runtime: with no hysteresis or cooldown, a
// queue deeper than the one-core pool makes factory_pass() spawn an "fw"
// worker, which registers with the manager and takes queued work. Once the
// queue has drained, the idle spawn (it holds no object) retires, and the
// trace says so as the simulator's does: worker_lost "retired", not a
// disconnect.
TEST(Integration, FactoryPassSpawnsWorkerThatRegisters) {
  auto sink = std::make_shared<obs::TraceSink>(
      obs::TraceSinkOptions{.retain_events = true, .jsonl_path = ""});
  LocalClusterConfig cc;
  cc.trace = sink;
  cc.workers = 1;
  cc.per_worker = {.cores = 1, .memory_mb = 1000, .disk_mb = 1000, .gpus = 0};
  cc.factory.enabled = true;
  cc.factory.hysteresis = 1;
  cc.factory.cooldown_s = 0;
  cc.factory.max_workers = 2;
  auto cluster = LocalCluster::create(std::move(cc));
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  Manager& m = (*cluster)->manager();

  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("sleep 0.2").build()).ok());
  }
  m.poll(0ms);  // one pass: a task runs on w0, five wait for a core
  EXPECT_EQ((*cluster)->factory_pass(), 1);
  ASSERT_EQ((*cluster)->worker_count(), 2u);
  ASSERT_TRUE(m.wait_for_workers(2, kWait).ok());

  std::set<std::string> ran_on;
  for (const auto& [_, r] : drain(m)) {
    EXPECT_TRUE(r.ok()) << r.error_message;
    ran_on.insert(r.worker_id);
  }
  EXPECT_EQ(ran_on, (std::set<std::string>{"w0", "fw0"}));

  EXPECT_EQ((*cluster)->factory_pass(), -1);
  EXPECT_FALSE((*cluster)->worker_alive(1));
  for (int i = 0; i < 100 && m.worker_count() > 1; ++i) m.poll(20ms);
  EXPECT_EQ(m.worker_count(), 1);
  // Let the stopped worker's disconnect reach the manager too.
  for (int i = 0; i < 5; ++i) m.poll(20ms);
  std::vector<std::string> fw0_departures;
  for (const obs::Event& e : sink->events()) {
    if (e.kind == obs::EventKind::worker_lost && e.worker == "fw0") {
      fw0_departures.push_back(e.detail);
    }
  }
  EXPECT_EQ(fw0_departures, std::vector<std::string>{"retired"});
}

TEST(Integration, FailedTaskRetriesThenReports) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  ASSERT_TRUE(m.submit(TaskBuilder("exit 9").max_attempts(3).build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->ok());
  EXPECT_EQ(r->state, TaskState::failed);
  EXPECT_EQ(r->attempts, 3);
  EXPECT_EQ(r->exit_code, 9);
}

TEST(Integration, ResourceExceededGrowsAllocation) {
  LocalClusterConfig cfg;
  cfg.workers = 1;
  cfg.per_worker = {.cores = 4, .memory_mb = 8000, .disk_mb = 500, .gpus = 0};
  auto cluster = LocalCluster::create(cfg);
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  // Needs ~8MB of sandbox disk but declares 2MB; growth 2->4->8->16 gives
  // it room on the third retry.
  auto task = TaskBuilder("dd if=/dev/zero of=big bs=1M count=8 2>/dev/null")
                  .disk_mb(2)
                  .max_attempts(5)
                  .build();
  ASSERT_TRUE(m.submit(std::move(task)).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok()) << r->error_message;
  EXPECT_GT(r->attempts, 1);
}

TEST(Integration, FunctionTaskRuns) {
  FunctionRegistry::instance().register_function(
      "itest.rev", [](const std::string& args, const FunctionContext&) {
        return Result<std::string>(std::string(args.rbegin(), args.rend()));
      });
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();
  ASSERT_TRUE(m.submit(TaskBuilder::function("itest.rev", "abcdef").build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "fedcba");
}

TEST(Integration, ServerlessLibraryAndFunctionCalls) {
  // A library whose init is "expensive": counts per-instance inits.
  static std::atomic<int> init_count{0};
  LibraryBlueprint bp;
  bp.name = "itest.bgd";
  bp.init = [](const FunctionContext&) -> Result<LibraryState> {
    ++init_count;
    return LibraryState(std::make_shared<std::string>("model-v1"));
  };
  bp.functions["descend"] = [](const LibraryState& st, const std::string& args,
                               const FunctionContext&) -> Result<std::string> {
    return *std::static_pointer_cast<std::string>(st) + ":" + args;
  };
  LibraryRegistry::instance().register_library(bp);
  init_count = 0;

  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  ASSERT_TRUE(m.install_library("itest.bgd",
                                {.cores = 1, .memory_mb = 0, .disk_mb = 0, .gpus = 0})
                  .ok());

  constexpr int kCalls = 10;
  for (int i = 0; i < kCalls; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder::function_call("itest.bgd", "descend",
                                                    std::to_string(i))
                             .cores(1)
                             .build())
                    .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(kCalls));
  std::set<std::string> outputs;
  for (auto& [id, r] : reports) {
    EXPECT_TRUE(r.ok()) << r.error_message;
    EXPECT_TRUE(outputs.insert(r.output).second)
        << "task " << id << " repeated output '" << r.output << "'";
  }
  EXPECT_EQ(outputs.size(), static_cast<std::size_t>(kCalls));
  EXPECT_TRUE(outputs.count("model-v1:0"));
  // Startup paid once per worker, not once per call (the paper's claim).
  EXPECT_LE(init_count.load(), 2);
  // One instance can serve every call before the other reports ready;
  // give the second one up to 2 s to come up.
  for (int i = 0; i < 100 && m.library_instances("itest.bgd") < 2; ++i) {
    m.poll(20ms);
  }
  EXPECT_EQ(m.library_instances("itest.bgd"), 2);
}

TEST(Integration, ReportTimestampsShareTheManagerClock) {
  // Workers time each run on their own clocks; the manager anchors the
  // measured duration on its clock, so every report is ordered end to end.
  LibraryBlueprint bp;
  bp.name = "itest.clock";
  bp.init = [](const FunctionContext&) -> Result<LibraryState> {
    return LibraryState(std::make_shared<int>(0));
  };
  bp.functions["echo"] = [](const LibraryState&, const std::string& args,
                            const FunctionContext&) -> Result<std::string> {
    return args;
  };
  LibraryRegistry::instance().register_library(bp);

  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  Manager& m = (*cluster)->manager();
  ASSERT_TRUE(m.install_library("itest.clock",
                                {.cores = 1, .memory_mb = 0, .disk_mb = 0, .gpus = 0})
                  .ok());

  constexpr int kEach = 8;
  for (int i = 0; i < kEach; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("sleep 0.01").build()).ok());
    ASSERT_TRUE(m.submit(TaskBuilder::function_call("itest.clock", "echo",
                                                    std::to_string(i))
                             .cores(1)
                             .build())
                    .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), static_cast<std::size_t>(2 * kEach));
  for (const auto& [id, r] : reports) {
    ASSERT_TRUE(r.ok()) << r.error_message;
    EXPECT_LE(r.submitted_at, r.dispatched_at) << "task " << id;
    EXPECT_LE(r.dispatched_at, r.started_at) << "task " << id;
    EXPECT_LE(r.started_at, r.finished_at) << "task " << id;
  }
}

TEST(Integration, LibraryInputsStagedIntoInstanceSandbox) {
  LibraryBlueprint bp;
  bp.name = "itest.envlib";
  bp.init = [](const FunctionContext& ctx) -> Result<LibraryState> {
    // The init step reads its staged environment file.
    auto env = read_file(fs::path(ctx.sandbox_dir) / "env.txt");
    if (!env.ok()) return env.error();
    return LibraryState(std::make_shared<std::string>(*env));
  };
  bp.functions["peek"] = [](const LibraryState& st, const std::string&,
                            const FunctionContext&) -> Result<std::string> {
    return *std::static_pointer_cast<std::string>(st);
  };
  LibraryRegistry::instance().register_library(bp);

  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto env = m.declare_buffer("ENV-89MB-STANDIN", CacheLevel::worker);
  ASSERT_TRUE(m.install_library("itest.envlib",
                                {.cores = 1, .memory_mb = 0, .disk_mb = 0, .gpus = 0},
                                {{env, "env.txt"}})
                  .ok());
  ASSERT_TRUE(
      m.submit(TaskBuilder::function_call("itest.envlib", "peek", "").cores(1).build())
          .ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "ENV-89MB-STANDIN");
}

TEST(Integration, EndWorkflowClearsEphemeralState) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();
  Worker& w = (*cluster)->worker(0);

  auto keep = m.declare_buffer("keep-me", CacheLevel::worker);
  auto drop = m.declare_buffer("drop-me", CacheLevel::workflow);
  ASSERT_TRUE(m.submit(TaskBuilder("cat a b")
                           .input(keep, "a")
                           .input(drop, "b")
                           .build())
                  .ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok());

  m.end_workflow();
  for (int i = 0; i < 100 && w.cache().contains(drop->cache_name); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_TRUE(w.cache().contains(keep->cache_name));
  EXPECT_FALSE(w.cache().contains(drop->cache_name));
}

TEST(Integration, DirectoryLocalInputDelivered) {
  TempDir stage("vine_itest_dir");
  ASSERT_TRUE(write_file_atomic(stage.path() / "db/part0", "P0").ok());
  ASSERT_TRUE(write_file_atomic(stage.path() / "db/deep/part1", "P1").ok());

  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto db = m.declare_local((stage.path() / "db").string(), CacheLevel::workflow);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE(m.submit(TaskBuilder("cat db/part0 db/deep/part1")
                           .input(*db, "db")
                           .build())
                  .ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "P0P1");
}

TEST(Integration, TcpManagerAndWorker) {
  ManagerConfig mc;
  mc.listen = "tcp";
  Manager m(mc);
  ASSERT_TRUE(m.start().ok());

  TempDir root("vine_tcp_worker");
  WorkerConfig wc;
  wc.id = "tcp-w0";
  wc.manager_addr = m.address();
  wc.root_dir = root.path();
  wc.tcp_transfer_service = true;
  auto worker = Worker::connect(std::move(wc));
  ASSERT_TRUE(worker.ok()) << worker.error().to_string();
  (*worker)->start();

  ASSERT_TRUE(m.wait_for_workers(1, 10000ms).ok());
  auto in = m.declare_buffer("over-tcp", CacheLevel::workflow);
  ASSERT_TRUE(m.submit(TaskBuilder("cat x").input(in, "x").build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "over-tcp");

  m.shutdown();
  (*worker)->stop();
}

TEST(Integration, TcpPeerTransfers) {
  ManagerConfig mc;
  mc.listen = "tcp";
  mc.sched.manager_source_limit = 1;
  Manager m(mc);
  ASSERT_TRUE(m.start().ok());

  TempDir root("vine_tcp_peers");
  std::vector<std::unique_ptr<Worker>> workers;
  for (int i = 0; i < 3; ++i) {
    WorkerConfig wc;
    wc.id = "tw" + std::to_string(i);
    wc.manager_addr = m.address();
    wc.root_dir = root.path() / wc.id;
    wc.tcp_transfer_service = true;
    auto w = Worker::connect(std::move(wc));
    ASSERT_TRUE(w.ok());
    (*w)->start();
    workers.push_back(std::move(*w));
  }
  ASSERT_TRUE(m.wait_for_workers(3, 10000ms).ok());

  auto shared = m.declare_buffer(std::string(500000, 'T'), CacheLevel::workflow);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("wc -c < f")
                             .input(shared, "f")
                             .pin_to_worker("tw" + std::to_string(i))
                             .build())
                    .ok());
  }
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), 3u);
  for (auto& [_, r] : reports) EXPECT_TRUE(r.ok()) << r.error_message;
  EXPECT_GE(m.stats().transfers_from_peers, 1);

  m.shutdown();
  for (auto& w : workers) w->stop();
}

TEST(Integration, WorkerDisconnectRequeuesTasks) {
  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  // Long-ish tasks so some are running when a worker dies.
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(m.submit(TaskBuilder("sleep 0.2; echo done" + std::to_string(i))
                             .build())
                    .ok());
  }
  // Give the scheduler a moment to dispatch, then kill one worker.
  auto first = m.wait(kWait);
  ASSERT_TRUE(first.ok());
  (*cluster)->worker(1).stop();

  std::map<TaskId, TaskReport> reports;
  reports[first->id] = *first;
  while (!m.idle() || m.has_completed()) {
    auto r = m.wait(kWait);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    reports[r->id] = *r;
  }
  EXPECT_EQ(reports.size(), 6u);
  for (auto& [_, r] : reports) EXPECT_TRUE(r.ok()) << r.error_message;
}

TEST(Integration, MiniTaskChainsRecursively) {
  // archive -> unpack -> a mini task that derives an index from the tree.
  TempDir stage("vine_chain");
  ASSERT_TRUE(write_file_atomic(stage.path() / "data/words.txt", "a\nb\nc\n").ok());
  auto ar = stage.path() / "data.vpak";
  ASSERT_TRUE(vpak_pack_tree(stage.path() / "data", ar).ok());

  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto archive = m.declare_local(ar.string(), CacheLevel::workflow);
  ASSERT_TRUE(archive.ok());
  auto tree = m.declare_unpack(*archive, CacheLevel::workflow);
  ASSERT_TRUE(tree.ok());

  TaskSpec index_mini;
  index_mini.kind = TaskKind::mini;
  index_mini.command = "wc -l < tree/words.txt > index.txt";
  index_mini.inputs.push_back({*tree, "tree"});
  auto index = m.declare_mini_task(std::move(index_mini), "index.txt",
                                   CacheLevel::workflow);
  ASSERT_TRUE(index.ok());

  ASSERT_TRUE(
      m.submit(TaskBuilder("cat idx").input(*index, "idx").build()).ok());
  auto r = m.wait(kWait);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->ok()) << r->error_message;
  EXPECT_EQ(r->output, "3\n");
  EXPECT_EQ(m.stats().mini_tasks_run, 2);  // unpack + index
}

TEST(Integration, IdenticalMiniTasksShareOneMaterialization) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok());
  Manager& m = (*cluster)->manager();

  auto src = m.declare_buffer("seed", CacheLevel::workflow);
  auto make_derived = [&]() {
    TaskSpec mini;
    mini.kind = TaskKind::mini;
    mini.command = "tr a-z A-Z < in > out";
    mini.inputs.push_back({src, "in"});
    return m.declare_mini_task(std::move(mini), "out", CacheLevel::workflow);
  };
  auto d1 = make_derived();
  auto d2 = make_derived();
  ASSERT_TRUE(d1.ok());
  ASSERT_TRUE(d2.ok());
  // Identical specifications produce identical cache names (Merkle).
  EXPECT_EQ((*d1)->cache_name, (*d2)->cache_name);

  ASSERT_TRUE(m.submit(TaskBuilder("cat a").input(*d1, "a").build()).ok());
  ASSERT_TRUE(m.submit(TaskBuilder("cat b").input(*d2, "b").build()).ok());
  auto reports = drain(m);
  ASSERT_EQ(reports.size(), 2u);
  for (auto& [_, r] : reports) {
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.output, "SEED");
  }
  EXPECT_EQ(m.stats().mini_tasks_run, 1);  // materialized once, shared
}

}  // namespace
}  // namespace vine
