// Unit tests for src/worker components: CacheStore, Executor,
// LibraryInstance, built-in functions in isolation, plus a resource soak of
// one Worker behind a real Manager.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>

#include "archive/vpak.hpp"
#include "core/taskvine.hpp"
#include "fsutil/fsutil.hpp"
#include "hash/digest.hpp"
#include "net/tcp.hpp"
#include "worker/builtins.hpp"
#include "worker/cache_store.hpp"
#include "worker/executor.hpp"
#include "worker/library_instance.hpp"

namespace vine {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

// ------------------------------------------------------------ CacheStore

class CacheStoreTest : public ::testing::Test {
 protected:
  TempDir tmp_{"vine_cachestore"};
};

TEST_F(CacheStoreTest, PutBytesAndLookup) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("md5-abc", "payload", CacheLevel::workflow).ok());
  EXPECT_TRUE(cache.contains("md5-abc"));
  auto p = cache.object_path("md5-abc");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p).value(), "payload");
  auto e = cache.entry("md5-abc");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->size, 7);
  EXPECT_FALSE(e->is_dir);
  EXPECT_EQ(cache.used_bytes(), 7);
}

TEST_F(CacheStoreTest, PutBytesRecordsDigest) {
  CacheStore cache(tmp_.path() / "cache");
  const std::string bytes = "peer-verified";
  ASSERT_TRUE(cache.put_bytes("rnd-own", bytes, CacheLevel::workflow).ok());
  EXPECT_EQ(cache.entry("rnd-own")->checksum, xxh64_buffer(bytes));
  // A supplied checksum is the caller's verified checksum of these bytes:
  // the store records it as given instead of reading them a second time (a
  // sentinel that is not the real checksum proves no second pass ran).
  const std::string sentinel(16, '0');
  ASSERT_TRUE(
      cache.put_bytes("rnd-given", bytes, CacheLevel::workflow, sentinel).ok());
  EXPECT_EQ(cache.entry("rnd-given")->checksum, sentinel);
  auto info = cache.serve_info("rnd-given", /*attest=*/true);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->checksum, sentinel);
  EXPECT_EQ(info->size, static_cast<std::int64_t>(bytes.size()));
}

TEST_F(CacheStoreTest, ServeInfoHashesOnlyWhatItChecksOrAttests) {
  CacheStore cache(tmp_.path() / "cache");
  auto produce = [&](const std::string& file, const std::string& content) {
    auto src = tmp_.path() / file;
    EXPECT_TRUE(write_file_atomic(src, content).ok());
    return src;
  };
  // Adopted task outputs carry no checksum until something needs one.
  ASSERT_TRUE(cache.adopt("task-out", produce("o", "output"),
                          CacheLevel::workflow).ok());
  auto plain = cache.serve_info("task-out", /*attest=*/false);
  ASSERT_TRUE(plain.ok());
  EXPECT_TRUE(plain->checksum.empty());
  EXPECT_TRUE(cache.entry("task-out")->checksum.empty());
  auto attested = cache.serve_info("task-out", /*attest=*/true);
  ASSERT_TRUE(attested.ok());
  EXPECT_EQ(attested->checksum, xxh64_buffer("output"));
  EXPECT_EQ(cache.entry("task-out")->checksum, xxh64_buffer("output"));

  // A content-named object is checked against its name on either path.
  const std::string good = "md5-" + md5_buffer("content");
  ASSERT_TRUE(cache.adopt(good, produce("g", "content"), CacheLevel::workflow).ok());
  auto checked = cache.serve_info(good, /*attest=*/false);
  ASSERT_TRUE(checked.ok());
  EXPECT_EQ(checked->checksum, xxh64_buffer("content"));
  const std::string bad = "md5-" + md5_buffer("expected");
  ASSERT_TRUE(cache.adopt(bad, produce("b", "damaged"), CacheLevel::workflow).ok());
  auto rejected = cache.serve_info(bad, /*attest=*/false);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.error().code, Errc::io_error);
  EXPECT_FALSE(cache.serve_info(bad, /*attest=*/true).ok());
}

TEST_F(CacheStoreTest, PutArchiveBecomesDirectory) {
  CacheStore cache(tmp_.path() / "cache");
  auto bytes = vpak_write({{VpakEntry::Kind::directory, "sub", ""},
                           {VpakEntry::Kind::file, "sub/x.txt", "X"}});
  ASSERT_TRUE(cache.put_archive("tree-1", bytes, CacheLevel::worker).ok());
  auto e = cache.entry("tree-1");
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE(e->is_dir);
  auto p = cache.object_path("tree-1");
  EXPECT_EQ(read_file(*p / "sub/x.txt").value(), "X");
}

TEST_F(CacheStoreTest, AdoptMovesFileIn) {
  CacheStore cache(tmp_.path() / "cache");
  auto src = tmp_.path() / "produced.txt";
  ASSERT_TRUE(write_file_atomic(src, "output-data").ok());
  ASSERT_TRUE(cache.adopt("task-xyz", src, CacheLevel::workflow).ok());
  EXPECT_FALSE(fs::exists(src));
  EXPECT_TRUE(cache.contains("task-xyz"));
}

TEST_F(CacheStoreTest, EndWorkflowKeepsOnlyWorkerLevel) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("t", "1", CacheLevel::task).ok());
  ASSERT_TRUE(cache.put_bytes("wf", "22", CacheLevel::workflow).ok());
  ASSERT_TRUE(cache.put_bytes("wk", "333", CacheLevel::worker).ok());
  cache.end_workflow();
  EXPECT_FALSE(cache.contains("t"));
  EXPECT_FALSE(cache.contains("wf"));
  EXPECT_TRUE(cache.contains("wk"));
  EXPECT_EQ(cache.used_bytes(), 3);
}

TEST_F(CacheStoreTest, PersistenceAcrossReopen) {
  auto dir = tmp_.path() / "cache";
  {
    CacheStore cache(dir);
    ASSERT_TRUE(cache.put_bytes("wk-obj", "persist-me", CacheLevel::worker).ok());
  }
  CacheStore reopened(dir);
  EXPECT_TRUE(reopened.contains("wk-obj"));
  auto e = reopened.entry("wk-obj");
  ASSERT_TRUE(e.ok());
  EXPECT_EQ(e->level, CacheLevel::worker);  // survivors are worker-lifetime
  EXPECT_EQ(e->size, 10);
}

TEST_F(CacheStoreTest, ReadForTransferFileAndDir) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("f", "bytes", CacheLevel::workflow).ok());
  auto ft = cache.read_for_transfer("f");
  ASSERT_TRUE(ft.ok());
  EXPECT_EQ(ft->first, "bytes");
  EXPECT_FALSE(ft->second);

  auto bytes = vpak_write({{VpakEntry::Kind::file, "a", "A"}});
  ASSERT_TRUE(cache.put_archive("d", bytes, CacheLevel::workflow).ok());
  auto dt = cache.read_for_transfer("d");
  ASSERT_TRUE(dt.ok());
  EXPECT_TRUE(dt->second);
  auto entries = vpak_read(dt->first);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ((*entries)[0].path, "a");
}

TEST_F(CacheStoreTest, RemoveObject) {
  CacheStore cache(tmp_.path() / "cache");
  ASSERT_TRUE(cache.put_bytes("x", "1", CacheLevel::workflow).ok());
  ASSERT_TRUE(cache.remove_object("x").ok());
  EXPECT_FALSE(cache.contains("x"));
  EXPECT_FALSE(cache.object_path("x").ok());
}

TEST_F(CacheStoreTest, RejectsBadNames) {
  CacheStore cache(tmp_.path() / "cache");
  EXPECT_FALSE(cache.put_bytes("", "x", CacheLevel::task).ok());
  EXPECT_FALSE(cache.put_bytes("a/b", "x", CacheLevel::task).ok());
  EXPECT_FALSE(cache.put_bytes("..", "x", CacheLevel::task).ok());
}

// ------------------------------------------------------------ Executor

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : cache_(tmp_.path() / "cache") {
    register_builtin_functions();
    exec_ = std::make_unique<Executor>(
        ExecutorConfig{tmp_.path() / "sandboxes", "w-test", 1 << 20, 0.02}, cache_);
  }

  proto::WireTask command_task(std::string cmd) {
    proto::WireTask t;
    t.id = 1;
    t.kind = TaskKind::command;
    t.command = std::move(cmd);
    return t;
  }

  TempDir tmp_{"vine_executor"};
  CacheStore cache_;
  std::unique_ptr<Executor> exec_;
};

TEST_F(ExecutorTest, RunsCommandAndCapturesStdout) {
  auto out = exec_->execute(command_task("echo hello-from-task"));
  EXPECT_TRUE(out.ok);
  EXPECT_EQ(out.exit_code, 0);
  EXPECT_EQ(out.output, "hello-from-task\n");
}

TEST_F(ExecutorTest, NonzeroExitIsFailure) {
  auto out = exec_->execute(command_task("exit 3"));
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.exit_code, 3);
}

TEST_F(ExecutorTest, InputsAppearUnderSandboxNames) {
  ASSERT_TRUE(cache_.put_bytes("md5-in", "INPUT-DATA", CacheLevel::workflow).ok());
  auto t = command_task("cat renamed.txt");
  t.inputs.push_back({"md5-in", "renamed.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "INPUT-DATA");
}

TEST_F(ExecutorTest, MissingInputFailsCleanly) {
  auto t = command_task("true");
  t.inputs.push_back({"md5-ghost", "x", CacheLevel::workflow});
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("not cached"), std::string::npos);
}

TEST_F(ExecutorTest, OutputsHarvestedIntoCache) {
  auto t = command_task("printf result > out.txt");
  t.outputs.push_back({"task-out1", "out.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  ASSERT_EQ(out.outputs.size(), 1u);
  EXPECT_EQ(out.outputs[0].cache_name, "task-out1");
  EXPECT_EQ(out.outputs[0].size, 6);
  auto p = cache_.object_path("task-out1");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p).value(), "result");
}

TEST_F(ExecutorTest, MissingDeclaredOutputFails) {
  auto t = command_task("true");
  t.outputs.push_back({"task-out2", "never-made.txt", CacheLevel::workflow});
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("output missing"), std::string::npos);
}

TEST_F(ExecutorTest, EnvVariablesVisible) {
  auto t = command_task("printf \"$VINE_TEST_VAR\"");
  t.env["VINE_TEST_VAR"] = "value-42";
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok);
  EXPECT_EQ(out.output, "value-42");
}

/// True while `pid` exists and is not a zombie.
bool process_running(pid_t pid) {
  auto stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  if (!stat.ok()) return false;
  auto close = stat->rfind(')');
  return close == std::string::npos || close + 2 >= stat->size() ||
         (*stat)[close + 2] != 'Z';
}

TEST_F(ExecutorTest, TimeoutKillsTask) {
  // The shell records its `sleep 30` grandchild, which must die with it.
  const fs::path pid_file = tmp_.path() / "grandchild.pid";
  auto t = command_task("sleep 30 & echo $! > " + pid_file.string() + "; wait");
  t.timeout_seconds = 0.2;
  auto start = std::chrono::steady_clock::now();
  auto out = exec_->execute(t);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(out.ok);
  EXPECT_LT(elapsed, 1200ms);
  EXPECT_NE(out.error.find("wall-time"), std::string::npos);

  auto pid_text = read_file(pid_file);
  ASSERT_TRUE(pid_text.ok());
  const pid_t grandchild = static_cast<pid_t>(std::stol(*pid_text));
  ASSERT_GT(grandchild, 0);
  // SIGKILL lands asynchronously; give the kernel a moment to deliver it.
  for (int i = 0; i < 100 && process_running(grandchild); ++i) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_FALSE(process_running(grandchild)) << "orphaned pid " << grandchild;
}

TEST_F(ExecutorTest, DiskOverageKillsTask) {
  // Writes ~8MB while declaring 1MB of disk.
  auto t = command_task(
      "dd if=/dev/zero of=big.bin bs=1M count=8 2>/dev/null; sleep 5");
  t.resources.disk_mb = 1;
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.resource_exceeded) << out.error;
}

TEST_F(ExecutorTest, MemoryOverageKillsTask) {
  // The shell accumulates a ~60MB variable while declaring 10MB of memory.
  auto t = command_task(
      "s=$(head -c 60000000 /dev/zero | tr '\\0' 'a'); sleep 5; echo ${#s}");
  t.resources.memory_mb = 10;
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.resource_exceeded) << out.error;
  EXPECT_NE(out.error.find("memory"), std::string::npos);
}

TEST_F(ExecutorTest, MemoryOverageInSubprocessKillsTask) {
  // An inner shell, not the task's own shell, holds the ~60MB; the trailing
  // `echo` keeps the outer shell from exec'ing into the inner one.
  auto t = command_task(
      "sh -c 's=$(head -c 60000000 /dev/zero | tr \"\\0\" a); sleep 5; "
      "echo ${#s}'; echo outer-done");
  t.resources.memory_mb = 10;
  auto start = std::chrono::steady_clock::now();
  auto out = exec_->execute(t);
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_FALSE(out.ok);
  EXPECT_TRUE(out.resource_exceeded) << out.error;
  EXPECT_NE(out.error.find("memory"), std::string::npos);
  EXPECT_LT(elapsed, 4s);
}

TEST_F(ExecutorTest, MemoryWithinAllocationSucceeds) {
  auto t = command_task("s=$(head -c 1000 /dev/zero | tr '\\0' 'a'); echo ${#s}");
  t.resources.memory_mb = 100;
  auto out = exec_->execute(t);
  EXPECT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "1000\n");
}

TEST_F(ExecutorTest, SandboxIsDeletedAfterRun) {
  (void)exec_->execute(command_task("true"));
  int remaining = 0;
  for ([[maybe_unused]] const auto& de :
       fs::directory_iterator(tmp_.path() / "sandboxes")) {
    ++remaining;
  }
  EXPECT_EQ(remaining, 0);
}

TEST_F(ExecutorTest, FunctionTaskRuns) {
  proto::WireTask t;
  t.id = 2;
  t.kind = TaskKind::function;
  t.function_name = "vine.echo";
  t.function_args = "ping";
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.output, "ping");
}

TEST_F(ExecutorTest, UnknownFunctionFails) {
  proto::WireTask t;
  t.kind = TaskKind::function;
  t.function_name = "no.such.fn";
  auto out = exec_->execute(t);
  EXPECT_FALSE(out.ok);
}

TEST_F(ExecutorTest, UnpackMiniTaskMaterializesTree) {
  // Stage a vpak archive in the cache, unpack it via the builtin.
  auto bytes = vpak_write({{VpakEntry::Kind::directory, "pkg", ""},
                           {VpakEntry::Kind::file, "pkg/bin", "BINARY"}});
  ASSERT_TRUE(cache_.put_bytes("md5-ar", bytes, CacheLevel::workflow).ok());

  proto::WireTask t;
  t.id = 3;
  t.kind = TaskKind::mini;
  t.function_name = "vine.unpack";
  t.function_args = R"({"archive":"input.vpak","out":"unpacked"})";
  t.inputs.push_back({"md5-ar", "input.vpak", CacheLevel::workflow});
  t.outputs.push_back({"task-tree", "unpacked", CacheLevel::worker});
  auto out = exec_->execute(t);
  ASSERT_TRUE(out.ok) << out.error;
  auto p = cache_.object_path("task-tree");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(read_file(*p / "pkg/bin").value(), "BINARY");
  auto e = cache_.entry("task-tree");
  EXPECT_EQ(e->level, CacheLevel::worker);
}

// ------------------------------------------------------- LibraryInstance

class LibraryInstanceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    LibraryBlueprint bp;
    bp.name = "itest.math";
    bp.init = [](const FunctionContext&) -> Result<LibraryState> {
      return LibraryState(std::make_shared<int>(1000));
    };
    bp.functions["add"] = [](const LibraryState& st, const std::string& args,
                             const FunctionContext&) -> Result<std::string> {
      return std::to_string(*std::static_pointer_cast<int>(st) + std::stoi(args));
    };
    bp.functions["fail"] = [](const LibraryState&, const std::string&,
                              const FunctionContext&) -> Result<std::string> {
      return Error{Errc::task_failed, "deliberate"};
    };
    LibraryRegistry::instance().register_library(bp);
  }
};

TEST_F(LibraryInstanceTest, InitAnnouncesFunctions) {
  LibraryInstance inst("itest.math", 1, {});
  auto init = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(init.has_value());
  EXPECT_EQ(init->get_string("type"), "init");
  EXPECT_TRUE(init->get_bool("ok"));
  EXPECT_EQ(init->find("functions")->as_array().size(), 2u);
  inst.stop();
}

TEST_F(LibraryInstanceTest, InvocationsShareInitState) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());  // init
  inst.invoke(11, "add", "1");
  inst.invoke(12, "add", "2");
  std::map<std::int64_t, std::string> results;
  for (int i = 0; i < 2; ++i) {
    auto r = inst.from_instance().pop(5000ms);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->get_string("type"), "result");
    EXPECT_TRUE(r->get_bool("ok"));
    results[r->get_int("call_id")] = r->get_string("output");
  }
  EXPECT_EQ(results[11], "1001");
  EXPECT_EQ(results[12], "1002");
  inst.stop();
}

TEST_F(LibraryInstanceTest, FunctionErrorsAreReported) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());
  inst.invoke(5, "fail", "");
  auto r = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->get_bool("ok"));
  EXPECT_NE(r->get_string("error").find("deliberate"), std::string::npos);
  inst.stop();
}

TEST_F(LibraryInstanceTest, UnknownFunctionRejected) {
  LibraryInstance inst("itest.math", 1, {});
  ASSERT_TRUE(inst.from_instance().pop(5000ms).has_value());
  inst.invoke(6, "multiply", "2");
  auto r = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->get_bool("ok"));
  inst.stop();
}

TEST_F(LibraryInstanceTest, UnknownLibraryFailsInit) {
  LibraryInstance inst("itest.ghost", 1, {});
  auto init = inst.from_instance().pop(5000ms);
  ASSERT_TRUE(init.has_value());
  EXPECT_FALSE(init->get_bool("ok"));
  inst.stop();
}

// ------------------------------------------------------------ Worker

/// Numeric field of /proc/self/status ("Threads", "VmSize" in kB); -1 if
/// absent.
long self_status(const std::string& field) {
  auto text = read_file("/proc/self/status");
  if (!text.ok()) return -1;
  const std::string key = "\n" + field + ":";
  auto pos = text->find(key);
  if (pos == std::string::npos) return -1;
  return std::stol(text->substr(pos + key.size()));
}

/// Open descriptors of this process (entries of /proc/self/fd).
long open_fds() {
  std::error_code ec;
  long n = 0;
  for (auto it = fs::directory_iterator("/proc/self/fd", ec);
       !ec && it != fs::directory_iterator(); it.increment(ec)) {
    ++n;
  }
  return ec ? -1 : n;
}

TEST(WorkerSoak, FinishedTaskThreadsDoNotAccumulate) {
  auto cluster = LocalCluster::create({.workers = 1});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  Manager& m = (*cluster)->manager();
  auto run = [&](int n) {
    for (int i = 0; i < n; ++i) ASSERT_TRUE(m.submit(TaskBuilder("true").build()).ok());
    for (int i = 0; i < n; ++i) {
      auto r = m.wait(20000ms);
      ASSERT_TRUE(r.ok()) << r.error().to_string();
      ASSERT_TRUE(r->ok()) << r->error_message;
    }
  };
  run(50);
  const long threads_warm = self_status("Threads");
  const long vm_warm_kb = self_status("VmSize");
  const long fds_warm = open_fds();
  ASSERT_GT(threads_warm, 0);
  ASSERT_GT(vm_warm_kb, 0);
  ASSERT_GT(fds_warm, 0);
  run(450);
  // A task thread that is never joined keeps its 8 MiB stack mapped, so a
  // leak would add ~3.5 GiB here. The budget covers a few in-flight stacks
  // plus the 64 MiB reservations of malloc arenas that new threads create.
  EXPECT_LE(self_status("Threads"), threads_warm + 4);
  EXPECT_LE(self_status("VmSize"), vm_warm_kb + 512 * 1024);
  // Each task opens output pipes and a process group's worth of
  // descriptors; one that is never closed would add 450+ here. The slack
  // covers descriptors of the few tasks still being torn down.
  EXPECT_LE(open_fds(), fds_warm + 4);
}

TEST(WorkerSoak, ServedPeerFetchesDoNotAccumulate) {
  auto cluster = LocalCluster::create({.workers = 2});
  ASSERT_TRUE(cluster.ok()) << cluster.error().to_string();
  Manager& m = (*cluster)->manager();
  // Each round produces a distinct temp on w0 and consumes it on w1, which
  // must fetch it from w0's transfer service: one served peer connection.
  // Temps are named by their producer, so every producer differs.
  int round = 0;
  auto run = [&](int rounds) {
    for (int i = 0; i < rounds; ++i, ++round) {
      FileRef temp = m.declare_temp();
      ASSERT_TRUE(m.submit(TaskBuilder("echo " + std::to_string(round) + " > f")
                               .output(temp, "f")
                               .pin_to_worker("w0")
                               .build())
                      .ok());
      ASSERT_TRUE(m.submit(TaskBuilder("cat f")
                               .input(temp, "f")
                               .pin_to_worker("w1")
                               .build())
                      .ok());
      for (int k = 0; k < 2; ++k) {
        auto r = m.wait(20000ms);
        ASSERT_TRUE(r.ok()) << r.error().to_string();
        ASSERT_TRUE(r->ok()) << r->error_message;
      }
    }
  };
  run(20);
  const long threads_warm = self_status("Threads");
  const long vm_warm_kb = self_status("VmSize");
  const long fds_warm = open_fds();
  ASSERT_GT(threads_warm, 0);
  ASSERT_GT(vm_warm_kb, 0);
  ASSERT_GT(fds_warm, 0);
  run(200);
  // A serving thread per fetch, exited but never joined, keeps its 8 MiB
  // stack mapped: ~1.6 GiB over 200 fetches. The budget covers malloc
  // arena reservations and a few stacks in flight.
  EXPECT_LE(self_status("Threads"), threads_warm + 4);
  EXPECT_LE(self_status("VmSize"), vm_warm_kb + 256 * 1024);
  EXPECT_LE(open_fds(), fds_warm + 4);
  EXPECT_EQ(m.stats().transfers_from_peers, 220);
}

// ------------------------------------------------------ data-plane digests

/// Two workers, with one task output produced (and held only) on w0.
struct TaskOutputOnW0 {
  std::unique_ptr<LocalCluster> cluster;
  FileRef file;

  void start() {
    auto c = LocalCluster::create({.workers = 2});
    ASSERT_TRUE(c.ok()) << c.error().to_string();
    cluster = std::move(*c);
    file = cluster->manager().declare_temp();
    run(TaskBuilder("printf payload > f").output(file, "f").pin_to_worker("w0"));
    ASSERT_EQ(file->cache_name.rfind("task-", 0), 0u) << file->cache_name;
  }

  /// Consume the output on w1, which must peer-fetch it from w0.
  void consume_on_w1() {
    run(TaskBuilder("cat f").input(file, "f").pin_to_worker("w1"), "payload");
  }

  CacheEntry entry_on(std::size_t worker) {
    auto e = cluster->worker(worker).cache().entry(file->cache_name);
    EXPECT_TRUE(e.ok()) << "w" << worker << " lacks " << file->cache_name;
    return e.ok() ? *e : CacheEntry{};
  }

 private:
  void run(TaskBuilder& task, const std::string& output = "") {
    Manager& m = cluster->manager();
    ASSERT_TRUE(m.submit(task.build()).ok());
    auto r = m.wait(20000ms);
    ASSERT_TRUE(r.ok()) << r.error().to_string();
    ASSERT_TRUE(r->ok()) << r->error_message;
    EXPECT_EQ(r->output, output);
  }
};

TEST(DataPlaneDigest, PeerFetchStoresTheAttestedDigest) {
  TaskOutputOnW0 f;
  f.start();
  if (::testing::Test::HasFatalFailure()) return;
  f.consume_on_w1();
  // The sender memoized the checksum it attested; the receiver stored the
  // checksum it verified the blob against instead of reading it again.
  const std::string attested = f.entry_on(0).checksum;
  EXPECT_EQ(attested, xxh64_buffer("payload"));
  EXPECT_EQ(f.entry_on(1).checksum, attested);
  auto stored = f.cluster->worker(1).cache().object_path(f.file->cache_name);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(xxh64_file(*stored).value(), attested);
}

TEST(DataPlaneDigest, ManagerFetchOfTaskOutputSkipsTheHash) {
  TaskOutputOnW0 f;
  f.start();
  if (::testing::Test::HasFatalFailure()) return;
  auto content = f.cluster->manager().fetch_file(f.file, 20000ms);
  ASSERT_TRUE(content.ok()) << content.error().to_string();
  EXPECT_EQ(*content, "payload");
  // The send_file reply carries no checksum, so none was computed.
  EXPECT_TRUE(f.entry_on(0).checksum.empty());
  // A later peer serve still checksums the object and attests it correctly.
  f.consume_on_w1();
  EXPECT_EQ(f.entry_on(0).checksum, xxh64_buffer("payload"));
  EXPECT_EQ(f.entry_on(1).checksum, xxh64_buffer("payload"));
}

// Every serve attests its blob, so an ok obj with no checksum (what a peer
// still sending the MD5-era "digest" key decodes to) is a protocol error:
// the worker refuses the blob, retries like any failed transfer, and
// reports the fetch as failed instead of caching unchecked bytes.
TEST(DataPlaneDigest, UnattestedPeerObjIsRefusedAsAFailedTransfer) {
  auto control_port = tcp_listen(0);
  auto peer_port = tcp_listen(0);
  ASSERT_TRUE(control_port.ok() && peer_port.ok());
  TempDir root("vine_unattested");
  WorkerConfig wc;
  wc.id = "w-unattested";
  wc.manager_addr = (*control_port)->address();
  wc.root_dir = root.path();
  wc.tcp_transfer_service = true;
  wc.heartbeat_interval_ms = 0;
  wc.fetch_retries = 1;
  wc.fetch_backoff_ms = 1;
  auto worker = Worker::connect(std::move(wc));
  ASSERT_TRUE(worker.ok()) << worker.error().to_string();
  auto control = (*control_port)->accept(5000ms);
  ASSERT_TRUE(control.ok()) << control.error().to_string();
  (*worker)->start();

  // The fake peer answers each GET with an unattested ok obj and an
  // intact blob, then waits for the worker to hang up.
  std::atomic<int> gets{0};
  std::thread peer([&] {
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto conn = (*peer_port)->accept(5000ms);
      if (!conn.ok()) return;
      if (!(*conn)->recv(5000ms).ok()) return;
      gets.fetch_add(1);
      proto::ObjMsg obj;
      obj.cache_name = "rnd-unattested";
      obj.ok = true;
      (void)(*conn)->send_json(proto::encode(obj));
      (void)(*conn)->send_blob("rnd-unattested", "payload");
      (void)(*conn)->recv(5000ms);
    }
  });

  proto::FetchMsg fetch;
  fetch.transfer_id = "x1";
  fetch.cache_name = "rnd-unattested";
  fetch.source = TransferSource::from_worker("fake-peer");
  fetch.source_addr = (*peer_port)->address();
  ASSERT_TRUE((*control)->send_json(proto::encode(fetch)).ok());

  std::optional<proto::CacheUpdateMsg> update;
  while (!update) {
    auto frame = (*control)->recv(10000ms);
    ASSERT_TRUE(frame.ok()) << frame.error().to_string();
    if (frame->kind != Frame::Kind::json) continue;
    auto msg = proto::decode(frame->msg);
    if (msg.ok() && std::holds_alternative<proto::CacheUpdateMsg>(*msg)) {
      update = std::get<proto::CacheUpdateMsg>(*msg);
    }
  }
  peer.join();
  EXPECT_EQ(update->transfer_id, "x1");
  EXPECT_FALSE(update->ok);
  EXPECT_NE(update->error.find("checksum"), std::string::npos) << update->error;
  EXPECT_EQ(gets.load(), 2);  // the first attempt and its one retry
  EXPECT_FALSE((*worker)->cache().contains("rnd-unattested"));
  (*worker)->stop();
}

}  // namespace
}  // namespace vine
