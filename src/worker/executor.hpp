// Sandbox task execution (paper §2.2, Figure 4).
//
// Every task runs in a private sandbox directory: inputs are linked in
// under their user-visible names, the command (or registered function)
// runs with the sandbox as its working directory, declared outputs are
// harvested into the cache, and the sandbox is deleted. Function tasks
// invoke a registered callable in-process.
//
// Command tasks are spawned, not forked: posix_spawn starts /bin/sh -c in
// the sandbox as the leader of a fresh process group, without copying the
// worker's address space, and the task thread blocks until the shell
// exits. Wall-time, disk and memory limits are enforced by one
// executor-owned limit timer that tracks only the tasks declaring a limit;
// on a breach it kills the task's whole process group.
#pragma once

#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "proto/messages.hpp"
#include "worker/cache_store.hpp"

namespace vine {

/// Outcome of one sandbox execution.
struct ExecOutcome {
  bool ok = false;
  bool resource_exceeded = false;  ///< killed for exceeding its allocation
  int exit_code = -1;
  std::string output;  ///< captured stdout (truncated) or function result
  std::string error;   ///< failure description
  std::vector<proto::OutputRecord> outputs;  ///< harvested into the cache
};

struct ExecutorConfig {
  std::filesystem::path sandbox_root;  ///< parent of per-task sandboxes
  std::string worker_id;
  std::size_t max_captured_output = 1 << 20;  ///< stdout capture cap (1 MiB)
  /// Limit-sampling interval: how often the limit timer measures the disk
  /// and memory use of running tasks that declared a disk or memory limit.
  /// Wall-time deadlines fire on time; tasks without limits are never
  /// sampled.
  double disk_poll_seconds = 0.1;
};

/// Executes wire tasks against a cache store. Thread-safe: each execute()
/// call is independent and may run on its own thread.
class Executor {
 public:
  Executor(ExecutorConfig config, CacheStore& cache);
  ~Executor();

  /// Run a command/function task to completion (blocking). Outputs are
  /// placed into the cache under their cache names at the mount's level.
  ExecOutcome execute(const proto::WireTask& task);

  /// Prepare a sandbox with all inputs linked in; exposed for the library
  /// machinery which owns its instance's sandbox for its whole life.
  Result<std::filesystem::path> make_sandbox(const proto::WireTask& task);

  /// Harvest declared outputs from a sandbox into the cache.
  Status harvest_outputs(const proto::WireTask& task,
                         const std::filesystem::path& sandbox,
                         std::vector<proto::OutputRecord>& outputs);

 private:
  class LimitTimer;

  ExecOutcome run_command(const proto::WireTask& task,
                          const std::filesystem::path& sandbox);
  ExecOutcome run_function(const proto::WireTask& task,
                           const std::filesystem::path& sandbox);

  ExecutorConfig config_;
  CacheStore& cache_;
  std::unique_ptr<LimitTimer> limits_;
};

}  // namespace vine
