#include "worker/executor.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

extern char** environ;  // POSIX guarantees it; no header is required to declare it

#include "common/clock.hpp"
#include "common/log.hpp"
#include "common/mutex.hpp"
#include "common/uuid.hpp"
#include "fsutil/fsutil.hpp"
#include "task/registry.hpp"

namespace vine {

namespace fs = std::filesystem;

namespace {

/// Why the limit timer killed a task.
enum class Breach { none, wall_time, disk, memory };

/// RAII owners of the posix_spawn descriptor objects.
struct SpawnFileActions {
  posix_spawn_file_actions_t fa;
  SpawnFileActions() { posix_spawn_file_actions_init(&fa); }
  ~SpawnFileActions() { posix_spawn_file_actions_destroy(&fa); }
};
struct SpawnAttr {
  posix_spawnattr_t attr;
  SpawnAttr() { posix_spawnattr_init(&attr); }
  ~SpawnAttr() { posix_spawnattr_destroy(&attr); }
};

/// Resident bytes per process group, summed over every process in /proc
/// whose group is in `pgids` (Linux). A process that leaves its task's
/// group (setsid/setpgid) escapes the sum.
std::map<pid_t, std::int64_t> group_rss_bytes(const std::vector<pid_t>& pgids) {
  std::map<pid_t, std::int64_t> rss;
  for (pid_t g : pgids) rss[g] = 0;
  const std::int64_t page = ::sysconf(_SC_PAGESIZE);
  std::error_code ec;
  for (const auto& de : fs::directory_iterator("/proc", ec)) {
    const std::string name = de.path().filename().string();
    if (name.empty() || name.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    std::ifstream in(de.path() / "stat");
    std::string stat;
    if (!in || !std::getline(in, stat)) continue;
    // Fields after the parenthesized command: state ppid pgrp ... with
    // rss the 22nd of them (field 24 of proc(5)).
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(stat.substr(close + 1));
    std::string state;
    long long ppid = 0, pgrp = 0;
    fields >> state >> ppid >> pgrp;
    auto it = rss.find(static_cast<pid_t>(pgrp));
    if (!fields || it == rss.end()) continue;
    std::string skip;
    for (int i = 0; i < 18; ++i) fields >> skip;
    long long pages = 0;
    if (fields >> pages) it->second += pages * page;
  }
  return rss;
}

}  // namespace

/// Enforces declared limits on running command tasks. One thread, started
/// by the first watch, sleeps until the nearest wall-time deadline or, while
/// any watch declares a disk or memory limit, the next sampling tick. On a
/// breach it records the reason and kills the task's process group. Tasks
/// unwatch before their shell is reaped, so every signal the timer sends
/// reaches a live or zombie group leader, never a reused pid.
class Executor::LimitTimer {
 public:
  struct Limits {
    pid_t pgid = 0;
    fs::path sandbox;
    double timeout_seconds = 0;  ///< 0 = no wall-time limit
    std::int64_t disk_bytes = 0;    ///< 0 = no disk limit
    std::int64_t memory_bytes = 0;  ///< 0 = no memory limit
  };

  explicit LimitTimer(double sample_seconds) : sample_seconds_(sample_seconds) {}

  ~LimitTimer() {
    {
      MutexLock lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  /// Start enforcing `limits`; returns the key for unwatch().
  std::uint64_t watch(Limits limits) {
    std::call_once(started_, [this] { thread_ = std::thread([this] { run(); }); });
    std::uint64_t key;
    {
      MutexLock lock(mu_);
      key = next_key_++;
      Watch w;
      w.limits = std::move(limits);
      if (w.limits.timeout_seconds > 0) {
        w.deadline = clock_.now() + w.limits.timeout_seconds;
      }
      watches_.emplace(key, std::move(w));
    }
    cv_.notify_all();
    return key;
  }

  /// Stop enforcing; returns the breach recorded for the watch, if any.
  /// After this returns the timer never signals the watch's group again.
  Breach unwatch(std::uint64_t key) {
    MutexLock lock(mu_);
    auto it = watches_.find(key);
    if (it == watches_.end()) return Breach::none;
    const Breach breach = it->second.breach;
    watches_.erase(it);
    return breach;
  }

 private:
  struct Watch {
    Limits limits;
    double deadline = 0;  ///< clock_ time; 0 = none
    Breach breach = Breach::none;
  };

  static bool sampled(const Watch& w) {
    return w.breach == Breach::none &&
           (w.limits.disk_bytes > 0 || w.limits.memory_bytes > 0);
  }

  /// Record a breach and kill the group. Caller holds mu_ and has checked
  /// that the watch is still registered.
  static void kill_for(Watch& w, Breach why) {
    w.breach = why;
    ::killpg(w.limits.pgid, SIGKILL);
  }

  using Probe = std::pair<std::uint64_t, Limits>;
  using Verdict = std::pair<std::uint64_t, Breach>;

  void run() {
    std::vector<Probe> probe;
    while (next_tick(probe)) {
      const std::vector<Verdict> verdicts = measure(probe);
      MutexLock lock(mu_);
      for (const auto& [key, why] : verdicts) {
        auto it = watches_.find(key);
        if (it != watches_.end() && it->second.breach == Breach::none) {
          kill_for(it->second, why);
        }
      }
    }
  }

  /// Sleep until a sampling tick is due, firing wall-time deadlines on the
  /// way; fills `probe` with the watches to measure. False once stopping.
  bool next_tick(std::vector<Probe>& probe) {
    probe.clear();
    UniqueLock lock(mu_);
    while (!stopping_) {
      double wake = 0;
      bool sampling = false;
      for (const auto& [_, w] : watches_) {
        if (w.breach != Breach::none) continue;
        if (w.deadline > 0 && (wake == 0 || w.deadline < wake)) wake = w.deadline;
        sampling = sampling || sampled(w);
      }
      // The sampling cadence restarts whenever sampling resumes, so a new
      // limited task is first measured one interval after it starts.
      if (sampling && !was_sampling_) next_sample_ = clock_.now() + sample_seconds_;
      was_sampling_ = sampling;
      if (sampling && (wake == 0 || next_sample_ < wake)) wake = next_sample_;
      if (wake == 0) {
        cv_.wait(lock);
        continue;
      }
      const double now = clock_.now();
      if (wake > now) {
        cv_.wait_for(lock, std::chrono::duration<double>(wake - now));
        continue;
      }
      for (auto& [_, w] : watches_) {
        if (w.breach == Breach::none && w.deadline > 0 && w.deadline <= now) {
          kill_for(w, Breach::wall_time);
        }
      }
      if (!sampling || next_sample_ > now) continue;
      next_sample_ = now + sample_seconds_;
      for (const auto& [key, w] : watches_) {
        if (sampled(w)) probe.emplace_back(key, w.limits);
      }
      return true;
    }
    return false;
  }

  /// Measure sandbox sizes and group RSS (directory walks and /proc reads,
  /// so never under mu_); the verdicts apply only to watches still
  /// registered afterwards.
  static std::vector<Verdict> measure(const std::vector<Probe>& probe) {
    std::vector<pid_t> groups;
    for (const auto& [_, l] : probe) {
      if (l.memory_bytes > 0) groups.push_back(l.pgid);
    }
    const auto rss = groups.empty() ? std::map<pid_t, std::int64_t>{}
                                    : group_rss_bytes(groups);
    std::vector<Verdict> verdicts;
    for (const auto& [key, l] : probe) {
      if (l.disk_bytes > 0) {
        auto used = tree_size(l.sandbox);
        if (used.ok() && *used > l.disk_bytes) {
          verdicts.emplace_back(key, Breach::disk);
          continue;
        }
      }
      if (l.memory_bytes > 0 && rss.at(l.pgid) > l.memory_bytes) {
        verdicts.emplace_back(key, Breach::memory);
      }
    }
    return verdicts;
  }

  const double sample_seconds_;
  SteadyClock clock_;
  std::once_flag started_;
  std::thread thread_;  ///< written once under started_, joined by the dtor

  // Guards the watch table and the stop flag; the timer thread sleeps on
  // cv_ with it released. Innermost: nothing is acquired while it is held.
  Mutex mu_{lock_rank::Rank::executor_limits};
  CondVar cv_;
  std::map<std::uint64_t, Watch> watches_ VINE_GUARDED_BY(mu_);
  std::uint64_t next_key_ VINE_GUARDED_BY(mu_) = 1;
  bool stopping_ VINE_GUARDED_BY(mu_) = false;
  double next_sample_ VINE_GUARDED_BY(mu_) = 0;  ///< clock_ time of the next tick
  bool was_sampling_ VINE_GUARDED_BY(mu_) = false;
};

Executor::Executor(ExecutorConfig config, CacheStore& cache)
    : config_(std::move(config)),
      cache_(cache),
      limits_(std::make_unique<LimitTimer>(config_.disk_poll_seconds)) {
  std::error_code ec;
  fs::create_directories(config_.sandbox_root, ec);
}

Executor::~Executor() = default;

Result<fs::path> Executor::make_sandbox(const proto::WireTask& task) {
  fs::path sandbox = config_.sandbox_root /
                     ("t" + std::to_string(task.id) + "-" + generate_token(6));
  std::error_code ec;
  fs::create_directories(sandbox, ec);
  if (ec) {
    return Error{Errc::io_error, "cannot create sandbox: " + sandbox.string()};
  }
  for (const auto& in : task.inputs) {
    auto obj = cache_.object_path(in.cache_name);
    if (!obj.ok()) {
      remove_all_quiet(sandbox);
      return Error{Errc::not_found, "input not cached at worker: " + in.cache_name +
                                        " (as " + in.sandbox_name + ")"};
    }
    auto link = link_into_sandbox(*obj, sandbox / in.sandbox_name);
    if (!link.ok()) {
      remove_all_quiet(sandbox);
      return link.error();
    }
  }
  return sandbox;
}

Status Executor::harvest_outputs(const proto::WireTask& task, const fs::path& sandbox,
                                 std::vector<proto::OutputRecord>& outputs) {
  for (const auto& out : task.outputs) {
    fs::path produced = sandbox / out.sandbox_name;
    std::error_code ec;
    if (!fs::exists(produced, ec)) {
      return Error{Errc::task_failed,
                   "declared output missing: " + out.sandbox_name};
    }
    VINE_TRY_STATUS(cache_.adopt(out.cache_name, produced, out.level));
    auto e = cache_.entry(out.cache_name);
    outputs.push_back({out.cache_name, e.ok() ? e->size : 0});
  }
  return Status::success();
}

ExecOutcome Executor::execute(const proto::WireTask& task) {
  ExecOutcome outcome;
  auto sandbox = make_sandbox(task);
  if (!sandbox.ok()) {
    outcome.error = sandbox.error().to_string();
    return outcome;
  }

  switch (task.kind) {
    case TaskKind::command:
      outcome = run_command(task, *sandbox);
      break;
    case TaskKind::mini:
      // Mini-tasks run a command like plain tasks, or a registered
      // function for the built-in wrappers (vine.unpack and friends).
      outcome = task.function_name.empty() ? run_command(task, *sandbox)
                                           : run_function(task, *sandbox);
      break;
    case TaskKind::function:
      outcome = run_function(task, *sandbox);
      break;
    default:
      outcome.error = "executor cannot run task kind " +
                      std::string(task_kind_name(task.kind));
      break;
  }

  if (outcome.ok) {
    auto h = harvest_outputs(task, *sandbox, outcome.outputs);
    if (!h.ok()) {
      outcome.ok = false;
      outcome.error = h.error().to_string();
    }
  }
  remove_all_quiet(*sandbox);
  return outcome;
}

ExecOutcome Executor::run_command(const proto::WireTask& task, const fs::path& sandbox) {
  ExecOutcome outcome;
  fs::path stdout_path = sandbox / ".vine-stdout";

  // The worker's environment, overlaid with the task's.
  std::map<std::string, std::string> env;
  for (char** e = environ; e && *e; ++e) {
    const char* eq = std::strchr(*e, '=');
    if (eq) env[std::string(*e, static_cast<std::size_t>(eq - *e))] = eq + 1;
  }
  for (const auto& [k, v] : task.env) env[k] = v;
  env["VINE_SANDBOX"] = sandbox.string();
  std::vector<std::string> env_strings;
  env_strings.reserve(env.size());
  for (const auto& [k, v] : env) env_strings.push_back(k + "=" + v);
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (auto& s : env_strings) envp.push_back(s.data());
  envp.push_back(nullptr);
  const char* argv[] = {"sh", "-c", task.command.c_str(), nullptr};

  // The stdout file is opened before the chdir so a relative sandbox root
  // still resolves against the worker's working directory. The child
  // leads its own process group (pgid == pid).
  pid_t pid = 0;
  int rc = 0;
  {
    SpawnFileActions actions;
    SpawnAttr attr;
    rc = posix_spawn_file_actions_addopen(&actions.fa, STDOUT_FILENO,
                                          stdout_path.c_str(),
                                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (rc == 0) rc = posix_spawn_file_actions_addchdir_np(&actions.fa, sandbox.c_str());
    if (rc == 0) rc = posix_spawnattr_setflags(&attr.attr, POSIX_SPAWN_SETPGROUP);
    if (rc == 0) rc = posix_spawnattr_setpgroup(&attr.attr, 0);
    if (rc == 0) {
      rc = ::posix_spawn(&pid, "/bin/sh", &actions.fa, &attr.attr,
                         const_cast<char* const*>(argv), envp.data());
    }
  }
  if (rc != 0) {
    outcome.error = std::string("spawn failed: ") + std::strerror(rc);
    return outcome;
  }

  const bool limited = task.timeout_seconds > 0 || task.resources.disk_mb > 0 ||
                       task.resources.memory_mb > 0;
  std::uint64_t watch = 0;
  if (limited) {
    watch = limits_->watch({pid, sandbox, task.timeout_seconds,
                            task.resources.disk_mb * 1000 * 1000,
                            task.resources.memory_mb * 1000 * 1000});
  }

  // Block until the shell exits but leave it unreaped: while the zombie
  // holds the pid, neither the pid nor the process group id can be reused,
  // so the timer (until unwatch returns) and the final group kill below
  // can only ever signal this task's processes.
  siginfo_t info{};
  int wait_rc;
  do {
    wait_rc = ::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT);
  } while (wait_rc != 0 && errno == EINTR);
  const int wait_errno = errno;
  const Breach breach = limited ? limits_->unwatch(watch) : Breach::none;
  if (wait_rc != 0) {
    outcome.error = std::string("waitpid failed: ") + std::strerror(wait_errno);
    return outcome;
  }
  // Take down anything the task left running in its group, then reap.
  ::killpg(pid, SIGKILL);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }

  if (breach == Breach::disk) {
    outcome.resource_exceeded = true;
    outcome.error = "task exceeded its disk allocation of " +
                    std::to_string(task.resources.disk_mb) + "MB";
    return outcome;
  }
  if (breach == Breach::memory) {
    outcome.resource_exceeded = true;
    outcome.error = "task exceeded its memory allocation of " +
                    std::to_string(task.resources.memory_mb) + "MB";
    return outcome;
  }
  if (breach == Breach::wall_time) {
    outcome.error = "task exceeded its wall-time limit of " +
                    std::to_string(task.timeout_seconds) + "s";
    return outcome;
  }

  // Fast tasks can finish between samples; enforce the disk allocation on
  // the final sandbox state as well.
  if (task.resources.disk_mb > 0) {
    auto used = tree_size(sandbox);
    if (used.ok() && *used > task.resources.disk_mb * 1000 * 1000) {
      outcome.resource_exceeded = true;
      outcome.error = "task exceeded its disk allocation of " +
                      std::to_string(task.resources.disk_mb) + "MB";
      return outcome;
    }
  }

  // Capture (bounded) stdout.
  if (auto text = read_file(stdout_path); text.ok()) {
    outcome.output = std::move(*text);
    if (outcome.output.size() > config_.max_captured_output) {
      outcome.output.resize(config_.max_captured_output);
    }
  }
  remove_all_quiet(stdout_path);

  if (WIFEXITED(status)) {
    outcome.exit_code = WEXITSTATUS(status);
    outcome.ok = (outcome.exit_code == 0);
    if (!outcome.ok) {
      outcome.error = "command exited with status " +
                      std::to_string(outcome.exit_code);
    }
  } else if (WIFSIGNALED(status)) {
    outcome.error = "command killed by signal " + std::to_string(WTERMSIG(status));
  } else {
    outcome.error = "command ended abnormally";
  }
  return outcome;
}

ExecOutcome Executor::run_function(const proto::WireTask& task, const fs::path& sandbox) {
  ExecOutcome outcome;
  auto fn = FunctionRegistry::instance().lookup(task.function_name);
  if (!fn.ok()) {
    outcome.error = fn.error().to_string();
    return outcome;
  }
  FunctionContext ctx;
  ctx.sandbox_dir = sandbox.string();
  ctx.worker_id = config_.worker_id;
  auto result = (*fn)(task.function_args, ctx);
  if (!result.ok()) {
    outcome.error = "function failed: " + result.error().to_string();
    return outcome;
  }
  outcome.ok = true;
  outcome.exit_code = 0;
  outcome.output = std::move(*result);
  return outcome;
}

}  // namespace vine
