// LocalCluster: a manager plus N in-process workers wired over channel
// transport — the one-call way to run a real TaskVine workflow inside a
// single process (examples, tests). Worker storage lives under a shared
// root directory; pass a persistent root to exercise cross-workflow
// worker-lifetime caching.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "factory/factory.hpp"
#include "fsutil/fsutil.hpp"
#include "manager/manager.hpp"
#include "worker/worker.hpp"

namespace vine {

struct LocalClusterConfig {
  int workers = 4;
  Resources per_worker{.cores = 4, .memory_mb = 8000, .disk_mb = 50000, .gpus = 0};
  ManagerConfig manager{};

  /// Storage root; one subdirectory per worker. Empty -> fresh temp dir
  /// removed on destruction (cold cache every run).
  std::filesystem::path root_dir;

  /// Shared URL fetcher for manager naming and worker downloads (tests
  /// inject a MemoryUrlFetcher to count archive hits).
  std::shared_ptr<UrlFetcher> fetcher;

  int max_concurrent_transfers_per_worker = 4;

  /// Called on each worker's config before it connects — chaos tests use
  /// this to install fault hooks, shrink transfer timeouts, and speed up
  /// heartbeats without LocalCluster growing a knob per field.
  std::function<void(WorkerConfig&)> tweak_worker;

  /// Shared vine::obs trace sink for the whole deployment: wired into the
  /// manager config and every worker config (restarts included), so the
  /// manager's control-plane events and each worker's cache churn land in
  /// one stream. Null disables tracing.
  std::shared_ptr<obs::TraceSink> trace;

  /// Elastic pool sizing (vine::factory). When enabled, factory_pass()
  /// evaluates the shared policy against the manager's live state and
  /// spawns "fw<N>" workers / retires idle factory-spawned ones.
  factory::FactoryConfig factory{};
};

class LocalCluster {
 public:
  /// Start the manager, connect all workers, and wait for registration.
  static Result<std::unique_ptr<LocalCluster>> create(LocalClusterConfig config);

  ~LocalCluster();
  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  Manager& manager() { return *manager_; }
  Worker& worker(std::size_t i) { return *workers_.at(i); }
  std::size_t worker_count() const { return workers_.size(); }

  /// True while worker i has not been crashed (stop()ed) by the chaos
  /// harness. restart_worker flips it back.
  bool worker_alive(std::size_t i) const { return workers_.at(i) != nullptr; }
  std::size_t alive_count() const;

  /// Chaos harness: kill worker i (its threads stop, its connection drops,
  /// its cache directory is wiped — a genuine crash, not a graceful exit).
  void crash_worker(std::size_t i);

  /// Rejoin worker i with the same id and an empty cache. No-op when still
  /// alive. Returns the connect error if the manager is unreachable.
  Status restart_worker(std::size_t i);

  /// Graceful shutdown (also done by the destructor).
  void shutdown();

  /// Elastic pool: spawn one new "fw<N>" worker joined to the manager.
  /// Returns its index (usable with worker()/retire_worker()).
  Result<std::size_t> add_worker();

  /// Gracefully stop worker i: the manager retires it (traced as
  /// worker_lost "retired"), then its threads exit and the connection
  /// drops, but — unlike crash_worker — its storage directory survives.
  /// Callers (factory_pass) retire only idle, fully replicated workers, so
  /// the retirement triggers no recovery. Call on the pumping thread.
  void retire_worker(std::size_t i);

  /// Feed the factory the manager's signals (control::Core::factory_signals)
  /// and execute its verdict, retiring the workers the core finds
  /// retirable. Returns workers spawned (>0), retired (<0), or 0 for hold.
  int factory_pass();

  const factory::WorkerFactory& factory() const { return factory_; }

 private:
  LocalCluster() = default;

  std::optional<TempDir> owned_root_;
  std::unique_ptr<Manager> manager_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<WorkerConfig> worker_configs_;  ///< for restart_worker
  LocalClusterConfig config_;                 ///< template for spawned workers
  std::filesystem::path root_;
  factory::WorkerFactory factory_{factory::FactoryConfig{}};
  int next_factory_worker_ = 0;  ///< fw<N> id allocator
};

}  // namespace vine
