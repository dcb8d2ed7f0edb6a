#include "core/local_cluster.hpp"

#include "common/uuid.hpp"

namespace vine {

using namespace std::chrono_literals;

Result<std::unique_ptr<LocalCluster>> LocalCluster::create(LocalClusterConfig config) {
  auto cluster = std::unique_ptr<LocalCluster>(new LocalCluster());

  std::filesystem::path root = config.root_dir;
  if (root.empty()) {
    cluster->owned_root_.emplace("vine-cluster");
    root = cluster->owned_root_->path();
  }

  if (config.fetcher && !config.manager.fetcher) {
    config.manager.fetcher = config.fetcher;
  }
  if (config.trace && !config.manager.trace) {
    config.manager.trace = config.trace;
  }
  cluster->manager_ = std::make_unique<Manager>(config.manager);
  VINE_TRY_STATUS(cluster->manager_->start());
  cluster->factory_ = factory::WorkerFactory(config.factory);
  cluster->config_ = config;
  cluster->root_ = root;

  for (int i = 0; i < config.workers; ++i) {
    WorkerConfig wc;
    wc.id = "w" + std::to_string(i);
    wc.manager_addr = cluster->manager_->address();
    wc.resources = config.per_worker;
    wc.root_dir = root / wc.id;
    wc.max_concurrent_transfers = config.max_concurrent_transfers_per_worker;
    wc.fetcher = config.fetcher;
    wc.trace = config.trace;
    if (config.tweak_worker) config.tweak_worker(wc);
    cluster->worker_configs_.push_back(wc);
    VINE_TRY(auto worker, Worker::connect(std::move(wc)));
    worker->start();
    cluster->workers_.push_back(std::move(worker));
  }

  VINE_TRY_STATUS(cluster->manager_->wait_for_workers(config.workers, 10000ms));
  return cluster;
}

std::size_t LocalCluster::alive_count() const {
  std::size_t n = 0;
  for (const auto& w : workers_) n += (w != nullptr);
  return n;
}

void LocalCluster::crash_worker(std::size_t i) {
  auto& w = workers_.at(i);
  if (!w) return;
  w->stop();
  w.reset();
  // A crash takes the node's storage with it; a later restart joins cold.
  remove_all_quiet(worker_configs_.at(i).root_dir);
}

Result<std::size_t> LocalCluster::add_worker() {
  WorkerConfig wc;
  wc.id = "fw" + std::to_string(next_factory_worker_++);
  wc.manager_addr = manager_->address();
  wc.resources = config_.per_worker;
  wc.root_dir = root_ / wc.id;
  wc.max_concurrent_transfers = config_.max_concurrent_transfers_per_worker;
  wc.fetcher = config_.fetcher;
  wc.trace = config_.trace;
  if (config_.tweak_worker) config_.tweak_worker(wc);
  worker_configs_.push_back(wc);
  VINE_TRY(auto worker, Worker::connect(std::move(wc)));
  worker->start();
  workers_.push_back(std::move(worker));
  return workers_.size() - 1;
}

void LocalCluster::retire_worker(std::size_t i) {
  auto& w = workers_.at(i);
  if (!w) return;
  // The manager hears of the retirement first, so it is traced as one;
  // the disconnect that follows finds the connection already gone.
  manager_->retire_worker(worker_configs_.at(i).id);
  w->stop();
  w.reset();
  // Storage stays on disk (contrast crash_worker): retirement is graceful,
  // and a later restart_worker can bring the node back warm.
}

int LocalCluster::factory_pass() {
  if (!factory_.enabled()) return 0;
  const int verdict = factory_.decide(manager_->core().factory_signals(manager_->now()));
  int moved = 0;
  for (int i = 0; i < verdict; ++i) moved += add_worker().ok();
  for (const WorkerId& id : manager_->core().retirable(-verdict)) {
    for (std::size_t i = 0; i < worker_configs_.size(); ++i) {
      if (worker_configs_[i].id == id && workers_[i]) {
        retire_worker(i);
        --moved;
        break;
      }
    }
  }
  return moved;
}

Status LocalCluster::restart_worker(std::size_t i) {
  if (workers_.at(i)) return Status::success();
  VINE_TRY(auto worker, Worker::connect(worker_configs_.at(i)));
  worker->start();
  workers_.at(i) = std::move(worker);
  return Status::success();
}

void LocalCluster::shutdown() {
  if (manager_) manager_->shutdown();
  for (auto& w : workers_) {
    if (w) w->stop();
  }
}

LocalCluster::~LocalCluster() { shutdown(); }

}  // namespace vine
