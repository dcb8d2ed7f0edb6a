#include "sim/cluster_sim.hpp"

#include <algorithm>
#include <cassert>

#include "common/log.hpp"

namespace vinesim {

using vine::FileDecl;
using vine::FileKind;
using vine::TaskKind;
using vine::TaskSpec;
using vine::TaskState;
using vine::TransferSource;
using vine::source_key_of;
using vine::control::TaskEntry;

ClusterSim::ClusterSim(SimConfig config)
    : config_(std::move(config)),
      net_(sim_),
      rng_(config_.seed),
      core_(*this, stats_, config_.sched, config_.seed, config_.redundancy),
      factory_(config_.factory) {
  // A private sink keeps the Figure-12 views available even when the caller
  // did not ask for a full trace; retention stays off so paper-scale runs
  // do not hold millions of events in memory.
  sink_ = config_.trace ? config_.trace
                        : std::make_shared<vine::obs::TraceSink>();
  metrics_.expose("sim.transfers_from_archive", &stats_.transfers_from_archive);
  metrics_.expose("sim.transfers_from_sharedfs", &stats_.transfers_from_sharedfs);
  metrics_.expose("sim.transfers_from_manager", &stats_.transfers_from_manager);
  metrics_.expose("sim.transfers_from_peers", &stats_.transfers_from_peers);
  metrics_.expose("sim.unpacks", &stats_.mini_tasks_run);
  metrics_.expose("sim.retrievals_to_manager", &stats_.retrievals_to_manager);
  metrics_.expose("sim.bytes_from_archive", &stats_.bytes_from_archive);
  metrics_.expose("sim.bytes_from_sharedfs", &stats_.bytes_from_sharedfs);
  metrics_.expose("sim.bytes_from_manager", &stats_.bytes_from_manager);
  metrics_.expose("sim.bytes_from_peers", &stats_.bytes_from_peers);
  metrics_.expose("sim.bytes_to_manager", &stats_.bytes_to_manager);
  metrics_.expose("sim.cache_hits", &stats_.cache_hits);
  metrics_.expose("sim.sched_passes", &stats_.sched_passes);
  metrics_.expose("sim.tasks_scanned", &stats_.tasks_scanned);
  metrics_.expose("sim.tasks_done", &stats_.tasks_done);
  metrics_.expose("sim.transfer_failures", &stats_.transfer_failures);
  metrics_.expose("sim.recoveries", &stats_.recoveries);
  metrics_.expose("sim.transfers_prefetch", &stats_.transfers_prefetch);
  metrics_.expose("sim.bytes_prefetch", &stats_.bytes_prefetch);
  metrics_.expose("sched.prefetch_issued", &stats_.prefetch_issued);
  metrics_.expose("sched.prefetch_hit", &stats_.prefetch_hits);
  metrics_.expose("sched.prefetch_cancelled", &stats_.prefetch_cancelled);
  metrics_.expose("sched.prefetch_wasted_bytes", &stats_.prefetch_wasted_bytes);
  // Redundancy/factory gauges only exist while the knobs are on: exposing
  // them unconditionally would change every counters event and break the
  // byte-identity guarantee for replication-off traces.
  if (config_.redundancy.enabled) {
    metrics_.expose("sim.replications", &stats_.replications);
    metrics_.expose("sim.replication_bytes", &stats_.replication_bytes);
    metrics_.expose("sim.replica_repairs", &stats_.replica_repairs);
    metrics_.expose("sim.recoveries_replicated", &stats_.recoveries_replicated);
  }
  manager_node_ = net_.add_node("manager", config_.manager_nic_Bps,
                                config_.manager_nic_Bps, config_.stream_knee,
                                config_.stream_beta);
  archive_node_ = net_.add_node("archive", config_.archive_Bps,
                                config_.archive_Bps, config_.stream_knee,
                                config_.stream_beta);
  sharedfs_node_ = net_.add_node("sharedfs", config_.sharedfs_Bps,
                                 config_.sharedfs_Bps, config_.stream_knee,
                                 config_.stream_beta);
  net_.set_backplane(config_.backplane_Bps);
}

SimFile* ClusterSim::declare_file(std::string name, std::int64_t size,
                                  SimFile::Origin origin) {
  auto f = std::make_unique<SimFile>();
  f->name = std::move(name);
  f->size = size;
  f->origin = origin;
  SimFile* ptr = f.get();
  files_[ptr->name] = std::move(f);
  return ptr;
}

SimFile* ClusterSim::declare_unpack(const SimFile* archive,
                                    std::int64_t unpacked_size) {
  auto* f = declare_file("unpack-" + std::to_string(next_unpack_id_++) + "-" +
                             archive->name,
                         unpacked_size, SimFile::Origin::unpack);
  f->archive_of = archive;
  return f;
}

SimTask* ClusterSim::add_task(std::string category, double duration, double cores,
                              double submit_at) {
  auto t = std::make_unique<SimTask>();
  t->id = next_task_id_++;
  t->category = std::move(category);
  t->duration = duration;
  t->cores = cores;
  t->submit_at = submit_at;
  SimTask* ptr = t.get();
  tasks_.push_back(std::move(t));
  return ptr;
}

void ClusterSim::add_worker(const std::string& id, double t_join, double cores) {
  WorkerSim w;
  w.total = {.cores = cores, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  w.join_at = t_join;
  workers_[id] = std::move(w);
  worker_order_.push_back(id);
}

void ClusterSim::install_library(const std::string& name, double init_duration,
                                 double cores, std::vector<const SimFile*> inputs) {
  libraries_.push_back({name, init_duration, cores, std::move(inputs)});
}

void ClusterSim::preload(const std::string& worker, const SimFile* file) {
  core_.object_announced(worker, {file->name, file->size});
  emit(vine::obs::Event::make_cache_insert(sim_.now(), worker, file->name,
                                           file->size, "preload"));
}

// ------------------------------------------------------------ run

double ClusterSim::run() {
  // Link each temp output back to its producer so crash recovery can walk
  // the ancestor chain of a lost replica.
  for (auto& t : tasks_) {
    for (auto& out : t->outputs) {
      out.file->producer = t.get();
      out.file->planned_bytes = out.size;
    }
  }
  // Runs enter the core's ready set when their submission fires. Internal
  // library-install tasks are synthesized per worker at join.
  for (auto& t : tasks_) {
    runs_[t->id].task = t.get();
    if (t->submit_at > 0) {
      sim_.at(t->submit_at, [this, id = t->id] {
        submit(id);
        request_schedule();
      });
    } else {
      submit(t->id);
    }
  }
  for (const auto& id : worker_order_) {
    sim_.at(workers_[id].join_at, [this, id] { worker_join(id); });
  }
  request_schedule();
  sim_.run();

  for (const auto& [id, run] : runs_) {
    if (run.task->is_library) continue;
    const TaskEntry* task = core_.task(id);
    if (task == nullptr || task->state != TaskState::done) ++stats_.tasks_unfinished;
  }
  emit_counters();
  sink_->flush();
  return makespan_;
}

vine::FileRef ClusterSim::decl_of(const SimFile* file) {
  auto it = decls_.find(file);
  if (it != decls_.end()) return it->second;
  auto d = std::make_shared<FileDecl>();
  d->cache_name = file->name;
  d->size_hint = file->size > 0 ? file->size : file->planned_bytes;
  switch (file->origin) {
    case SimFile::Origin::archive:
    case SimFile::Origin::sharedfs:
      d->kind = FileKind::url;
      d->url = file->name;
      break;
    case SimFile::Origin::manager:
      d->kind = FileKind::buffer;
      break;
    case SimFile::Origin::temp:
      d->kind = FileKind::temp;
      d->producer_task = file->producer != nullptr ? file->producer->id : 0;
      break;
    case SimFile::Origin::unpack: {
      auto mini = std::make_shared<TaskSpec>();
      mini->kind = TaskKind::mini;
      mini->inputs.push_back({decl_of(file->archive_of), file->archive_of->name});
      d->kind = FileKind::mini_task;
      d->mini_task = std::move(mini);
      break;
    }
  }
  decls_.emplace(file, d);
  return d;
}

void ClusterSim::submit(std::uint64_t id) {
  const SimTask& task = *runs_.at(id).task;
  TaskSpec spec;
  spec.id = task.id;
  spec.resources = {.cores = task.cores, .memory_mb = 0, .disk_mb = 0, .gpus = 0};
  spec.pinned_worker = task.pin_worker;
  if (task.is_library) {
    spec.kind = TaskKind::library;
    spec.library_name = task.library;
  } else if (!task.library.empty()) {
    spec.kind = TaskKind::function_call;
    spec.library_name = task.library;
  }
  for (const auto* in : task.inputs) spec.inputs.push_back({decl_of(in), in->name});
  for (const auto& out : task.outputs) {
    spec.outputs.push_back({decl_of(out.file), out.file->name});
  }
  core_.submit(std::move(spec), task.category);
}

void ClusterSim::worker_join(const std::string& id) {
  WorkerSim& w = workers_[id];
  w.joined = true;
  w.active_fetches = 0;
  vine::WorkerSnapshot snap;
  snap.id = id;
  snap.total = w.total;
  core_.worker_joined(std::move(snap));
  w.node = net_.add_node(id, config_.worker_nic_Bps, config_.worker_nic_Bps,
                         config_.stream_knee, config_.stream_beta);
  emit(vine::obs::Event::make_worker_join(sim_.now(), id));

  // Deploy installed libraries to the newcomer (one instance each).
  for (const auto& def : libraries_) {
    auto* t = add_task("library:" + def.name, def.init_duration, def.cores,
                       sim_.now());
    t->is_library = true;
    t->library = def.name;
    t->pin_worker = id;
    t->inputs = def.inputs;
    runs_[t->id].task = t;
    submit(t->id);
  }
  request_schedule();
}

void ClusterSim::request_schedule() {
  if (pass_scheduled_) return;
  pass_scheduled_ = true;
  sim_.at(sim_.now(), [this] {
    pass_scheduled_ = false;
    core_.schedule_pass();
    if (factory_.enabled()) evaluate_factory(sim_.now());
  });
}

void ClusterSim::evaluate_factory(double now) {
  const int verdict = factory_.decide(core_.factory_signals(now));
  if (verdict > 0) {
    for (int i = 0; i < verdict; ++i) {
      const std::string id = "fw" + std::to_string(next_factory_worker_++);
      add_worker(id, now, config_.factory_worker_cores);
      ++stats_.factory_spawned;
      worker_join(id);
    }
    emit(vine::obs::Event::make_factory_scale(
        now, "up:" + std::to_string(verdict) +
                 " pool:" + std::to_string(core_.workers().size())));
  } else if (verdict < 0) {
    const std::vector<std::string> retiring = core_.retirable(-verdict);
    for (const std::string& id : retiring) retire_worker(id, now);
    if (!retiring.empty()) {
      emit(vine::obs::Event::make_factory_scale(
          now, "down:" + std::to_string(retiring.size()) +
                   " pool:" + std::to_string(core_.workers().size())));
    }
  }
}

void ClusterSim::retire_worker(const std::string& id, double now) {
  // Graceful teardown — the worker-loss path minus the damage: no tasks
  // to requeue, no fetch to abort, no temp left without a copy.
  WorkerSim& w = workers_.at(id);
  w.joined = false;
  worker_queue_.erase(id);
  const auto purge = core_.purge_worker(id, "retired");
  net_.remove_node(w.node);
  core_.recover_after_loss(id, purge.lost);
  emit(vine::obs::Event::make_worker_lost(now, id, "retired"));
  ++stats_.factory_retired;
}

NodeToken ClusterSim::source_node(const TransferSource& src,
                                  const SimFile* file) const {
  switch (src.kind) {
    case TransferSource::Kind::manager: return manager_node_;
    case TransferSource::Kind::worker: {
      auto it = workers_.find(src.key);
      return it != workers_.end() ? it->second.node : kInvalidNode;
    }
    case TransferSource::Kind::url:
      return file->origin == SimFile::Origin::sharedfs ? sharedfs_node_
                                                       : archive_node_;
  }
  return manager_node_;
}

bool ClusterSim::move_bytes(const vine::control::Transfer& t) {
  auto it = files_.find(t.cache_name);
  if (it == files_.end()) return false;
  PendingFetch pf;
  pf.uuid = t.uuid;
  pf.file = it->second.get();
  pf.dest = t.dest;
  pf.source = t.source;
  pf.kind = t.kind;
  enqueue_fetch(std::move(pf));
  return true;
}

void ClusterSim::cancel_transfer(const std::string& uuid,
                                 const vine::control::PrefetchTrack& track) {
  const double now = sim_.now();
  std::int64_t moved = 0;
  auto iit = inflight_.find(uuid);
  if (iit != inflight_.end()) {
    PendingFetch pf = std::move(iit->second);
    inflight_.erase(iit);
    if (pf.flow) {
      // cancel_flow rolls unmoved bytes back out of the source's
      // bytes_sent; the difference is what the wire actually carried —
      // the waste this cancellation writes off.
      const NodeToken src = source_node(pf.source, pf.file);
      const std::int64_t before = net_.bytes_sent_from(src);
      net_.cancel_flow(pf.flow);
      moved = std::max<std::int64_t>(
          0, pf.file->size - (before - net_.bytes_sent_from(src)));
    }
    if (pf.event) sim_.cancel(pf.event);
    auto wit = workers_.find(track.dest);
    if (wit != workers_.end() && wit->second.joined) {
      if (wit->second.active_fetches > 0) --wit->second.active_fetches;
    }
  } else {
    // Still queued at the destination: drop it before it starts.
    auto& q = worker_queue_[track.dest];
    auto it = std::find_if(q.begin(), q.end(),
                           [&](const PendingFetch& f) { return f.uuid == uuid; });
    if (it != q.end()) q.erase(it);
  }
  core_.transfer_closed(uuid, track.dest, track.cache_name,
                        vine::control::TransferOutcome::cancelled, moved);
  emit(vine::obs::Event::make_transfer_end(
      now, track.cache_name, "prefetch", track.source.key, track.dest,
      track.dest, moved, uuid, /*ok=*/false, "prefetch_cancelled"));
  auto wit = workers_.find(track.dest);
  if (wit != workers_.end() && wit->second.joined) {
    start_next_fetches(track.dest);
  }
}

void ClusterSim::enqueue_fetch(PendingFetch fetch) {
  if (fetch.source.kind == TransferSource::Kind::worker &&
      fetch.kind == PendingFetch::Kind::fetch) {
    stats_.max_worker_source_inflight =
        std::max(stats_.max_worker_source_inflight,
                 core_.transfers().inflight_from(fetch.source));
  }
  std::string dest = fetch.dest;
  auto& queue = worker_queue_[dest];
  const bool background = fetch.background();
  if ((config_.sched.lookahead.enabled || config_.redundancy.enabled) &&
      !background) {
    // Task-critical fetches jump ahead of queued background traffic
    // (prefetches and replication copies alike).
    auto it = std::find_if(queue.begin(), queue.end(), [](const PendingFetch& f) {
      return f.background();
    });
    queue.insert(it, std::move(fetch));
  } else {
    queue.push_back(std::move(fetch));
  }
  start_next_fetches(dest);
}

void ClusterSim::start_next_fetches(const std::string& worker) {
  WorkerSim& w = workers_[worker];
  auto& queue = worker_queue_[worker];
  while (!queue.empty()) {
    // Background transfers (prefetch or replication) leave one slot free
    // for task-critical arrivals, so they can never saturate a destination.
    const int cap = queue.front().background()
                        ? config_.worker_parallel_transfers - 1
                        : config_.worker_parallel_transfers;
    if (w.active_fetches >= cap) break;
    PendingFetch fetch = std::move(queue.front());
    queue.pop_front();
    ++w.active_fetches;
    start_fetch(fetch);
  }
}

void ClusterSim::start_fetch(PendingFetch fetch) {
  {
    auto ev = vine::obs::Event::make_transfer_begin(
        sim_.now(), fetch.file->name, fetch.label(), source_key_of(fetch.source),
        fetch.dest, fetch.dest, fetch.file->size, fetch.uuid);
    if (fetch.kind == PendingFetch::Kind::mini_task) ev.detail = "unpack";
    emit(std::move(ev));
  }
  fetch.seq = next_fetch_seq_++;
  const std::string uuid = fetch.uuid;
  PendingFetch& pf = inflight_[uuid];
  pf = std::move(fetch);
  if (pf.kind == PendingFetch::Kind::mini_task) {
    double duration = static_cast<double>(pf.file->size) / config_.unpack_Bps;
    pf.event = sim_.at(sim_.now() + duration,
                       [this, uuid] { finish_inflight(uuid); });
    return;
  }
  // A queued fetch can outlive its source: the peer may have crashed (and
  // even rejoined, cache cold) since planning. Refuse to simulate bytes
  // the source no longer holds — the peer answers not-found.
  if (pf.source.kind == TransferSource::Kind::worker &&
      !core_.replicas().has_present(pf.file->name, pf.source.key)) {
    fail_inflight(uuid);
    return;
  }
  const NodeToken src = source_node(pf.source, pf.file);
  pf.flow = net_.start_flow(src, workers_.at(pf.dest).node, pf.file->size,
                            [this, uuid] { finish_inflight(uuid); });
  if (pf.flow == 0) fail_inflight(uuid);  // source node removed (crash)
}

void ClusterSim::finish_inflight(const std::string& uuid) {
  auto it = inflight_.find(uuid);
  if (it == inflight_.end()) return;  // torn down by a crash
  PendingFetch fetch = std::move(it->second);
  inflight_.erase(it);
  if (fetch.corrupted) {
    // The receiver's digest check rejects the blob: bandwidth was burned
    // but no replica materializes, and the source gets a failure score.
    fetch_failed(fetch);
    return;
  }
  fetch_complete(fetch);
}

void ClusterSim::fail_inflight(const std::string& uuid) {
  auto it = inflight_.find(uuid);
  if (it == inflight_.end()) return;
  PendingFetch fetch = std::move(it->second);
  inflight_.erase(it);
  if (fetch.flow) net_.cancel_flow(fetch.flow);
  if (fetch.event) sim_.cancel(fetch.event);
  fetch_failed(fetch);
}

void ClusterSim::fetch_failed(const PendingFetch& fetch) {
  emit(vine::obs::Event::make_transfer_end(
      sim_.now(), fetch.file->name, fetch.label(), source_key_of(fetch.source),
      fetch.dest, fetch.dest, fetch.file->size, fetch.uuid, /*ok=*/false,
      fetch.corrupted ? "digest_reject" : "failed"));
  core_.transfer_closed(fetch.uuid, fetch.dest, fetch.file->name,
                        vine::control::TransferOutcome::failed, fetch.file->size);
  // Nothing may happen between now and the source's backoff expiry, and an
  // idle event queue ends the run — so book the retry pass explicitly.
  const double until = core_.scheduler().source_health().blacklist_until(fetch.source);
  if (until > sim_.now()) {
    sim_.at(until, [this] { request_schedule(); });
  }
  auto wit = workers_.find(fetch.dest);
  if (wit != workers_.end() && wit->second.joined) {
    if (wit->second.active_fetches > 0) --wit->second.active_fetches;
    start_next_fetches(fetch.dest);
  }
  request_schedule();
}

void ClusterSim::fetch_complete(const PendingFetch& fetch) {
  using Kind = PendingFetch::Kind;
  const bool unpack = fetch.kind == Kind::mini_task;
  emit(vine::obs::Event::make_transfer_end(
      sim_.now(), fetch.file->name, fetch.label(), source_key_of(fetch.source),
      fetch.dest, fetch.dest, fetch.file->size, fetch.uuid, /*ok=*/true,
      unpack ? "unpack" : ""));
  emit(vine::obs::Event::make_cache_insert(
      sim_.now(), fetch.dest, fetch.file->name, fetch.file->size,
      unpack ? "unpack" : fetch.background() ? fetch.label() : "fetch"));
  core_.transfer_closed(fetch.uuid, fetch.dest, fetch.file->name,
                        vine::control::TransferOutcome::ok, fetch.file->size);
  // The core counts url fetches once; the sim also splits them by origin.
  if (fetch.kind == Kind::fetch && fetch.source.kind == TransferSource::Kind::url) {
    if (fetch.file->origin == SimFile::Origin::sharedfs) {
      ++stats_.transfers_from_sharedfs;
      stats_.bytes_from_sharedfs += fetch.file->size;
    } else {
      ++stats_.transfers_from_archive;
      stats_.bytes_from_archive += fetch.file->size;
    }
  }

  WorkerSim& w = workers_[fetch.dest];
  --w.active_fetches;
  start_next_fetches(fetch.dest);
  request_schedule();
}

void ClusterSim::dispatch(TaskEntry& task) {
  // The manager dispatches serially; at very large task counts this is the
  // §6 bottleneck (1 ms/task -> 1000 s per million tasks).
  double start = std::max(sim_.now(), next_dispatch_at_) + config_.dispatch_overhead;
  next_dispatch_at_ = start;
  const std::uint64_t id = task.spec.id;
  runs_[id].dispatch_event = sim_.at(start, [this, id] {
    TaskRun& r = runs_[id];
    r.dispatch_event = 0;
    r.started_at = sim_.now();
    core_.set_state(*core_.task(id), TaskState::running);
    r.completion_event = sim_.at(sim_.now() + r.task->duration, [this, id] {
      runs_[id].completion_event = 0;
      task_complete(id);
    });
  });
}

void ClusterSim::task_complete(std::uint64_t id) {
  SimTask& task = *runs_[id].task;
  TaskEntry& entry = *core_.task(id);
  const std::string worker = entry.worker;
  double now = sim_.now();

  if (task.is_library) {
    // Instance stays up, holding its cores; announce availability.
    core_.library_ready(worker, id, task.library);
    request_schedule();
    return;
  }

  makespan_ = std::max(makespan_, now);
  // Shared-storage mode: outputs *move* to the manager rather than staying
  // cached at the worker; consumers must pull them back (Figure 13a's
  // back-and-forth).
  const bool retrieve = task.retrieve_outputs || config_.retrieve_temp_outputs;
  std::vector<vine::control::CachedObject> kept;
  for (const auto& out : task.outputs) {
    out.file->size = out.size;
    decls_.at(out.file)->size_hint = out.size > 0 ? out.size : out.file->planned_bytes;
    if (!retrieve) kept.push_back({out.file->name, out.size});
  }
  core_.task_done(entry, TaskState::done, kept,
                  std::max(0.0, now - runs_[id].started_at));
  for (const auto& out : task.outputs) {
    if (retrieve) {
      retrieve_output(out.file, worker);
    } else {
      emit(vine::obs::Event::make_cache_insert(now, worker, out.file->name,
                                               out.size, "task_output"));
    }
  }
  request_schedule();

  // Fault plans can arm "crash after N completed tasks"; check last so the
  // Nth task's outputs exist briefly — and are then lost with the worker.
  ++workers_[worker].tasks_completed;
  maybe_fire_task_triggers(worker);
}

void ClusterSim::retrieve_output(const SimFile* file, const std::string& worker) {
  // Output returns to the manager; in shared-storage mode the data then
  // leaves the worker, so future consumers must pull it back from the
  // manager (the Figure 13a back-and-forth). The `worker` field of the
  // transfer events names the worker whose NIC carries the bytes — the
  // *source* here, with dest "manager".
  std::string uuid = "ret-" + std::to_string(next_retrieval_id_++);
  retrieving_.insert(file->name);
  emit(vine::obs::Event::make_transfer_begin(sim_.now(), file->name, "worker",
                                             worker, "manager", worker,
                                             file->size, uuid));
  net_.start_flow(workers_.at(worker).node, manager_node_, file->size,
                  [this, file, worker, uuid] {
    emit(vine::obs::Event::make_transfer_end(sim_.now(), file->name, "worker",
                                             worker, "manager", worker,
                                             file->size, uuid, /*ok=*/true,
                                             "retrieval"));
    emit(vine::obs::Event::make_cache_insert(sim_.now(), "manager", file->name,
                                             file->size, "retrieval"));
    ++stats_.retrievals_to_manager;
    stats_.bytes_to_manager += file->size;
    retrieving_.erase(file->name);
    at_manager_.insert(file->name);
    makespan_ = std::max(makespan_, sim_.now());
    request_schedule();
  });
}

// ------------------------------------------------------------ faults

namespace faults = vine::faults;

std::size_t ClusterSim::joined_workers() const {
  std::size_t n = 0;
  for (const auto& [_, w] : workers_) n += w.joined;
  return n;
}

void ClusterSim::apply_fault_plan(const faults::FaultPlan& plan) {
  if (worker_order_.empty()) return;
  for (const auto& ev : plan.events()) {
    const std::string id =
        worker_order_[static_cast<std::size_t>(ev.worker) % worker_order_.size()];
    switch (ev.kind) {
      case faults::FaultKind::worker_crash:
      case faults::FaultKind::worker_hang:
        // The simulator has no heartbeat machinery to model separately: a
        // hung worker is a crashed worker by the time eviction fires, so
        // both kinds tear the worker down. Crashing the last survivor
        // would strand the workflow forever; such events are skipped.
        if (ev.after_tasks >= 0) {
          task_triggers_[id].push_back(ev);
          break;
        }
        sim_.at(ev.at, [this, id] {
          if (joined_workers() <= 1) return;
          ++stats_.faults_injected;
          emit(vine::obs::Event::make_fault_injected(sim_.now(), "worker_crash",
                                                     id));
          fail_worker(id);
        });
        break;
      case faults::FaultKind::worker_rejoin:
        sim_.at(ev.at, [this, id] { rejoin_worker(id); });
        break;
      case faults::FaultKind::peer_fail:
        sim_.at(ev.at, [this] { inject_peer_fail(); });
        break;
      case faults::FaultKind::peer_stall:
        sim_.at(ev.at, [this, t = ev.duration] { inject_peer_stall(t); });
        break;
      case faults::FaultKind::frame_corrupt:
        sim_.at(ev.at, [this] { inject_frame_corrupt(); });
        break;
      case faults::FaultKind::msg_delay:
        sim_.at(ev.at, [this, d = ev.duration] { delay_running_task(d); });
        break;
    }
  }
}

void ClusterSim::maybe_fire_task_triggers(const std::string& worker) {
  auto it = task_triggers_.find(worker);
  if (it == task_triggers_.end()) return;
  const int done = workers_[worker].tasks_completed;
  bool fire = false;
  auto& pending = it->second;
  for (auto ev = pending.begin(); ev != pending.end();) {
    if (ev->after_tasks >= 0 && done >= ev->after_tasks) {
      fire = true;
      ev = pending.erase(ev);
    } else {
      ++ev;
    }
  }
  if (fire && joined_workers() > 1) {
    ++stats_.faults_injected;
    emit(vine::obs::Event::make_fault_injected(sim_.now(), "worker_crash",
                                               worker));
    fail_worker(worker);
  }
}

void ClusterSim::fail_worker(const std::string& id_ref) {
  // Copy first: callers may pass a string this teardown itself mutates,
  // such as a task entry's worker field, which the re-queue below clears —
  // that would leave a dangling-empty id for the final worker_lost event.
  const std::string id = id_ref;
  auto wit = workers_.find(id);
  if (wit == workers_.end() || !wit->second.joined) return;
  WorkerSim& w = wit->second;
  const double now = sim_.now();
  ++stats_.worker_crashes;
  w.joined = false;

  // 1. Tasks placed here lose their pending dispatch/completion events; the
  //    worker's synthesized library installs die with it — a rejoin makes
  //    fresh ones.
  std::vector<std::uint64_t> dead_libraries;
  for (auto& [tid, run] : runs_) {
    const TaskEntry* task = core_.task(tid);
    if (task == nullptr || task->worker != id) continue;
    if (run.dispatch_event) {
      sim_.cancel(run.dispatch_event);
      run.dispatch_event = 0;
    }
    if (run.completion_event) {
      sim_.cancel(run.completion_event);
      run.completion_event = 0;
    }
    if (run.task->is_library) dead_libraries.push_back(tid);
  }

  // 2. The core drops the worker: snapshot, replicas (the cache dies with
  //    it), transfers to and from it, lookahead state; its tasks re-queue.
  const auto purge = core_.purge_worker(id, "worker_lost");
  net_.remove_node(w.node);

  // 3. Fetches: the worker's own queue and transfer slots evaporate;
  //    started fetches toward it are silently aborted; started fetches
  //    *from* it fail at their destinations, which score the source and
  //    re-plan. Victims are processed in start order for determinism.
  worker_queue_[id].clear();
  w.active_fetches = 0;
  std::vector<std::pair<std::uint64_t, std::string>> to_abort, to_fail;
  for (const auto& [uuid, pf] : inflight_) {
    if (pf.dest == id) {
      to_abort.emplace_back(pf.seq, uuid);
    } else if (pf.source.kind == TransferSource::Kind::worker &&
               pf.source.key == id) {
      to_fail.emplace_back(pf.seq, uuid);
    }
  }
  std::sort(to_abort.begin(), to_abort.end());
  std::sort(to_fail.begin(), to_fail.end());
  for (const auto& [_, uuid] : to_abort) {
    auto it = inflight_.find(uuid);
    if (it == inflight_.end()) continue;
    PendingFetch pf = std::move(it->second);
    inflight_.erase(it);
    if (pf.flow) net_.cancel_flow(pf.flow);
    if (pf.event) sim_.cancel(pf.event);
    emit(vine::obs::Event::make_transfer_end(
        now, pf.file->name, pf.label(), source_key_of(pf.source), pf.dest,
        pf.dest, pf.file->size, pf.uuid, /*ok=*/false, "worker_lost"));
  }
  for (const auto& [_, uuid] : to_fail) fail_inflight(uuid);
  for (std::uint64_t tid : dead_libraries) {
    core_.erase_task(tid);
    runs_.erase(tid);
  }

  // 4. Replica repair, then transitive recovery of temps whose last copy
  //    died.
  core_.recover_after_loss(id, purge.lost);
  emit(vine::obs::Event::make_worker_lost(now, id, "crash"));
  request_schedule();
}

void ClusterSim::rejoin_worker(const std::string& id) {
  auto wit = workers_.find(id);
  if (wit == workers_.end() || wit->second.joined) return;
  ++stats_.worker_rejoins;
  worker_queue_[id].clear();
  worker_join(id);  // revives the flow-network node; cache starts cold
}

ClusterSim::PendingFetch* ClusterSim::pick_peer_victim() {
  // Deterministic choice: the oldest (min seq) live peer-sourced network
  // fetch that is not already under a fault.
  PendingFetch* best = nullptr;
  for (auto& [_, pf] : inflight_) {
    if (pf.kind == PendingFetch::Kind::mini_task || pf.corrupted) continue;
    if (pf.source.kind != TransferSource::Kind::worker) continue;
    if (pf.flow == 0) continue;  // already stalled (flow cancelled)
    if (best == nullptr || pf.seq < best->seq) best = &pf;
  }
  return best;
}

void ClusterSim::inject_peer_fail() {
  PendingFetch* victim = pick_peer_victim();
  if (victim == nullptr) return;  // nothing peer-to-peer in the air
  ++stats_.faults_injected;
  emit(vine::obs::Event::make_fault_injected(sim_.now(), "peer_fail",
                                             victim->dest));
  fail_inflight(victim->uuid);
}

void ClusterSim::inject_peer_stall(double timeout) {
  PendingFetch* victim = pick_peer_victim();
  if (victim == nullptr) return;
  ++stats_.faults_injected;
  emit(vine::obs::Event::make_fault_injected(sim_.now(), "peer_stall",
                                             victim->dest));
  // Bytes stop moving now; the receiver notices only when its idle timeout
  // expires, then treats the fetch as failed and re-plans.
  net_.cancel_flow(victim->flow);
  victim->flow = 0;
  victim->event = sim_.at(sim_.now() + timeout,
                          [this, uuid = victim->uuid] { fail_inflight(uuid); });
}

void ClusterSim::inject_frame_corrupt() {
  PendingFetch* victim = pick_peer_victim();
  if (victim == nullptr) return;
  ++stats_.faults_injected;
  emit(vine::obs::Event::make_fault_injected(sim_.now(), "frame_corrupt",
                                             victim->dest));
  victim->corrupted = true;  // digest check rejects it on arrival
}

void ClusterSim::delay_running_task(double duration) {
  // Deterministic choice: the running task with the lowest id.
  for (auto& [tid, run] : runs_) {
    if (run.completion_event == 0) continue;
    const TaskEntry* task = core_.task(tid);
    if (task == nullptr || task->state != TaskState::running) continue;
    ++stats_.faults_injected;
    emit(vine::obs::Event::make_fault_injected(sim_.now(), "msg_delay",
                                               task->worker));
    sim_.cancel(run.completion_event);
    const double done_at =
        std::max(run.started_at + run.task->duration, sim_.now()) + duration;
    run.completion_event = sim_.at(done_at, [this, id = tid] {
      runs_[id].completion_event = 0;
      task_complete(id);
    });
    return;
  }
}

void ClusterSim::emit_counters() {
  // The int64 SimStats fields are exposed through the registry (see the
  // constructor); the plain-int fields are folded in here so the snapshot
  // event carries the complete counter set.
  auto snap = metrics_.snapshot();
  snap["sim.tasks_unfinished"] = stats_.tasks_unfinished;
  snap["sim.max_worker_source_inflight"] = stats_.max_worker_source_inflight;
  snap["sim.worker_crashes"] = stats_.worker_crashes;
  snap["sim.worker_rejoins"] = stats_.worker_rejoins;
  snap["sim.faults_injected"] = stats_.faults_injected;
  if (config_.factory.enabled) {
    snap["sim.factory_spawned"] = stats_.factory_spawned;
    snap["sim.factory_retired"] = stats_.factory_retired;
  }
  emit(vine::obs::Event::make_counters(sim_.now(), std::move(snap)));
}

void ClusterSim::audit(vine::AuditReport& report) const { core_.audit(report); }

}  // namespace vinesim
