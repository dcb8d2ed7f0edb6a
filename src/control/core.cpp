#include "control/core.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace vine::control {

const char* transfer_label(Transfer::Kind kind, TransferSource::Kind source) {
  switch (kind) {
    case Transfer::Kind::prefetch: return "prefetch";
    case Transfer::Kind::replica: return "replica";
    default: return source_kind_name(source);
  }
}

Core::Core(Host& host, ControlStats& stats, SchedulerConfig sched,
           std::uint64_t seed, redundancy::RedundancyConfig redundancy)
    : host_(host),
      stats_(stats),
      scheduler_(sched, seed),
      redundancy_(redundancy) {}

// ------------------------------------------------------------ workers

const WorkerSnapshot* Core::worker(const WorkerId& id) const {
  auto it = slot_.find(id);
  return it == slot_.end() ? nullptr : &snapshots_[it->second];
}

void Core::worker_joined(WorkerSnapshot snap) {
  avail_cores_ += snap.available().cores;
  auto it = slot_.find(snap.id);
  if (it != slot_.end()) {
    // Re-registration keeps the slot and starts the snapshot over.
    WorkerSnapshot& old = snapshots_[it->second];
    avail_cores_ -= old.available().cores;
    old = std::move(snap);
    return;
  }
  slot_.emplace(snap.id, snapshots_.size());
  snapshots_.push_back(std::move(snap));
}

Core::Purge Core::purge_worker(const WorkerId& id, const char* reason) {
  Purge out;
  const double now = host_.now();
  // Replicas that die with the worker, then the transfers they abort.
  out.lost = replicas_.files_on(id);
  for (const std::string& name : out.lost) {
    host_.emit(obs::Event::make_cache_evict(now, id, name, reason));
  }
  replicas_.remove_worker(id);
  for (TransferRecord& rec : transfers_.remove_worker(id)) {
    Transfer::Kind kind = rec.prefetch ? Transfer::Kind::prefetch : Transfer::Kind::fetch;
    prefetch_live_.erase(rec.uuid);
    if (replication_live_.erase(rec.uuid) > 0) {
      kind = Transfer::Kind::replica;
      redundancy_.note_replica_done(rec.cache_name, rec.dest, false, 0);
    }
    out.dropped.push_back({std::move(rec), kind});
  }
  // Unclaimed prefetched replicas died with its cache; outputs expected
  // there are re-expected when their producers are re-placed.
  std::erase_if(prefetched_, [&](const auto& p) { return p.second == id; });
  std::erase_if(expected_outputs_, [&](const auto& e) { return e.second == id; });

  // Swap-pop the dense snapshot and retarget the displaced worker's slot.
  auto sit = slot_.find(id);
  if (sit != slot_.end()) {
    const std::size_t slot = sit->second;
    const std::size_t last = snapshots_.size() - 1;
    avail_cores_ -= snapshots_[slot].available().cores;
    if (slot != last) {
      snapshots_[slot] = std::move(snapshots_[last]);
      slot_[snapshots_[slot].id] = slot;
    }
    snapshots_.pop_back();
    slot_.erase(sit);
  }

  // Re-queue everything staged or running there. A library instance died
  // with its worker: drop its commitment; the host installs a replacement.
  for (auto& [_, task] : tasks_) {
    const bool library = task.spec.kind == TaskKind::library;
    if (task.worker != id ||
        (!library && task.state != TaskState::ready &&
         task.state != TaskState::dispatched && task.state != TaskState::running)) {
      continue;
    }
    task.committed = false;
    task.worker.clear();
    if (!library) set_state(task, TaskState::ready);
  }
  return out;
}

void Core::recover_after_loss(const WorkerId& id,
                              const std::vector<std::string>& lost) {
  // Repair before recovery: survivors below k go out now, so the walk
  // below fires only for temps whose every copy died.
  if (redundancy_.enabled()) {
    for (const std::string& name : redundancy_.note_worker_lost(id, lost, replicas_)) {
      ++stats_.replica_repairs;
      host_.emit(obs::Event::make_replica_repair(host_.now(), id, name));
    }
    issue_replications();
  }
  // Temps whose last copy died: re-run their producers so waiting
  // consumers are not stranded.
  for (auto& [_, task] : tasks_) {
    if (task.state == TaskState::done || task.state == TaskState::failed ||
        task.spec.kind == TaskKind::library) {
      continue;
    }
    for (const auto& in : task.spec.inputs) {
      if (in.file && in.file->kind == FileKind::temp && !produced(in.file->cache_name)) {
        recover_lost(in.file);
      }
    }
  }
}

// ------------------------------------------------------------ tasks

TaskEntry& Core::submit(TaskSpec spec, std::string category) {
  const TaskId id = spec.id;
  TaskEntry& task = tasks_[id];
  task.spec = std::move(spec);
  task.category = std::move(category);
  set_state(task, TaskState::ready);
  return task;
}

TaskEntry* Core::task(TaskId id) {
  auto it = tasks_.find(id);
  return it == tasks_.end() ? nullptr : &it->second;
}

void Core::erase_task(TaskId id) {
  ready_.erase(id);
  tasks_.erase(id);
}

void Core::set_state(TaskEntry& task, TaskState state) {
  task.state = state;
  if (state == TaskState::ready) {
    ready_.insert(task.spec.id);
  } else {
    ready_.erase(task.spec.id);
  }
  host_.emit(obs::Event::make_task_state(host_.now(), task.spec.id,
                                         task_state_name(state), task.worker,
                                         task.category,
                                         state != TaskState::failed));
}

void Core::release(TaskEntry& task) {
  if (!task.committed) return;
  auto it = slot_.find(task.worker);
  if (it != slot_.end()) {
    snapshots_[it->second].committed -= task.spec.resources;
    snapshots_[it->second].running_tasks -= 1;
    avail_cores_ += task.spec.resources.cores;
  }
  task.committed = false;
}

// ------------------------------------------------------------ host reports

ClosedTransfer Core::transfer_closed(const std::string& uuid, const WorkerId& dest,
                                     const std::string& cache_name,
                                     TransferOutcome outcome, std::int64_t bytes) {
  using Kind = Transfer::Kind;
  ClosedTransfer out;
  out.record = transfers_.finish(uuid);
  const bool ok = outcome == TransferOutcome::ok;
  if (ok) {
    replicas_.set_replica(cache_name, dest, ReplicaState::present, bytes);
  } else {
    replicas_.remove_replica(cache_name, dest);
  }
  if (!out.record) {
    // A worker loss already dropped the record and refunded its class.
    if (outcome == TransferOutcome::failed) ++stats_.transfer_failures;
    return out;
  }
  const TransferSource& source = out.record->source;
  const bool self = source.kind == TransferSource::Kind::worker && source.key == dest;
  // The background transfer class holds prefetches and replication copies.
  const bool replica = out.record->prefetch && replication_live_.erase(uuid) > 0;
  const bool prefetch = out.record->prefetch && !replica;
  if (prefetch) prefetch_live_.erase(uuid);
  out.kind = replica    ? Kind::replica
             : prefetch ? Kind::prefetch
             : self     ? Kind::mini_task
                        : Kind::fetch;

  if (!ok) {
    if (outcome == TransferOutcome::cancelled && prefetch) {
      ++stats_.prefetch_cancelled;
      stats_.prefetch_wasted_bytes += bytes;
      return out;
    }
    ++stats_.transfer_failures;
    // Only a task-critical fetch blames its source: background traffic
    // must not poison critical-path source health, and a mini-task's
    // "source" is its own destination.
    if (out.kind == Kind::fetch) scheduler_.note_transfer_failure(source, host_.now());
    if (replica) redundancy_.note_replica_done(cache_name, dest, false, 0);
    return out;
  }
  if (!self) scheduler_.note_transfer_success(source);
  switch (out.kind) {
    case Kind::replica:
      // Pinned: eviction must never drop a redundancy copy.
      replicas_.pin(cache_name, dest);
      ++stats_.replications;
      stats_.replication_bytes += bytes;
      redundancy_.note_replica_done(cache_name, dest, true, bytes);
      break;
    case Kind::prefetch:
      // Unclaimed until a placement lands on it (prefetch_hits); its bytes
      // never mix into the task-critical per-source totals.
      ++stats_.transfers_prefetch;
      stats_.bytes_prefetch += bytes;
      prefetched_.insert({cache_name, dest});
      break;
    case Kind::mini_task:
      ++stats_.mini_tasks_run;
      break;
    case Kind::fetch:
      switch (source.kind) {
        case TransferSource::Kind::manager:
          ++stats_.transfers_from_manager;
          stats_.bytes_from_manager += bytes;
          break;
        case TransferSource::Kind::url:
          ++stats_.transfers_from_url;
          stats_.bytes_from_url += bytes;
          break;
        case TransferSource::Kind::worker:
          ++stats_.transfers_from_peers;
          stats_.bytes_from_peers += bytes;
          break;
      }
      break;
  }
  return out;
}

void Core::task_done(TaskEntry& task, TaskState state,
                     std::span<const CachedObject> outputs, double runtime_s) {
  release(task);
  for (const CachedObject& out : outputs) {
    replicas_.set_replica(out.cache_name, task.worker, ReplicaState::present, out.size);
  }
  // Done or retrying, the outputs are no longer expected anywhere: they
  // exist as replicas now or are re-expected at re-placement.
  for (const auto& out : task.spec.outputs) {
    if (out.file) expected_outputs_.erase(out.file->cache_name);
  }
  if (state == TaskState::done) {
    ++stats_.tasks_done;
    const bool replicate = redundancy_.enabled() && task.spec.kind != TaskKind::library;
    std::vector<std::string> temp_inputs;
    for (const auto& in : task.spec.inputs) {
      if (!in.file || in.file->kind != FileKind::temp) continue;
      if (replicate) temp_inputs.push_back(in.file->cache_name);
      // A completed consumer closes its producer's recovery episode: a
      // later loss of the same output is a new recovery.
      auto it = tasks_.find(in.file->producer_task);
      if (it != tasks_.end()) it->second.recovering = false;
    }
    for (const auto& out : task.spec.outputs) {
      if (!replicate || !out.file || out.file->kind != FileKind::temp) continue;
      const std::string& name = out.file->cache_name;
      if (!replicas_.has_present(name, task.worker)) continue;  // retrieved
      redundancy_.note_produced(name, runtime_s, replicas_.known_size(name), temp_inputs);
    }
  } else if (state == TaskState::failed) {
    ++stats_.tasks_failed;
  }
  // A done or failed event names the worker it ran on; a retry's does not.
  if (state == TaskState::ready) task.worker.clear();
  set_state(task, state);
  task.worker.clear();
}

void Core::object_announced(const WorkerId& worker, const CachedObject& object) {
  replicas_.set_replica(object.cache_name, worker, ReplicaState::present, object.size);
}

void Core::object_dropped(const WorkerId& worker, const std::string& cache_name) {
  replicas_.remove_replica(cache_name, worker);
}

void Core::library_ready(const WorkerId& worker, TaskId id, const std::string& library) {
  auto sit = slot_.find(worker);
  if (sit != slot_.end()) snapshots_[sit->second].libraries.insert(library);
  // The instance runs for the rest of the workflow: done for bookkeeping,
  // its resources stay committed on the worker.
  if (TaskEntry* task = this->task(id)) set_state(*task, TaskState::done);
}

void Core::workflow_ended(std::span<const std::string> names) {
  for (const std::string& name : names) replicas_.remove_file(name);
  for (WorkerSnapshot& snap : snapshots_) snap.libraries.clear();
}

// ------------------------------------------------------------ elasticity

factory::FactorySignals Core::factory_signals(double now) const {
  factory::FactorySignals s;
  s.now = now;
  s.alive_workers = static_cast<int>(snapshots_.size());
  double disk_total_mb = 0, disk_used_mb = 0;
  for (const WorkerSnapshot& snap : snapshots_) {
    s.total_cores += snap.total.cores;
    s.busy_cores += snap.committed.cores;
    s.running_tasks += snap.running_tasks;
    if (snap.total.disk_mb <= 0) continue;  // sim workers model no disk
    disk_total_mb += snap.total.disk_mb;
    for (const std::string& name : replicas_.files_on(snap.id)) {
      disk_used_mb += static_cast<double>(replicas_.known_size(name)) / (1024.0 * 1024.0);
    }
  }
  // Waiting for a worker, not for inputs: a placed task (a library
  // instance included) is not queue depth.
  for (const TaskId id : ready_) s.ready_tasks += tasks_.at(id).worker.empty();
  s.cache_pressure = disk_total_mb > 0 ? disk_used_mb / disk_total_mb : 0;
  s.replication_backlog = redundancy_.backlog();
  return s;
}

std::vector<WorkerId> Core::retirable(int n) const {
  std::vector<WorkerId> out;
  std::map<std::string, int> leaving;  // copies the batch takes away
  for (const auto& [id, slot] : slot_) {  // id order
    if (static_cast<int>(out.size()) >= n) break;
    const WorkerSnapshot& snap = snapshots_[slot];
    // Only factory-spawned workers: the declared pool is the fixture. A
    // library instance holds cores, so library hosts never retire.
    if (id.rfind("fw", 0) != 0 || snap.running_tasks > 0 || snap.committed.cores > 0) {
      continue;
    }
    if (transfers_.inflight_to(id) + transfers_.inflight_from_worker(id) +
            transfers_.prefetch_inflight_to(id) +
            transfers_.prefetch_inflight_from_worker(id) > 0) {
      continue;
    }
    const std::vector<std::string> held = replicas_.files_on(id);
    if (std::any_of(held.begin(), held.end(), [&](const std::string& name) {
          auto it = leaving.find(name);
          return replicas_.present_count(name) - (it == leaving.end() ? 0 : it->second) < 2;
        })) {
      continue;
    }
    for (const std::string& name : held) ++leaving[name];
    out.push_back(id);
  }
  return out;
}

// ------------------------------------------------------------ the pass

void Core::schedule_pass() {
  ++stats_.sched_passes;
  const std::int64_t scanned_before = stats_.tasks_scanned;
  std::int64_t dispatched = 0;
  const bool lookahead = scheduler_.config().lookahead.enabled;
  if (lookahead) build_dag_view();
  // One pass bracket: the scheduler's token->slot scratch survives across
  // every pick below, and the DagView (with lookahead) feeds gravity.
  scheduler_.begin_pass(lookahead ? &dag_view_ : nullptr);
  // The iterator advances before processing: a dispatched task leaves the
  // set mid-walk, and the recovery walk may insert ids (std::set
  // iteration tolerates both).
  for (auto it = ready_.begin(); it != ready_.end();) {
    TaskEntry& task = tasks_.at(*it);
    ++it;
    ++stats_.tasks_scanned;
    if (task.worker.empty() && !place(task)) continue;

    bool all_present = true;
    for (const auto& in : task.spec.inputs) {
      all_present &= ensure_file_at(in.file, task.worker);
    }
    if (all_present) {
      set_state(task, TaskState::dispatched);
      host_.dispatch(task);
      ++dispatched;
    }
  }
  if (lookahead) {
    // Stale predictions die before new budget is spent.
    cancel_stale_prefetches();
    issue_prefetches();
  }
  scheduler_.end_pass();

  // Idle passes would flood the trace; record only passes that examined work.
  const std::int64_t scanned = stats_.tasks_scanned - scanned_before;
  if (scanned > 0) {
    host_.emit(obs::Event::make_sched_pass(host_.now(), scanned, dispatched));
  }
  issue_replications();
}

bool Core::produced(const std::string& cache_name) const {
  return replicas_.present_count(cache_name) > 0 ||
         host_.held_at_manager(cache_name);
}

bool Core::place(TaskEntry& task) {
  // Producibility gate: a temp input nobody holds means its producer has
  // not finished — committing a worker now would pin resources (and could
  // deadlock a full cluster) for nothing. If the producer already ran, the
  // output was lost: the walk schedules it again.
  for (const auto& in : task.spec.inputs) {
    if (in.file && in.file->kind == FileKind::temp &&
        !produced(in.file->cache_name)) {
      recover_lost(in.file);
      return false;
    }
  }
  // Saturation shortcut: no worker can fit more cores than the cluster
  // has free in total.
  if (avail_cores_ < task.spec.resources.cores) return false;
  auto pick = scheduler_.pick_worker(task.spec, snapshots_, replicas_);
  if (!pick) return false;

  // Commit straight into the live snapshot so the rest of this pass (and
  // the next) schedules against up-to-date availability.
  const std::size_t slot = slot_.at(*pick);
  WorkerSnapshot& snap = snapshots_[slot];
  task.worker = *pick;
  snap.committed += task.spec.resources;
  snap.running_tasks += 1;
  avail_cores_ -= task.spec.resources.cores;
  task.committed = true;
  const bool lookahead = scheduler_.config().lookahead.enabled;
  for (const auto& in : task.spec.inputs) {
    if (!in.file) continue;
    if (replicas_.has_present(in.file->cache_name, task.worker)) ++stats_.cache_hits;
    if (lookahead && prefetched_.erase({in.file->cache_name, task.worker})) {
      ++stats_.prefetch_hits;
    }
  }
  // Later picks in this pass (and the prefetch planner) see this task's
  // outputs as expected at its worker.
  for (const auto& out : task.spec.outputs) {
    if (!lookahead || !out.file) continue;
    expected_outputs_[out.file->cache_name] = task.worker;
    dag_view_.note_expected(out.file->cache_name, static_cast<std::uint32_t>(slot));
  }
  return true;
}

bool Core::ensure_file_at(const FileRef& file, const WorkerId& worker) {
  const std::string& name = file->cache_name;
  if (replicas_.has_present(name, worker)) return true;
  auto rep = replicas_.find(name, worker);
  if (rep && rep->state == ReplicaState::pending) return false;

  if (file->kind == FileKind::mini_task) {
    // The mini-task's own inputs land first; then it runs on the
    // destination itself, so that worker's source budget accounts for it.
    bool deps_ready = true;
    for (const auto& in : file->mini_task->inputs) {
      deps_ready &= ensure_file_at(in.file, worker);
    }
    if (!deps_ready) return false;
    auto self = TransferSource::from_worker(worker);
    const int limit = scheduler_.config().worker_source_limit;
    if (limit > 0 && transfers_.inflight_from(self) >= limit) return false;
    start_transfer({Transfer::Kind::mini_task, {}, file, name, worker, self,
                    file->size_hint});
    return false;
  }

  TransferSource fixed = TransferSource::from_manager();
  bool peer_only = false;
  switch (file->kind) {
    case FileKind::local:
    case FileKind::buffer:
      break;
    case FileKind::url:
      fixed = TransferSource::from_url(file->url);
      break;
    case FileKind::temp:
      // Temps live only in the cluster — unless the manager holds a copy,
      // a peer must serve it (none yet: producer unfinished or peers busy).
      peer_only = !host_.held_at_manager(name);
      break;
    default:
      return false;
  }
  auto source = scheduler_.plan_source(name, fixed, worker, replicas_,
                                       transfers_, host_.now());
  if (!source || (peer_only && source->kind != TransferSource::Kind::worker)) {
    return false;  // every source saturated or backing off; retry next pass
  }
  start_transfer({Transfer::Kind::fetch, {}, file, name, worker, *source,
                  file->size_hint});
  return false;
}

void Core::start_transfer(Transfer t, TaskId consumer) {
  const bool background = t.kind == Transfer::Kind::prefetch ||
                          t.kind == Transfer::Kind::replica;
  t.uuid = transfers_.begin(t.cache_name, t.dest, t.source, host_.now(),
                            background);
  replicas_.set_replica(t.cache_name, t.dest, ReplicaState::pending);
  // Tracked before the host runs: a transfer can fail synchronously.
  if (t.kind == Transfer::Kind::prefetch) {
    prefetch_live_[t.uuid] = PrefetchTrack{t.cache_name, t.dest, t.source, consumer};
  } else if (t.kind == Transfer::Kind::replica) {
    replication_live_.insert(t.uuid);
  }
  if (host_.move_bytes(t)) {
    if (t.kind == Transfer::Kind::prefetch) ++stats_.prefetch_issued;
    return;
  }
  transfers_.finish(t.uuid);
  replicas_.remove_replica(t.cache_name, t.dest);
  prefetch_live_.erase(t.uuid);
  if (replication_live_.erase(t.uuid) > 0) {
    redundancy_.note_replica_done(t.cache_name, t.dest, /*ok=*/false, 0);
  }
}

void Core::build_dag_view() {
  dag_view_.clear();
  // Expected locations of in-flight producer outputs, resolved to slots.
  for (const auto& [name, worker] : expected_outputs_) {
    auto it = slot_.find(worker);
    if (it != slot_.end()) {
      dag_view_.note_expected(name, static_cast<std::uint32_t>(it->second));
    }
  }
  // The waiting frontier: unplaced ready tasks held back by the gate. Same
  // walk order and gate as the pass, but read-only.
  for (const TaskId tid : ready_) {
    const TaskEntry& task = tasks_.at(tid);
    if (!task.worker.empty()) continue;
    auto pending = [&](const Mount& in) {
      return in.file->kind == FileKind::temp && !produced(in.file->cache_name);
    };
    if (std::none_of(task.spec.inputs.begin(), task.spec.inputs.end(),
                     [&](const Mount& in) { return in.file && pending(in); })) {
      continue;
    }
    const std::uint32_t idx = dag_view_.add_waiting(tid);
    for (const auto& in : task.spec.inputs) {
      if (!in.file) continue;
      dag_view_.add_dep(idx, in.file->cache_name,
                        in.file->size_hint > 0 ? in.file->size_hint : 1,
                        pending(in));
    }
  }
}

void Core::cancel_stale_prefetches() {
  // A prediction is stale when its consumer is done or failed, or was
  // placed on another worker.
  std::vector<std::string> stale;
  for (const auto& [uuid, track] : prefetch_live_) {
    if (track.cancel_sent) continue;
    auto it = tasks_.find(track.consumer);
    const bool live = it != tasks_.end() &&
                      it->second.state != TaskState::done &&
                      it->second.state != TaskState::failed &&
                      (it->second.worker.empty() || it->second.worker == track.dest);
    if (!live) stale.push_back(uuid);
  }
  for (const std::string& uuid : stale) {
    auto it = prefetch_live_.find(uuid);
    if (it == prefetch_live_.end()) continue;  // closed by an earlier cancel
    it->second.cancel_sent = true;
    const PrefetchTrack track = it->second;  // the host may close it
    host_.cancel_transfer(uuid, track);
  }
}

void Core::issue_prefetches() {
  for (const auto& plan : scheduler_.plan_prefetch(dag_view_, snapshots_, replicas_,
                                                   transfers_, host_.now())) {
    start_transfer({Transfer::Kind::prefetch, {}, nullptr, plan.cache_name,
                    plan.dest, plan.source, plan.bytes},
                   plan.consumer);
  }
}

void Core::issue_replications() {
  if (!redundancy_.enabled()) return;
  for (const auto& plan : redundancy_.plan(replicas_, transfers_, snapshots_)) {
    start_transfer({Transfer::Kind::replica, {}, nullptr, plan.cache_name,
                    plan.dest, TransferSource::from_worker(plan.source),
                    plan.bytes});
  }
}

void Core::recover_lost(const FileRef& file) {
  constexpr std::size_t kMaxRecoveryChain = 100000;
  // The done producer of a temp with no copy anywhere (none on its way to
  // the manager either), or null.
  auto lost_producer = [&](const FileRef& f) -> TaskEntry* {
    if (!f || f->kind != FileKind::temp || f->producer_task == 0) return nullptr;
    auto it = tasks_.find(f->producer_task);
    if (it == tasks_.end() || it->second.state != TaskState::done) return nullptr;
    const bool copy = produced(f->cache_name) || host_.arriving_at_manager(f->cache_name);
    return copy ? nullptr : &it->second;
  };
  // Common case first, allocation-free: the producer has not run yet.
  if (lost_producer(file) == nullptr) return;

  // Iterative walk up the producer ancestry: a re-queued producer whose own
  // temp inputs are gone must reset that chain too. Each producer leaves
  // TaskState::done when re-queued, so it is visited once and cyclic
  // producer graphs terminate; the step bound caps one loss's work.
  std::vector<FileRef> pending{file};
  std::size_t steps = 0;
  while (!pending.empty()) {
    FileRef f = std::move(pending.back());
    pending.pop_back();
    TaskEntry* producer = lost_producer(f);
    if (producer == nullptr) continue;
    if (++steps > kMaxRecoveryChain) {
      VINE_LOG_ERROR("control",
                     "lost-temp recovery chain exceeded %zu producers; "
                     "abandoning the rest (workflow may stall)",
                     kMaxRecoveryChain);
      return;
    }
    VINE_LOG_WARN("control", "temp %s lost with its last replica; re-running task %llu",
                  f->cache_name.c_str(),
                  static_cast<unsigned long long>(producer->spec.id));
    // One logical recovery episode counts once: a re-run output that died
    // again before any consumer used it continues the same episode.
    if (!producer->recovering) ++stats_.recoveries;
    producer->recovering = true;
    if (redundancy_.enabled() && redundancy_.ever_satisfied(f->cache_name)) {
      // A temp that reached k copies should never need its producer again.
      ++stats_.recoveries_replicated;
    }
    producer->worker.clear();
    set_state(*producer, TaskState::ready);
    for (const auto& in : producer->spec.inputs) pending.push_back(in.file);
  }
}

// ------------------------------------------------------------ audit

void Core::audit(AuditReport& report) const {
  std::set<WorkerId> known;
  for (const auto& [id, _] : slot_) known.insert(id);
  replicas_.audit(report, known);
  transfers_.audit(report);

  static const std::string kSub = "control";
  for (const auto& rec : transfers_.snapshot()) {
    const std::string what = "transfer " + rec.uuid + " of " + rec.cache_name;
    if (!known.count(rec.dest)) {
      report.add(kSub, what + " targets unknown worker " + rec.dest);
    }
    if (rec.source.kind == TransferSource::Kind::worker && !known.count(rec.source.key)) {
      report.add(kSub, what + " draws from unknown worker " + rec.source.key);
    }
    if (!replicas_.find(rec.cache_name, rec.dest)) {
      report.add(kSub, what + " has no replica record at destination " + rec.dest);
    }
  }
  // The ready set mirrors exactly the tasks in TaskState::ready.
  for (const auto& [id, task] : tasks_) {
    if (task.committed && !known.count(task.worker)) {
      report.add(kSub, "task " + std::to_string(id) +
                           " holds committed resources on unknown worker '" +
                           task.worker + "'");
    }
    if ((task.state == TaskState::ready) != (ready_.count(id) > 0)) {
      report.add(kSub, "task " + std::to_string(id) + " in state " +
                           task_state_name(task.state) + " disagrees with the ready set");
    }
  }
  for (TaskId id : ready_) {
    if (!tasks_.count(id)) {
      report.add(kSub, "ready-set entry " + std::to_string(id) + " has no task");
    }
  }
  // The dense snapshot vector and the id -> slot map are a bijection.
  if (snapshots_.size() != slot_.size()) {
    report.add(kSub, std::to_string(snapshots_.size()) + " snapshots for " +
                         std::to_string(slot_.size()) + " workers");
  }
  for (const auto& [id, slot] : slot_) {
    if (slot >= snapshots_.size() || snapshots_[slot].id != id) {
      report.add(kSub, "worker " + id + " slot " + std::to_string(slot) +
                           " does not map back to its snapshot");
    }
  }
  // Σ available cores is maintained incrementally; it must match a recount.
  double sum = 0;
  for (const auto& snap : snapshots_) sum += snap.available().cores;
  if (std::abs(sum - avail_cores_) > 1e-6 * std::max(1.0, std::abs(sum))) {
    report.add(kSub, "available cores " + std::to_string(avail_cores_) +
                         " but the snapshots sum to " + std::to_string(sum));
  }
}

}  // namespace vine::control
