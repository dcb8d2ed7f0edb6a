#include "manager/manager.hpp"

#include <algorithm>
#include <filesystem>

#include "archive/vpak.hpp"
#include "common/log.hpp"
#include "common/uuid.hpp"
#include "files/naming.hpp"
#include "fsutil/fsutil.hpp"
#include "net/channel.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"
#include "task/task_hash.hpp"

namespace vine {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

Manager::Manager(ManagerConfig config)
    : config_(std::move(config)),
      core_(*this, stats_, config_.sched, config_.seed, config_.redundancy) {
  if (!config_.fetcher) config_.fetcher = std::make_shared<FileUrlFetcher>();
  metrics_.expose("manager.tasks_done", &stats_.tasks_done);
  metrics_.expose("manager.tasks_failed", &stats_.tasks_failed);
  metrics_.expose("manager.transfers_from_manager", &stats_.transfers_from_manager);
  metrics_.expose("manager.transfers_from_url", &stats_.transfers_from_url);
  metrics_.expose("manager.transfers_from_peers", &stats_.transfers_from_peers);
  metrics_.expose("manager.mini_tasks_run", &stats_.mini_tasks_run);
  metrics_.expose("manager.bytes_from_manager", &stats_.bytes_from_manager);
  metrics_.expose("manager.bytes_from_url", &stats_.bytes_from_url);
  metrics_.expose("manager.bytes_from_peers", &stats_.bytes_from_peers);
  metrics_.expose("manager.cache_hits", &stats_.cache_hits);
  metrics_.expose("manager.sched_passes", &stats_.sched_passes);
  metrics_.expose("manager.tasks_scanned", &stats_.tasks_scanned);
  metrics_.expose("manager.transfer_failures", &stats_.transfer_failures);
  metrics_.expose("manager.recoveries", &stats_.recoveries);
  metrics_.expose("manager.workers_lost", &stats_.workers_lost);
  metrics_.expose("manager.workers_evicted", &stats_.workers_evicted);
  metrics_.expose("manager.transfers_prefetch", &stats_.transfers_prefetch);
  metrics_.expose("manager.bytes_prefetch", &stats_.bytes_prefetch);
  metrics_.expose("sched.prefetch_issued", &stats_.prefetch_issued);
  metrics_.expose("sched.prefetch_hit", &stats_.prefetch_hits);
  metrics_.expose("sched.prefetch_cancelled", &stats_.prefetch_cancelled);
  metrics_.expose("sched.prefetch_wasted_bytes", &stats_.prefetch_wasted_bytes);
  // Gated on the feature: exposing these unconditionally would grow the
  // counters events of every replication-off trace.
  if (config_.redundancy.enabled) {
    metrics_.expose("manager.replications", &stats_.replications);
    metrics_.expose("manager.replication_bytes", &stats_.replication_bytes);
    metrics_.expose("manager.replica_repairs", &stats_.replica_repairs);
    metrics_.expose("manager.recoveries_replicated",
                    &stats_.recoveries_replicated);
  }
}

void Manager::emit(obs::Event ev) {
  if (config_.trace) config_.trace->emit("manager", std::move(ev));
}

void Manager::emit_counters() {
  if (!config_.trace) return;
  config_.trace->emit("manager",
                      obs::Event::make_counters(clock_.now(), metrics_.snapshot()));
  config_.trace->flush();
}

Manager::~Manager() { shutdown(); }

Status Manager::start() {
  if (config_.listen.empty()) {
    VINE_TRY(listener_, ChannelFabric::instance().listen(
                            "mgr-" + config_.name + "-" + generate_token(6)));
  } else if (config_.listen == "tcp") {
    VINE_TRY(listener_, tcp_listen(0));
    // Data-plane gauges, summed over the reactor shards at snapshot time.
    // Only wired up when this manager actually runs the TCP transport —
    // touching the pool would otherwise spin up reactor threads for
    // nothing. Runtime golden traces strip `counters` events, so the
    // extra names never perturb trace comparisons.
    metrics_.expose_fn("net.reactor_wakeups",
                       [] { return ReactorPool::instance().stats().wakeups; });
    metrics_.expose_fn("net.frames_in",
                       [] { return ReactorPool::instance().stats().frames_in; });
    metrics_.expose_fn("net.frames_out",
                       [] { return ReactorPool::instance().stats().frames_out; });
    metrics_.expose_fn("net.bytes_in",
                       [] { return ReactorPool::instance().stats().bytes_in; });
    metrics_.expose_fn("net.bytes_out",
                       [] { return ReactorPool::instance().stats().bytes_out; });
    metrics_.expose_fn("net.sendfile_bytes", [] {
      return ReactorPool::instance().stats().sendfile_bytes;
    });
    metrics_.expose_fn("net.writev_calls",
                       [] { return ReactorPool::instance().stats().writev_calls; });
    metrics_.expose_fn("net.conns_open",
                       [] { return ReactorPool::instance().stats().conns_open; });
  } else if (config_.listen.rfind("chan:", 0) == 0) {
    VINE_TRY(listener_, ChannelFabric::instance().listen(config_.listen.substr(5)));
  } else {
    return Error{Errc::invalid_argument, "bad listen spec: " + config_.listen};
  }
  address_ = listener_->address();
  acceptor_ = std::thread([this] { accept_loop(); });
  VINE_LOG_INFO("manager", "%s listening on %s", config_.name.c_str(),
                address_.c_str());
  return Status::success();
}

void Manager::accept_loop() {
  while (!stopping_.load()) {
    auto ep = listener_->accept(200ms);
    if (!ep.ok()) {
      if (ep.error().code == Errc::timeout) continue;
      return;
    }
    MutexLock lock(conn_mutex_);
    std::string conn_id = "c" + std::to_string(next_conn_++);
    auto conn = std::make_unique<Connection>();
    conn->conn_id = conn_id;
    conn->endpoint = std::shared_ptr<Endpoint>(std::move(*ep));
    // Every transport pushes frames into the inbox from its own thread (the
    // reactor, or the worker's sending thread on a channel): no reader
    // thread per worker. The error delivery is the connection's death
    // notice.
    conn->endpoint->set_receiver([this, conn_id](Result<Frame> frame) {
      if (frame.ok()) {
        inbox_.push(Event{conn_id, std::move(*frame), false});
      } else {
        inbox_.push(Event{conn_id, {}, true});
      }
    });
    connections_.emplace(conn_id, std::move(conn));
  }
}

// ------------------------------------------------------------ declarations

FileRef Manager::register_file(std::shared_ptr<FileDecl> decl) {
  decl->id = next_file_id_++;
  if (!decl->cache_name.empty()) {
    level_of_[decl->cache_name] = decl->cache;
  }
  FileRef ref = decl;
  files_.emplace(decl->id, std::move(decl));
  return ref;
}

Result<FileRef> Manager::declare_local(const std::string& path, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::local;
  decl->cache = level;
  decl->local_path = path;
  VINE_TRY(decl->cache_name, local_file_cache_name(path));
  auto size = tree_size(path);
  decl->size_hint = size.ok() ? *size : -1;
  return register_file(std::move(decl));
}

FileRef Manager::declare_buffer(std::string content, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::buffer;
  decl->cache = level;
  decl->cache_name = buffer_cache_name(content);
  decl->size_hint = static_cast<std::int64_t>(content.size());
  decl->buffer = std::move(content);
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_url(const std::string& url, CacheLevel level) {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::url;
  decl->cache = level;
  decl->url = url;
  VINE_TRY(decl->cache_name, url_cache_name(url, *config_.fetcher));
  auto meta = config_.fetcher->head(url);
  decl->size_hint = meta.ok() ? meta->size : -1;
  return register_file(std::move(decl));
}

FileRef Manager::declare_temp() {
  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::temp;
  decl->cache = CacheLevel::workflow;
  // Named at submit() from the producing task's hash (paper §3.2).
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_mini_task(TaskSpec mini,
                                           const std::string& output_name,
                                           CacheLevel level) {
  if (mini.kind != TaskKind::mini) mini.kind = TaskKind::mini;
  for (const auto& in : mini.inputs) {
    if (!in.file || in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument,
                   "mini-task inputs must be declared files with names"};
    }
  }
  std::string hash = task_spec_hash(mini);

  auto decl = std::make_shared<FileDecl>();
  decl->kind = FileKind::mini_task;
  decl->cache = level;
  decl->cache_name = task_output_cache_name(hash, output_name);

  // The mini spec's first output names the produced sandbox path; the
  // worker adopts it under this decl's cache name (carried in MiniTaskMsg,
  // not in the mount). The mount must NOT hold a FileRef back to `decl`:
  // decl -> mini_task -> outputs[0].file -> decl is a shared_ptr cycle that
  // leaks every mini-task declaration.
  auto spec = std::make_shared<TaskSpec>(std::move(mini));
  spec->outputs.clear();
  spec->outputs.push_back({nullptr, output_name});
  decl->mini_task = spec;
  return register_file(std::move(decl));
}

Result<FileRef> Manager::declare_unpack(const FileRef& archive, CacheLevel level) {
  if (!archive || archive->cache_name.empty()) {
    return Error{Errc::invalid_argument, "declare_unpack needs a declared file"};
  }
  TaskSpec mini;
  mini.kind = TaskKind::mini;
  mini.function_name = "vine.unpack";
  mini.function_args = R"({"archive":"input.vpak","out":"unpacked"})";
  mini.inputs.push_back({archive, "input.vpak"});
  return declare_mini_task(std::move(mini), "unpacked", level);
}

// ------------------------------------------------------------ tasks

Result<TaskId> Manager::submit(TaskSpec spec) {
  spec.id = next_task_id_++;
  if (spec.max_attempts < 1) spec.max_attempts = 1;

  for (const auto& in : spec.inputs) {
    if (!in.file) {
      return Error{Errc::invalid_argument, "task input has no declared file"};
    }
    if (in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument,
                   "task input " + in.sandbox_name +
                       " is an unnamed temp not yet produced by any task"};
    }
  }

  // Name temp outputs from the producing task's hash (paper §3.2).
  std::string hash;
  for (auto& out : spec.outputs) {
    if (!out.file) {
      return Error{Errc::invalid_argument, "task output has no declared file"};
    }
    if (out.file->cache_name.empty()) {
      if (hash.empty()) hash = task_spec_hash(spec);
      auto it = files_.find(out.file->id);
      if (it == files_.end()) {
        return Error{Errc::invalid_argument, "output file not declared here"};
      }
      it->second->cache_name = task_output_cache_name(hash, out.sandbox_name);
      it->second->producer_task = spec.id;
      level_of_[it->second->cache_name] = it->second->cache;
    }
  }

  const TaskId id = spec.id;
  TaskRuntime& rt = tasks_[id];
  rt.report.id = id;
  rt.report.submitted_at = clock_.now();
  const char* category = task_kind_name(spec.kind);
  core_.submit(std::move(spec), category);
  return id;
}

Result<TaskReport> Manager::wait(std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (true) {
    if (!completed_.empty()) {
      TaskReport r = std::move(completed_.front());
      completed_.pop_front();
      return r;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "no task completed in time"};
    }
    pump(20ms);
  }
}

bool Manager::idle() const { return outstanding() == 0; }

std::size_t Manager::outstanding() const {
  std::size_t n = 0;
  for (const auto& [_, t] : core_.tasks()) {
    if (t.spec.kind == TaskKind::library) continue;
    if (t.state != TaskState::done && t.state != TaskState::failed) ++n;
  }
  return n;
}

// ------------------------------------------------------------ serverless

Status Manager::install_library(const std::string& library_name,
                                Resources per_instance, std::vector<Mount> inputs) {
  for (const auto& in : inputs) {
    if (!in.file || in.file->cache_name.empty()) {
      return Error{Errc::invalid_argument, "library inputs must be declared files"};
    }
  }
  LibraryDef def{library_name, per_instance, std::move(inputs)};
  for (const auto& [worker_id, _] : workers_) {
    install_library_on(def, worker_id);
  }
  libraries_.push_back(std::move(def));
  return Status::success();
}

void Manager::install_library_on(const LibraryDef& def, const WorkerId& worker) {
  TaskSpec spec;
  spec.id = next_task_id_++;
  spec.kind = TaskKind::library;
  spec.library_name = def.name;
  spec.inputs = def.inputs;
  spec.resources = def.per_instance;
  spec.pinned_worker = worker;

  TaskRuntime& rt = tasks_[spec.id];
  rt.report.id = spec.id;
  rt.report.submitted_at = clock_.now();
  core_.submit(std::move(spec), task_kind_name(TaskKind::library));
}

TaskSpec Manager::function_call(const std::string& library,
                                const std::string& function, std::string args,
                                Resources resources) {
  TaskSpec spec;
  spec.kind = TaskKind::function_call;
  spec.library_name = library;
  spec.function_name = function;
  spec.function_args = std::move(args);
  spec.resources = resources;
  return spec;
}

int Manager::library_instances(const std::string& library_name) const {
  int n = 0;
  for (const WorkerSnapshot& snap : core_.workers()) {
    n += snap.libraries.count(library_name);
  }
  return n;
}

// ------------------------------------------------------------ data access

Result<std::string> Manager::fetch_file(const FileRef& file,
                                        std::chrono::milliseconds timeout) {
  if (!file) return Error{Errc::invalid_argument, "null file"};
  if (file->kind == FileKind::buffer) return file->buffer;
  if (file->kind == FileKind::local) {
    std::error_code ec;
    if (fs::is_directory(file->local_path, ec)) {
      TempDir tmp("vine-mgr-pack");
      auto ar = tmp.path() / "dir.vpak";
      VINE_TRY_STATUS(vpak_pack_tree(file->local_path, ar));
      return read_file(ar);
    }
    return read_file(file->local_path);
  }

  const std::string& name = file->cache_name;
  if (name.empty()) {
    return Error{Errc::invalid_argument, "file has no cache name yet"};
  }
  auto deadline = std::chrono::steady_clock::now() + timeout;

  // Find (or wait for) a worker holding a present replica.
  WorkerId holder;
  while (true) {
    auto holders = core_.replicas().workers_with(name);
    if (!holders.empty()) {
      holder = holders.front();
      break;
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "no replica of " + name + " appeared"};
    }
    pump(20ms);
  }

  std::string request_id = generate_uuid();
  send_to_worker(holder, proto::SendFileMsg{request_id, name});

  // Wait for the reply header, then its blob.
  while (!file_replies_.count(request_id)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "send_file reply timed out"};
    }
    pump(20ms);
  }
  proto::FileDataMsg reply = std::move(file_replies_[request_id]);
  file_replies_.erase(request_id);
  if (!reply.ok) {
    return Error{Errc::not_found, "worker could not send " + name + ": " + reply.error};
  }
  while (!blob_stash_.count(name)) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout, "send_file blob timed out"};
    }
    pump(20ms);
  }
  std::string data = std::move(blob_stash_[name]);
  blob_stash_.erase(name);
  return data;
}

// ------------------------------------------------------------ cluster

Status Manager::wait_for_workers(int count, std::chrono::milliseconds timeout) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (worker_count() < count) {
    if (std::chrono::steady_clock::now() >= deadline) {
      return Error{Errc::timeout,
                   "only " + std::to_string(worker_count()) + " of " +
                       std::to_string(count) + " workers joined"};
    }
    pump(20ms);
  }
  return Status::success();
}

void Manager::end_workflow() {
  for (const auto& [worker_id, _] : workers_) {
    send_to_worker(worker_id, proto::EndWorkflowMsg{});
  }
  // Drop replica records for everything below worker lifetime, and forget
  // library deployments (instances were just stopped).
  std::vector<std::string> dropped;
  for (const auto& [name, level] : level_of_) {
    if (level != CacheLevel::worker) dropped.push_back(name);
  }
  core_.workflow_ended(dropped);
  emit_counters();
  maybe_audit("manager.end_workflow");
}

void Manager::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  emit_counters();
  maybe_audit("manager.shutdown");

  for (const auto& [worker_id, w] : workers_) {
    (void)w.endpoint->send_json(proto::encode(proto::AnyMessage(proto::ShutdownMsg{})));
  }
  if (listener_) listener_->close();
  if (acceptor_.joinable()) acceptor_.join();
  inbox_.close();

  // Extract the connections under the lock; close and drop them outside
  // it (a TCP endpoint's destructor waits for the reactor to let go).
  std::map<std::string, std::unique_ptr<Connection>> conns;
  {
    MutexLock lock(conn_mutex_);
    conns.swap(connections_);
  }
  for (auto& [_, conn] : conns) conn->endpoint->close();
}

// ------------------------------------------------------------ pumping

void Manager::pump(std::chrono::milliseconds timeout) {
  auto ev = inbox_.pop(timeout);
  while (ev) {
    handle_event(std::move(*ev));
    ev = inbox_.try_pop();
  }
  if (config_.heartbeat_deadline_ms > 0) evict_silent_workers();
  core_.schedule_pass();
  if (!replication_goals_.empty()) process_replication_requests();
}

void Manager::evict_silent_workers() {
  const double deadline_s = config_.heartbeat_deadline_ms / 1000.0;
  const double now = clock_.now();
  // handle_worker_lost mutates workers_; collect the overdue set first.
  std::vector<std::string> overdue;
  for (const auto& [id, w] : workers_) {
    if (now - w.last_heard > deadline_s) {
      VINE_LOG_WARN("manager", "worker %s silent for %.1fs; evicting",
                    id.c_str(), now - w.last_heard);
      overdue.push_back(w.conn_id);
    }
  }
  for (const std::string& conn_id : overdue) {
    ++stats_.workers_evicted;
    handle_worker_lost(conn_id, Departure::evicted);
  }
}

void Manager::handle_event(Event ev) {
  if (ev.closed) {
    handle_worker_lost(ev.conn_id);
    return;
  }
  if (ev.frame.kind == Frame::Kind::blob) {
    blob_stash_[ev.frame.tag] = std::move(ev.frame.data);
    return;
  }
  auto msg = proto::decode(ev.frame.msg);
  if (!msg.ok()) {
    VINE_LOG_WARN("manager", "bad message from %s: %s", ev.conn_id.c_str(),
                  msg.error().message.c_str());
    return;
  }

  // Resolve the sending worker (if identified).
  WorkerId worker;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(ev.conn_id);
    if (it != connections_.end()) worker = it->second->worker_id;
  }

  // Any frame is proof of life; the heartbeat exists so idle workers still
  // produce one within every deadline window.
  if (!worker.empty()) {
    auto wit = workers_.find(worker);
    if (wit != workers_.end() && wit->second.conn_id == ev.conn_id) {
      wit->second.last_heard = clock_.now();
    }
  }

  std::visit(
      [&](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::HelloMsg>) {
          handle_hello(ev.conn_id, m);
        } else if constexpr (std::is_same_v<T, proto::CacheUpdateMsg>) {
          if (!worker.empty()) handle_cache_update(worker, m);
        } else if constexpr (std::is_same_v<T, proto::TaskDoneMsg>) {
          if (!worker.empty()) handle_task_done(worker, m);
        } else if constexpr (std::is_same_v<T, proto::LibraryReadyMsg>) {
          if (!worker.empty()) handle_library_ready(worker, m);
        } else if constexpr (std::is_same_v<T, proto::FileDataMsg>) {
          file_replies_[m.request_id] = m;
        } else if constexpr (std::is_same_v<T, proto::HeartbeatMsg>) {
          // Liveness was refreshed above; nothing else to do.
        } else {
          VINE_LOG_WARN("manager", "unexpected message type from %s",
                        ev.conn_id.c_str());
        }
      },
      *msg);
}

void Manager::handle_hello(const std::string& conn_id, const proto::HelloMsg& msg) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    it->second->worker_id = msg.worker_id;
    ep = it->second->endpoint;
  }

  WorkerState ws;
  ws.endpoint = std::move(ep);
  ws.conn_id = conn_id;
  ws.last_heard = clock_.now();
  // A re-hello keeps the worker's slot and starts its snapshot over.
  WorkerSnapshot snap;
  snap.id = msg.worker_id;
  snap.addr = conn_id;
  snap.transfer_addr = msg.transfer_addr;
  snap.total = msg.resources;
  core_.worker_joined(std::move(snap));
  workers_[msg.worker_id] = std::move(ws);
  emit(obs::Event::make_worker_join(clock_.now(), msg.worker_id));

  // The worker's persistent cache becomes visible replicas immediately —
  // this is what makes hot-cache runs skip staging (Figure 9b).
  for (const auto& obj : msg.cached) {
    core_.object_announced(msg.worker_id, {obj.cache_name, obj.size});
    emit(obs::Event::make_cache_insert(clock_.now(), msg.worker_id,
                                       obj.cache_name, obj.size, "preload"));
  }

  // Deploy any installed libraries to the newcomer.
  for (const auto& def : libraries_) {
    install_library_on(def, msg.worker_id);
  }

  VINE_LOG_INFO("manager", "worker %s joined (%s, %zu cached)",
                msg.worker_id.c_str(), msg.resources.to_string().c_str(),
                msg.cached.size());
}

void Manager::handle_cache_update(const WorkerId& worker,
                                  const proto::CacheUpdateMsg& msg) {
  // No transfer id: the worker announces a task output or an eviction.
  // (Its CacheStore emits the cache_insert/cache_evict from its own
  // vantage point; the manager records only transfer completions.)
  if (msg.transfer_id.empty()) {
    if (msg.ok) {
      core_.object_announced(worker, {msg.cache_name, msg.size});
    } else {
      core_.object_dropped(worker, msg.cache_name);
    }
    return;
  }
  const bool cancelled = !msg.ok && msg.error == "cancelled";
  const std::int64_t bytes = std::max<std::int64_t>(msg.size, 0);
  const control::ClosedTransfer closed = core_.transfer_closed(
      msg.transfer_id, worker, msg.cache_name,
      msg.ok ? control::TransferOutcome::ok
             : cancelled ? control::TransferOutcome::cancelled
                         : control::TransferOutcome::failed,
      bytes);
  if (!msg.ok && !cancelled) {
    VINE_LOG_WARN("manager", "transfer of %s to %s failed: %s",
                  msg.cache_name.c_str(), worker.c_str(), msg.error.c_str());
  }
  if (!closed.record) return;
  const TransferRecord& rec = *closed.record;
  const bool prefetch = closed.kind == control::Transfer::Kind::prefetch;
  emit(obs::Event::make_transfer_end(
      clock_.now(), msg.cache_name, control::transfer_label(closed.kind, rec.source.kind),
      source_key_of(rec.source), worker, worker,
      msg.ok ? bytes : (cancelled && prefetch ? 0 : -1), msg.transfer_id, msg.ok,
      msg.ok ? std::string() : msg.error));
}

void Manager::deliver(const control::TaskEntry& entry, TaskRuntime& task,
                      TaskReport report) {
  task.report = report;
  // Re-runs triggered by lost-temp recovery already reported once; the
  // application must not see a second completion.
  if (entry.spec.kind != TaskKind::library && !task.report_delivered) {
    completed_.push_back(std::move(report));
  }
  task.report_delivered = true;
}

void Manager::handle_task_done(const WorkerId& worker, const proto::TaskDoneMsg& msg) {
  auto it = tasks_.find(msg.task_id);
  control::TaskEntry* entry = core_.task(msg.task_id);
  if (it == tasks_.end() || entry == nullptr) return;
  TaskRuntime& task = it->second;
  VINE_LOG_DEBUG("manager", "task %llu done on %s ok=%d rex=%d err=%s",
                 static_cast<unsigned long long>(msg.task_id), worker.c_str(),
                 msg.ok, msg.resource_exceeded, msg.error.c_str());
  // Outputs were announced via cache_update already; recording them again
  // keeps the table right even if messages raced.
  std::vector<control::CachedObject> outputs;
  for (const auto& out : msg.outputs) outputs.push_back({out.cache_name, out.size});

  if (msg.ok) {
    // The worker's clock has its own epoch: keep the duration it measured
    // and anchor it on ours at arrival, so every report timestamp shares a
    // clock.
    const double run_s = std::max(0.0, msg.finished_at - msg.started_at);
    const double finished_at = clock_.now();
    core_.task_done(*entry, TaskState::done, outputs, run_s);
    TaskReport report = task.report;
    report.state = TaskState::done;
    report.exit_code = msg.exit_code;
    report.output = msg.output;
    report.worker_id = worker;
    report.attempts = task.attempts + 1;
    report.started_at = finished_at - run_s;
    report.finished_at = finished_at;
    deliver(*entry, task, std::move(report));

    // Task-lifetime inputs are dead now; reclaim worker storage (§2.3).
    for (const auto& in : entry->spec.inputs) {
      if (in.file && in.file->cache == CacheLevel::task) {
        send_to_worker(worker, proto::UnlinkMsg{in.file->cache_name});
        core_.object_dropped(worker, in.file->cache_name);
      }
    }
    return;
  }

  // Failure path: retry (maybe with a grown allocation) or give up.
  ++task.attempts;
  const bool retry = task.attempts < entry->spec.max_attempts;
  core_.task_done(*entry, retry ? TaskState::ready : TaskState::failed, outputs, 0);
  if (msg.resource_exceeded) {
    const WorkerSnapshot* snap = core_.worker(worker);
    Resources cap = snap != nullptr ? snap->total
                                    : entry->spec.resources.grown(entry->spec.resources);
    entry->spec.resources = entry->spec.resources.grown(cap);
  }
  if (retry) return;
  TaskReport report = task.report;
  report.state = TaskState::failed;
  report.exit_code = msg.exit_code;
  report.error_message = msg.error;
  report.worker_id = worker;
  report.attempts = task.attempts;
  deliver(*entry, task, std::move(report));
}

void Manager::handle_library_ready(const WorkerId& worker,
                                   const proto::LibraryReadyMsg& msg) {
  core_.library_ready(worker, msg.task_id, msg.library_name);
  VINE_LOG_INFO("manager", "library %s ready on %s", msg.library_name.c_str(),
                worker.c_str());
}

void Manager::retire_worker(const WorkerId& id) {
  auto reg = workers_.find(id);
  if (reg == workers_.end()) return;
  handle_worker_lost(reg->second.conn_id, Departure::retired);
}

void Manager::handle_worker_lost(const std::string& conn_id, Departure how) {
  std::unique_ptr<Connection> conn;
  {
    MutexLock lock(conn_mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    conn = std::move(it->second);
    connections_.erase(it);
  }
  conn->endpoint->close();
  const WorkerId worker = conn->worker_id;
  if (worker.empty()) return;  // never said hello

  // A re-hello may have moved the worker id to a newer connection; only the
  // connection the worker registry points at may tear the worker down.
  auto reg = workers_.find(worker);
  if (reg == workers_.end() || reg->second.conn_id != conn_id) return;

  const bool retired = how == Departure::retired;
  const char* reason = retired ? "retired" : "worker_lost";
  if (retired) {
    VINE_LOG_INFO("manager", "worker %s retired", worker.c_str());
  } else {
    ++stats_.workers_lost;
    VINE_LOG_WARN("manager", "worker %s disconnected", worker.c_str());
  }
  // Replicas die with the worker, then the transfers they abort; the
  // closing membership event goes last so begin/end pairing stays exact.
  control::Core::Purge purge = core_.purge_worker(worker, reason);
  for (const control::DroppedTransfer& d : purge.dropped) {
    const TransferRecord& rec = d.record;
    emit(obs::Event::make_transfer_end(
        clock_.now(), rec.cache_name, control::transfer_label(d.kind, rec.source.kind),
        source_key_of(rec.source), rec.dest, rec.dest, -1, rec.uuid,
        /*ok=*/false, reason));
  }
  workers_.erase(worker);
  core_.recover_after_loss(worker, purge.lost);
  if (how == Departure::evicted) {
    emit(obs::Event::make_worker_evicted(clock_.now(), worker, "heartbeat"));
  } else {
    emit(obs::Event::make_worker_lost(clock_.now(), worker,
                                      retired ? "retired" : "disconnect"));
  }
  maybe_audit("manager.worker_lost");
}

void Manager::audit(AuditReport& report) const { core_.audit(report); }

void Manager::maybe_audit(const char* where) const {
  if (!audits_enabled()) return;
  AuditReport report;
  audit(report);
  enforce_clean(report, where);
}

Status Manager::replicate_file(const FileRef& file, int copies) {
  if (!file) return Error{Errc::invalid_argument, "null file"};
  if (file->cache_name.empty()) {
    return Error{Errc::invalid_argument, "file has no cache name yet"};
  }
  if (copies < 1) return Error{Errc::invalid_argument, "copies must be >= 1"};
  replication_goals_[file->id] = copies;
  return Status::success();
}

void Manager::process_replication_requests() {
  for (auto it = replication_goals_.begin(); it != replication_goals_.end();) {
    auto fit = files_.find(it->first);
    if (fit == files_.end()) {
      it = replication_goals_.erase(it);
      continue;
    }
    const FileRef file = fit->second;
    int want = it->second;
    const FileReplicaTable& replicas = core_.replicas();
    int have = replicas.present_count(file->cache_name);
    // Count pending materializations toward the goal to avoid re-issuing.
    int pending = 0;
    for (const auto& [worker_id, _] : workers_) {
      auto rep = replicas.find(file->cache_name, worker_id);
      if (rep && rep->state == ReplicaState::pending) ++pending;
    }
    if (have >= want) {
      it = replication_goals_.erase(it);
      continue;
    }
    int missing = want - have - pending;
    for (const auto& [worker_id, _] : workers_) {
      if (missing <= 0) break;
      if (replicas.find(file->cache_name, worker_id)) continue;
      // ensure_file_at issues at most one instruction per call.
      core_.ensure_file_at(file, worker_id);
      --missing;
    }
    ++it;
  }
}

// ------------------------------------------------------------ scheduling

void Manager::send_to_worker(const WorkerId& worker, const proto::AnyMessage& msg) {
  auto it = workers_.find(worker);
  if (it == workers_.end()) return;
  auto st = it->second.endpoint->send_json(proto::encode(msg));
  if (!st.ok()) {
    VINE_LOG_WARN("manager", "send to %s failed: %s", worker.c_str(),
                  st.error().message.c_str());
  }
}

bool Manager::move_bytes(const control::Transfer& t) {
  using Kind = control::Transfer::Kind;
  const double now = clock_.now();
  obs::Event begin = obs::Event::make_transfer_begin(
      now, t.cache_name, control::transfer_label(t.kind, t.source.kind),
      source_key_of(t.source), t.dest, t.dest, t.bytes, t.uuid);
  // Mini-tasks run at the destination itself: it is their "source".
  if (t.kind == Kind::mini_task) begin.detail = "mini_task";
  emit(std::move(begin));
  if (t.kind == Kind::mini_task) {
    proto::MiniTaskMsg msg;
    msg.transfer_id = t.uuid;
    msg.cache_name = t.cache_name;
    msg.level = t.file->cache;
    msg.task = proto::to_wire(*t.file->mini_task);
    send_to_worker(t.dest, msg);
    return true;
  }
  CacheLevel level = CacheLevel::workflow;
  if (t.file) {
    level = t.file->cache;
  } else if (auto lit = level_of_.find(t.cache_name); lit != level_of_.end()) {
    level = lit->second;
  }

  if (t.source.kind == TransferSource::Kind::manager) {
    // Push the bytes ourselves: header then blob.
    const FileDecl& file = *t.file;
    proto::PutMsg msg;
    msg.transfer_id = t.uuid;
    msg.cache_name = t.cache_name;
    msg.level = level;
    Result<std::string> bytes = file.buffer;
    if (file.kind != FileKind::buffer) {
      std::error_code ec;
      if (fs::is_directory(file.local_path, ec)) {
        msg.is_dir = true;
        TempDir tmp("vine-mgr-pack");
        auto ar = tmp.path() / "dir.vpak";
        auto pack = vpak_pack_tree(file.local_path, ar);
        bytes = pack.ok() ? read_file(ar) : Result<std::string>(pack.error());
      } else {
        bytes = read_file(file.local_path);
      }
    }
    if (!bytes.ok()) {
      VINE_LOG_ERROR("manager", "cannot read %s: %s", file.local_path.c_str(),
                     bytes.error().message.c_str());
      emit(obs::Event::make_transfer_end(now, t.cache_name, "manager", "", t.dest,
                                         t.dest, -1, t.uuid, /*ok=*/false,
                                         "read_failed"));
      return false;
    }
    auto it = workers_.find(t.dest);
    if (it != workers_.end()) {
      it->second.endpoint->send_json(proto::encode(proto::AnyMessage(msg)));
      it->second.endpoint->send_blob(t.cache_name, std::move(*bytes));
    }
    return true;
  }

  // URL or peer fetch instruction.
  proto::FetchMsg msg;
  msg.transfer_id = t.uuid;
  msg.cache_name = t.cache_name;
  msg.level = level;
  msg.source = t.source;
  // A prefetch lands as an unclaimed replica. A replication copy is live
  // state from the first byte, and the pin exempts it from capacity
  // eviction so the last copy of a temp can never be squeezed out.
  msg.prefetch = t.kind == Kind::prefetch;
  msg.pin = t.kind == Kind::replica;
  if (t.source.kind == TransferSource::Kind::worker) {
    if (const WorkerSnapshot* peer = core_.worker(t.source.key)) {
      msg.source_addr = peer->transfer_addr;
    }
  }
  send_to_worker(t.dest, msg);
  return true;
}

void Manager::dispatch(control::TaskEntry& task) {
  VINE_LOG_DEBUG("manager", "dispatch task %llu to %s (%s)",
                 static_cast<unsigned long long>(task.spec.id),
                 task.worker.c_str(), task.spec.resources.to_string().c_str());
  proto::RunTaskMsg msg;
  msg.task = proto::to_wire(task.spec);
  // Stamp first: the worker may start the task before the send returns.
  tasks_[task.spec.id].report.dispatched_at = clock_.now();
  send_to_worker(task.worker, msg);
}

void Manager::cancel_transfer(const std::string& uuid,
                              const control::PrefetchTrack& track) {
  // Best-effort abort: the worker skips the fetch if it has not started.
  // Accounting waits for the reply — whichever cache_update arrives
  // ("cancelled" or a completed transfer that outran the cancel) closes
  // the record, so the transfer table never leaks an entry.
  send_to_worker(track.dest, proto::CancelTransferMsg{uuid});
}

}  // namespace vine
