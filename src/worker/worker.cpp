#include "worker/worker.hpp"

#include <algorithm>
#include <optional>

#include "archive/vpak.hpp"
#include "common/log.hpp"
#include "common/uuid.hpp"
#include "fsutil/fsutil.hpp"
#include "hash/digest.hpp"
#include "net/channel.hpp"
#include "net/tcp.hpp"
#include "worker/builtins.hpp"

namespace vine {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

Worker::Worker(WorkerConfig config) : config_(std::move(config)) {
  register_builtin_functions();
  if (!config_.fetcher) config_.fetcher = std::make_shared<FileUrlFetcher>();
  cache_ = std::make_unique<CacheStore>(config_.root_dir / "cache",
                                        config_.cache_capacity_bytes);
  if (config_.trace) {
    cache_->set_trace(config_.trace, &clock_, "worker:" + config_.id, config_.id);
  }
  executor_ = std::make_unique<Executor>(
      ExecutorConfig{config_.root_dir / "sandboxes", config_.id, 1 << 20, 0.05},
      *cache_);
}

Result<std::unique_ptr<Worker>> Worker::connect(WorkerConfig config) {
  auto w = std::unique_ptr<Worker>(new Worker(std::move(config)));
  VINE_TRY_STATUS(w->init_and_register());
  return w;
}

Status Worker::init_and_register() {
  // Peer transfer service.
  if (config_.tcp_transfer_service) {
    VINE_TRY(transfer_listener_, tcp_listen(0));
  } else {
    VINE_TRY(transfer_listener_,
             ChannelFabric::instance().listen("xfer-" + config_.id + "-" +
                                              generate_token(6)));
  }
  transfer_addr_ = transfer_listener_->address();
  // Serve pool: drains GETs pushed by the peer connections. A send never
  // waits for the requester (the reactor queues it; a channel buffers it
  // for the requester's recv), so a handful of threads covers any number
  // of peers.
  for (int i = 0; i < 4; ++i) {
    serve_pool_.emplace_back([this] { serve_pool_main(); });
  }
  transfer_server_ = std::thread([this] { transfer_server_main(); });

  // Transfer pool.
  for (int i = 0; i < std::max(1, config_.max_concurrent_transfers); ++i) {
    transfer_pool_.emplace_back([this] { transfer_worker_main(); });
  }

  // Control connection + registration.
  VINE_TRY(manager_, connect_to(config_.manager_addr, 5000ms));
  proto::HelloMsg hello;
  hello.worker_id = config_.id;
  hello.transfer_addr = transfer_addr_;
  hello.resources = config_.resources;
  for (const auto& [name, entry] : cache_->list()) {
    hello.cached.push_back({name, entry.size});
  }
  send_to_manager(hello);
  VINE_LOG_INFO("worker", "%s registered with %s (%zu cached objects)",
                config_.id.c_str(), config_.manager_addr.c_str(),
                hello.cached.size());
  return Status::success();
}

Worker::~Worker() { stop(); }

void Worker::start() {
  run_thread_ = std::thread([this] { run(); });
}

void Worker::run() {
  double last_beat = clock_.now();
  while (!stopping_.load()) {
    if (hung_.load()) {
      // Injected hang: the connection stays open but nothing is processed
      // and no heartbeat goes out — indistinguishable from a wedged worker.
      std::this_thread::sleep_for(20ms);
      continue;
    }
    if (config_.heartbeat_interval_ms > 0 &&
        (clock_.now() - last_beat) * 1000.0 >= config_.heartbeat_interval_ms) {
      last_beat = clock_.now();
      send_to_manager(proto::HeartbeatMsg{});
    }
    auto frame = manager_->recv(100ms);
    if (!frame.ok()) {
      if (frame.error().code == Errc::timeout) continue;
      VINE_LOG_INFO("worker", "%s: manager connection closed (%s)",
                    config_.id.c_str(), frame.error().message.c_str());
      break;
    }
    handle_frame(std::move(*frame));
  }
}

void Worker::stop() {
  // stopping_ may already be set by a shutdown message from the manager;
  // the close operations are idempotent and must run regardless, or the
  // transfer pool would spin forever and the joins below would deadlock.
  stopping_.store(true);
  if (manager_) manager_->close();
  if (transfer_listener_) transfer_listener_->close();
  transfer_jobs_.close();
  if (run_thread_.joinable() &&
      run_thread_.get_id() != std::this_thread::get_id()) {
    run_thread_.join();
  }
  for (auto& t : transfer_pool_) {
    if (t.joinable()) t.join();
  }
  transfer_pool_.clear();
  if (transfer_server_.joinable()) transfer_server_.join();
  serve_jobs_.close();
  for (auto& t : serve_pool_) {
    if (t.joinable()) t.join();
  }
  serve_pool_.clear();
  // Drop the peer connections with the map swapped out: each endpoint dtor
  // synchronously deregisters from the reactor, which must never happen
  // under our lock.
  std::map<std::uint64_t, std::shared_ptr<Endpoint>> peers_to_drop;
  {
    MutexLock lock(threads_mutex_);
    peers_to_drop.swap(serve_peers_);
  }
  peers_to_drop.clear();

  // Extract the hosts under the lock; stop and join the instances outside
  // it. instance->stop() and pump.join() block for up to a pop timeout, and
  // a blocking call under libraries_mutex_ would stall function-call
  // dispatch (and is banned by the vine_analyze lock/blocking pass).
  std::map<std::string, LibraryHost> hosts;
  {
    MutexLock lock(libraries_mutex_);
    hosts.swap(libraries_);
  }
  for (auto& [_, host] : hosts) {
    host.instance->stop();
    if (host.pump.joinable()) host.pump.join();
    remove_all_quiet(host.sandbox);
  }
  hosts.clear();

  std::map<std::uint64_t, std::thread> to_join;
  {
    MutexLock lock(threads_mutex_);
    to_join.swap(task_threads_);
    finished_task_threads_.clear();
  }
  for (auto& [_, t] : to_join) {
    if (t.joinable()) t.join();
  }
  // All internal threads are quiescent; the cache must match the disk.
  maybe_audit("worker.stop");
}

void Worker::maybe_audit(const char* where) const {
  if (!audits_enabled()) return;
  AuditReport report;
  cache_->audit(report);
  enforce_clean(report, where);
}

// ------------------------------------------------------------ messaging

void Worker::send_to_manager(const proto::AnyMessage& msg) {
  auto st = manager_->send_json(proto::encode(msg));
  if (!st.ok() && !stopping_.load()) {
    VINE_LOG_WARN("worker", "%s: send to manager failed: %s", config_.id.c_str(),
                  st.error().message.c_str());
  }
}

void Worker::send_cache_update(const std::string& cache_name,
                               const std::string& transfer_id, bool ok,
                               std::int64_t size, const std::string& error) {
  proto::CacheUpdateMsg m;
  m.cache_name = cache_name;
  m.transfer_id = transfer_id;
  m.ok = ok;
  m.size = size;
  m.error = error;
  send_to_manager(m);
  // Storing one object may have evicted others; keep the manager's
  // replica table truthful about what this worker still holds.
  report_evictions();
}

void Worker::report_evictions() {
  for (const auto& name : cache_->take_evictions()) {
    proto::CacheUpdateMsg m;
    m.cache_name = name;
    m.ok = false;
    m.size = -1;
    m.error = "evicted";
    send_to_manager(m);
  }
}

// ------------------------------------------------------------ dispatch

void Worker::handle_frame(Frame frame) {
  if (frame.kind != Frame::Kind::json) {
    VINE_LOG_WARN("worker", "%s: unexpected blob frame (tag %s)",
                  config_.id.c_str(), frame.tag.c_str());
    return;
  }
  auto msg = proto::decode(frame.msg);
  if (!msg.ok()) {
    VINE_LOG_WARN("worker", "%s: bad message: %s", config_.id.c_str(),
                  msg.error().message.c_str());
    return;
  }
  std::visit(
      [this](auto&& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, proto::PutMsg>) handle_put(m);
        else if constexpr (std::is_same_v<T, proto::FetchMsg>) handle_fetch(m);
        else if constexpr (std::is_same_v<T, proto::MiniTaskMsg>) handle_mini_task(m);
        else if constexpr (std::is_same_v<T, proto::RunTaskMsg>) handle_run_task(m);
        else if constexpr (std::is_same_v<T, proto::UnlinkMsg>) handle_unlink(m);
        else if constexpr (std::is_same_v<T, proto::CancelTransferMsg>) handle_cancel_transfer(m);
        else if constexpr (std::is_same_v<T, proto::SendFileMsg>) handle_send_file(m);
        else if constexpr (std::is_same_v<T, proto::EndWorkflowMsg>) handle_end_workflow();
        else if constexpr (std::is_same_v<T, proto::ShutdownMsg>) stopping_.store(true);
        else {
          VINE_LOG_WARN("worker", "%s: unexpected message on control channel",
                        config_.id.c_str());
        }
      },
      *msg);
}

void Worker::handle_put(const proto::PutMsg& msg) {
  // The object's bytes follow as a blob frame on the same connection.
  auto blob = manager_->recv(
      std::chrono::milliseconds(std::max(1, config_.transfer_io_timeout_ms)));
  if (!blob.ok() || blob->kind != Frame::Kind::blob) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      "put not followed by blob frame");
    return;
  }
  Status st = msg.is_dir ? cache_->put_archive(msg.cache_name, blob->data, msg.level)
                         : cache_->put_bytes(msg.cache_name, blob->data, msg.level);
  if (!st.ok()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      st.error().to_string());
    return;
  }
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

void Worker::handle_fetch(const proto::FetchMsg& msg) {
  transfer_jobs_.push(TransferJob{msg, {}, false});
}

void Worker::handle_mini_task(const proto::MiniTaskMsg& msg) {
  transfer_jobs_.push(TransferJob{{}, msg, true});
}

void Worker::transfer_worker_main() {
  while (true) {
    auto job = transfer_jobs_.pop(200ms);
    if (!job) {
      if (transfer_jobs_.closed()) return;
      continue;
    }
    if (job->is_mini) {
      do_mini_task(job->mini);
    } else {
      do_fetch(job->fetch);
    }
  }
}

bool Worker::take_cancel(const std::string& transfer_id) {
  MutexLock lock(cancels_mutex_);
  return cancelled_transfers_.erase(transfer_id) > 0;
}

void Worker::do_fetch(const proto::FetchMsg& msg) {
  // A cancel_transfer that raced ahead of this job in the queue: skip the
  // work and report "cancelled" so the manager can close its record. Only
  // prefetches are ever cancelled; task-critical fetches are never stale.
  if (take_cancel(msg.transfer_id)) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, 0, "cancelled");
    return;
  }
  if (cache_->contains(msg.cache_name)) {
    // A replication fetch of an object we already hold (e.g. a prefetch
    // landed first) still needs the eviction pin.
    if (msg.pin) cache_->pin(msg.cache_name);
    auto e = cache_->entry(msg.cache_name);
    send_cache_update(msg.cache_name, msg.transfer_id, true,
                      e.ok() ? e->size : 0, "");
    return;
  }

  Status stored = Error{Errc::internal, "unhandled source kind"};
  if (msg.source.kind == TransferSource::Kind::url) {
    auto body = config_.fetcher->fetch(msg.source.key);
    stored = body.ok() ? cache_->put_bytes(msg.cache_name, *body, msg.level)
                       : Status(body.error());
  } else if (msg.source.kind == TransferSource::Kind::worker) {
    // Peer transfer, with bounded retries: a transient peer failure (drop,
    // stall, corrupt frame) backs off and tries again before bothering the
    // manager; persistent failures surface as a failed cache update so the
    // manager can re-plan around the source.
    int attempt = 0;
    for (;;) {
      stored = fetch_from_peer(msg);
      if (stored.ok() || stopping_.load()) break;
      if (stored.error().code == Errc::not_found) break;  // peer lost it; re-plan
      if (attempt >= config_.fetch_retries) break;
      const auto backoff =
          std::chrono::milliseconds(std::max(1, config_.fetch_backoff_ms) << attempt);
      VINE_LOG_WARN("worker", "%s: peer fetch of %s failed (%s); retry in %lldms",
                    config_.id.c_str(), msg.cache_name.c_str(),
                    stored.error().message.c_str(),
                    static_cast<long long>(backoff.count()));
      std::this_thread::sleep_for(backoff);
      ++attempt;
    }
  }

  if (!stored.ok()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      stored.error().to_string());
    return;
  }
  // Speculative bytes are tagged so eviction prefers them over live
  // workflow state; the first task that links the object promotes it.
  if (msg.prefetch) cache_->mark_prefetch(msg.cache_name);
  // Redundancy copies are pinned: this may become the last surviving
  // replica of a temp, so capacity pressure must never drop it.
  if (msg.pin) cache_->pin(msg.cache_name);
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

Status Worker::fetch_from_peer(const proto::FetchMsg& msg) {
  auto peer = connect_to(msg.source_addr, 5000ms);
  if (!peer.ok()) return Status(peer.error());
  const auto io =
      std::chrono::milliseconds(std::max(1, config_.transfer_io_timeout_ms));
  (*peer)->set_io_timeout(io);
  Status stored = Status::success();
  (*peer)->send_json(proto::encode(proto::GetMsg{msg.cache_name}));
  auto header = (*peer)->recv(io);
  if (!header.ok() || header->kind != Frame::Kind::json) {
    stored = header.ok() || header.error().code != Errc::timeout
                 ? Status(Error{Errc::protocol_error, "bad peer response header"})
                 : Status(header.error());
  } else {
    auto decoded = proto::decode(header->msg);
    if (!decoded.ok() || !std::holds_alternative<proto::ObjMsg>(*decoded)) {
      stored = Error{Errc::protocol_error, "peer sent non-obj response"};
    } else {
      auto& obj = std::get<proto::ObjMsg>(*decoded);
      if (!obj.ok) {
        stored = Error{Errc::not_found, "peer miss: " + obj.error};
      } else if (obj.checksum.empty()) {
        // Every serve attests; an unattested object (or a sender speaking
        // an older protocol) is refused before its blob is read.
        stored = Error{Errc::protocol_error, "peer obj carries no checksum"};
      } else {
        auto blob = (*peer)->recv(io);
        if (!blob.ok() || blob->kind != Frame::Kind::blob) {
          stored = !blob.ok() && blob.error().code == Errc::timeout
                       ? Status(blob.error())
                       : Status(Error{Errc::protocol_error, "peer blob missing"});
        } else {
          // The sender attested the content; a mismatch means the bytes
          // were damaged in flight. Fail the transfer instead of caching
          // poisoned data. A verified checksum goes into the cache entry,
          // so the received bytes are checksummed exactly once.
          std::string checksum = xxh64_buffer(blob->data);
          if (checksum != obj.checksum) {
            stored = Error{Errc::io_error, "peer blob checksum mismatch"};
          } else if (obj.is_dir) {
            stored = cache_->put_archive(msg.cache_name, blob->data, msg.level);
          } else {
            stored = cache_->put_bytes(msg.cache_name, blob->data, msg.level,
                                       std::move(checksum));
          }
        }
      }
    }
  }
  (*peer)->close();
  return stored;
}

void Worker::do_mini_task(const proto::MiniTaskMsg& msg) {
  if (cache_->contains(msg.cache_name)) {
    auto e = cache_->entry(msg.cache_name);
    send_cache_update(msg.cache_name, msg.transfer_id, true,
                      e.ok() ? e->size : 0, "");
    return;
  }
  // Run the producing task; its first output is adopted under the target
  // cache name. The wire task's outputs carry the same name, so a plain
  // execute() already lands the object where it belongs.
  proto::WireTask task = msg.task;
  if (task.outputs.empty()) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1,
                      "mini task declares no output");
    return;
  }
  task.outputs[0].cache_name = msg.cache_name;
  task.outputs[0].level = msg.level;
  ExecOutcome outcome = executor_->execute(task);
  if (!outcome.ok) {
    send_cache_update(msg.cache_name, msg.transfer_id, false, -1, outcome.error);
    return;
  }
  auto e = cache_->entry(msg.cache_name);
  send_cache_update(msg.cache_name, msg.transfer_id, true,
                    e.ok() ? e->size : 0, "");
}

// ------------------------------------------------------------ tasks

void Worker::handle_run_task(const proto::RunTaskMsg& msg) {
  if (msg.task.kind == TaskKind::library) {
    start_library(msg.task);
    return;
  }
  if (msg.task.kind == TaskKind::function_call) {
    invoke_function_call(msg.task);
    return;
  }
  launch_task_thread([this, task = msg.task] { task_thread_main(task); });
}

void Worker::launch_task_thread(std::function<void()> body) {
  join_finished_task_threads();
  MutexLock lock(threads_mutex_);
  const std::uint64_t key = next_task_thread_++;
  // The thread files its key only after the emplace below: it needs
  // threads_mutex_, which is held until then.
  task_threads_.emplace(key, std::thread([this, key, body = std::move(body)] {
    body();
    MutexLock done(threads_mutex_);
    finished_task_threads_.push_back(key);
  }));
}

void Worker::join_finished_task_threads() {
  std::vector<std::thread> finished;
  {
    MutexLock lock(threads_mutex_);
    for (std::uint64_t key : finished_task_threads_) {
      auto it = task_threads_.find(key);
      if (it == task_threads_.end()) continue;
      finished.push_back(std::move(it->second));
      task_threads_.erase(it);
    }
    finished_task_threads_.clear();
  }
  for (auto& t : finished) t.join();
}

void Worker::task_thread_main(proto::WireTask task) {
  proto::TaskDoneMsg done;
  done.task_id = task.id;
  done.started_at = clock_.now();

  ExecOutcome outcome = executor_->execute(task);

  done.finished_at = clock_.now();
  done.ok = outcome.ok;
  done.resource_exceeded = outcome.resource_exceeded;
  done.exit_code = outcome.exit_code;
  done.output = std::move(outcome.output);
  done.error = std::move(outcome.error);
  done.outputs = std::move(outcome.outputs);

  // Outputs became cache objects; announce them before the completion so
  // the manager's replica table is current when it processes task_done.
  for (const auto& out : done.outputs) {
    send_cache_update(out.cache_name, "", true, out.size, "");
  }
  send_to_manager(done);
}

// ------------------------------------------------------------ serverless

void Worker::start_library(proto::WireTask task) {
  launch_task_thread([this, task = std::move(task)] {
    auto sandbox = executor_->make_sandbox(task);
    if (!sandbox.ok()) {
      proto::TaskDoneMsg done;
      done.task_id = task.id;
      done.ok = false;
      done.error = "library sandbox: " + sandbox.error().to_string();
      send_to_manager(done);
      return;
    }
    FunctionContext ctx;
    ctx.sandbox_dir = sandbox->string();
    ctx.worker_id = config_.id;

    auto instance =
        std::make_unique<LibraryInstance>(task.library_name, task.id, ctx);

    // Wait for the init message.
    auto init = instance->from_instance().pop(60000ms);
    if (!init || !init->get_bool("ok")) {
      proto::TaskDoneMsg done;
      done.task_id = task.id;
      done.ok = false;
      done.error = init ? init->get_string("error", "library init failed")
                        : "library init timed out";
      send_to_manager(done);
      instance->stop();
      remove_all_quiet(*sandbox);
      return;
    }

    proto::LibraryReadyMsg ready;
    ready.task_id = task.id;
    ready.library_name = task.library_name;
    if (const auto* fns = init->find("functions"); fns && fns->is_array()) {
      for (const auto& f : fns->as_array()) {
        if (f.is_string()) ready.functions.push_back(f.as_string());
      }
    }

    LibraryHost host;
    host.sandbox = *sandbox;
    auto* inst_raw = instance.get();
    host.instance = std::move(instance);
    // Pump results from the instance into task_done messages.
    host.pump = std::thread([this, inst_raw] {
      while (true) {
        auto msg = inst_raw->from_instance().pop(200ms);
        if (!msg) {
          if (inst_raw->from_instance().closed()) return;
          continue;
        }
        if (msg->get_string("type") != "result") continue;
        proto::TaskDoneMsg done;
        done.task_id = static_cast<TaskId>(msg->get_int("call_id"));
        done.ok = msg->get_bool("ok");
        done.exit_code = done.ok ? 0 : 1;
        done.output = msg->get_string("output");
        done.error = msg->get_string("error");
        send_to_manager(done);
      }
    });

    // Swap in the new instance under the lock; retire a replaced older
    // instance outside it (stop/join are blocking calls).
    std::optional<LibraryHost> old_host;
    {
      MutexLock lib_lock(libraries_mutex_);
      auto it = libraries_.find(task.library_name);
      if (it != libraries_.end()) {
        old_host.emplace(std::move(it->second));
        libraries_.erase(it);
      }
      libraries_.emplace(task.library_name, std::move(host));
    }
    if (old_host) {
      old_host->instance->stop();
      if (old_host->pump.joinable()) old_host->pump.join();
      remove_all_quiet(old_host->sandbox);
    }
    send_to_manager(ready);
  });
}

void Worker::invoke_function_call(const proto::WireTask& task) {
  {
    MutexLock lock(libraries_mutex_);
    auto it = libraries_.find(task.library_name);
    if (it != libraries_.end()) {
      it->second.instance->invoke(task.id, task.function_name,
                                  task.function_args);
      return;
    }
  }
  // Error reply outside the lock: send_to_manager can block on the wire,
  // and nothing below touches library state.
  proto::TaskDoneMsg done;
  done.task_id = task.id;
  done.ok = false;
  done.error = "no library instance for " + task.library_name;
  send_to_manager(done);
}

// ------------------------------------------------------------ misc ops

void Worker::handle_unlink(const proto::UnlinkMsg& msg) {
  (void)cache_->remove_object(msg.cache_name);
}

void Worker::handle_cancel_transfer(const proto::CancelTransferMsg& msg) {
  // Best-effort: if the fetch is still queued, the mark makes do_fetch
  // answer "cancelled" instead of transferring. If it already ran, the
  // completed cache_update is in flight and the mark dies with the next
  // end_workflow — the manager treats whichever reply arrives as final.
  MutexLock lock(cancels_mutex_);
  cancelled_transfers_.insert(msg.transfer_id);
}

void Worker::handle_send_file(const proto::SendFileMsg& msg) {
  proto::FileDataMsg reply;
  reply.request_id = msg.request_id;
  reply.cache_name = msg.cache_name;
  // The reply carries no digest, so only a content-named object is hashed
  // (to check it against its name before it leaves the worker).
  auto info = cache_->serve_info(msg.cache_name, /*attest=*/false);
  if (!info.ok()) {
    reply.ok = false;
    reply.error = info.error().to_string();
    send_to_manager(reply);
    return;
  }
  if (!info->is_dir) {
    // Zero-copy: stream the file off disk instead of staging it.
    reply.ok = true;
    // Header then blob. Sends are frame-atomic but another thread could
    // interleave a frame between these two; the manager tolerates that by
    // matching the blob by tag.
    send_to_manager(reply);
    auto st = manager_->send_blob_file(
        msg.cache_name, info->path.string(),
        static_cast<std::uint64_t>(info->size));
    if (!st.ok() && !stopping_.load()) {
      VINE_LOG_WARN("worker", "%s: send_file blob of %s failed: %s",
                    config_.id.c_str(), msg.cache_name.c_str(),
                    st.error().message.c_str());
    }
    return;
  }
  // Directories are archived on the fly and must go through memory.
  auto data = cache_->read_for_transfer(msg.cache_name);
  if (!data.ok()) {
    reply.ok = false;
    reply.error = data.error().to_string();
    send_to_manager(reply);
    return;
  }
  reply.ok = true;
  send_to_manager(reply);
  manager_->send_blob(msg.cache_name, std::move(data->first));
}

void Worker::handle_end_workflow() {
  // Same extract-then-join discipline as stop(): never block under
  // libraries_mutex_.
  std::map<std::string, LibraryHost> hosts;
  {
    MutexLock lock(libraries_mutex_);
    hosts.swap(libraries_);
  }
  for (auto& [_, host] : hosts) {
    host.instance->stop();
    if (host.pump.joinable()) host.pump.join();
    remove_all_quiet(host.sandbox);
  }
  hosts.clear();
  {
    // Drop cancel marks whose fetches completed before the cancel arrived;
    // transfer ids are workflow-scoped so none can match later workflows.
    MutexLock lock(cancels_mutex_);
    cancelled_transfers_.clear();
  }
  cache_->end_workflow();
  maybe_audit("worker.end_workflow");
}

// ------------------------------------------------------------ peers

void Worker::transfer_server_main() {
  while (!stopping_.load()) {
    auto accepted = transfer_listener_->accept(200ms);
    if (!accepted.ok()) {
      if (accepted.error().code == Errc::timeout) continue;
      return;  // listener closed
    }
    std::shared_ptr<Endpoint> peer(std::move(*accepted));
    const std::uint64_t id = next_peer_id_.fetch_add(1);
    // Each peer connection pushes its frames to the serve pool: no thread
    // per connection. The callback runs on a transport thread and must only
    // enqueue; it captures the id, never the endpoint, so there is no
    // ownership cycle through the connection. Register before installing
    // the receiver — the first GET can land on the pool the instant the
    // callback is in place.
    {
      MutexLock lock(threads_mutex_);
      serve_peers_.emplace(id, peer);
    }
    peer->set_receiver([this, id](Result<Frame> frame) {
      serve_jobs_.push(ServeJob{id, std::move(frame)});
    });
  }
}

void Worker::serve_pool_main() {
  while (true) {
    auto job = serve_jobs_.pop(200ms);
    if (!job) {
      if (serve_jobs_.closed()) return;
      continue;
    }
    std::shared_ptr<Endpoint> peer;
    {
      MutexLock lock(threads_mutex_);
      auto it = serve_peers_.find(job->peer_id);
      if (it != serve_peers_.end()) peer = it->second;
    }
    if (!peer) continue;  // already dropped; late frame loses the race
    if (!job->frame.ok()) {
      // Death notification — the connection closed, timed out, or broke.
      // It is always the receiver's last delivery for this id, so dropping
      // our reference here leaks nothing. Destruction happens outside the
      // lock: the endpoint dtor deregisters from the reactor.
      std::shared_ptr<Endpoint> doomed;
      {
        MutexLock lock(threads_mutex_);
        auto it = serve_peers_.find(job->peer_id);
        if (it != serve_peers_.end()) {
          doomed = std::move(it->second);
          serve_peers_.erase(it);
        }
      }
      peer.reset();
      doomed.reset();
      continue;
    }
    if (job->frame->kind != Frame::Kind::json) continue;
    auto msg = proto::decode(job->frame->msg);
    if (!msg.ok() || !std::holds_alternative<proto::GetMsg>(*msg)) continue;
    // If serve_get closes the connection, the transport then delivers the
    // death notification and the branch above cleans up.
    serve_get(*peer, std::get<proto::GetMsg>(*msg));
  }
}

void Worker::serve_get(Endpoint& peer, const proto::GetMsg& get) {
  faults::WorkerFaults* flt = config_.faults.get();
  if (flt && faults::WorkerFaults::take(flt->fail_peer_serves)) {
    // Injected peer failure: drop the connection without answering, as a
    // crashing server would. The requester sees a closed/timeout error.
    flt->injected.fetch_add(1);
    peer.close();
    return;
  }

  proto::ObjMsg obj;
  obj.cache_name = get.cache_name;
  auto info = cache_->serve_info(get.cache_name, /*attest=*/true);
  if (!info.ok()) {
    obj.ok = false;
    obj.error = info.error().to_string();
    peer.send_json(proto::encode(obj));
    return;
  }
  const bool stall = flt && faults::WorkerFaults::take(flt->stall_peer_serves);
  // A stalled serve never ships its blob, so it must not consume a
  // corruption injection (matches the order of the old serve loop).
  const bool corrupt =
      !stall && flt && faults::WorkerFaults::take(flt->corrupt_peer_blobs);

  // Files go zero-copy: attest the memoized checksum and let the reactor
  // sendfile the object straight off disk. Directories (archived on the
  // fly) and corruption injections (must flip a byte in transit) still
  // stage the bytes in memory.
  std::string staged;
  const bool zero_copy = !info->is_dir && !corrupt;
  if (zero_copy) {
    obj.is_dir = false;
    obj.checksum = info->checksum;
  } else {
    auto data = cache_->read_for_transfer(get.cache_name);
    if (!data.ok()) {
      obj.ok = false;
      obj.error = data.error().to_string();
      peer.send_json(proto::encode(obj));
      return;
    }
    staged = std::move(data->first);
    obj.is_dir = data->second;
    // Attest the content so the receiver can reject in-flight corruption.
    obj.checksum = xxh64_buffer(staged);
    if (corrupt) {
      // Injected frame corruption: flip a byte after attesting the honest
      // checksum, so the receiver's verification catches it.
      flt->injected.fetch_add(1);
      if (!staged.empty()) staged[staged.size() / 2] ^= 0x40;
    }
  }
  obj.ok = true;

  if (stall) {
    // Injected mid-stream stall: the header goes out, the blob never
    // does. The requester's transfer_io_timeout must unwedge it.
    flt->injected.fetch_add(1);
    peer.send_json(proto::encode(obj));
    const double until = clock_.now() + flt->stall_ms.load() / 1000.0;
    while (!stopping_.load() && clock_.now() < until) {
      std::this_thread::sleep_for(10ms);
    }
    peer.close();
    return;
  }

  peer.send_json(proto::encode(obj));
  if (zero_copy) {
    auto st = peer.send_blob_file(get.cache_name, info->path.string(),
                                  static_cast<std::uint64_t>(info->size));
    if (!st.ok()) {
      // The header already promised a blob; the object raced an eviction
      // or the disk failed. Drop the connection so the requester retries
      // instead of waiting for a blob that will never come.
      VINE_LOG_WARN("worker", "%s: blob serve of %s failed: %s",
                    config_.id.c_str(), get.cache_name.c_str(),
                    st.error().message.c_str());
      peer.close();
      return;
    }
  } else {
    peer.send_blob(get.cache_name, std::move(staged));
  }
}

}  // namespace vine
