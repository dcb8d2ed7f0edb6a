// The TaskVine worker (paper §2.2): manages one node's storage and compute.
// It executes tasks in sandboxes, keeps a flat cache of named objects,
// fetches remote data asynchronously through a bounded transfer queue,
// serves cached objects to peer workers, and hosts Library Instances for
// serverless calls. All policy lives at the manager; the worker provides
// mechanism and reports every state change (cache updates, completions).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/faults.hpp"
#include "common/mutex.hpp"
#include "files/url_fetcher.hpp"
#include "net/frame.hpp"
#include "net/msg_queue.hpp"
#include "proto/messages.hpp"
#include "task/resources.hpp"
#include "worker/cache_store.hpp"
#include "worker/executor.hpp"
#include "worker/library_instance.hpp"

namespace vine {

struct WorkerConfig {
  /// Stable identity; also used to derive the peer-transfer channel name.
  std::string id;

  /// Manager control address ("chan:NAME" or "host:port").
  std::string manager_addr;

  /// Capacity advertised to the manager.
  Resources resources{.cores = 4, .memory_mb = 8000, .disk_mb = 50000, .gpus = 0};

  /// Storage root: cache/ and sandboxes/ live below it. A persistent root
  /// lets worker-lifetime objects survive across workflows (hot cache).
  std::filesystem::path root_dir;

  /// Bound on cache storage in bytes; 0 = unlimited. When exceeded, LRU
  /// worker-lifetime objects are evicted (reported to the manager).
  std::int64_t cache_capacity_bytes = 0;

  /// Parallel downloads this worker performs (its own transfer queue).
  int max_concurrent_transfers = 4;

  /// URL access for fetch instructions; defaults to file:// support.
  std::shared_ptr<UrlFetcher> fetcher;

  /// Serve peer transfers over real TCP instead of an in-process channel.
  bool tcp_transfer_service = false;

  /// Keepalive cadence on the control connection; an idle worker still
  /// sends proof of life this often so the manager's heartbeat deadline
  /// only fires on genuinely hung workers. 0 disables heartbeats.
  int heartbeat_interval_ms = 1000;

  /// Idle window for transfer-side reads (peer header/blob, manager put
  /// blob): a peer that goes silent mid-transfer surfaces Errc::timeout
  /// after this long instead of wedging a fetch thread.
  int transfer_io_timeout_ms = 60000;

  /// Peer/url fetch retries before reporting failure to the manager, with
  /// exponential backoff between attempts (manager-side re-planning around
  /// the failed source is the next line of defense).
  int fetch_retries = 1;
  int fetch_backoff_ms = 50;

  /// Fault-injection hooks for chaos tests (see common/faults.hpp).
  /// Null = no injection, zero cost.
  faults::WorkerFaultsHandle faults;

  /// Shared structured-trace sink (vine::obs); null disables tracing. The
  /// worker hands it to its CacheStore, which emits the node's cache churn
  /// as "worker:<id>" alongside the manager's control-plane events.
  std::shared_ptr<obs::TraceSink> trace;
};

class Worker {
 public:
  /// Create a worker, start its services, and register with the manager.
  static Result<std::unique_ptr<Worker>> connect(WorkerConfig config);

  ~Worker();
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Process manager instructions until shutdown is received or stop() is
  /// called. Blocking; typically run on a dedicated thread.
  void run();

  /// Launch run() on an internal thread (joined by the destructor).
  void start();

  /// Request shutdown and join all internal threads.
  void stop();

  const std::string& id() const { return config_.id; }
  CacheStore& cache() { return *cache_; }
  const std::string& transfer_addr() const { return transfer_addr_; }

  /// Fault injection: freeze the control loop while keeping the connection
  /// open — the worker stops processing instructions and heartbeating, as a
  /// deadlocked or GC-wedged worker would. Only the manager's heartbeat
  /// deadline can get rid of it.
  void inject_hang() { hung_.store(true); }
  void clear_hang() { hung_.store(false); }

 private:
  explicit Worker(WorkerConfig config);
  Status init_and_register();

  // --- manager message handling (main loop thread) ---
  void handle_frame(Frame frame);
  void handle_put(const proto::PutMsg& msg);
  void handle_fetch(const proto::FetchMsg& msg);
  void handle_mini_task(const proto::MiniTaskMsg& msg);
  void handle_run_task(const proto::RunTaskMsg& msg);
  void handle_unlink(const proto::UnlinkMsg& msg);
  void handle_cancel_transfer(const proto::CancelTransferMsg& msg);
  void handle_send_file(const proto::SendFileMsg& msg);
  void handle_end_workflow();

  // --- helpers callable from any internal thread ---
  void send_to_manager(const proto::AnyMessage& msg);
  void send_cache_update(const std::string& cache_name,
                         const std::string& transfer_id, bool ok,
                         std::int64_t size, const std::string& error);
  /// Report cache evictions to the manager (replica-table truth).
  void report_evictions();

  /// Audit the cache store against on-disk truth and abort on violation
  /// when audits_enabled() (debug builds). Called at quiescent points:
  /// end-of-workflow and stop().
  void maybe_audit(const char* where) const;

  // --- transfer queue ---
  struct TransferJob {
    proto::FetchMsg fetch;      // valid when !is_mini
    proto::MiniTaskMsg mini;    // valid when is_mini
    bool is_mini = false;
  };
  void transfer_worker_main();
  void do_fetch(const proto::FetchMsg& msg);
  /// True (and consumes the mark) when `transfer_id` was cancelled by the
  /// manager before the fetch got to run.
  bool take_cancel(const std::string& transfer_id);
  /// One peer-fetch attempt: connect, GET, verify the attested digest,
  /// store. do_fetch wraps this in the retry/backoff loop.
  Status fetch_from_peer(const proto::FetchMsg& msg);
  void do_mini_task(const proto::MiniTaskMsg& msg);

  // --- task execution ---
  void task_thread_main(proto::WireTask task);
  /// Run `body` on a new task thread, first joining every task thread that
  /// has finished, so finished threads never pile up their stacks.
  void launch_task_thread(std::function<void()> body);
  void join_finished_task_threads();
  void start_library(proto::WireTask task);
  void invoke_function_call(const proto::WireTask& task);

  // --- peer transfer service ---
  void transfer_server_main();
  /// Answer one GET on a peer connection (fault injection, digest
  /// attestation, zero-copy blob send).
  void serve_get(Endpoint& peer, const proto::GetMsg& get);
  void serve_pool_main();

  WorkerConfig config_;
  std::unique_ptr<CacheStore> cache_;
  std::unique_ptr<Executor> executor_;

  std::unique_ptr<Endpoint> manager_;
  std::unique_ptr<Listener> transfer_listener_;
  std::string transfer_addr_;

  MsgQueue<TransferJob> transfer_jobs_;
  std::vector<std::thread> transfer_pool_;
  std::thread transfer_server_;

  // Event-driven peer serving: every peer connection pushes each inbound
  // frame — and finally the death notification — into serve_jobs_ as
  // {peer_id, frame}, from the reactor thread (TCP) or the requester's
  // sending thread (in-process channel); a small fixed pool drains it.
  // No thread is spent per connection on either transport.
  struct ServeJob {
    std::uint64_t peer_id = 0;
    Result<Frame> frame;
  };
  MsgQueue<ServeJob> serve_jobs_;
  std::vector<std::thread> serve_pool_;
  std::atomic<std::uint64_t> next_peer_id_{1};

  // Guards task_threads_ and finished_task_threads_ (launched by the main
  // loop, filed as finished by each task thread, joined at the next launch
  // and by stop()) and serve_peers_. Joins and endpoint destruction happen
  // with the threads moved out, never under the lock (an Endpoint dtor
  // deregisters from the reactor).
  Mutex threads_mutex_{lock_rank::Rank::worker_threads};
  // task and library-start executions by launch key
  std::map<std::uint64_t, std::thread> task_threads_ VINE_GUARDED_BY(threads_mutex_);
  // keys of task threads whose work is done, awaiting a join
  std::vector<std::uint64_t> finished_task_threads_ VINE_GUARDED_BY(threads_mutex_);
  std::uint64_t next_task_thread_ VINE_GUARDED_BY(threads_mutex_) = 0;
  // peer connections, keyed by their serve-job id
  std::map<std::uint64_t, std::shared_ptr<Endpoint>> serve_peers_
      VINE_GUARDED_BY(threads_mutex_);

  // Library instances by name, plus their sandboxes and result pumps.
  struct LibraryHost {
    std::unique_ptr<LibraryInstance> instance;
    std::filesystem::path sandbox;
    std::thread pump;
  };
  // Guards libraries_ (library starts race function-call dispatch).
  // Instance stop/join runs on hosts extracted from the map first: joining
  // a pump thread under the lock would be a blocking call under a lock
  // (vine_analyze rule) and would wedge dispatch for its duration.
  Mutex libraries_mutex_{lock_rank::Rank::worker_libraries};
  std::map<std::string, LibraryHost> libraries_
      VINE_GUARDED_BY(libraries_mutex_);

  // Guards cancelled_transfers_: transfer ids cancelled by the manager
  // (stale prefetch predictions). Written by the control loop, consumed by
  // transfer-pool threads when their job reaches the front of the queue;
  // cleared at end_workflow so ids for transfers that completed before the
  // cancel arrived cannot pile up across workflows.
  Mutex cancels_mutex_{lock_rank::Rank::worker_cancels};
  std::set<std::string> cancelled_transfers_ VINE_GUARDED_BY(cancels_mutex_);

  std::thread run_thread_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> hung_{false};  ///< inject_hang(): frozen control loop

  /// Worker-local monotonic clock; all reported timestamps share it.
  SteadyClock clock_;
};

}  // namespace vine
