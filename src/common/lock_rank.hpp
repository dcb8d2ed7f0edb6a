// Global lock-rank order and the debug-build runtime rank checker.
//
// Every vine::Mutex carries one of these ranks. A thread may only acquire a
// mutex whose rank is strictly greater than every rank it already holds, so
// all acquisition chains are monotone in one global order and lock-order
// deadlock is impossible by construction. The order below is the committed
// canonical order: tools/lock_ranks.txt is the reviewed copy, and
// tools/vine_analyze re-derives the observed nesting from the whole source
// tree and fails CI when either side drifts.
//
// Runtime side: debug builds (the same NDEBUG gate as vine::check audits)
// keep a thread-local stack of held ranks and abort on a non-monotone
// acquisition — the dynamic cross-check of the static graph, exercised by
// the chaos soaks. Release builds compile the bookkeeping out of the
// Mutex fast path entirely.
//
// The note_* functions themselves are compiled in every build so tests can
// drive the checker directly regardless of build type.
#pragma once

#include <cstdint>
#include <vector>

namespace vine::lock_rank {

/// Canonical acquisition order, outermost first (lower value = acquired
/// first). Gaps leave room to interleave new locks without renumbering.
/// Keep in sync with tools/lock_ranks.txt (golden-checked by vine_analyze).
enum class Rank : std::int32_t {
  manager_connections = 10,  ///< Manager::conn_mutex_
  worker_threads = 20,       ///< Worker::threads_mutex_
  worker_cancels = 25,       ///< Worker::cancels_mutex_ (cancelled transfers)
  worker_libraries = 30,     ///< Worker::libraries_mutex_
  executor_limits = 35,      ///< Executor::LimitTimer::mu_ (limit watches)
  cache_store = 40,          ///< CacheStore::mutex_
  channel_fabric = 50,       ///< ChannelFabric::mutex_
  url_fetcher = 60,          ///< MemoryUrlFetcher::mutex_
  task_registry = 70,        ///< Function/LibraryRegistry::mutex_
  trace_sink = 80,           ///< obs::TraceSink::mu_ (inner of cache_store)
  metrics = 90,              ///< obs::MetricsRegistry::mu_
  net_reactor = 95,          ///< Reactor::ops_mu_ (pending-op/flush list)
  endpoint_send = 100,       ///< ReactorConn::mu_ (frame delivery + write queue)
  msg_queue = 110,           ///< MsgQueue<T>::mutex_ (innermost data lock)
  uuid = 120,                ///< common/uuid RNG lock
  logging = 130,             ///< common/log stderr lock (callable anywhere)
};

const char* rank_name(Rank r);

/// Violation callback: receives the rank being acquired, the highest rank
/// already held, and a human-readable message. The default handler prints
/// the held stack and aborts.
using ViolationHandler = void (*)(Rank acquiring, Rank held,
                                  const char* message);

/// Swap the violation handler (tests); returns the previous one.
ViolationHandler set_violation_handler(ViolationHandler handler);

/// Record an acquisition attempt for the calling thread. Returns false —
/// after invoking the violation handler — when `r` is not strictly greater
/// than every rank already held; the rank is pushed either way so the
/// matching note_release keeps the stack balanced.
bool note_acquire(Rank r);

/// Record a release. Removes the innermost matching entry (releases need
/// not be LIFO; std::scoped_lock-style usage stays balanced).
void note_release(Rank r);

/// Ranks currently held by the calling thread, acquisition order.
std::vector<Rank> held_ranks();

}  // namespace vine::lock_rank

// Debug builds wire the checker into vine::Mutex; release builds compile
// it out of the locking fast path (same gate as vine::check audits).
#ifndef NDEBUG
#define VINE_LOCK_RANK_CHECKS 1
#else
#define VINE_LOCK_RANK_CHECKS 0
#endif
