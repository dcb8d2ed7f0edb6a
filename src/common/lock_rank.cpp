#include "common/lock_rank.hpp"

#include <cstdio>
#include <cstdlib>

namespace vine::lock_rank {

namespace {

// Per-thread stack of held ranks. Deliberately trivially destructible (a
// fixed array, not a vector): ranked mutexes are locked from static
// destructors at process exit (the ReactorPool singleton stopping its
// shards), which on the main thread runs *after* thread_local destructors
// — a vector here would already be destroyed. Depth is bounded by the
// number of distinct ranks (same-rank nesting is itself a violation).
constexpr int kMaxHeld = 32;
struct HeldStack {
  Rank ranks[kMaxHeld];
  int count = 0;
};
thread_local HeldStack t_held;

void default_handler(Rank acquiring, Rank held, const char* message) {
  std::fprintf(stderr, "lock_rank: %s (acquiring %s while holding %s; held:",
               message, rank_name(acquiring), rank_name(held));
  for (int i = 0; i < t_held.count; ++i) {
    std::fprintf(stderr, " %s", rank_name(t_held.ranks[i]));
  }
  std::fprintf(stderr, ")\n");
  std::abort();
}

ViolationHandler g_handler = default_handler;

}  // namespace

const char* rank_name(Rank r) {
  switch (r) {
    case Rank::manager_connections: return "manager_connections";
    case Rank::worker_threads: return "worker_threads";
    case Rank::worker_cancels: return "worker_cancels";
    case Rank::worker_libraries: return "worker_libraries";
    case Rank::executor_limits: return "executor_limits";
    case Rank::cache_store: return "cache_store";
    case Rank::channel_fabric: return "channel_fabric";
    case Rank::url_fetcher: return "url_fetcher";
    case Rank::task_registry: return "task_registry";
    case Rank::trace_sink: return "trace_sink";
    case Rank::metrics: return "metrics";
    case Rank::net_reactor: return "net_reactor";
    case Rank::endpoint_send: return "endpoint_send";
    case Rank::msg_queue: return "msg_queue";
    case Rank::uuid: return "uuid";
    case Rank::logging: return "logging";
  }
  return "unknown";
}

ViolationHandler set_violation_handler(ViolationHandler handler) {
  ViolationHandler prev = g_handler;
  g_handler = handler ? handler : default_handler;
  return prev;
}

bool note_acquire(Rank r) {
  bool ok = true;
  if (t_held.count > 0) {
    Rank max_held = t_held.ranks[0];
    for (int i = 1; i < t_held.count; ++i) {
      if (t_held.ranks[i] > max_held) max_held = t_held.ranks[i];
    }
    if (r <= max_held) {
      ok = false;
      g_handler(r, max_held,
                r == max_held ? "same-rank nested acquisition"
                              : "rank-order inversion");
    }
  }
  // Unreachable without a non-aborting violation handler stacking dozens
  // of same-rank acquisitions; saturate rather than scribble past the end.
  if (t_held.count < kMaxHeld) t_held.ranks[t_held.count++] = r;
  return ok;
}

void note_release(Rank r) {
  for (int i = t_held.count - 1; i >= 0; --i) {
    if (t_held.ranks[i] == r) {
      for (int j = i; j + 1 < t_held.count; ++j) {
        t_held.ranks[j] = t_held.ranks[j + 1];
      }
      --t_held.count;
      return;
    }
  }
  g_handler(r, r, "release of a rank not held");
}

std::vector<Rank> held_ranks() {
  return std::vector<Rank>(t_held.ranks, t_held.ranks + t_held.count);
}

}  // namespace vine::lock_rank
