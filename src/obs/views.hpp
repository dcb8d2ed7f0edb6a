// Derived views over the unified event stream: the paper's Figure-12 task
// view (one row per task) and worker view (running / transferring / idle
// intervals per worker), plus the per-source transfer matrix and bandwidth
// time series used by the evaluation figures.
//
// ViewBuilder consumes events incrementally (the TraceSink feeds it every
// emit), keeping only compact per-worker counter change lists and one row
// per task — so the views stay cheap even for simulations whose full event
// stream would be hundreds of megabytes. All derivations previously lived
// in the sim-only vinesim::TraceRecorder; they now work identically for
// runtime traces because both halves emit the same vocabulary.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace vine::obs {

/// One executed task in the task view.
struct TaskRow {
  std::uint64_t task_id = 0;
  std::string worker;
  std::string category;   ///< workload phase label ("process", "library:x", ...)
  double ready_at = 0;    ///< first time the task had all dependencies
  double started_at = 0;  ///< execution start (dispatch when no running event)
  double finished_at = 0; ///< completion / failure time
  bool ok = true;
};

/// Worker activity states in the worker view (Figure 12 bottom row).
enum class WorkerState : std::uint8_t { idle = 0, transfer = 1, busy = 2 };

/// "idle" / "transfer" / "busy".
const char* worker_state_name(WorkerState s) noexcept;

/// One homogeneous interval of a worker's activity.
struct ActivityInterval {
  double begin = 0;
  double end = 0;
  WorkerState state = WorkerState::idle;
};

/// Sum of (end-begin) per state for one worker.
struct Utilization {
  double busy = 0, transfer = 0, idle = 0;
};

/// One cell of the per-source transfer matrix.
struct TransferCell {
  std::int64_t count = 0;
  std::int64_t bytes = 0;
};

/// One bin of the cluster-wide transfer bandwidth time series.
struct BandwidthPoint {
  double t = 0;            ///< bin start time
  std::int64_t bytes = 0;  ///< bytes whose transfers completed in this bin
};

/// Incrementally folds events into the evaluation views.
class ViewBuilder {
 public:
  /// Fold one event in. Events must arrive in sink (seq) order; per-emitter
  /// timestamps are monotonic by TraceSink contract.
  void apply(const Event& ev);

  /// Task view: one row per completed (done or failed) task, in completion
  /// order.
  const std::vector<TaskRow>& tasks() const { return tasks_; }

  /// Worker view: timeline per worker up to `t_end`, merged into maximal
  /// intervals. busy dominates transfer dominates idle when overlapping.
  /// Intervals never extend past `t_end`; a worker still mid-transfer (or
  /// mid-task) at `t_end` gets a final interval flushed up to exactly
  /// `t_end` (the finalization defect the old sim TraceRecorder had).
  std::map<std::string, std::vector<ActivityInterval>> timelines(double t_end) const;

  /// Completion curve: sorted finish times of ok tasks.
  std::vector<double> completion_times() const;

  Utilization utilization(const std::string& worker, double t_end) const;

  /// Per-source transfer matrix over *successful* transfers:
  /// source kind ("manager" / "url" / "worker") -> dest node -> {count, bytes}.
  const std::map<std::string, std::map<std::string, TransferCell>>&
  transfer_matrix() const {
    return matrix_;
  }

  /// Bandwidth series: completed-transfer bytes binned by `bin_seconds`.
  /// Bins are contiguous from t=0 through the last completion.
  std::vector<BandwidthPoint> bandwidth_series(double bin_seconds) const;

  /// Tallies kept for the counters view: event counts by kind plus the last
  /// `counters` snapshot event folded in (snapshot keys win on collision).
  std::map<std::string, std::int64_t> counters_view() const;

  std::uint64_t events_applied() const { return events_applied_; }

 private:
  struct Change {
    double t;
    int run_delta;
    int xfer_delta;
  };
  struct PendingTask {
    std::string worker;
    std::string category;
    double ready_at = 0;
    double dispatched_at = -1;
    double running_at = -1;
    bool ready_seen = false;
    bool running_counted = false;  ///< a +1 run change is open on `worker`
  };
  struct InflightXfer {
    std::string worker;
    std::int64_t bytes = -1;
  };

  void close_worker(const std::string& worker, double t);

  std::map<std::string, std::vector<Change>> changes_;
  std::map<std::string, double> join_time_;
  // Live counter state per worker, mirrored from changes_ so worker loss can
  // push exact zeroing deltas.
  std::map<std::string, std::pair<int, int>> live_;  // {running, transferring}
  std::map<std::uint64_t, PendingTask> pending_;
  std::map<std::string, InflightXfer> inflight_;  // xfer uuid -> state
  std::vector<TaskRow> tasks_;
  std::map<std::string, std::map<std::string, TransferCell>> matrix_;
  std::vector<std::pair<double, std::int64_t>> xfer_done_;  // (t, bytes)
  // Per-kind event counts live in a flat array (apply() is on the emit hot
  // path; a map<string> tally there costs an allocation per event) and are
  // materialized as "events.<kind>" names in counters_view(). One slot per
  // kind: factory_scale is the last enumerator.
  std::array<std::int64_t, static_cast<std::size_t>(EventKind::factory_scale) + 1>
      kind_counts_{};
  std::map<std::string, std::int64_t> tallies_;  ///< named non-hot tallies
  std::map<std::string, std::int64_t> last_snapshot_;
  std::uint64_t events_applied_ = 0;
};

}  // namespace vine::obs
