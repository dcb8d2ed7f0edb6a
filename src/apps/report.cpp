#include "apps/report.hpp"

#include <algorithm>
#include <cstdio>

#include "obs/views.hpp"

namespace vineapps {

using vinesim::ClusterSim;
using vine::obs::WorkerState;

void print_completion_curve(const std::string& label, const ClusterSim& sim,
                            int points) {
  auto times = sim.trace().completion_times();
  if (times.empty()) return;
  double end = times.back();
  for (int i = 0; i <= points; ++i) {
    double t = end * i / points;
    auto done = std::upper_bound(times.begin(), times.end(), t) - times.begin();
    std::printf("curve,%s,%.2f,%zu\n", label.c_str(), t,
                static_cast<std::size_t>(done));
  }
}

void print_task_view(const std::string& label, const ClusterSim& sim,
                     int max_rows) {
  auto tasks = sim.trace().tasks();
  std::sort(tasks.begin(), tasks.end(),
            [](const auto& a, const auto& b) { return a.started_at < b.started_at; });
  std::size_t step = std::max<std::size_t>(1, tasks.size() / static_cast<std::size_t>(max_rows));
  for (std::size_t i = 0; i < tasks.size(); i += step) {
    const auto& t = tasks[i];
    std::printf("taskrow,%s,%llu,%s,%.2f,%.2f\n", label.c_str(),
                static_cast<unsigned long long>(t.task_id), t.category.c_str(),
                t.started_at, t.finished_at);
  }
}

namespace {
const char* state_name(WorkerState s) {
  switch (s) {
    case WorkerState::busy: return "busy";
    case WorkerState::transfer: return "transfer";
    case WorkerState::idle: return "idle";
  }
  return "?";
}
}  // namespace

void print_worker_view(const std::string& label, const ClusterSim& sim,
                       int max_workers) {
  auto timelines = sim.trace().timelines(sim.makespan());
  int printed = 0;
  for (const auto& [worker, intervals] : timelines) {
    if (printed++ >= max_workers) break;
    for (const auto& iv : intervals) {
      std::printf("workerrow,%s,%s,%s,%.2f,%.2f\n", label.c_str(), worker.c_str(),
                  state_name(iv.state), iv.begin, iv.end);
    }
  }
}

void summary_row(const std::string& label, const std::string& key, double value) {
  std::printf("summary,%s,%s,%.3f\n", label.c_str(), key.c_str(), value);
}

void summary_row(const std::string& label, const std::string& key,
                 const std::string& value) {
  std::printf("summary,%s,%s,%s\n", label.c_str(), key.c_str(), value.c_str());
}

void print_summary(const std::string& label, const ClusterSim& sim) {
  const auto& st = sim.stats();
  summary_row(label, "makespan_s", sim.makespan());
  summary_row(label, "tasks_done", st.tasks_done);
  summary_row(label, "tasks_unfinished", st.tasks_unfinished);
  summary_row(label, "transfers_archive", st.transfers_from_archive);
  summary_row(label, "transfers_sharedfs", st.transfers_from_sharedfs);
  summary_row(label, "transfers_manager", st.transfers_from_manager);
  summary_row(label, "transfers_peers", st.transfers_from_peers);
  summary_row(label, "unpacks", st.mini_tasks_run);
  summary_row(label, "retrievals_to_manager", st.retrievals_to_manager);
  summary_row(label, "GB_from_archive", st.bytes_from_archive / 1e9);
  summary_row(label, "GB_from_sharedfs", st.bytes_from_sharedfs / 1e9);
  summary_row(label, "GB_from_manager", st.bytes_from_manager / 1e9);
  summary_row(label, "GB_from_peers", st.bytes_from_peers / 1e9);
  summary_row(label, "GB_to_manager", st.bytes_to_manager / 1e9);
  summary_row(label, "cache_hits", st.cache_hits);
}

}  // namespace vineapps
