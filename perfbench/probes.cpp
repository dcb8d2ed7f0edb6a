#include "probes.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

CpuTimes process_cpu() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

namespace {

/// "Threads", "VmPeak", "VmHWM", ... from /proc/self/status (kB for Vm*).
std::map<std::string, std::int64_t> read_status() {
  std::map<std::string, std::int64_t> out;
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    if (key != "Threads" && key != "VmPeak" && key != "VmHWM") continue;
    out[key] = std::stoll(line.substr(colon + 1));
  }
  return out;
}

}  // namespace

double vm_hwm_mb() { return static_cast<double>(read_status()["VmHWM"]) / 1024.0; }

void ProcSampler::sample() {
  const auto now = Clock::now();
  if (now - last_ < std::chrono::milliseconds(20)) return;
  last_ = now;
  sample_now();
}

void ProcSampler::sample_now() {
  auto status = read_status();
  threads_peak = std::max(threads_peak, status["Threads"]);
  vm_peak_mb = std::max(vm_peak_mb, static_cast<double>(status["VmPeak"]) / 1024.0);
  std::error_code ec;
  std::int64_t fds = 0;
  for (auto it = std::filesystem::directory_iterator("/proc/self/fd", ec);
       !ec && it != std::filesystem::directory_iterator(); it.increment(ec)) {
    ++fds;
  }
  fds_peak = std::max(fds_peak, fds);
}

void add_trace(const std::vector<vine::obs::Event>& events, TraceFigures& out) {
  using vine::obs::EventKind;
  std::map<std::uint64_t, double> ready_at;
  std::map<std::uint64_t, bool> dispatched;
  std::map<std::string, const vine::obs::Event*> begins;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case EventKind::task_state:
        if (ev.emitter != "manager") break;
        if (ev.state == "ready") {
          ready_at.emplace(ev.task, ev.t);
        } else if (ev.state == "dispatched" && !dispatched[ev.task]) {
          dispatched[ev.task] = true;
          if (auto it = ready_at.find(ev.task); it != ready_at.end()) {
            out.queue_ms.push_back((ev.t - it->second) * 1e3);
          }
        }
        break;
      case EventKind::sched_pass:
        out.sched_scanned += std::max<std::int64_t>(0, ev.scanned);
        out.sched_dispatched += std::max<std::int64_t>(0, ev.dispatched);
        break;
      case EventKind::transfer_begin:
        begins[ev.xfer] = &ev;
        break;
      case EventKind::transfer_end: {
        auto it = begins.find(ev.xfer);
        if (it == begins.end() || !ev.ok) break;
        const double dur = ev.t - it->second->t;
        out.xfer_ms.push_back(dur * 1e3);
        if (ev.source == "worker" && ev.bytes > 0) {
          out.peer_bytes += static_cast<double>(ev.bytes);
          out.peer_busy_s += dur;
        }
        begins.erase(it);
        break;
      }
      case EventKind::cache_insert:
        ++out.cache_inserts;
        break;
      case EventKind::cache_evict:
        ++out.cache_evicts;
        break;
      default:
        break;
    }
  }
}

}  // namespace perfbench
