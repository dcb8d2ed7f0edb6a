// Micro-benchmarks — the TCP data plane (src/net/reactor.cpp). Two claims
// from DESIGN.md "Data plane" are gated here against absolute floors
// (tools/bench.sh):
//
//   * BM_SmallFrames/N — control-message throughput across N concurrent
//     connections, 16 frames pipelined per connection per round. The
//     reactor coalesces queued frames into one writev, batch-decodes the
//     inbound buffer and pushes each frame to the serving side's receiver.
//   * BM_BlobServe — loopback GB/s streaming a 64 MB cached blob, the
//     worker→worker peer-serve path. sendfile moves the bytes without a
//     userspace copy; BM_BlobServeFallback measures the pread+writev path
//     (VINE_DISABLE_SENDFILE builds) and is informational, not gated.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.hpp"
#include "net/reactor.hpp"
#include "net/tcp.hpp"

namespace {

using namespace std::chrono_literals;
using vine::Endpoint;
using vine::Frame;
using vine::Listener;

/// N established loopback connection pairs with a frame counter on the
/// serving side, fed by receiver callbacks.
struct NetRig {
  std::unique_ptr<Listener> listener;
  std::vector<std::unique_ptr<Endpoint>> clients;
  std::vector<std::unique_ptr<Endpoint>> servers;
  std::atomic<std::int64_t> received{0};
  std::atomic<std::int64_t> expected{0};
  std::mutex done_mu;  // pairs with done_cv for the end-of-round handoff
  std::condition_variable done_cv;

  explicit NetRig(int conns) {
    auto l = vine::tcp_listen(0);
    if (!l.ok()) std::abort();
    listener = std::move(*l);
    for (int i = 0; i < conns; ++i) {
      auto c = vine::tcp_connect(listener->address(), 5000ms);
      auto s = listener->accept(5000ms);
      if (!c.ok() || !s.ok()) std::abort();
      clients.push_back(std::move(*c));
      servers.push_back(std::move(*s));
      servers.back()->set_receiver([this](vine::Result<Frame> f) {
        if (f.ok()) count_one();
      });
    }
  }

  ~NetRig() {
    for (auto& c : clients) c->close();
    for (auto& s : servers) s->close();
  }

  void count_one() {
    const std::int64_t now = received.fetch_add(1, std::memory_order_relaxed) + 1;
    if (now == expected.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lk(done_mu);
      done_cv.notify_one();
    }
  }

  /// Block (not spin) until `target` frames are counted: a yield loop
  /// would fight the transport threads for the CPU and distort the
  /// measurement on small machines.
  void wait_received(std::int64_t target) {
    std::unique_lock<std::mutex> lk(done_mu);
    done_cv.wait(lk, [&] {
      return received.load(std::memory_order_relaxed) >= target;
    });
  }
};

/// Small-message throughput at state.range(0) connections: each round
/// pipelines 16 heartbeat-sized frames per connection, then waits for
/// every frame to be counted on the serving side. The payload is a tiny
/// blob, not JSON: the JSON codec would only dilute the transport cost
/// this gate exists to keep honest.
void BM_SmallFrames(benchmark::State& state) {
  const int conns = static_cast<int>(state.range(0));
  constexpr int kDepth = 16;
  NetRig rig(conns);
  const std::string body(24, 'h');  // heartbeat-sized payload

  std::int64_t sent = 0;
  for (auto _ : state) {
    // The round's target must be published before the first send, or a
    // fast transport could count the final frame against a stale target
    // and skip the wakeup.
    sent += static_cast<std::int64_t>(conns) * kDepth;
    rig.expected.store(sent, std::memory_order_relaxed);
    for (auto& client : rig.clients) {
      for (int k = 0; k < kDepth; ++k) {
        if (!client->send_blob("hb", body).ok()) std::abort();
      }
    }
    rig.wait_received(sent);
  }
  state.SetItemsProcessed(sent);
}
BENCHMARK(BM_SmallFrames)->Arg(8)->Arg(64)->Arg(256)->UseRealTime();

constexpr std::uint64_t kBlobSize = 64ull * 1024 * 1024;

/// One 64 MB file-backed blob per iteration over a single loopback
/// connection — the peer-transfer serve path. Reported as bytes/s.
void blob_serve_loop(benchmark::State& state) {
  const auto path = std::filesystem::temp_directory_path() /
                    "vine-micro-net-blob.bin";
  {
    std::string bytes(kBlobSize, '\0');
    for (std::size_t i = 0; i < bytes.size(); i += 4096) {
      bytes[i] = static_cast<char>(i >> 12);
    }
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  auto listener = vine::tcp_listen(0);
  auto client = vine::tcp_connect((*listener)->address(), 5000ms);
  auto server = (*listener)->accept(5000ms);
  if (!client.ok() || !server.ok()) std::abort();

  for (auto _ : state) {
    // The reactor only enqueues the file span; the bytes move while the
    // client waits in recv.
    if (!(*server)->send_blob_file("blob", path.string(), kBlobSize).ok()) {
      std::abort();
    }
    auto got = (*client)->recv(30000ms);
    if (!got.ok() || got->data.size() != kBlobSize) std::abort();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBlobSize));
  std::error_code ec;
  std::filesystem::remove(path, ec);
}

void BM_BlobServe(benchmark::State& state) { blob_serve_loop(state); }
BENCHMARK(BM_BlobServe)->UseRealTime();

/// The pread+writev fallback (VINE_DISABLE_SENDFILE): same wire bytes,
/// one extra userspace copy. Informational — shows what the build flag
/// costs on platforms without sendfile.
void BM_BlobServeFallback(benchmark::State& state) {
  vine::set_sendfile_enabled(false);
  blob_serve_loop(state);
  vine::set_sendfile_enabled(true);
}
BENCHMARK(BM_BlobServeFallback)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
