// Micro-benchmarks — cache-name generation costs (paper §3.2 notes "there
// is some expense to producing such names"): MD5/SHA-1 throughput, the
// XXH64 data-plane checksum, directory-document hashing, task-spec Merkle
// hashing, URL naming tiers, and vpak archive codec throughput.
#include <benchmark/benchmark.h>

#include "archive/vpak.hpp"
#include "files/naming.hpp"
#include "hash/digest.hpp"
#include "hash/dirhash.hpp"
#include "hash/md5.hpp"
#include "hash/sha1.hpp"
#include "hash/xxh64.hpp"
#include "task/task_hash.hpp"

namespace {

using namespace vine;

void BM_Md5Throughput(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Md5::hex(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 22);

// The data plane's integrity checksum (peer attestation, receive check,
// cache memo): every transferred byte passes through it once per hop.
void BM_Xxh64Throughput(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Xxh64::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Xxh64Throughput)->Arg(1 << 10)->Arg(1 << 16)->Arg(1 << 22);

void BM_Sha1Throughput(benchmark::State& state) {
  std::string data(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hex(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Throughput)->Arg(1 << 16)->Arg(1 << 22);

void BM_DirDocumentHash(benchmark::State& state) {
  std::vector<DirDocEntry> entries;
  for (int i = 0; i < state.range(0); ++i) {
    entries.push_back({DirDocEntry::Kind::file, "file-" + std::to_string(i),
                       i * 100, "md5-0123456789abcdef0123456789abcdef"});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash_dir_document(entries));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DirDocumentHash)->Arg(10)->Arg(1000)->Arg(100000);

FileRef bench_file(std::string name) {
  auto f = std::make_shared<FileDecl>();
  f->cache_name = std::move(name);
  return f;
}

void BM_TaskSpecHash(benchmark::State& state) {
  TaskSpec spec;
  spec.command = "blast -db landmark -q query";
  spec.env["BLASTDB"] = "landmark";
  for (int i = 0; i < state.range(0); ++i) {
    spec.inputs.push_back(
        {bench_file("md5-0123456789abcdef0123456789abcde" + std::to_string(i)),
         "input-" + std::to_string(i)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(task_spec_hash(spec));
  }
}
BENCHMARK(BM_TaskSpecHash)->Arg(3)->Arg(30)->Arg(300);

void BM_UrlNamingTier1(benchmark::State& state) {
  MemoryUrlFetcher fetcher;
  fetcher.put("http://a/pkg", std::string(1 << 20, 'z'), "deadbeef");
  for (auto _ : state) {
    benchmark::DoNotOptimize(url_cache_name("http://a/pkg", fetcher));
  }
}
BENCHMARK(BM_UrlNamingTier1);

void BM_UrlNamingTier3Download(benchmark::State& state) {
  MemoryUrlFetcher fetcher;
  fetcher.put("http://bare/pkg", std::string(1 << 20, 'z'));  // no headers
  for (auto _ : state) {
    benchmark::DoNotOptimize(url_cache_name("http://bare/pkg", fetcher));
  }
}
BENCHMARK(BM_UrlNamingTier3Download);

void BM_VpakWrite(benchmark::State& state) {
  std::vector<VpakEntry> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back({VpakEntry::Kind::file, "f" + std::to_string(i),
                       std::string(static_cast<std::size_t>(state.range(0)), 'd')});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(vpak_write(entries));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 64 *
                          state.range(0));
}
BENCHMARK(BM_VpakWrite)->Arg(1 << 10)->Arg(1 << 16);

void BM_VpakRead(benchmark::State& state) {
  std::vector<VpakEntry> entries;
  for (int i = 0; i < 64; ++i) {
    entries.push_back({VpakEntry::Kind::file, "f" + std::to_string(i),
                       std::string(static_cast<std::size_t>(state.range(0)), 'd')});
  }
  std::string archive = vpak_write(entries);
  for (auto _ : state) {
    benchmark::DoNotOptimize(vpak_read(archive));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(archive.size()));
}
BENCHMARK(BM_VpakRead)->Arg(1 << 10)->Arg(1 << 16);

}  // namespace

BENCHMARK_MAIN();
