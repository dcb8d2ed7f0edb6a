// Worker-local object cache (paper §2.2, Figure 4).
//
// All data on a worker lives in one flat directory of objects keyed by the
// manager-assigned cache name. Objects are immutable once present; tasks
// see them through links in private sandboxes. Each object carries its
// cache lifetime: task/workflow objects are cleared by end_workflow(),
// worker objects persist on disk and are re-announced to the next manager
// (hot cache, Figure 9b).
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/invariant.hpp"
#include "common/mutex.hpp"
#include "files/file_decl.hpp"
#include "obs/trace_sink.hpp"

namespace vine {

/// Metadata for one cached object.
struct CacheEntry {
  CacheLevel level = CacheLevel::workflow;
  std::int64_t size = 0;
  bool is_dir = false;
  std::uint64_t last_access = 0;  ///< LRU tick for eviction ordering
  /// Staged by a lookahead prefetch and not yet consumed by any task.
  /// Tagged entries rank below everything else under capacity pressure —
  /// speculative bytes must never displace live workflow state or the
  /// worker-lifetime hot cache. First object_path access (a task links the
  /// input, or a peer pulls it) promotes the entry to a normal one.
  bool prefetch = false;
  /// Memoized XXH64 checksum (16 hex digits) of the file content: the
  /// data plane's integrity check, not a name. Empty until first computed
  /// (put_bytes records it while the data is in memory, everything else
  /// lazily on the first attested serve). Directories never carry one —
  /// their transfer checksum covers the packed archive, not the tree.
  std::string checksum;
  /// Redundancy replica: the manager pinned this object because it may be
  /// the invariant-holding copy of a temp. Capacity pressure must never
  /// evict it (both victim scans skip pinned entries); only an explicit
  /// unlink or end_workflow removes it.
  bool pinned = false;
};

/// Everything a peer serve needs to stream a file object straight off
/// disk without staging it in memory (zero-copy path).
struct ServeInfo {
  std::filesystem::path path;
  std::int64_t size = 0;
  bool is_dir = false;
  std::string checksum;  ///< XXH64 hex of file content; empty for directories
};

class CacheStore {
 public:
  /// Open (or create) a cache rooted at `dir`. Objects already on disk are
  /// adopted as worker-lifetime entries (they could only have survived a
  /// previous workflow if they were worker-lifetime).
  /// `capacity_bytes` bounds total cache size; 0 = unlimited. When an
  /// insertion would exceed it, least-recently-used *worker-lifetime*
  /// objects are evicted first (they are pure cache; task/workflow objects
  /// are live workflow state and are never evicted silently). If that is
  /// not enough, the insertion fails with Errc::resource_exhausted.
  explicit CacheStore(std::filesystem::path dir, std::int64_t capacity_bytes = 0);

  /// Attach a structured-trace sink: the store then emits cache_insert /
  /// cache_evict events (vine::obs vocabulary) for local cache churn under
  /// `emitter` ("worker:<id>"), stamping `worker` as the subject node and
  /// timestamps from `clock` (the worker's clock; must outlive the store).
  void set_trace(std::shared_ptr<obs::TraceSink> sink, const Clock* clock,
                 std::string emitter, std::string worker);

  /// Store literal bytes under `name`. `checksum` is the XXH64 hex of
  /// `bytes` when the caller already computed it (a peer fetch checks the
  /// sender's attestation before storing); empty means checksum the bytes
  /// here.
  Status put_bytes(const std::string& name, std::string_view bytes,
                   CacheLevel level, std::string checksum = {});

  /// Store a directory tree delivered as a vpak archive.
  Status put_archive(const std::string& name, std::string_view archive_bytes,
                     CacheLevel level);

  /// Move an existing file/directory into the cache (task outputs).
  Status adopt(const std::string& name, const std::filesystem::path& src,
               CacheLevel level);

  bool contains(const std::string& name) const;

  /// Absolute path of a present object (for sandbox linking / serving).
  Result<std::filesystem::path> object_path(const std::string& name) const;

  /// Entry metadata of a present object.
  Result<CacheEntry> entry(const std::string& name) const;

  /// Serialize an object for a transfer: file -> raw bytes,
  /// directory -> vpak archive (is_dir tells the receiver which).
  Result<std::pair<std::string, bool>> read_for_transfer(const std::string& name) const;

  /// Path + size (+ checksum) for serving a file object straight off disk
  /// (sendfile zero-copy). With `attest`, the caller ships the checksum (a
  /// peer serve): it is computed on the first such serve (outside the lock
  /// — it reads every byte) and memoized in the entry. Without it (the
  /// manager fetch path, whose reply carries no checksum), only
  /// content-named objects are read. Either way a "md5-" object without a
  /// memo is verified against its name (MD5) before its first serve,
  /// preserving read_for_transfer's never-serve-corrupt guarantee, and its
  /// checksum is memoized; other objects come back with whatever checksum
  /// is already memoized. Directories return is_dir=true with no checksum:
  /// the caller must fall back to read_for_transfer's archive path.
  Result<ServeInfo> serve_info(const std::string& name, bool attest);

  /// Tag a present object as prefetch-staged (see CacheEntry::prefetch).
  /// No-op when absent.
  void mark_prefetch(const std::string& name);

  /// Pin a present object against capacity eviction (see CacheEntry::pinned).
  /// Clears any prefetch tag — a pinned replica is live state. No-op when
  /// absent.
  void pin(const std::string& name);

  Status remove_object(const std::string& name);

  /// Delete everything below worker lifetime (end of workflow GC).
  void end_workflow();

  /// All current entries, sorted by name.
  std::vector<std::pair<std::string, CacheEntry>> list() const;

  /// Bytes used by all objects.
  std::int64_t used_bytes() const;

  std::int64_t capacity_bytes() const { return capacity_; }

  /// Names evicted since the last call (the worker reports these to the
  /// manager as cache-update removals so the replica table stays true).
  std::vector<std::string> take_evictions();

  /// Verify a present object against the content digest embedded in its
  /// cache name: "md5-<hex>" file objects are re-hashed and compared.
  /// Objects without a content-derived name (rnd-/task-/url-/directories)
  /// pass trivially. Errc::io_error on a digest mismatch — the object was
  /// corrupted on disk and must not be served.
  Status verify_object(const std::string& name) const;

  /// Validate bookkeeping against on-disk truth: every entry's object must
  /// exist with the recorded kind (file/dir) and byte size, and everything
  /// under the cache root must be tracked by an entry. With
  /// `verify_digests`, additionally re-hash "md5-" file objects against
  /// their names (reads every cached byte; meant for tests and deep sweeps).
  void audit(AuditReport& report, bool verify_digests = false) const;

  const std::filesystem::path& root() const { return dir_; }

 private:
  std::filesystem::path path_of(const std::string& name) const;
  Status validate_name(const std::string& name) const;
  /// Evict entries until `needed` more bytes fit: LRU prefetch-tagged
  /// entries first (speculative bytes, any level), then LRU worker-lifetime
  /// entries. Caller holds mutex_. Fails when impossible.
  Status make_room(std::int64_t needed) VINE_REQUIRES(mutex_);
  void touch(const std::string& name) VINE_REQUIRES(mutex_);
  // Trace emission helpers; no-ops until set_trace. Called with mutex_
  // held (the sink has its own, higher-ranked lock and never calls back).
  void trace_insert(const std::string& name, std::int64_t size,
                    const char* detail) VINE_REQUIRES(mutex_);
  void trace_evict(const std::string& name, const char* detail)
      VINE_REQUIRES(mutex_);

  std::filesystem::path dir_;
  std::int64_t capacity_ = 0;
  // Guards entries_, evicted_, access_tick_, the trace_* wiring, and all
  // object mutation under dir_; held across evict+insert so capacity
  // checks are atomic (the file I/O under it is a documented contract —
  // see the vine_analyze allowlist).
  mutable Mutex mutex_{lock_rank::Rank::cache_store};
  std::shared_ptr<obs::TraceSink> trace_ VINE_GUARDED_BY(mutex_);
  const Clock* trace_clock_ VINE_GUARDED_BY(mutex_) =
      nullptr;  ///< borrowed from the owning worker
  std::string trace_emitter_ VINE_GUARDED_BY(mutex_);
  std::string trace_worker_ VINE_GUARDED_BY(mutex_);
  std::map<std::string, CacheEntry> entries_ VINE_GUARDED_BY(mutex_);
  std::vector<std::string> evicted_ VINE_GUARDED_BY(mutex_);
  std::uint64_t access_tick_ VINE_GUARDED_BY(mutex_) = 0;
};

}  // namespace vine
