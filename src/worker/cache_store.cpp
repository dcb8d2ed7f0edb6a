#include "worker/cache_store.hpp"

#include "archive/vpak.hpp"
#include "common/log.hpp"
#include "fsutil/fsutil.hpp"
#include "hash/digest.hpp"

namespace vine {

namespace fs = std::filesystem;

CacheStore::CacheStore(fs::path dir, std::int64_t capacity_bytes)
    : dir_(std::move(dir)), capacity_(capacity_bytes) {
  // Locked although nothing is concurrent yet: keeps the clang analysis
  // unconditional on the guarded members the adoption scan touches.
  MutexLock lock(mutex_);
  std::error_code ec;
  fs::create_directories(dir_, ec);
  // Adopt surviving objects as worker-lifetime entries.
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    CacheEntry e;
    e.level = CacheLevel::worker;
    e.is_dir = de.is_directory(ec);
    auto size = tree_size(de.path());
    e.size = size.ok() ? *size : 0;
    e.last_access = ++access_tick_;
    entries_[de.path().filename().string()] = e;
  }
}

void CacheStore::set_trace(std::shared_ptr<obs::TraceSink> sink,
                           const Clock* clock, std::string emitter,
                           std::string worker) {
  MutexLock lock(mutex_);
  trace_ = std::move(sink);
  trace_clock_ = clock;
  trace_emitter_ = std::move(emitter);
  trace_worker_ = std::move(worker);
}

void CacheStore::trace_insert(const std::string& name, std::int64_t size,
                              const char* detail) {
  if (!trace_) return;
  trace_->emit(trace_emitter_,
               obs::Event::make_cache_insert(trace_clock_->now(), trace_worker_,
                                             name, size, detail));
}

void CacheStore::trace_evict(const std::string& name, const char* detail) {
  if (!trace_) return;
  trace_->emit(trace_emitter_,
               obs::Event::make_cache_evict(trace_clock_->now(), trace_worker_,
                                            name, detail));
}

void CacheStore::touch(const std::string& name) {
  auto it = entries_.find(name);
  if (it != entries_.end()) it->second.last_access = ++access_tick_;
}

Status CacheStore::make_room(std::int64_t needed) {
  if (capacity_ <= 0) return Status::success();
  std::int64_t used = 0;
  for (const auto& [_, e] : entries_) used += e.size;
  while (used + needed > capacity_) {
    // Two eviction classes, strictly ordered: unconsumed prefetch-staged
    // objects go first (speculative bytes, whatever their level — the
    // manager re-plans the transfer if the prediction was right after all),
    // then the oldest worker-lifetime entry. Everything else is live
    // workflow state and may only go via unlink/end_workflow.
    const std::string* victim = nullptr;
    std::uint64_t oldest = ~0ULL;
    for (const auto& [name, e] : entries_) {
      if (e.prefetch && !e.pinned && e.last_access < oldest) {
        oldest = e.last_access;
        victim = &name;
      }
    }
    if (!victim) {
      for (const auto& [name, e] : entries_) {
        if (e.level == CacheLevel::worker && !e.pinned &&
            e.last_access < oldest) {
          oldest = e.last_access;
          victim = &name;
        }
      }
    }
    if (!victim) {
      return Error{Errc::resource_exhausted,
                   "cache full: " + std::to_string(used) + "B used, " +
                       std::to_string(needed) + "B needed, nothing evictable"};
    }
    used -= entries_[*victim].size;
    std::string name = *victim;
    remove_all_quiet(path_of(name));
    entries_.erase(name);
    evicted_.push_back(name);
    trace_evict(name, "capacity");
    VINE_LOG_INFO("cache", "evicted %s to make room", name.c_str());
  }
  return Status::success();
}

void CacheStore::mark_prefetch(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) it->second.prefetch = true;
}

void CacheStore::pin(const std::string& name) {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it != entries_.end()) {
    it->second.pinned = true;
    it->second.prefetch = false;
  }
}

std::vector<std::string> CacheStore::take_evictions() {
  MutexLock lock(mutex_);
  std::vector<std::string> out;
  out.swap(evicted_);
  return out;
}

fs::path CacheStore::path_of(const std::string& name) const { return dir_ / name; }

Status CacheStore::validate_name(const std::string& name) const {
  if (name.empty() || name.find('/') != std::string::npos || name == "." ||
      name == "..") {
    return Error{Errc::invalid_argument, "bad cache name: " + name};
  }
  return Status::success();
}

Status CacheStore::put_bytes(const std::string& name, std::string_view bytes,
                             CacheLevel level, std::string checksum) {
  VINE_TRY_STATUS(validate_name(name));
  // The bytes are already in memory: checksumming now (outside the lock)
  // spares the first zero-copy serve a full re-read of the object.
  if (checksum.empty()) checksum = xxh64_buffer(bytes);
  MutexLock lock(mutex_);
  VINE_TRY_STATUS(make_room(static_cast<std::int64_t>(bytes.size())));
  VINE_TRY_STATUS(write_file_atomic(path_of(name), bytes));
  entries_[name] = {level, static_cast<std::int64_t>(bytes.size()), false,
                    ++access_tick_, false, std::move(checksum)};
  trace_insert(name, static_cast<std::int64_t>(bytes.size()), "store");
  return Status::success();
}

Status CacheStore::put_archive(const std::string& name,
                               std::string_view archive_bytes, CacheLevel level) {
  VINE_TRY_STATUS(validate_name(name));
  // Unpack to a temp sibling then rename, so a present object is complete.
  fs::path tmp = path_of(name + ".unpack-tmp");
  remove_all_quiet(tmp);
  fs::path archive_tmp = path_of(name + ".vpak-tmp");
  VINE_TRY_STATUS(write_file_atomic(archive_tmp, archive_bytes));
  auto unpack = vpak_unpack(archive_tmp, tmp);
  remove_all_quiet(archive_tmp);
  if (!unpack.ok()) {
    remove_all_quiet(tmp);
    return unpack.error();
  }
  auto size = tree_size(tmp);
  MutexLock lock(mutex_);
  if (auto room = make_room(size.ok() ? *size : 0); !room.ok()) {
    remove_all_quiet(tmp);
    return room.error();
  }
  std::error_code ec;
  remove_all_quiet(path_of(name));
  fs::rename(tmp, path_of(name), ec);
  if (ec) {
    remove_all_quiet(tmp);
    return Error{Errc::io_error, "rename into cache failed: " + ec.message()};
  }
  entries_[name] = {level, size.ok() ? *size : 0, true, ++access_tick_, false,
                    {}};
  trace_insert(name, size.ok() ? *size : 0, "store");
  return Status::success();
}

Status CacheStore::adopt(const std::string& name, const fs::path& src,
                         CacheLevel level) {
  VINE_TRY_STATUS(validate_name(name));
  std::error_code ec;
  if (!fs::exists(src, ec)) {
    return Error{Errc::not_found, "adopt source missing: " + src.string()};
  }
  bool is_dir = fs::is_directory(src, ec);
  auto size = tree_size(src);
  MutexLock lock(mutex_);
  VINE_TRY_STATUS(make_room(size.ok() ? *size : 0));
  remove_all_quiet(path_of(name));
  fs::rename(src, path_of(name), ec);
  if (ec) {
    // Cross-device or busy: fall back to copy.
    VINE_TRY_STATUS(copy_tree(src, path_of(name)));
    remove_all_quiet(src);
  }
  entries_[name] = {level, size.ok() ? *size : 0, is_dir, ++access_tick_,
                    false, {}};
  trace_insert(name, size.ok() ? *size : 0, "adopt");
  return Status::success();
}

bool CacheStore::contains(const std::string& name) const {
  MutexLock lock(mutex_);
  return entries_.count(name) > 0;
}

Result<fs::path> CacheStore::object_path(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Error{Errc::not_found, "not cached: " + name};
  }
  // LRU bookkeeping only; a use also proves the prediction behind a
  // prefetch right, promoting the entry out of the evict-first class.
  const_cast<CacheStore*>(this)->touch(name);
  const_cast<CacheEntry&>(it->second).prefetch = false;
  return path_of(name);
}

Result<CacheEntry> CacheStore::entry(const std::string& name) const {
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) return Error{Errc::not_found, "not cached: " + name};
  return it->second;
}

namespace {

/// The never-serve-corrupt check: a "md5-" file must still hash (MD5) to
/// its name. Other names carry no content digest and pass.
Status check_content_name(const std::string& name, const fs::path& path) {
  if (name.rfind("md5-", 0) != 0) return Status::success();
  VINE_TRY(std::string digest, md5_file(path));
  if ("md5-" + digest != name) {
    return Error{Errc::io_error, "cached object " + name +
                                     " is corrupt: content digest is " + digest};
  }
  return Status::success();
}

}  // namespace

Status CacheStore::verify_object(const std::string& name) const {
  VINE_TRY(CacheEntry e, entry(name));
  if (e.is_dir) return Status::success();
  return check_content_name(name, path_of(name));
}

Result<std::pair<std::string, bool>> CacheStore::read_for_transfer(
    const std::string& name) const {
  VINE_TRY(CacheEntry e, entry(name));
  // Never propagate a corrupted object into the cluster: content-named
  // files are re-hashed before they are served to a peer or the manager.
  VINE_TRY_STATUS(verify_object(name));
  if (e.is_dir) {
    // Serialize the tree to a vpak archive in memory via a temp file.
    fs::path tmp = dir_ / (name + ".xfer-tmp");
    auto pack = vpak_pack_tree(path_of(name), tmp);
    if (!pack.ok()) return pack.error();
    auto bytes = read_file(tmp);
    remove_all_quiet(tmp);
    if (!bytes.ok()) return bytes.error();
    return std::make_pair(std::move(*bytes), true);
  }
  VINE_TRY(std::string bytes, read_file(path_of(name)));
  return std::make_pair(std::move(bytes), false);
}

Result<ServeInfo> CacheStore::serve_info(const std::string& name, bool attest) {
  fs::path path;
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Error{Errc::not_found, "not cached: " + name};
    }
    touch(name);
    if (it->second.is_dir) {
      return ServeInfo{path_of(name), it->second.size, true, {}};
    }
    const bool content_named = name.rfind("md5-", 0) == 0;
    if (!it->second.checksum.empty() || (!attest && !content_named)) {
      return ServeInfo{path_of(name), it->second.size, false,
                       it->second.checksum};
    }
    path = path_of(name);
  }
  // First read of this object: outside the lock (reads every byte). A
  // content-named object is checked against its name first, so a corrupt
  // one is never memoized as good.
  VINE_TRY_STATUS(check_content_name(name, path));
  VINE_TRY(std::string checksum, xxh64_file(path));
  MutexLock lock(mutex_);
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    // Evicted while we were reading; the serve loses the race.
    return Error{Errc::not_found, "not cached: " + name};
  }
  if (it->second.checksum.empty()) it->second.checksum = checksum;
  return ServeInfo{path, it->second.size, false, it->second.checksum};
}

Status CacheStore::remove_object(const std::string& name) {
  VINE_TRY_STATUS(validate_name(name));
  MutexLock lock(mutex_);
  if (entries_.erase(name) > 0) trace_evict(name, "unlink");
  remove_all_quiet(path_of(name));
  return Status::success();
}

void CacheStore::end_workflow() {
  MutexLock lock(mutex_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.level != CacheLevel::worker) {
      remove_all_quiet(path_of(it->first));
      trace_evict(it->first, "workflow_end");
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
}

std::vector<std::pair<std::string, CacheEntry>> CacheStore::list() const {
  MutexLock lock(mutex_);
  return {entries_.begin(), entries_.end()};
}

void CacheStore::audit(AuditReport& report, bool verify_digests) const {
  static const std::string kSub = "cache_store";
  MutexLock lock(mutex_);
  for (const auto& [name, e] : entries_) {
    fs::path path = dir_ / name;
    std::error_code ec;
    if (!report.check(fs::exists(path, ec), kSub,
                      "entry " + name + " has no object on disk")) {
      continue;
    }
    bool is_dir = fs::is_directory(path, ec);
    if (!report.check(is_dir == e.is_dir, kSub,
                      "entry " + name + " recorded as " +
                          (e.is_dir ? "directory" : "file") +
                          " but on disk it is the opposite")) {
      continue;
    }
    auto size = tree_size(path);
    report.check(size.ok() && *size == e.size, kSub,
                 "entry " + name + " records " + std::to_string(e.size) +
                     "B but on disk holds " +
                     std::to_string(size.ok() ? *size : -1) + "B");
    if (verify_digests && !e.is_dir) {
      report.check(check_content_name(name, path).ok(), kSub,
                   "entry " + name + " fails content-digest verification");
    }
  }
  std::error_code ec;
  for (const auto& de : fs::directory_iterator(dir_, ec)) {
    std::string name = de.path().filename().string();
    // In-progress staging files (*.vpak-tmp, *.unpack-tmp, *.xfer-tmp) are
    // legitimately untracked while a transfer is being assembled.
    if (name.size() > 4 && name.rfind("-tmp") == name.size() - 4) continue;
    report.check(entries_.count(name) > 0, kSub,
                 "object " + name + " on disk but not tracked by any entry");
  }
}

std::int64_t CacheStore::used_bytes() const {
  MutexLock lock(mutex_);
  std::int64_t total = 0;
  for (const auto& [_, e] : entries_) total += e.size;
  return total;
}

}  // namespace vine
