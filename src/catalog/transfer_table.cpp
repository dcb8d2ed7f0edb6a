#include "catalog/transfer_table.hpp"

#include "common/uuid.hpp"

namespace vine {

std::string TransferSource::account() const {
  switch (kind) {
    case Kind::manager: return "manager";
    case Kind::url: return "url:" + key;
    case Kind::worker: return "worker:" + key;
  }
  return "?";
}

const char* source_kind_name(TransferSource::Kind kind) {
  switch (kind) {
    case TransferSource::Kind::manager: return "manager";
    case TransferSource::Kind::url: return "url";
    case TransferSource::Kind::worker: return "worker";
  }
  return "manager";
}

std::string source_key_of(const TransferSource& source) {
  return source.kind == TransferSource::Kind::manager ? std::string() : source.key;
}

std::string CurrentTransferTable::begin(const std::string& cache_name,
                                        const WorkerId& dest,
                                        const TransferSource& source,
                                        double now, bool prefetch) {
  TransferRecord rec;
  rec.uuid = generate_uuid();
  rec.cache_name = cache_name;
  rec.dest = dest;
  rec.source = source;
  rec.started_at = now;
  rec.prefetch = prefetch;
  if (prefetch) {
    ++prefetch_inflight_;
    ++prefetch_by_dest_[dest];
    if (source.kind == TransferSource::Kind::worker) {
      ++prefetch_by_worker_src_[source.key];
    }
  } else {
    ++inflight_by_source_[source.account()];
    ++inflight_by_dest_[dest];
    if (source.kind == TransferSource::Kind::worker) {
      ++inflight_by_worker_src_[source.key];
    }
  }
  std::string uuid = rec.uuid;
  by_uuid_.emplace(uuid, std::move(rec));
  return uuid;
}

void CurrentTransferTable::decrement(const TransferRecord& rec) {
  if (rec.prefetch) {
    --prefetch_inflight_;
    auto dit = prefetch_by_dest_.find(rec.dest);
    if (dit != prefetch_by_dest_.end() && --dit->second <= 0) {
      prefetch_by_dest_.erase(dit);
    }
    if (rec.source.kind == TransferSource::Kind::worker) {
      auto wit = prefetch_by_worker_src_.find(rec.source.key);
      if (wit != prefetch_by_worker_src_.end() && --wit->second <= 0) {
        prefetch_by_worker_src_.erase(wit);
      }
    }
    return;
  }
  auto sit = inflight_by_source_.find(rec.source.account());
  if (sit != inflight_by_source_.end() && --sit->second <= 0) {
    inflight_by_source_.erase(sit);
  }
  auto dit = inflight_by_dest_.find(rec.dest);
  if (dit != inflight_by_dest_.end() && --dit->second <= 0) {
    inflight_by_dest_.erase(dit);
  }
  if (rec.source.kind == TransferSource::Kind::worker) {
    auto wit = inflight_by_worker_src_.find(rec.source.key);
    if (wit != inflight_by_worker_src_.end() && --wit->second <= 0) {
      inflight_by_worker_src_.erase(wit);
    }
  }
}

std::optional<TransferRecord> CurrentTransferTable::finish(const std::string& uuid) {
  auto it = by_uuid_.find(uuid);
  if (it == by_uuid_.end()) return std::nullopt;
  TransferRecord rec = std::move(it->second);
  by_uuid_.erase(it);
  decrement(rec);
  return rec;
}

int CurrentTransferTable::inflight_from(const TransferSource& source) const {
  auto it = inflight_by_source_.find(source.account());
  return it == inflight_by_source_.end() ? 0 : it->second;
}

int CurrentTransferTable::inflight_from_worker(const WorkerId& id) const {
  auto it = inflight_by_worker_src_.find(id);
  return it == inflight_by_worker_src_.end() ? 0 : it->second;
}

int CurrentTransferTable::inflight_to(const WorkerId& dest) const {
  auto it = inflight_by_dest_.find(dest);
  return it == inflight_by_dest_.end() ? 0 : it->second;
}

int CurrentTransferTable::prefetch_inflight_from_worker(const WorkerId& id) const {
  auto it = prefetch_by_worker_src_.find(id);
  return it == prefetch_by_worker_src_.end() ? 0 : it->second;
}

int CurrentTransferTable::prefetch_inflight_to(const WorkerId& dest) const {
  auto it = prefetch_by_dest_.find(dest);
  return it == prefetch_by_dest_.end() ? 0 : it->second;
}

bool CurrentTransferTable::pending_to(const std::string& cache_name,
                                      const WorkerId& dest) const {
  for (const auto& [_, rec] : by_uuid_) {
    if (rec.cache_name == cache_name && rec.dest == dest) return true;
  }
  return false;
}

std::vector<TransferRecord> CurrentTransferTable::remove_worker(const WorkerId& worker) {
  std::vector<TransferRecord> removed;
  for (auto it = by_uuid_.begin(); it != by_uuid_.end();) {
    const TransferRecord& rec = it->second;
    bool involves = rec.dest == worker ||
                    (rec.source.kind == TransferSource::Kind::worker &&
                     rec.source.key == worker);
    if (involves) {
      decrement(rec);
      removed.push_back(rec);
      it = by_uuid_.erase(it);
    } else {
      ++it;
    }
  }
  return removed;
}

void CurrentTransferTable::audit(AuditReport& report) const {
  static const std::string kSub = "transfer_table";
  std::map<std::string, int> by_source;
  std::map<WorkerId, int> by_dest;
  std::map<WorkerId, int> by_worker_src;
  int prefetch_total = 0;
  std::map<WorkerId, int> pf_by_dest;
  std::map<WorkerId, int> pf_by_worker_src;
  for (const auto& [uuid, rec] : by_uuid_) {
    report.check(uuid == rec.uuid, kSub,
                 "record keyed " + uuid + " carries uuid " + rec.uuid);
    report.check(!rec.cache_name.empty(), kSub,
                 "transfer " + uuid + " has no cache name");
    report.check(!rec.dest.empty(), kSub,
                 "transfer " + uuid + " has no destination worker");
    if (rec.prefetch) {
      ++prefetch_total;
      ++pf_by_dest[rec.dest];
      if (rec.source.kind == TransferSource::Kind::worker) {
        ++pf_by_worker_src[rec.source.key];
      }
      continue;
    }
    ++by_source[rec.source.account()];
    ++by_dest[rec.dest];
    if (rec.source.kind == TransferSource::Kind::worker) {
      ++by_worker_src[rec.source.key];
    }
  }
  report.check(prefetch_inflight_ == prefetch_total, kSub,
               "prefetch inflight counter is " +
                   std::to_string(prefetch_inflight_) + " but the records total " +
                   std::to_string(prefetch_total));
  // Report per-key diffs (not just "maps differ") so a violation names the
  // counter that drifted.
  auto diff = [&report](const auto& counters, const auto& recomputed,
                        const std::string& what) {
    for (const auto& [key, count] : counters) {
      auto it = recomputed.find(key);
      int actual = it == recomputed.end() ? 0 : it->second;
      report.check(count == actual, kSub,
                   what + " counter for " + key + " is " +
                       std::to_string(count) + " but the records total " +
                       std::to_string(actual));
    }
    for (const auto& [key, count] : recomputed) {
      report.check(counters.count(key) != 0, kSub,
                   std::to_string(count) + " record(s) " + what + " " + key +
                       " have no counter entry");
    }
  };
  diff(inflight_by_source_, by_source, "per-source");
  diff(inflight_by_dest_, by_dest, "per-destination");
  diff(inflight_by_worker_src_, by_worker_src, "per-worker-source");
  diff(prefetch_by_dest_, pf_by_dest, "prefetch per-destination");
  diff(prefetch_by_worker_src_, pf_by_worker_src, "prefetch per-worker-source");
}

std::vector<TransferRecord> CurrentTransferTable::snapshot() const {
  std::vector<TransferRecord> out;
  out.reserve(by_uuid_.size());
  for (const auto& [_, rec] : by_uuid_) out.push_back(rec);
  return out;
}

}  // namespace vine
