// Current Transfer Table (paper §3.3): every scheduled transfer is recorded
// under a UUID which the worker echoes in its cache-update message. The
// table lets the scheduler see how many concurrent connections each source
// is serving, enforcing per-source limits that prevent hotspots (the key
// mechanism behind Figure 11c).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "catalog/worker_info.hpp"
#include "common/invariant.hpp"

namespace vine {

/// Where a file comes from in one transfer.
struct TransferSource {
  enum class Kind : std::uint8_t { manager, url, worker };
  Kind kind = Kind::manager;
  std::string key;  ///< url text for Kind::url, worker id for Kind::worker,
                    ///< "" for the manager

  /// Canonical accounting key ("manager", "url:<url>", "worker:<id>").
  std::string account() const;

  static TransferSource from_manager() { return {Kind::manager, ""}; }
  static TransferSource from_url(std::string url) {
    return {Kind::url, std::move(url)};
  }
  static TransferSource from_worker(WorkerId id) {
    return {Kind::worker, std::move(id)};
  }

  bool operator==(const TransferSource&) const = default;
};

/// Trace label of a source kind: "manager", "url" or "worker".
const char* source_kind_name(TransferSource::Kind kind);

/// Trace source key: the url or worker id, "" for the manager.
std::string source_key_of(const TransferSource& source);

/// One in-flight transfer.
struct TransferRecord {
  std::string uuid;
  std::string cache_name;
  WorkerId dest;
  TransferSource source;
  double started_at = 0;
  /// Background input prefetch (lookahead scheduling). Prefetch transfers
  /// are accounted in a separate counter set so task-critical planning
  /// never waits behind them, and vice versa the prefetch budget checks
  /// never consume critical headroom.
  bool prefetch = false;
};

class CurrentTransferTable {
 public:
  /// Register a new transfer; returns its UUID for the worker to echo.
  /// `prefetch` routes the record into the prefetch transfer class (see
  /// TransferRecord::prefetch).
  std::string begin(const std::string& cache_name, const WorkerId& dest,
                    const TransferSource& source, double now,
                    bool prefetch = false);

  /// Complete (or fail) a transfer by UUID; returns the record, or nullopt
  /// for an unknown/duplicate UUID.
  std::optional<TransferRecord> finish(const std::string& uuid);

  /// In-flight count drawing from this source.
  int inflight_from(const TransferSource& source) const;

  /// In-flight count drawing from a worker source. Equivalent to
  /// inflight_from(TransferSource::from_worker(id)) but allocation-free:
  /// no TransferSource copy and no "worker:" account string per call. The
  /// scheduler calls this once per peer candidate per transfer plan.
  int inflight_from_worker(const WorkerId& id) const;

  /// In-flight count arriving at this worker.
  int inflight_to(const WorkerId& dest) const;

  // ---- prefetch transfer class. The inflight_* accessors above count
  // ONLY task-critical transfers; these count only prefetch ones. ----

  /// Total prefetch transfers currently in flight.
  int prefetch_inflight() const { return prefetch_inflight_; }

  /// Prefetch transfers currently served *by* this worker.
  int prefetch_inflight_from_worker(const WorkerId& id) const;

  /// Prefetch transfers currently arriving at this worker.
  int prefetch_inflight_to(const WorkerId& dest) const;

  /// True when `cache_name` is already on its way to `dest` (avoid
  /// scheduling duplicate transfers for concurrent tasks).
  bool pending_to(const std::string& cache_name, const WorkerId& dest) const;

  /// Drop all transfers involving a departed worker (as source or dest);
  /// returns them so the manager can reschedule.
  std::vector<TransferRecord> remove_worker(const WorkerId& worker);

  std::size_t size() const { return by_uuid_.size(); }

  /// All in-flight records (diagnostics).
  std::vector<TransferRecord> snapshot() const;

  /// Validate internal consistency: the per-source and per-destination
  /// in-flight counters must equal the counts recomputed from the records,
  /// with no zero/negative or orphaned counter entries.
  void audit(AuditReport& report) const;

 private:
  // Lets audit tests corrupt the private counters to prove detection.
  friend struct CatalogTestPeer;

  std::map<std::string, TransferRecord> by_uuid_;
  std::map<std::string, int> inflight_by_source_;  // account() -> count
  std::map<WorkerId, int> inflight_by_dest_;
  // Worker-keyed view of the worker-source slice of inflight_by_source_,
  // kept in lockstep so inflight_from_worker never builds an account string.
  std::map<WorkerId, int> inflight_by_worker_src_;
  // Prefetch class: counted apart from the critical maps above.
  int prefetch_inflight_ = 0;
  std::map<WorkerId, int> prefetch_by_dest_;
  std::map<WorkerId, int> prefetch_by_worker_src_;

  void decrement(const TransferRecord& rec);
};

}  // namespace vine
