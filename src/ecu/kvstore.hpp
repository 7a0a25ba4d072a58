#pragma once
// Journaled, power-loss-atomic key-value provisioning store (ROADMAP O4) —
// the device half of the TF-M reference's kvstore-backed provisioning:
// pseudonym pool indices, trust anchors, boot-image signatures, campaign
// config all live here, and fleet campaigns update them *transactionally*.
//
// The store is modeled the way production flash KV stores (TF-M ITS,
// Zephyr NVS, mbed KVStore) actually survive power cuts:
//
//   * the log is append-only records [type | txn | key | value | crc32];
//     every record append is ONE injectable write op (the same
//     sim::FaultPort/FaultKind::kPowerLoss contract as ecu::Flash), and a
//     cut mid-append leaves a *detectably torn* record (prefix only, CRC
//     never programmed);
//   * multi-key writes are transactions: kPut/kErase records carry a txn id
//     and take effect only when the txn's kCommit record lands intact —
//     mount() discards torn tails and uncommitted staging, so a cut at ANY
//     write index yields either the whole transaction or none of it;
//   * compaction is dual-region: live pairs are rewritten into the other
//     region and a monotonic epoch header flips atomically (same dual-copy
//     semantics as Flash headers); a cut anywhere mid-compaction leaves the
//     old region's epoch highest-valid, losing nothing.
//
// Everything is deterministic: mount scan latency is a pure function of the
// records scanned, iteration orders come from std::map, and to_json() has
// no wall-clock content — the E23 power-cut sweep diffs byte-for-byte.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/faultplan.hpp"
#include "util/bytes.hpp"

namespace aseck::ecu {

/// A multi-key atomic write set, built by the caller and committed as one
/// transaction. Order is preserved (later ops win on duplicate keys).
class KvTransaction {
 public:
  void put(std::string key, util::Bytes value) {
    ops_.push_back({std::move(key), std::move(value), false});
  }
  void erase(std::string key) {
    ops_.push_back({std::move(key), {}, true});
  }
  bool empty() const { return ops_.empty(); }

  struct Op {
    std::string key;
    util::Bytes value;
    bool is_erase = false;
  };
  const std::vector<Op>& ops() const { return ops_; }

 private:
  std::vector<Op> ops_;
};

/// Faults (sim::FaultHook): FaultKind::kPowerLoss windows cut power during
/// record/header writes (exact write index or per-write probability). A
/// Flash and a KvStore may share one port so a single cut index sweeps the
/// whole boot+config path.
class KvStore : public sim::FaultHook {
 public:
  /// Compaction trigger: live-log records above this start a rewrite.
  static constexpr std::size_t kDefaultCompactionThreshold = 256;

  /// What mount-time recovery found and did.
  struct MountReport {
    bool mounted = false;
    int region = -1;                 // region selected (highest valid epoch)
    std::uint64_t epoch = 0;
    std::uint64_t records_replayed = 0;
    std::uint64_t torn_records_discarded = 0;
    std::uint64_t uncommitted_discarded = 0;  // staged ops of unfinished txns
    std::uint64_t live_keys = 0;
    double scan_us = 0.0;            // modeled recovery latency
  };

  KvStore();

  // --- power-loss modeling ---------------------------------------------------
  /// True after an injected cut until mount() runs; writes fail meanwhile.
  bool lost_power() const { return lost_power_; }

  /// Mount-time recovery scan: picks the live region, discards torn tails
  /// and uncommitted transactions, replays committed records. Idempotent.
  MountReport mount();
  bool mounted() const { return mounted_; }

  // --- reads (mounted only) --------------------------------------------------
  const util::Bytes* get(const std::string& key) const;
  bool contains(const std::string& key) const { return get(key) != nullptr; }
  std::size_t size() const { return mounted_ ? live_.size() : 0; }

  // --- writes ----------------------------------------------------------------
  /// Single-key convenience transactions.
  bool put(const std::string& key, util::Bytes value);
  bool erase(const std::string& key);
  /// All-or-nothing multi-key commit. False when unmounted, empty, or a
  /// power cut interrupts it — in which case NOTHING is visible, now or
  /// after the next mount().
  bool commit(const KvTransaction& txn);

  // --- observation -----------------------------------------------------------
  std::size_t log_records() const;
  std::uint64_t compactions() const { return compactions_; }
  std::uint64_t epoch() const { return regions_[live_region_].epoch; }
  void set_compaction_threshold(std::size_t records) {
    compaction_threshold_ = records;
  }
  /// Mount recovery latency model: epoch-header reads + per-record scan.
  static double scan_latency_us(std::size_t records) {
    return 10.0 + 2.0 * static_cast<double>(records);
  }
  /// Deterministic content digest-ish export: sorted keys with value hex.
  std::string to_json() const;

 private:
  enum class RecordType : std::uint8_t { kPut = 1, kErase = 2, kCommit = 3 };
  struct Record {
    RecordType type = RecordType::kPut;
    std::uint32_t txn = 0;
    std::string key;
    util::Bytes value;
    std::uint32_t crc = 0;
    bool torn = false;  // cut mid-append: prefix only, CRC never programmed
  };
  struct Region {
    std::uint64_t epoch = 0;
    bool epoch_valid = false;
    std::vector<Record> records;
  };

  static util::Bytes serialize_record(const Record& r);
  bool consume_power();  // one write op; true = the cut hits now
  /// Appends one record to the live region (one injectable write op).
  bool append(Record r);
  /// Rewrites live pairs into the other region and flips the epoch header.
  void compact();
  int other_region() const { return live_region_ == 0 ? 1 : 0; }

  Region regions_[2];
  int live_region_ = 0;
  std::map<std::string, util::Bytes> live_;
  std::uint32_t next_txn_ = 1;
  std::size_t compaction_threshold_ = kDefaultCompactionThreshold;
  std::uint64_t compactions_ = 0;
  bool mounted_ = false;
  bool lost_power_ = false;
};

}  // namespace aseck::ecu
