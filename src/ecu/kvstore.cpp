#include "ecu/kvstore.hpp"

#include <algorithm>

#include "util/crc.hpp"

namespace aseck::ecu {

KvStore::KvStore() {
  // Factory state: region 0 formatted at epoch 1 with an empty log
  // (power-safe by assumption, like Flash::provision).
  regions_[0].epoch = 1;
  regions_[0].epoch_valid = true;
}

util::Bytes KvStore::serialize_record(const Record& r) {
  util::Bytes out;
  out.push_back(static_cast<std::uint8_t>(r.type));
  util::append_be(out, r.txn, 4);
  util::append_be(out, static_cast<std::uint32_t>(r.key.size()), 2);
  util::append_be(out, static_cast<std::uint32_t>(r.value.size()), 4);
  out.insert(out.end(), r.key.begin(), r.key.end());
  out.insert(out.end(), r.value.begin(), r.value.end());
  return out;
}

bool KvStore::consume_power() {
  if (fault_port_ && fault_port_->consume_power_loss()) {
    lost_power_ = true;
    return true;
  }
  return false;
}

bool KvStore::append(Record r) {
  Region& reg = regions_[live_region_];
  if (consume_power()) {
    // Torn record: a prefix lands, the CRC never programs. mount() stops
    // its replay scan here and discards the tail.
    r.torn = true;
    r.crc = 0;
    reg.records.push_back(std::move(r));
    return false;
  }
  r.crc = util::crc32_ieee(serialize_record(r));
  reg.records.push_back(std::move(r));
  return true;
}

KvStore::MountReport KvStore::mount() {
  MountReport rep;
  lost_power_ = false;

  // Pick the region with the highest valid epoch (dual-region contract: at
  // least one epoch header is always valid). A region whose header never
  // flipped — an interrupted compaction target — is erased.
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (regions_[i].epoch_valid &&
        (best < 0 || regions_[i].epoch > regions_[best].epoch)) {
      best = i;
    }
  }
  if (best < 0) best = 0;  // unreachable by construction; stay deterministic
  live_region_ = best;
  const int dead = other_region();
  regions_[dead].records.clear();
  regions_[dead].epoch_valid = false;

  // Replay: committed transactions only, stopping at the first torn or
  // corrupt record (everything after a torn append is by definition gone).
  Region& reg = regions_[live_region_];
  live_.clear();
  std::map<std::uint32_t, std::vector<const Record*>> staged;
  std::size_t valid = 0;
  std::uint32_t max_txn = 0;
  for (const Record& r : reg.records) {
    if (r.torn || util::crc32_ieee(serialize_record(r)) != r.crc) break;
    ++valid;
    max_txn = std::max(max_txn, r.txn);
    if (r.type == RecordType::kCommit) {
      const auto it = staged.find(r.txn);
      if (it != staged.end()) {
        for (const Record* op : it->second) {
          if (op->type == RecordType::kErase) {
            live_.erase(op->key);
          } else {
            live_[op->key] = op->value;
          }
        }
        staged.erase(it);
      }
    } else {
      staged[r.txn].push_back(&r);
    }
  }
  rep.torn_records_discarded = reg.records.size() - valid;
  for (const auto& [txn, ops] : staged) {
    rep.uncommitted_discarded += ops.size();
  }
  rep.scan_us = scan_latency_us(reg.records.size());
  reg.records.resize(valid);

  mounted_ = true;
  next_txn_ = max_txn + 1;
  rep.mounted = true;
  rep.region = live_region_;
  rep.epoch = reg.epoch;
  rep.records_replayed = valid;
  rep.live_keys = live_.size();
  return rep;
}

const util::Bytes* KvStore::get(const std::string& key) const {
  if (!mounted_) return nullptr;
  const auto it = live_.find(key);
  return it == live_.end() ? nullptr : &it->second;
}

bool KvStore::put(const std::string& key, util::Bytes value) {
  KvTransaction txn;
  txn.put(key, std::move(value));
  return commit(txn);
}

bool KvStore::erase(const std::string& key) {
  KvTransaction txn;
  txn.erase(key);
  return commit(txn);
}

bool KvStore::commit(const KvTransaction& txn) {
  if (!mounted_ || lost_power_ || txn.empty()) return false;
  const std::uint32_t id = next_txn_++;
  for (const KvTransaction::Op& op : txn.ops()) {
    Record r;
    r.type = op.is_erase ? RecordType::kErase : RecordType::kPut;
    r.txn = id;
    r.key = op.key;
    r.value = op.value;
    if (!append(std::move(r))) return false;  // cut: nothing took effect
  }
  Record commit_rec;
  commit_rec.type = RecordType::kCommit;
  commit_rec.txn = id;
  if (!append(std::move(commit_rec))) return false;

  // Durable: apply to RAM state.
  for (const KvTransaction::Op& op : txn.ops()) {
    if (op.is_erase) {
      live_.erase(op.key);
    } else {
      live_[op.key] = op.value;
    }
  }
  if (regions_[live_region_].records.size() > compaction_threshold_) {
    compact();  // a cut in here is survivable; the commit above is durable
  }
  return true;
}

void KvStore::compact() {
  const int target = other_region();
  Region& dst = regions_[target];
  dst.records.clear();
  dst.epoch_valid = false;
  // Rewrite live pairs (sorted map order: deterministic) as txn-0 records.
  for (const auto& [key, value] : live_) {
    Record r;
    r.type = RecordType::kPut;
    r.txn = 0;
    r.key = key;
    r.value = value;
    if (consume_power()) {
      r.torn = true;
      dst.records.push_back(std::move(r));
      return;  // old region's epoch still highest-valid; nothing lost
    }
    r.crc = util::crc32_ieee(serialize_record(r));
    dst.records.push_back(std::move(r));
  }
  Record c;
  c.type = RecordType::kCommit;
  c.txn = 0;
  if (consume_power()) {
    c.torn = true;
    dst.records.push_back(std::move(c));
    return;
  }
  c.crc = util::crc32_ieee(serialize_record(c));
  dst.records.push_back(std::move(c));
  // Epoch header flip: one dual-copy (atomic-or-ignored) write.
  if (consume_power()) return;  // torn header copy; old region stays live
  dst.epoch = regions_[live_region_].epoch + 1;
  dst.epoch_valid = true;
  regions_[live_region_].records.clear();
  regions_[live_region_].epoch_valid = false;
  live_region_ = target;
  ++compactions_;
}

std::size_t KvStore::log_records() const {
  return regions_[live_region_].records.size();
}

std::string KvStore::to_json() const {
  std::string out = "{\"mounted\":" + std::string(mounted_ ? "true" : "false") +
                    ",\"epoch\":" + std::to_string(epoch()) +
                    ",\"records\":" + std::to_string(log_records()) +
                    ",\"compactions\":" + std::to_string(compactions_) +
                    ",\"kv\":{";
  bool first = true;
  for (const auto& [k, v] : live_) {
    if (!first) out += ",";
    first = false;
    out += "\"" + k + "\":\"" + util::to_hex(v) + "\"";
  }
  out += "}}";
  return out;
}

}  // namespace aseck::ecu
