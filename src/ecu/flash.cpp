#include "ecu/flash.hpp"

#include <algorithm>

#include "util/crc.hpp"

namespace aseck::ecu {

bool Flash::consume_power() {
  if (fault_port_ && fault_port_->consume_power_loss()) {
    lost_power_ = true;
    return true;
  }
  return false;
}

FlashWrite Flash::write_header(int slot, Header h) {
  if (consume_power()) {
    // Dual-copy header update: the cut tears the in-flight copy, the
    // previous header stays readable. boot() discards the torn copy.
    slots_[slot].torn_spare = true;
    return FlashWrite::kPowerLoss;
  }
  slots_[slot].header = std::move(h);
  return FlashWrite::kOk;
}

void Flash::erase_slot(int slot) { slots_[slot] = Slot{}; }

FlashWrite Flash::program_page(Slot& s, util::BytesView bytes) {
  if (consume_power()) {
    // Torn page: a prefix of the data lands, the CRC never programs.
    // Recovery only drops that prefix, so only the tear is recorded.
    s.torn_page = true;
    return FlashWrite::kPowerLoss;
  }
  s.page_crc.push_back(util::crc32_ieee(bytes));
  s.image.code.insert(s.image.code.end(), bytes.begin(), bytes.end());
  return FlashWrite::kOk;
}

util::BytesView Flash::page(const Slot& s, std::size_t i) {
  const std::size_t off = i * kPageSize;
  return util::BytesView(s.image.code)
      .subspan(off, std::min(kPageSize, s.image.code.size() - off));
}

std::size_t Flash::valid_pages(const Slot& s) {
  std::size_t n = 0;
  while (n < s.page_crc.size() &&
         util::crc32_ieee(page(s, n)) == s.page_crc[n]) {
    ++n;
  }
  return n;
}

std::size_t Flash::trim_journal(Slot& s) {
  const std::size_t valid = valid_pages(s);
  const std::size_t dropped =
      s.page_crc.size() - valid + (s.torn_page ? 1 : 0);
  s.page_crc.resize(valid);
  s.image.code.resize(std::min(s.image.code.size(), valid * kPageSize));
  s.torn_page = false;
  return dropped;
}

bool Flash::digest_valid(const Slot& s) {
  const crypto::Digest d = crypto::sha256(s.image.code);
  return std::equal(d.begin(), d.end(), s.header.sha256.begin(),
                    s.header.sha256.end());
}

bool Flash::content_valid(const Slot& s) {
  return !s.torn_page && s.image.code.size() == s.header.total_bytes &&
         valid_pages(s) == s.page_crc.size() && digest_valid(s);
}

void Flash::provision(FirmwareImage img) {
  erase_slot(0);
  erase_slot(1);
  Slot& s = slots_[0];
  s.header.state = SlotState::kConfirmed;
  s.header.seq = ++seq_counter_;
  s.header.name = img.name;
  s.header.version = img.version;
  s.header.total_bytes = img.code.size();
  s.header.sha256 = crypto::sha256_bytes(img.code);
  s.image = std::move(img);
  for (std::size_t i = 0; i * kPageSize < s.image.code.size(); ++i) {
    s.page_crc.push_back(util::crc32_ieee(page(s, i)));
  }
  rollback_floor_ = s.header.version;
  active_slot_ = 0;
  staging_slot_ = -1;
  pending_.clear();
  lost_power_ = false;
}

bool Flash::stage_begin(const StageRequest& req) {
  if (lost_power_) return false;
  if (req.version < rollback_floor_) return false;
  const int target = (active_slot_ == 0) ? 1 : 0;
  Slot& s = slots_[target];
  pending_.clear();
  const bool resumable = (s.header.state == SlotState::kStaging ||
                          s.header.state == SlotState::kStaged) &&
                         s.header.sha256 == req.sha256 &&
                         s.header.total_bytes == req.total_bytes &&
                         s.header.name == req.name &&
                         s.header.version == req.version;
  if (resumable) {
    // Same content digest: keep the journal, resume at the watermark.
    staging_slot_ = target;
    if (s.header.state == SlotState::kStaging) trim_journal(s);
    return true;
  }
  // Different image (or no journal): reset. No stale-watermark resume.
  erase_slot(target);
  Header h;
  h.state = SlotState::kStaging;
  h.seq = ++seq_counter_;
  h.name = req.name;
  h.version = req.version;
  h.total_bytes = req.total_bytes;
  h.sha256 = req.sha256;
  if (write_header(target, std::move(h)) != FlashWrite::kOk) return false;
  s.image.name = req.name;
  s.image.version = req.version;
  staging_slot_ = target;
  return true;
}

FlashWrite Flash::stage_write(util::BytesView chunk) {
  if (lost_power_) return FlashWrite::kRejected;
  if (staging_slot_ < 0) return FlashWrite::kRejected;
  Slot& s = slots_[staging_slot_];
  if (s.header.state != SlotState::kStaging) return FlashWrite::kRejected;
  const util::Bytes& code = s.image.code;
  if (code.size() + pending_.size() + chunk.size() > s.header.total_bytes) {
    return FlashWrite::kRejected;  // overflow past the declared image length
  }
  std::size_t off = 0;
  while (off < chunk.size()) {
    const std::size_t room = kPageSize - pending_.size();
    const std::size_t take = std::min(chunk.size() - off, room);
    pending_.insert(pending_.end(), chunk.begin() + static_cast<std::ptrdiff_t>(off),
                    chunk.begin() + static_cast<std::ptrdiff_t>(off + take));
    off += take;
    if (pending_.size() == kPageSize ||
        code.size() + pending_.size() == s.header.total_bytes) {
      const FlashWrite w = program_page(s, pending_);
      pending_.clear();
      if (w != FlashWrite::kOk) return w;
    }
  }
  return FlashWrite::kOk;
}

FlashWrite Flash::stage_finish() {
  if (lost_power_) return FlashWrite::kRejected;
  if (staging_slot_ < 0) return FlashWrite::kRejected;
  Slot& s = slots_[staging_slot_];
  if (s.header.state == SlotState::kStaged) return FlashWrite::kOk;  // idempotent
  if (s.header.state != SlotState::kStaging) return FlashWrite::kRejected;
  if (s.image.code.size() != s.header.total_bytes || !pending_.empty()) {
    return FlashWrite::kRejected;  // journal incomplete
  }
  // With power on, every journal page got its CRC from its own bytes in
  // program_page() or passed the CRC scan in boot() or on resume, and
  // nothing else writes page bytes: the seal checks only the digest.
  if (!digest_valid(s)) {
    // Bytes in flash do not match the declared digest: poisoned journal.
    const int slot = staging_slot_;
    staging_slot_ = -1;
    erase_slot(slot);
    return FlashWrite::kRejected;
  }
  Header h = s.header;
  h.state = SlotState::kStaged;
  h.seq = ++seq_counter_;
  return write_header(staging_slot_, std::move(h));
}

std::uint64_t Flash::staging_watermark() const {
  if (staging_slot_ < 0) return 0;
  const Slot& s = slots_[staging_slot_];
  if (s.header.state == SlotState::kStaged) return s.header.total_bytes;
  if (s.header.state != SlotState::kStaging) return 0;
  return s.image.code.size();
}

bool Flash::stage(FirmwareImage img) {
  StageRequest req;
  req.name = img.name;
  req.version = img.version;
  req.total_bytes = img.code.size();
  req.sha256 = crypto::sha256_bytes(img.code);
  if (!stage_begin(req)) return false;
  const std::uint64_t wm = staging_watermark();
  if (wm < img.code.size()) {
    const util::BytesView rest(img.code.data() + wm, img.code.size() - wm);
    if (stage_write(rest) != FlashWrite::kOk) return false;
  }
  return stage_finish() == FlashWrite::kOk;
}

bool Flash::activate(util::SimTime now, util::SimTime confirm_timeout) {
  if (lost_power_) return false;
  if (staging_slot_ < 0 ||
      slots_[staging_slot_].header.state != SlotState::kStaged) {
    return false;
  }
  Header h = slots_[staging_slot_].header;
  h.state = SlotState::kActive;
  h.seq = ++seq_counter_;
  h.confirm_deadline_ns =
      confirm_timeout == util::SimTime::zero() ? 0 : (now + confirm_timeout).ns;
  if (write_header(staging_slot_, std::move(h)) != FlashWrite::kOk) {
    return false;  // cut at the activation marker; slot remains STAGED
  }
  active_slot_ = staging_slot_;
  staging_slot_ = -1;
  return true;
}

void Flash::commit() {
  if (lost_power_ || active_slot_ < 0) return;
  Slot& s = slots_[active_slot_];
  if (s.header.state == SlotState::kConfirmed) {
    rollback_floor_ = std::max(rollback_floor_, s.header.version);
    return;
  }
  if (s.header.state != SlotState::kActive) return;
  Header h = s.header;
  h.state = SlotState::kConfirmed;
  h.seq = ++seq_counter_;
  h.confirm_deadline_ns = 0;
  if (write_header(active_slot_, std::move(h)) != FlashWrite::kOk) {
    return;  // cut at the commit marker; slot stays ACTIVE-unconfirmed
  }
  // Monotonic fuse write (single word, atomic): raise the rollback floor.
  rollback_floor_ = std::max(rollback_floor_, s.header.version);
}

bool Flash::revert() {
  if (lost_power_ || active_slot_ < 0) return false;
  const int o = other_slot(active_slot_);
  const Header& oh = slots_[o].header;
  if (oh.state != SlotState::kConfirmed && oh.state != SlotState::kActive) {
    return false;
  }
  if (oh.version < rollback_floor_) return false;
  erase_slot(active_slot_);
  active_slot_ = o;
  staging_slot_ = -1;
  return true;
}

const FirmwareImage* Flash::active() const {
  if (active_slot_ < 0) return nullptr;
  const Slot& s = slots_[active_slot_];
  const SlotState st = s.header.state;
  if (st != SlotState::kActive && st != SlotState::kConfirmed) return nullptr;
  return &s.image;
}

const FirmwareImage* Flash::staged() const {
  if (staging_slot_ < 0) return nullptr;
  const Slot& s = slots_[staging_slot_];
  if (s.header.state != SlotState::kStaged) return nullptr;
  return &s.image;
}

bool Flash::confirm_pending() const {
  return active_slot_ >= 0 &&
         slots_[active_slot_].header.state == SlotState::kActive;
}

util::SimTime Flash::confirm_deadline() const {
  if (!confirm_pending()) return util::SimTime::zero();
  return util::SimTime::from_ns(slots_[active_slot_].header.confirm_deadline_ns);
}

Flash::BootReport Flash::boot(util::SimTime now) {
  BootReport rep;
  lost_power_ = false;
  pending_.clear();
  active_slot_ = -1;
  staging_slot_ = -1;

  std::size_t scanned_pages = 0;
  for (int i = 0; i < 2; ++i) {
    scanned_pages += slots_[i].page_crc.size() + (slots_[i].torn_page ? 1 : 0);
    if (slots_[i].torn_spare) {
      ++rep.torn_headers_discarded;
      slots_[i].torn_spare = false;
    }
  }
  rep.scan_us = scan_latency_us(scanned_pages, rep.torn_headers_discarded);

  // Boot candidates: ACTIVE/CONFIRMED slots whose content survives the
  // CRC + digest scan. A candidate with torn content can never boot.
  bool valid[2] = {false, false};
  for (int i = 0; i < 2; ++i) {
    const SlotState st = slots_[i].header.state;
    if (st != SlotState::kActive && st != SlotState::kConfirmed) continue;
    if (content_valid(slots_[i])) {
      valid[i] = true;
    } else {
      rep.fell_back_torn = true;  // resolved below if nothing else boots
      erase_slot(i);
    }
  }
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (valid[i] && (best < 0 || slots_[i].header.seq > slots_[best].header.seq)) {
      best = i;
    }
  }
  if (rep.fell_back_torn && best < 0) rep.fell_back_torn = false;

  // Confirm-or-revert watchdog: an ACTIVE slot whose confirmation deadline
  // lapsed is assumed to have failed its self-test on every boot attempt —
  // fall back to the previous confirmed bank while one exists.
  if (best >= 0 && slots_[best].header.state == SlotState::kActive &&
      slots_[best].header.confirm_deadline_ns != 0 &&
      now.ns > slots_[best].header.confirm_deadline_ns) {
    const int o = other_slot(best);
    if (valid[o] && slots_[o].header.version >= rollback_floor_) {
      erase_slot(best);
      best = o;
      rep.auto_reverted = true;
    }
  }

  active_slot_ = best;
  if (best >= 0) {
    rep.bootable = true;
    rep.active_slot = best;
    rep.active_version = slots_[best].header.version;
    if (slots_[best].header.state == SlotState::kConfirmed) {
      // Repair a cut between the commit marker and the fuse write.
      rollback_floor_ = std::max(rollback_floor_, slots_[best].header.version);
    }
  }

  // Staging journal recovery: discard the torn tail, keep the watermark.
  for (int i = 0; i < 2; ++i) {
    if (i == active_slot_) continue;
    Slot& s = slots_[i];
    if (s.header.state == SlotState::kStaging) {
      rep.torn_pages_discarded += trim_journal(s);
      rep.resume_watermark = s.image.code.size();
      rep.staging_resumable = true;
      staging_slot_ = i;
    } else if (s.header.state == SlotState::kStaged) {
      if (content_valid(s)) {
        staging_slot_ = i;
        rep.resume_watermark = s.header.total_bytes;
        rep.staging_resumable = true;
      } else {
        erase_slot(i);
        rep.staging_discarded = true;
      }
    }
  }
  return rep;
}

}  // namespace aseck::ecu
