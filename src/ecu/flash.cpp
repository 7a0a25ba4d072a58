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

void Flash::erase_slot(int slot) {
  Slot& s = slots_[slot];
  s.header = Header{};
  s.torn_spare = false;
  s.pages.clear();
  s.durable_bytes = 0;
  img_[slot].reset();
}

FlashWrite Flash::program_page(Slot& s, util::Bytes full_page) {
  if (consume_power()) {
    // Torn page: a prefix of the data lands, the CRC never programs.
    Page p;
    const std::size_t cut = full_page.empty() ? 0 : (full_page.size() + 1) / 2;
    p.data.assign(full_page.begin(),
                  full_page.begin() + static_cast<std::ptrdiff_t>(cut));
    p.programmed = true;
    p.torn = true;
    s.pages.push_back(std::move(p));
    return FlashWrite::kPowerLoss;
  }
  Page p;
  p.crc = util::crc32_ieee(full_page);
  p.data = std::move(full_page);
  p.programmed = true;
  s.pages.push_back(std::move(p));
  s.durable_bytes += s.pages.back().data.size();
  return FlashWrite::kOk;
}

std::uint64_t Flash::scan_watermark(Slot& s, bool discard_torn,
                                    std::size_t* torn_pages) {
  std::uint64_t bytes = 0;
  std::size_t valid = 0;
  for (const Page& p : s.pages) {
    const std::uint64_t remaining = s.header.total_bytes - bytes;
    const std::size_t expect =
        static_cast<std::size_t>(std::min<std::uint64_t>(kPageSize, remaining));
    if (!p.programmed || p.torn || p.data.size() != expect ||
        util::crc32_ieee(p.data) != p.crc) {
      break;
    }
    bytes += p.data.size();
    ++valid;
  }
  if (torn_pages) *torn_pages = s.pages.size() - valid;
  if (discard_torn && valid < s.pages.size()) {
    s.pages.resize(valid);
  }
  s.durable_bytes = bytes;
  return bytes;
}

bool Flash::content_valid(const Slot& s) const {
  std::uint64_t bytes = 0;
  for (const Page& p : s.pages) {
    const std::uint64_t remaining = s.header.total_bytes - bytes;
    const std::size_t expect =
        static_cast<std::size_t>(std::min<std::uint64_t>(kPageSize, remaining));
    if (!p.programmed || p.torn || p.data.size() != expect ||
        util::crc32_ieee(p.data) != p.crc) {
      return false;
    }
    bytes += p.data.size();
  }
  if (bytes != s.header.total_bytes) return false;
  crypto::Sha256 h;
  for (const Page& p : s.pages) h.update(p.data);
  const crypto::Digest d = h.finalize();
  return std::equal(d.begin(), d.end(), s.header.sha256.begin(),
                    s.header.sha256.end());
}

void Flash::materialize(int slot) {
  Slot& s = slots_[slot];
  util::Bytes code;
  code.reserve(static_cast<std::size_t>(s.header.total_bytes));
  for (const Page& p : s.pages) {
    code.insert(code.end(), p.data.begin(), p.data.end());
  }
  img_[slot] = FirmwareImage{s.header.name, s.header.version, std::move(code)};
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
  for (std::size_t off = 0; off < img.code.size(); off += kPageSize) {
    Page p;
    const std::size_t n = std::min(kPageSize, img.code.size() - off);
    p.data.assign(img.code.begin() + static_cast<std::ptrdiff_t>(off),
                  img.code.begin() + static_cast<std::ptrdiff_t>(off + n));
    p.crc = util::crc32_ieee(p.data);
    p.programmed = true;
    s.pages.push_back(std::move(p));
  }
  s.durable_bytes = img.code.size();
  rollback_floor_ = img.version;
  img_[0] = std::move(img);
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
    if (s.header.state == SlotState::kStaging) {
      scan_watermark(s, /*discard_torn=*/true, nullptr);
    }
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
  staging_slot_ = target;
  return true;
}

FlashWrite Flash::stage_write(util::BytesView chunk) {
  if (lost_power_) return FlashWrite::kRejected;
  if (staging_slot_ < 0) return FlashWrite::kRejected;
  Slot& s = slots_[staging_slot_];
  if (s.header.state != SlotState::kStaging) return FlashWrite::kRejected;
  if (s.durable_bytes + pending_.size() + chunk.size() > s.header.total_bytes) {
    return FlashWrite::kRejected;  // overflow past the declared image length
  }
  std::size_t off = 0;
  while (off < chunk.size()) {
    const std::size_t room = kPageSize - pending_.size();
    const std::size_t take = std::min(chunk.size() - off, room);
    pending_.insert(pending_.end(), chunk.begin() + static_cast<std::ptrdiff_t>(off),
                    chunk.begin() + static_cast<std::ptrdiff_t>(off + take));
    off += take;
    const bool image_complete =
        s.durable_bytes + pending_.size() == s.header.total_bytes;
    if (pending_.size() == kPageSize || (image_complete && !pending_.empty())) {
      util::Bytes page = std::move(pending_);
      pending_.clear();
      const FlashWrite w = program_page(s, std::move(page));
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
  if (s.durable_bytes != s.header.total_bytes || !pending_.empty()) {
    return FlashWrite::kRejected;  // journal incomplete
  }
  if (!content_valid(s)) {
    // Bytes in flash do not match the declared digest: poisoned journal.
    const int slot = staging_slot_;
    staging_slot_ = -1;
    erase_slot(slot);
    return FlashWrite::kRejected;
  }
  Header h = s.header;
  h.state = SlotState::kStaged;
  h.seq = ++seq_counter_;
  const FlashWrite w = write_header(staging_slot_, std::move(h));
  if (w != FlashWrite::kOk) return w;
  materialize(staging_slot_);
  return FlashWrite::kOk;
}

std::uint64_t Flash::staging_watermark() const {
  if (staging_slot_ < 0) return 0;
  const Slot& s = slots_[staging_slot_];
  if (s.header.state == SlotState::kStaged) return s.header.total_bytes;
  if (s.header.state != SlotState::kStaging) return 0;
  return s.durable_bytes;
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
  if (!img_[o]) return false;
  if (img_[o]->version < rollback_floor_) return false;
  const SlotState ostate = slots_[o].header.state;
  if (ostate != SlotState::kConfirmed && ostate != SlotState::kActive) {
    return false;
  }
  erase_slot(active_slot_);
  active_slot_ = o;
  staging_slot_ = -1;
  return true;
}

const FirmwareImage* Flash::active() const {
  if (active_slot_ < 0 || !img_[active_slot_]) return nullptr;
  const SlotState st = slots_[active_slot_].header.state;
  if (st != SlotState::kActive && st != SlotState::kConfirmed) return nullptr;
  return &*img_[active_slot_];
}

const FirmwareImage* Flash::staged() const {
  if (staging_slot_ < 0 || !img_[staging_slot_]) return nullptr;
  if (slots_[staging_slot_].header.state != SlotState::kStaged) return nullptr;
  return &*img_[staging_slot_];
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
    scanned_pages += slots_[i].pages.size();
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
      if (!img_[i]) materialize(i);
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
    if (valid[o] && img_[o] && img_[o]->version >= rollback_floor_) {
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
      std::size_t torn = 0;
      rep.resume_watermark = scan_watermark(s, /*discard_torn=*/true, &torn);
      rep.torn_pages_discarded += torn;
      rep.staging_resumable = true;
      staging_slot_ = i;
    } else if (s.header.state == SlotState::kStaged) {
      if (content_valid(s)) {
        if (!img_[i]) materialize(i);
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
