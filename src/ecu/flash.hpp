#pragma once
// Journaled, page-granular A/B flash with power-loss-atomic updates. OTA
// (src/ota) streams verified chunks into the inactive slot's staging journal
// and flips on successful verification; secure boot measures the active slot.
//
// The flash is modeled the way production update stacks (MCUboot, Uptane
// primaries, UEFI capsules) actually survive power cuts:
//
//   * data is programmed in 4 KiB pages, each with its own CRC-32; a write
//     interrupted by power loss leaves a *detectably torn* page (prefix of
//     the data, CRC never programmed). A slot keeps its bytes once: the
//     programmed pages, back to back, are the slot's image, and a tear is
//     recorded as a flag because the torn prefix is never read;
//   * each slot carries a header with a state machine
//     EMPTY -> STAGING -> STAGED -> ACTIVE -> CONFIRMED and a monotonic
//     sequence number; header updates are dual-copy (write the new copy,
//     then retire the old), so a cut mid-header-write leaves the previous
//     header readable — the header update is effectively atomic;
//   * `boot()` is the recovery pass: it discards torn header copies and torn
//     journal pages, derives the staging journal watermark (contiguous
//     CRC-valid bytes, the download resume point), picks the
//     highest-sequence valid ACTIVE/CONFIRMED slot, and auto-reverts an
//     ACTIVE-but-unconfirmed slot whose confirmation deadline lapsed;
//   * page CRCs are checked at boot and when a journal resumes; sealing a
//     journal checks its length and content digest.
//
// Power loss is injected through a `sim::FaultPort` (FaultKind::kPowerLoss):
// every persistent write operation — page program or header write, including
// the activation and commit marker writes — consults the port and, when the
// cut hits, applies the write partially and powers the device down until
// `boot()` runs. The E18 bench sweeps the cut over every write index and
// asserts the invariant: after any single power loss the ECU boots a valid
// image (old or new), never a torn one, never none.

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.hpp"
#include "sim/faultplan.hpp"
#include "util/bytes.hpp"
#include "util/time.hpp"

namespace aseck::ecu {

struct FirmwareImage {
  std::string name;        // e.g. "brake-ctrl-fw"
  std::uint32_t version = 0;
  util::Bytes code;

  /// SHA-256 over name, big-endian version and code.
  crypto::Digest digest() const {
    crypto::Sha256 h;
    h.update({reinterpret_cast<const std::uint8_t*>(name.data()), name.size()});
    std::array<std::uint8_t, 4> ver;
    util::store_be32(ver.data(), version);
    h.update(ver);
    h.update(code);
    return h.finalize();
  }
};

/// Slot header state machine.
enum class SlotState : std::uint8_t {
  kEmpty,      // erased / no image
  kStaging,    // journal open, pages arriving
  kStaged,     // journal complete and digest-verified
  kActive,     // booted but not yet confirmed (self-test pending)
  kConfirmed,  // self-test passed; rollback floor raised to its version
};

/// Outcome of one persistent write operation.
enum class FlashWrite {
  kOk,
  kPowerLoss,  // the cut hit this write; device is down until boot()
  kRejected,   // no open journal / overflow / verification failure
};

/// Dual-slot journaled flash with anti-rollback.
///
/// Faults (sim::FaultHook): FaultKind::kPowerLoss windows cut power during
/// page programs and header writes (exact write index or per-write
/// probability).
class Flash : public sim::FaultHook {
 public:
  static constexpr std::size_t kPageSize = 4096;

  /// Parameters of a streaming install, keyed by the image content digest:
  /// re-opening a journal with the same digest resumes at the watermark;
  /// a different digest always resets the journal (no stale-watermark resume
  /// into a different image).
  struct StageRequest {
    std::string name;
    std::uint32_t version = 0;
    std::uint64_t total_bytes = 0;
    util::Bytes sha256;  // 32-byte digest of the raw code bytes
  };

  /// What boot-time recovery found and did.
  struct BootReport {
    bool bootable = false;  // a valid ACTIVE/CONFIRMED image exists
    int active_slot = -1;
    std::uint32_t active_version = 0;
    bool auto_reverted = false;   // ACTIVE slot past its confirm deadline
    bool fell_back_torn = false;  // preferred slot content torn; booted other
    bool staging_resumable = false;
    bool staging_discarded = false;  // STAGED content failed re-verification
    std::uint64_t resume_watermark = 0;  // valid journal bytes to resume from
    std::size_t torn_pages_discarded = 0;
    std::size_t torn_headers_discarded = 0;
    double scan_us = 0.0;  // modeled recovery latency (header + page scan)
  };

  // --- whole-image A/B API ---------------------------------------------------
  /// Writes `img` into the inactive slot through the journal (begin + stream
  /// + finish). Fails if the image version is below the rollback floor, or if
  /// an injected power cut interrupts the install (`lost_power()` is then
  /// true and the journal watermark survives for resume).
  bool stage(FirmwareImage img);

  /// Promotes the staged slot to active (the activation marker write). The
  /// rollback floor is NOT raised yet — the new image must pass its self-test
  /// first. With a nonzero `confirm_timeout`, a reboot after
  /// `now + confirm_timeout` without `commit()` auto-reverts to the previous
  /// bank (`boot()` enforces it; see ota::ConfirmWatchdog for the supervised
  /// wiring). Returns false if nothing staged or power was lost.
  bool activate(util::SimTime now = util::SimTime::zero(),
                util::SimTime confirm_timeout = util::SimTime::zero());

  /// Confirms the active image after a successful self-test (the commit
  /// marker write); raises the rollback floor to its version, making
  /// downgrades permanent failures. A power cut during the marker write
  /// leaves the slot ACTIVE-unconfirmed — the deadline machinery then decides
  /// at next boot.
  void commit();

  /// Reverts to the previous bank (failed self-test after update); allowed
  /// only if the previous image still satisfies the rollback floor. Erases
  /// the abandoned slot.
  bool revert();

  const FirmwareImage* active() const;
  const FirmwareImage* staged() const;
  std::uint32_t rollback_floor() const { return rollback_floor_; }
  /// Factory provisioning of the initial image (power-safe by assumption).
  void provision(FirmwareImage img);

  // --- journaled streaming install -------------------------------------------
  /// Opens (or resumes) the staging journal on the inactive slot. Resumes
  /// only when an existing journal carries the *same* content digest;
  /// otherwise the slot is erased and the journal restarts from zero.
  /// Fails below the rollback floor or while powered down.
  bool stage_begin(const StageRequest& req);
  /// Appends bytes to the journal. Pages are programmed as they fill (one
  /// injectable write op per page); bytes of a partially-filled page are
  /// volatile until that page programs.
  FlashWrite stage_write(util::BytesView chunk);
  /// Seals the journal: checks its length and content digest, then writes
  /// the STAGED header. kRejected erases the journal (bad bytes).
  FlashWrite stage_finish();
  /// Contiguous durable journal bytes (the download resume offset).
  std::uint64_t staging_watermark() const;

  // --- power-loss modeling ----------------------------------------------------
  /// True after an injected cut until boot() runs; all writes fail meanwhile.
  bool lost_power() const { return lost_power_; }
  /// Boot-time recovery scan (see file header). Idempotent; its own writes
  /// use the same atomic header protocol, so a cut during recovery merely
  /// repeats recovery.
  BootReport boot(util::SimTime now = util::SimTime::zero());

  /// True while the active slot awaits its confirmation (commit) marker.
  bool confirm_pending() const;
  /// Absolute confirm-or-revert deadline (zero = none armed).
  util::SimTime confirm_deadline() const;

  /// Flash write latency model: 50 us per started KiB (200 us per full page).
  static double write_latency_us(std::size_t bytes) {
    return 50.0 * static_cast<double>((bytes + 1023) / 1024);
  }
  /// One slot-header copy read (each slot has two copies, so a clean boot
  /// scan reads four).
  static constexpr double kHeaderReadUs = 5.0;
  /// Boot recovery scan latency model: header-copy reads + per-page CRC
  /// check. The four intact header copies are the 20 us base; each *torn*
  /// spare copy discovered during recovery is charged exactly once, when it
  /// is examined and discarded — previously the model charged torn copies
  /// through the flat base AND ignored the extra examination read, so
  /// recovery after a header cut reported the same latency as a clean boot.
  static double scan_latency_us(std::size_t pages,
                                std::size_t torn_header_copies = 0) {
    return kHeaderReadUs * static_cast<double>(4 + torn_header_copies) +
           8.0 * static_cast<double>(pages);
  }

 private:
  struct Header {
    SlotState state = SlotState::kEmpty;
    std::uint64_t seq = 0;  // monotonic across all header writes
    std::string name;
    std::uint32_t version = 0;
    std::uint64_t total_bytes = 0;
    util::Bytes sha256;
    std::uint64_t confirm_deadline_ns = 0;  // 0 = none
  };
  struct Slot {
    Header header;  // last durable header copy
    bool torn_spare = false;  // a cut left a torn (ignored) header copy
    FirmwareImage image;  // code = the programmed pages, back to back
    std::vector<std::uint32_t> page_crc;  // one per programmed page
    bool torn_page = false;  // a cut tore the page after the last one
  };

  bool consume_power();            // one write op; true = the cut hits now
  FlashWrite write_header(int slot, Header h);
  void erase_slot(int slot);
  FlashWrite program_page(Slot& s, util::BytesView bytes);
  static util::BytesView page(const Slot& s, std::size_t i);
  /// Leading pages whose bytes match their CRC.
  static std::size_t valid_pages(const Slot& s);
  /// Drops the torn page and every page from the first CRC mismatch on;
  /// returns how many pages it dropped.
  static std::size_t trim_journal(Slot& s);
  static bool digest_valid(const Slot& s);
  static bool content_valid(const Slot& s);
  int other_slot(int slot) const { return slot == 0 ? 1 : 0; }

  std::array<Slot, 2> slots_;
  int active_slot_ = -1;   // -1 = unprovisioned
  int staging_slot_ = -1;  // slot with an open journal or a STAGED image
  util::Bytes pending_;    // volatile partial-page write buffer
  std::uint64_t seq_counter_ = 0;
  std::uint32_t rollback_floor_ = 0;  // monotonic fuse; word write is atomic
  bool lost_power_ = false;
};

}  // namespace aseck::ecu
