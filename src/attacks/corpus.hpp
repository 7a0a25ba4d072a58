#pragma once
// Replayable attack corpus (E20): fuzzer-found parser breakers and the
// frozen V1-V12 testbed-matrix payloads, serialized in a stable text format
// and replayed onto a live CAN bus through the TraceBus/FaultPlan machinery.
//
// The corpus is the bridge between the offline fuzzer (fuzz/) and the online
// defenses: bench_e20_fuzz_corpus replays every entry against a trained IDS
// ensemble and a SecurityGateway, scoring per-attack-class detection rates.
// Entries are deterministic data — replaying a corpus under the same seed
// produces a bit-identical TraceBus timeline (corpus_test.cpp pins the
// digest equality), which is what lets CI diff two runs.
//
// Text format (one entry per line, '|'-separated, hex payload):
//   aseck-corpus v1
//   <id>|<class>|<protocol>|<can_id>|<period_ns>|<repeat>|<hex>|<origin>|<note>
// Fields must not contain '|' or newlines; parse is strict (unknown class or
// protocol names, bad hex, short lines, and a missing header all reject).

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ivn/can.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/bytes.hpp"

namespace aseck::attacks {

/// Attack taxonomy aligned with the V1-V12 testbed matrix the related
/// fuzzing work scores against (V3 spoof, V4 replay, V9 UDS bypass, V10 DLC
/// overflow, V11 integer overflow, V12 firmware-header overflow).
enum class AttackClass {
  kUdsSecurityBypass,      // V9
  kUdsIntegerOverflow,     // V11
  kCanDlcOverflow,         // V10
  kFirmwareHeaderOverflow, // V12
  kMalformedFrame,         // fuzzer-found parser breakers
  kReplay,                 // V4
  kFlood,                  // V1/V2 bus flooding
  kSpoof,                  // V3 id spoofing
};
const char* attack_class_name(AttackClass c);
std::optional<AttackClass> attack_class_from_name(const std::string& name);

/// Which parser/stack the payload exercises.
enum class AttackProtocol { kCan, kUds, kSomeIp, kSecOc, kOta };
const char* attack_protocol_name(AttackProtocol p);
std::optional<AttackProtocol> attack_protocol_from_name(const std::string& n);

/// One frozen attack: a payload plus how to inject it onto a bus.
struct ScenarioEntry {
  std::string id;           // stable slug, e.g. "v10-dlc-overflow"
  AttackClass cls = AttackClass::kMalformedFrame;
  AttackProtocol protocol = AttackProtocol::kCan;
  std::uint32_t can_id = 0x7E0;          // carrier id during replay
  util::SimTime period = util::SimTime::from_us(500);  // inter-frame gap
  std::uint32_t repeat = 1;              // payload repetitions
  util::Bytes payload;
  std::string origin;  // "fuzzer:<target>:iter=<n>" or "frozen:<vuln>"
  std::string note;

  friend bool operator==(const ScenarioEntry&, const ScenarioEntry&) = default;
};

class ScenarioCorpus {
 public:
  void add(ScenarioEntry e) { entries_.push_back(std::move(e)); }
  const std::vector<ScenarioEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  std::vector<const ScenarioEntry*> by_class(AttackClass c) const;
  /// Distinct classes present, in enum order.
  std::vector<AttackClass> classes() const;

  /// Stable text serialization (see file header). Round-trips exactly:
  /// parse(serialize()) reproduces equal entries.
  std::string serialize() const;
  static std::optional<ScenarioCorpus> parse(const std::string& text);

  /// The frozen built-in corpus: V-matrix payloads plus minimized
  /// fuzzer-found reproducers for every parser fix this repo ships
  /// (each is pinned by a regression test before it is frozen here).
  static ScenarioCorpus builtin();

 private:
  std::vector<ScenarioEntry> entries_;
};

/// Injects corpus entries onto a CAN bus as scheduled traffic. Payloads are
/// chunked ISO-TP-style into classic 8-byte frames under the entry's carrier
/// id, so the IDS and gateway observe them exactly like real diagnostic or
/// attack traffic. Every scheduled entry and transmitted frame lands on the
/// TraceBus ("corpus" component), making replay timelines diffable.
class CorpusReplayer : public ivn::CanNode {
 public:
  CorpusReplayer(sim::Scheduler& sched, ivn::CanBus& bus, std::string name,
                 const sim::Telemetry& telemetry = {});

  /// Schedules all frames of `entry` starting at `start`; returns the time
  /// just after the last scheduled frame.
  util::SimTime schedule(const ScenarioEntry& entry, util::SimTime start);
  /// Schedules every corpus entry back to back, `gap` apart.
  util::SimTime schedule_all(const ScenarioCorpus& corpus, util::SimTime start,
                             util::SimTime gap);

  std::uint64_t frames_sent() const { return frames_sent_; }
  std::uint64_t frames_rejected() const { return frames_rejected_; }

  void on_frame(const ivn::CanFrame& frame, sim::SimTime at) override;

  sim::TraceScope& trace() { return trace_; }

 private:
  sim::Scheduler& sched_;
  ivn::CanBus& bus_;
  std::uint64_t frames_sent_ = 0;
  std::uint64_t frames_rejected_ = 0;
  sim::TraceScope trace_;
  const sim::TraceId k_schedule_ = trace_.kind("corpus_schedule");
  const sim::TraceId k_tx_ = trace_.kind("corpus_tx");
  const sim::TraceId k_reject_ = trace_.kind("corpus_reject");
};

/// Order-sensitive FNV-1a digest over a TraceBus's retained timeline
/// (time, component name, kind name, detail). Two replays of the same corpus
/// under the same seed must produce equal digests — the determinism oracle
/// corpus_test.cpp and the `determinism.e20` ctest assert.
std::uint64_t timeline_digest(const sim::TraceBus& bus);

}  // namespace aseck::attacks
