#pragma once
// Campaign-storm-hardened serving front for the Uptane director/image repos.
//
// `ota::Repository` is a passive in-process map; a million-vehicle campaign
// (sharded metro x CampaignRunner waves) turns it into an unmodeled serving
// bottleneck — a wave stampede simply could not fail. `RepositoryServer`
// models the backend honestly as a single-server virtual queue with:
//
//   * admission control — per-class token buckets (safety-critical campaign
//     traffic vs background polls) plus a bounded queue-delay admission
//     test; rejected requests get an explicit kRetryAfter response carrying
//     a server-suggested backoff drawn from a monotonically advancing slot
//     cursor, so a shed herd is re-admitted *de-synchronized* instead of
//     re-stampeding in lockstep;
//   * request coalescing — one immutable generation-numbered metadata
//     snapshot (Repository::snapshot, copy-on-write) serves an entire wave,
//     and a CDN-style chunk cache (util::LruCache) serves repeated image
//     ranges without re-reading the store;
//   * per-vehicle block deltas — when the fleet's installed image is
//     registered, chunk responses carry only the bytes that differ from it
//     (CPU-for-bandwidth trade: delta encoding costs extra service time);
//   * graceful degradation — under sustained overload the server walks a
//     ladder mirroring the gateway's normal -> degraded -> limp-home modes:
//     kNormal -> kShedDelta (delta encoding off: CPU first) -> kShedRefresh
//     (background polls shed, snapshot refresh suspended) -> kShedAdmission
//     (queue bound tightened so almost everything is deferred and the queue
//     drains). Every transition is a TraceBus event and a ledger entry.
//
// Chaos integration: a sim::FaultPort supplies kOutage windows (the whole
// front is down; with admission control the server still answers with
// slotted kRetryAfter, which is exactly what de-synchronizes a thundering
// herd waiting out the outage) and kRepoSlowdown windows (per-request
// service-latency inflation — the deterministic way to push the server
// through each degradation tier).
//
// Everything is driven by caller-supplied sim time: same seed + same request
// sequence => bit-identical responses, tiers, and metrics (the E21 CI diff).

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "ota/repository.hpp"
#include "sim/telemetry.hpp"
#include "util/lru.hpp"

namespace aseck::ota {

/// Priority class of a request. Campaign traffic (safety-critical updates in
/// flight) preempts background metadata polls at every admission stage.
enum class ServeClass { kCampaign, kBackground };
const char* serve_class_name(ServeClass c);

enum class ServeStatus {
  kOk,          // served; `latency` = queue wait + service time
  kRetryAfter,  // shed by admission control; come back at `retry_after`
  kUnavailable, // hard failure (outage with admission control off, or
                // unknown image) — the client's transport-error path
};

/// Degradation ladder (cheapest capability shed first).
enum class ServerTier {
  kNormal,         // everything on
  kShedDelta,      // delta encoding off — shed CPU, spend bandwidth
  kShedRefresh,    // background class shed, snapshot refresh suspended
  kShedAdmission,  // queue bound tightened; most requests deferred
};
const char* server_tier_name(ServerTier t);

/// One coalesced immutable metadata view: both repositories' bundles under a
/// single server generation. Copied never, shared by every vehicle it serves.
struct MetadataSnapshot {
  std::uint64_t generation = 0;
  std::shared_ptr<const MetadataBundle> director;
  std::shared_ptr<const MetadataBundle> image;
};

struct ServerConfig {
  /// False disables every admission mechanism (no shedding, unbounded queue,
  /// no retry-after): the legacy "repository cannot fail" behavior, kept as
  /// the E21 control arm that demonstrates the stampede failure mode.
  bool admission_enabled = true;

  // --- token buckets (tokens/sec, shared burst capacity) ---------------------
  double campaign_rps = 2000.0;
  double background_rps = 200.0;
  double bucket_burst = 64.0;

  // --- virtual service queue -------------------------------------------------
  util::SimTime metadata_service = util::SimTime::from_us(50);
  util::SimTime chunk_service = util::SimTime::from_us(200);     // store read
  util::SimTime cache_hit_service = util::SimTime::from_us(25);  // RAM serve
  double delta_cpu_factor = 3.0;  // delta encode costs x chunk_service extra
  /// Admission bound on queueing delay (campaign class). Background uses a
  /// quarter of it; kShedAdmission tightens both by 4x.
  util::SimTime max_queue_delay = util::SimTime::from_ms(100);

  // --- retry-after slot cursor (herd de-synchronization) ---------------------
  util::SimTime retry_slot = util::SimTime::from_ms(20);  // per-shed spacing
  util::SimTime outage_retry_base = util::SimTime::from_ms(500);

  // --- degradation ladder ----------------------------------------------------
  util::SimTime tier_window = util::SimTime::from_ms(500);  // observation
};

struct MetadataResponse {
  ServeStatus status = ServeStatus::kOk;
  MetadataSnapshot snapshot;                        // kOk only
  bool coalesced = false;       // served from the already-built generation
  util::SimTime latency = util::SimTime::zero();    // kOk: wait + service
  util::SimTime retry_after = util::SimTime::zero();  // kRetryAfter only
};

struct ChunkResponse {
  ServeStatus status = ServeStatus::kOk;
  util::Bytes chunk;            // full plaintext range (delta already applied)
  std::size_t wire_bytes = 0;   // bytes on the wire (< chunk.size() if delta)
  bool cache_hit = false;
  bool delta = false;
  util::SimTime latency = util::SimTime::zero();
  util::SimTime retry_after = util::SimTime::zero();
};

/// Faults (sim::FaultHook): kOutage and kRepoSlowdown windows (target e.g.
/// "ota.server"), as described under "Chaos integration" above.
class RepositoryServer : public sim::FaultHook {
 public:
  RepositoryServer(const Repository& director, const Repository& image_repo,
                   ServerConfig cfg = {},
                   const sim::Telemetry& telemetry = {});

  /// Coalesced metadata fetch. kOk responses share one snapshot per
  /// generation; the snapshot refreshes lazily when either repository
  /// republished (suspended at ServerTier::kShedRefresh and above).
  MetadataResponse fetch_metadata(ServeClass cls, util::SimTime now);

  /// Image range fetch through the chunk cache. When a delta base is
  /// registered for `image_name` (and the tier still allows delta encoding)
  /// the response's `wire_bytes` counts only the bytes differing from the
  /// base plus a small per-chunk frame header.
  ChunkResponse fetch_chunk(ServeClass cls, const std::string& image_name,
                            std::size_t offset, std::size_t max_len,
                            util::SimTime now);

  /// Registers the fleet's currently-installed image bytes as the delta base
  /// for `image_name` chunk responses.
  void register_delta_base(const std::string& image_name, util::Bytes base);

  /// Rolls the observation window / token buckets forward without issuing a
  /// request — the backpressure poll hook (a paused campaign still needs the
  /// ladder to walk back down while no traffic arrives).
  void observe(util::SimTime now);

  ServerTier tier() const { return tier_; }
  /// Shed ratio of the last completed observation window — the wave-level
  /// backpressure signal consumed by CampaignRunner.
  double last_window_shed_ratio() const { return last_shed_ratio_; }

  struct TierTransition {
    util::SimTime at = util::SimTime::zero();
    ServerTier from = ServerTier::kNormal;
    ServerTier to = ServerTier::kNormal;
  };
  const std::vector<TierTransition>& transitions() const {
    return transitions_;
  }
  /// Highest tier reached since construction.
  ServerTier peak_tier() const { return peak_tier_; }

  // --- stats (mirrored in the ota.repo.* metrics) ----------------------------
  std::uint64_t requests() const { return c_requests_.value(); }
  std::uint64_t served() const { return c_served_.value(); }
  std::uint64_t shed() const { return c_shed_.value(); }
  std::uint64_t shed_background() const { return c_shed_background_.value(); }
  std::uint64_t coalesced() const { return c_coalesced_.value(); }
  std::uint64_t snapshot_refreshes() const { return c_refresh_.value(); }
  std::uint64_t cache_hits() const { return c_cache_hits_.value(); }
  std::uint64_t cache_misses() const { return c_cache_misses_.value(); }
  double cache_hit_rate() const {
    const std::uint64_t h = cache_hits(), m = cache_misses();
    return h + m == 0 ? 0.0
                      : static_cast<double>(h) / static_cast<double>(h + m);
  }
  std::uint64_t delta_chunks() const { return c_delta_chunks_.value(); }
  std::uint64_t bytes_sent() const { return c_bytes_sent_.value(); }
  std::uint64_t delta_bytes_saved() const {
    return c_delta_bytes_saved_.value();
  }
  std::uint64_t degraded_transitions() const {
    return c_transitions_.value();
  }
  /// Worst queueing delay any admitted request experienced.
  util::SimTime max_queue_delay_seen() const { return max_wait_; }

 private:
  struct Admission {
    bool admitted = false;
    bool hard_fail = false;  // kUnavailable (admission control off + outage)
    util::SimTime latency = util::SimTime::zero();
    util::SimTime retry_after = util::SimTime::zero();
  };
  Admission admit(ServeClass cls, util::SimTime service, util::SimTime now);
  Admission shed_slot(util::SimTime now, util::SimTime drain_hint);
  void roll_windows(util::SimTime now);
  void refill_tokens(util::SimTime now);
  void set_tier(ServerTier t, util::SimTime now);

  const Repository& director_;
  const Repository& image_repo_;
  ServerConfig cfg_;

  // virtual single-server queue
  util::SimTime busy_until_ = util::SimTime::zero();
  util::SimTime max_wait_ = util::SimTime::zero();

  // token buckets
  double tokens_campaign_ = 0;
  double tokens_background_ = 0;
  util::SimTime last_refill_ = util::SimTime::zero();
  bool buckets_primed_ = false;

  // retry-after slot cursor
  util::SimTime herd_cursor_ = util::SimTime::zero();

  // degradation ladder
  ServerTier tier_ = ServerTier::kNormal;
  ServerTier peak_tier_ = ServerTier::kNormal;
  std::vector<TierTransition> transitions_;
  util::SimTime window_start_ = util::SimTime::zero();
  bool window_open_ = false;
  std::uint64_t win_arrivals_ = 0;
  std::uint64_t win_shed_ = 0;
  double last_shed_ratio_ = 0.0;

  // coalesced metadata snapshot
  MetadataSnapshot snap_;
  std::uint64_t snap_director_gen_ = ~0ULL;
  std::uint64_t snap_image_gen_ = ~0ULL;
  std::uint64_t next_generation_ = 1;

  // chunk cache + delta bases
  util::LruCache<std::string, std::shared_ptr<const util::Bytes>> cache_;
  std::map<std::string, util::Bytes> delta_bases_;

  // telemetry
  sim::TraceScope trace_;
  sim::Counter& c_requests_ = trace_.counter("requests");
  sim::Counter& c_served_ = trace_.counter("served");
  sim::Counter& c_shed_ = trace_.counter("shed");
  sim::Counter& c_shed_background_ = trace_.counter("shed_background");
  sim::Counter& c_coalesced_ = trace_.counter("coalesced");
  sim::Counter& c_refresh_ = trace_.counter("snapshot_refreshes");
  sim::Counter& c_cache_hits_ = trace_.counter("cache_hits");
  sim::Counter& c_cache_misses_ = trace_.counter("cache_misses");
  sim::Counter& c_delta_chunks_ = trace_.counter("delta_chunks");
  sim::Counter& c_bytes_sent_ = trace_.counter("bytes_sent");
  sim::Counter& c_delta_bytes_saved_ = trace_.counter("delta_bytes_saved");
  sim::Counter& c_transitions_ = trace_.counter("degraded_transitions");
  sim::LatencyHistogram& h_queue_delay_ms_ =
      trace_.histogram("queue_delay_ms", 0, 1'000, 64);
  const sim::TraceId k_shed_ = trace_.kind("shed");
  const sim::TraceId k_tier_up_ = trace_.kind("tier_up");
  const sim::TraceId k_tier_down_ = trace_.kind("tier_down");
  const sim::TraceId k_refresh_ = trace_.kind("snapshot_refresh");
  const sim::TraceId k_outage_defer_ = trace_.kind("outage_defer");
};

}  // namespace aseck::ota
