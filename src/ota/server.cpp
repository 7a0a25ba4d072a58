#include "ota/server.hpp"

#include <algorithm>

namespace aseck::ota {

const char* serve_class_name(ServeClass c) {
  switch (c) {
    case ServeClass::kCampaign: return "campaign";
    case ServeClass::kBackground: return "background";
  }
  return "?";
}

const char* server_tier_name(ServerTier t) {
  switch (t) {
    case ServerTier::kNormal: return "normal";
    case ServerTier::kShedDelta: return "shed_delta";
    case ServerTier::kShedRefresh: return "shed_refresh";
    case ServerTier::kShedAdmission: return "shed_admission";
  }
  return "?";
}

namespace {
constexpr double kBackgroundQueueShare = 0.25;  // of max_queue_delay
constexpr double kShedEnterRatio = 0.10;  // window shed ratio that escalates
constexpr double kShedExitRatio = 0.02;   // ceiling for a de-escalating window
constexpr std::size_t kChunkCacheEntries = 512;

int tier_rank(ServerTier t) { return static_cast<int>(t); }
ServerTier tier_from_rank(int r) { return static_cast<ServerTier>(r); }
}  // namespace

RepositoryServer::RepositoryServer(const Repository& director,
                                   const Repository& image_repo,
                                   ServerConfig cfg,
                                   const sim::Telemetry& telemetry)
    : director_(director),
      image_repo_(image_repo),
      cfg_(cfg),
      cache_(kChunkCacheEntries),
      trace_("ota.repo", "ota.repo.", telemetry) {
  tokens_campaign_ = cfg_.bucket_burst;
  tokens_background_ = cfg_.bucket_burst;
}

void RepositoryServer::refill_tokens(util::SimTime now) {
  if (!buckets_primed_) {
    buckets_primed_ = true;
    last_refill_ = now;
    return;
  }
  if (now <= last_refill_) return;
  const double dt =
      static_cast<double>(now.ns - last_refill_.ns) / 1e9;  // seconds
  last_refill_ = now;
  tokens_campaign_ = std::min(cfg_.bucket_burst,
                              tokens_campaign_ + cfg_.campaign_rps * dt);
  tokens_background_ = std::min(
      cfg_.bucket_burst, tokens_background_ + cfg_.background_rps * dt);
}

void RepositoryServer::set_tier(ServerTier t, util::SimTime now) {
  if (t == tier_) return;
  const bool up = tier_rank(t) > tier_rank(tier_);
  ASECK_TRACE(trace_, now, up ? k_tier_up_ : k_tier_down_,
              std::string(server_tier_name(tier_)) + " -> " +
                  server_tier_name(t));
  transitions_.push_back(TierTransition{now, tier_, t});
  c_transitions_.inc();
  tier_ = t;
  if (tier_rank(t) > tier_rank(peak_tier_)) peak_tier_ = t;
}

void RepositoryServer::roll_windows(util::SimTime now) {
  if (!window_open_) {
    window_open_ = true;
    window_start_ = now;
    return;
  }
  while (window_start_ + cfg_.tier_window <= now) {
    const util::SimTime edge = window_start_ + cfg_.tier_window;
    const double ratio =
        win_arrivals_ == 0
            ? 0.0
            : static_cast<double>(win_shed_) / static_cast<double>(win_arrivals_);
    last_shed_ratio_ = ratio;
    if (win_arrivals_ > 0 && ratio > kShedEnterRatio) {
      if (tier_ != ServerTier::kShedAdmission) {
        set_tier(tier_from_rank(tier_rank(tier_) + 1), edge);
      }
    } else if (ratio <= kShedExitRatio &&
               tier_ != ServerTier::kNormal) {
      set_tier(tier_from_rank(tier_rank(tier_) - 1), edge);
    }
    win_arrivals_ = 0;
    win_shed_ = 0;
    window_start_ = edge;
    if (tier_ == ServerTier::kNormal &&
        window_start_ + cfg_.tier_window <= now) {
      // Fully recovered and idle: nothing left to de-escalate, so skip the
      // remaining empty windows in O(1) instead of looping per window.
      const std::uint64_t w = cfg_.tier_window.ns;
      window_start_.ns += ((now.ns - window_start_.ns) / w) * w;
      last_shed_ratio_ = 0.0;
    }
  }
}

void RepositoryServer::observe(util::SimTime now) {
  refill_tokens(now);
  roll_windows(now);
}

RepositoryServer::Admission RepositoryServer::shed_slot(
    util::SimTime now, util::SimTime drain_hint) {
  Admission a;
  const util::SimTime target = now + drain_hint;
  // Monotone slot cursor: successive sheds are handed successive *future*
  // re-admission slots, so a herd that arrived in lockstep comes back spread
  // out — this is the thundering-herd fix, and it is fully deterministic.
  if (herd_cursor_ < target) herd_cursor_ = target;
  a.retry_after = herd_cursor_ - now;
  herd_cursor_ += cfg_.retry_slot;
  return a;
}

RepositoryServer::Admission RepositoryServer::admit(ServeClass cls,
                                                    util::SimTime service,
                                                    util::SimTime now) {
  Admission a;
  c_requests_.inc();
  refill_tokens(now);
  roll_windows(now);

  const bool outage = fault_port_ && fault_port_->down();

  if (!cfg_.admission_enabled) {
    // Legacy front: unbounded queue, no shedding, outage = hard failure.
    // Kept as the E21 control arm demonstrating the stampede failure mode.
    if (outage) {
      a.hard_fail = true;
      return a;
    }
    const util::SimTime start = std::max(now, busy_until_);
    const util::SimTime wait = start - now;
    busy_until_ = start + service;
    if (wait > max_wait_) max_wait_ = wait;
    h_queue_delay_ms_.record(wait.ms());
    a.admitted = true;
    a.latency = busy_until_ - now;
    return a;
  }

  ++win_arrivals_;

  if (outage) {
    // The front itself stays up: it cannot serve, but it CAN answer with a
    // slotted retry-after, which is exactly what keeps the waiting herd
    // de-synchronized for the recovery stampede.
    ++win_shed_;
    c_shed_.inc();
    if (cls == ServeClass::kBackground) c_shed_background_.inc();
    a = shed_slot(now, cfg_.outage_retry_base);
    ASECK_TRACE(trace_, now, k_outage_defer_,
                std::string(serve_class_name(cls)) +
                    " retry_ms=" + std::to_string(a.retry_after.ms()));
    return a;
  }

  if (cls == ServeClass::kBackground && tier_ >= ServerTier::kShedRefresh) {
    // Policy shed, not an overload signal: intentional background rejection
    // must not feed the window ratio or the ladder could never walk down.
    --win_arrivals_;
    c_shed_.inc();
    c_shed_background_.inc();
    a = shed_slot(now, cfg_.tier_window);
    ASECK_TRACE(trace_, now, k_shed_, "background tier_policy");
    return a;
  }

  double& tokens =
      cls == ServeClass::kCampaign ? tokens_campaign_ : tokens_background_;
  const double rate =
      cls == ServeClass::kCampaign ? cfg_.campaign_rps : cfg_.background_rps;
  if (tokens < 1.0) {
    ++win_shed_;
    c_shed_.inc();
    if (cls == ServeClass::kBackground) c_shed_background_.inc();
    const util::SimTime refill_eta =
        rate > 0 ? util::SimTime::from_seconds_f((1.0 - tokens) / rate)
                 : cfg_.retry_slot;
    a = shed_slot(now, refill_eta);
    ASECK_TRACE(trace_, now, k_shed_,
                std::string(serve_class_name(cls)) + " token_bucket");
    return a;
  }

  util::SimTime bound = cfg_.max_queue_delay;
  if (cls == ServeClass::kBackground) {
    bound = util::SimTime::from_ns(static_cast<std::uint64_t>(
        static_cast<double>(bound.ns) * kBackgroundQueueShare));
  }
  if (tier_ >= ServerTier::kShedAdmission) {
    bound = util::SimTime::from_ns(bound.ns / 4);  // drain the queue
  }
  const util::SimTime start = std::max(now, busy_until_);
  const util::SimTime wait = start - now;
  if (wait > bound) {
    ++win_shed_;
    c_shed_.inc();
    if (cls == ServeClass::kBackground) c_shed_background_.inc();
    a = shed_slot(now, busy_until_ - now);
    ASECK_TRACE(trace_, now, k_shed_,
                std::string(serve_class_name(cls)) +
                    " queue_delay_ms=" + std::to_string(wait.ms()));
    return a;
  }

  tokens -= 1.0;
  busy_until_ = start + service;
  if (wait > max_wait_) max_wait_ = wait;
  h_queue_delay_ms_.record(wait.ms());
  a.admitted = true;
  a.latency = busy_until_ - now;
  return a;
}

MetadataResponse RepositoryServer::fetch_metadata(ServeClass cls,
                                                  util::SimTime now) {
  MetadataResponse r;
  util::SimTime service = cfg_.metadata_service;
  if (fault_port_) service += fault_port_->service_slowdown();
  const Admission a = admit(cls, service, now);
  if (a.hard_fail) {
    r.status = ServeStatus::kUnavailable;
    return r;
  }
  if (!a.admitted) {
    r.status = ServeStatus::kRetryAfter;
    r.retry_after = a.retry_after;
    return r;
  }
  const bool stale = snap_director_gen_ != director_.generation() ||
                     snap_image_gen_ != image_repo_.generation();
  if (!snap_.director || (stale && tier_ < ServerTier::kShedRefresh)) {
    // One copy-on-write refresh serves the whole wave; under kShedRefresh+
    // the stale generation keeps being served instead (freshness is the
    // second capability shed, after delta CPU).
    snap_.director = director_.snapshot();
    snap_.image = image_repo_.snapshot();
    snap_.generation = next_generation_++;
    snap_director_gen_ = director_.generation();
    snap_image_gen_ = image_repo_.generation();
    c_refresh_.inc();
    ASECK_TRACE(trace_, now, k_refresh_,
                "gen=" + std::to_string(snap_.generation));
  } else {
    r.coalesced = true;
    c_coalesced_.inc();
  }
  r.snapshot = snap_;
  r.latency = a.latency;
  c_served_.inc();
  return r;
}

ChunkResponse RepositoryServer::fetch_chunk(ServeClass cls,
                                            const std::string& image_name,
                                            std::size_t offset,
                                            std::size_t max_len,
                                            util::SimTime now) {
  ChunkResponse r;
  // Generation-keyed so a republished image can never serve stale chunks.
  const std::string key = image_name + ":" +
                          std::to_string(image_repo_.generation()) + ":" +
                          std::to_string(offset) + ":" +
                          std::to_string(max_len);
  // The front checks its cache before queueing the work (a hit is a cheap
  // RAM serve); the probe is deterministic even when admission then sheds.
  std::shared_ptr<const util::Bytes>* cached = cache_.find(key);
  const bool hit = cached != nullptr;
  const auto base_it = delta_bases_.find(image_name);
  const bool delta_on =
      base_it != delta_bases_.end() && tier_ < ServerTier::kShedDelta;

  util::SimTime service = hit ? cfg_.cache_hit_service : cfg_.chunk_service;
  if (!hit && delta_on) {
    // Delta encoding trades CPU for bandwidth; the CPU is the first thing
    // the degradation ladder sheds.
    service += util::SimTime::from_ns(static_cast<std::uint64_t>(
        cfg_.delta_cpu_factor * static_cast<double>(cfg_.chunk_service.ns)));
  }
  if (fault_port_) service += fault_port_->service_slowdown();

  const Admission a = admit(cls, service, now);
  if (a.hard_fail) {
    r.status = ServeStatus::kUnavailable;
    return r;
  }
  if (!a.admitted) {
    r.status = ServeStatus::kRetryAfter;
    r.retry_after = a.retry_after;
    return r;
  }

  if (hit) {
    r.chunk = **cached;
    r.cache_hit = true;
    c_cache_hits_.inc();
  } else {
    std::optional<util::Bytes> bytes =
        image_repo_.download_range(image_name, offset, max_len);
    if (!bytes) {
      // Unknown image or the backing repository itself is down — the queue
      // slot was spent discovering that; the client sees a transport error.
      r.status = ServeStatus::kUnavailable;
      return r;
    }
    c_cache_misses_.inc();
    auto shared = std::make_shared<const util::Bytes>(std::move(*bytes));
    r.chunk = *shared;
    cache_.put(key, std::move(shared));
  }

  std::size_t wire = r.chunk.size();
  if (delta_on) {
    const util::Bytes& base = base_it->second;
    std::size_t diff = 0;
    for (std::size_t i = 0; i < r.chunk.size(); ++i) {
      if (offset + i >= base.size() || base[offset + i] != r.chunk[i]) ++diff;
    }
    constexpr std::size_t kDeltaHeader = 16;  // per-chunk frame overhead
    if (diff + kDeltaHeader < r.chunk.size()) {
      wire = diff + kDeltaHeader;
      r.delta = true;
      c_delta_chunks_.inc();
      c_delta_bytes_saved_.inc(r.chunk.size() - wire);
    }
  }
  r.wire_bytes = wire;
  c_bytes_sent_.inc(wire);
  r.latency = a.latency;
  c_served_.inc();
  return r;
}

void RepositoryServer::register_delta_base(const std::string& image_name,
                                           util::Bytes base) {
  delta_bases_[image_name] = std::move(base);
}

}  // namespace aseck::ota
