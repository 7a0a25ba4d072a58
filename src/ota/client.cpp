#include "ota/client.hpp"

#include <algorithm>
#include <cmath>

namespace aseck::ota {

const char* ota_error_name(OtaError e) {
  switch (e) {
    case OtaError::kOk: return "ok";
    case OtaError::kRootSignature: return "root_signature";
    case OtaError::kRootExpired: return "root_expired";
    case OtaError::kTimestampSignature: return "timestamp_signature";
    case OtaError::kTimestampExpired: return "timestamp_expired";
    case OtaError::kTimestampRollback: return "timestamp_rollback";
    case OtaError::kSnapshotSignature: return "snapshot_signature";
    case OtaError::kSnapshotExpired: return "snapshot_expired";
    case OtaError::kSnapshotHashMismatch: return "snapshot_hash_mismatch";
    case OtaError::kSnapshotRollback: return "snapshot_rollback";
    case OtaError::kTargetsSignature: return "targets_signature";
    case OtaError::kTargetsExpired: return "targets_expired";
    case OtaError::kTargetsVersionMismatch: return "targets_version_mismatch";
    case OtaError::kTargetUnknown: return "target_unknown";
    case OtaError::kReposDisagree: return "repos_disagree";
    case OtaError::kImageHashMismatch: return "image_hash_mismatch";
    case OtaError::kImageLengthMismatch: return "image_length_mismatch";
    case OtaError::kHardwareMismatch: return "hardware_mismatch";
    case OtaError::kImageRollback: return "image_rollback";
    case OtaError::kDownloadFailed: return "download_failed";
    case OtaError::kRetriesExhausted: return "retries_exhausted";
    case OtaError::kPowerLoss: return "power_loss";
  }
  return "?";
}

FullVerificationClient::FullVerificationClient(std::string name,
                                               Signed<RootMeta> director_root,
                                               Signed<RootMeta> image_root,
                                               const sim::Telemetry& telemetry)
    : name_(std::move(name)),
      trace_("ota." + name_, "ota." + name_ + ".", telemetry),
      verify_engine_(trace_.metrics()) {
  director_.trusted_root = std::move(director_root);
  image_.trusted_root = std::move(image_root);
}

OtaError FullVerificationClient::verify_repo(const MetadataBundle& bundle,
                                             RepoState& st, SimTime now,
                                             const TargetsMeta** out_targets) {
  // 1. Root: if newer than the pinned root, it must verify against the
  //    *pinned* root's key set (chained trust), then against its own.
  const RootMeta& trusted = st.trusted_root.body;
  const RootMeta& offered = bundle.root.body;
  const util::Bytes root_payload = offered.serialize();
  if (offered.version > trusted.version) {
    if (!verify_threshold(root_payload, bundle.root.signatures,
                          trusted.roles.at(Role::kRoot), trusted.keys,
                          &verify_engine_) ||
        !verify_threshold(root_payload, bundle.root.signatures,
                          offered.roles.at(Role::kRoot), offered.keys,
                          &verify_engine_)) {
      return OtaError::kRootSignature;
    }
    st.trusted_root = bundle.root;  // accept rotation
  } else if (offered.version == trusted.version) {
    if (!verify_threshold(root_payload, bundle.root.signatures,
                          trusted.roles.at(Role::kRoot), trusted.keys,
                          &verify_engine_)) {
      return OtaError::kRootSignature;
    }
  } else {
    return OtaError::kRootSignature;  // root rollback
  }
  const RootMeta& root = st.trusted_root.body;
  if (now > root.expires) return OtaError::kRootExpired;

  // 2. Timestamp.
  const auto& ts = bundle.timestamp;
  if (!verify_threshold(ts.body.serialize(), ts.signatures,
                        root.roles.at(Role::kTimestamp), root.keys,
                        &verify_engine_)) {
    return OtaError::kTimestampSignature;
  }
  if (now > ts.body.expires) return OtaError::kTimestampExpired;
  if (ts.body.version < st.last_timestamp) return OtaError::kTimestampRollback;

  // 3. Snapshot: hash pinned by timestamp.
  const auto& snap = bundle.snapshot;
  const util::Bytes snap_payload = snap.body.serialize();
  if (crypto::sha256_bytes(snap_payload) != ts.body.snapshot_hash ||
      snap.body.version != ts.body.snapshot_version) {
    return OtaError::kSnapshotHashMismatch;
  }
  if (!verify_threshold(snap_payload, snap.signatures,
                        root.roles.at(Role::kSnapshot), root.keys,
                        &verify_engine_)) {
    return OtaError::kSnapshotSignature;
  }
  if (now > snap.body.expires) return OtaError::kSnapshotExpired;
  if (snap.body.version < st.last_snapshot) return OtaError::kSnapshotRollback;

  // 4. Targets: version pinned by snapshot.
  const auto& tgt = bundle.targets;
  if (tgt.body.version != snap.body.targets_version) {
    return OtaError::kTargetsVersionMismatch;
  }
  if (!verify_threshold(tgt.body.serialize(), tgt.signatures,
                        root.roles.at(Role::kTargets), root.keys,
                        &verify_engine_)) {
    return OtaError::kTargetsSignature;
  }
  if (now > tgt.body.expires) return OtaError::kTargetsExpired;

  st.last_timestamp = ts.body.version;
  st.last_snapshot = snap.body.version;
  st.last_targets = tgt.body.version;
  if (out_targets) *out_targets = &tgt.body;
  return OtaError::kOk;
}

OtaError FullVerificationClient::verify_chain(const MetadataBundle& bundle,
                                              bool is_director, SimTime now) {
  return verify_repo(bundle, is_director ? director_ : image_, now, nullptr);
}

namespace {

/// Safety valve: total kRetryAfter deferrals a single fetch will honor
/// before giving up with kRetriesExhausted.
constexpr int kMaxServerDeferrals = 256;

OtaError check_image(const util::Bytes& image, const TargetInfo& info) {
  if (image.size() != info.length) return OtaError::kImageLengthMismatch;
  if (crypto::sha256_bytes(image) != info.sha256) {
    return OtaError::kImageHashMismatch;
  }
  return OtaError::kOk;
}

// The transport step of the retrying fetch: the serving front when the
// policy names one, otherwise the repositories answer directly (never
// deferred, zero latency, kUnavailable while either is down).
MetadataResponse fetch_metadata(
    const FullVerificationClient::RetryPolicy& policy,
    const Repository& director, const Repository& image_repo, SimTime now) {
  if (policy.server) {
    return policy.server->fetch_metadata(ServeClass::kCampaign, now);
  }
  MetadataResponse r;
  if (!director.available() || !image_repo.available()) {
    r.status = ServeStatus::kUnavailable;
    return r;
  }
  r.snapshot.director = director.snapshot();
  r.snapshot.image = image_repo.snapshot();
  return r;
}

ChunkResponse fetch_chunk(const FullVerificationClient::RetryPolicy& policy,
                          const Repository& director,
                          const Repository& image_repo,
                          const std::string& image_name, std::size_t offset,
                          SimTime now) {
  if (policy.server) {
    return policy.server->fetch_chunk(ServeClass::kCampaign, image_name, offset,
                                      policy.chunk_bytes, now);
  }
  ChunkResponse r;
  // Image repo is the primary mirror; the director may also serve bytes.
  std::optional<util::Bytes> chunk =
      image_repo.download_range(image_name, offset, policy.chunk_bytes);
  if (!chunk) {
    chunk = director.download_range(image_name, offset, policy.chunk_bytes);
  }
  if (!chunk) {
    r.status = ServeStatus::kUnavailable;
    return r;
  }
  r.chunk = std::move(*chunk);
  r.wire_bytes = r.chunk.size();
  return r;
}

// Why an install could not reach activation.
InstallResult not_activated(const ecu::Flash& flash) {
  return flash.lost_power() ? InstallResult::kPowerLoss
                            : InstallResult::kStageRejected;
}

}  // namespace

void FullVerificationClient::record_verdict(SimTime now, OtaError err,
                                            const std::string& image) {
  if (err == OtaError::kOk) {
    c_verify_ok_.inc();
    ASECK_TRACE(trace_, now, k_verify_ok_, "image=" + image);
  } else {
    c_verify_fail_.inc();
    ASECK_TRACE(trace_, now, k_verify_fail_,
                std::string(ota_error_name(err)) + " image=" + image);
  }
}

FullVerificationClient::Outcome FullVerificationClient::fetch_and_verify(
    const MetadataBundle& director, const MetadataBundle& image_repo,
    const Repository& director_repo, const Repository& image_repo_store,
    const std::string& image_name, const std::string& hardware_id,
    std::uint32_t installed_version, SimTime now) {
  Outcome out;
  TargetInfo info;
  out.error = resolve_target(director, image_repo, image_name, hardware_id,
                             installed_version, now, &info);
  if (out.error == OtaError::kOk) {
    // Download preferentially from the image repo; director may also serve.
    const util::Bytes* image = image_repo_store.download(image_name);
    if (!image) image = director_repo.download(image_name);
    out.error = image ? check_image(*image, info) : OtaError::kDownloadFailed;
    if (out.error == OtaError::kOk) {
      out.target = info;
      out.image = *image;
    }
  }
  record_verdict(now, out.error, image_name);
  return out;
}

OtaError FullVerificationClient::resolve_target(
    const MetadataBundle& director, const MetadataBundle& image_repo,
    const std::string& image_name, const std::string& hardware_id,
    std::uint32_t installed_version, SimTime now, TargetInfo* out_info) {
  const TargetsMeta* dir_targets = nullptr;
  const TargetsMeta* img_targets = nullptr;
  OtaError err = verify_repo(director, director_, now, &dir_targets);
  if (err != OtaError::kOk) return err;
  err = verify_repo(image_repo, image_, now, &img_targets);
  if (err != OtaError::kOk) return err;

  const auto dit = dir_targets->targets.find(image_name);
  const auto iit = img_targets->targets.find(image_name);
  if (dit == dir_targets->targets.end() || iit == img_targets->targets.end()) {
    return OtaError::kTargetUnknown;
  }
  // Director and image repo must agree exactly (anti mix-and-match).
  if (!(dit->second == iit->second)) return OtaError::kReposDisagree;
  const TargetInfo& info = dit->second;
  if (info.hardware_id != hardware_id) return OtaError::kHardwareMismatch;
  if (info.version < installed_version) return OtaError::kImageRollback;
  if (out_info) *out_info = info;
  return OtaError::kOk;
}

// --- retrying resumable fetch ------------------------------------------------

struct FullVerificationClient::RetryState {
  sim::Scheduler* sched = nullptr;
  const Repository* director = nullptr;
  const Repository* image_repo = nullptr;
  std::string image_name;
  std::string hardware_id;
  std::uint32_t installed_version = 0;
  RetryPolicy policy;
  RetryCallback done;
  int attempt = 0;
  TargetInfo info;          // resolved target of the current attempt
  util::Bytes buffer;       // bytes fetched so far (RAM mode only)
  std::size_t offset = 0;   // bytes delivered; survives failed attempts
  std::size_t resumed_from = 0;
  ecu::Flash* flash = nullptr;     // non-null: stream into the staging journal
  bool journal_opened = false;     // stage_begin succeeded in this session
  std::size_t resume_saved = 0;    // journal bytes inherited from a past boot
  int deferrals = 0;               // kRetryAfter responses honored so far
  std::size_t wire_bytes = 0;      // bytes that crossed the link
};

void FullVerificationClient::fetch_and_verify_with_retry(
    sim::Scheduler& sched, const Repository& director_repo,
    const Repository& image_repo, const std::string& image_name,
    const std::string& hardware_id, std::uint32_t installed_version,
    RetryPolicy policy, RetryCallback done) {
  start_retry(sched, director_repo, image_repo, image_name, hardware_id,
              installed_version, policy, nullptr, std::move(done));
}

void FullVerificationClient::fetch_and_stage_with_retry(
    sim::Scheduler& sched, const Repository& director_repo,
    const Repository& image_repo, const std::string& image_name,
    const std::string& hardware_id, std::uint32_t installed_version,
    RetryPolicy policy, ecu::Flash& flash, RetryCallback done) {
  start_retry(sched, director_repo, image_repo, image_name, hardware_id,
              installed_version, policy, &flash, std::move(done));
}

void FullVerificationClient::start_retry(
    sim::Scheduler& sched, const Repository& director_repo,
    const Repository& image_repo, const std::string& image_name,
    const std::string& hardware_id, std::uint32_t installed_version,
    RetryPolicy policy, ecu::Flash* flash, RetryCallback done) {
  auto st = std::make_shared<RetryState>();
  st->sched = &sched;
  st->director = &director_repo;
  st->image_repo = &image_repo;
  st->image_name = image_name;
  st->hardware_id = hardware_id;
  st->installed_version = installed_version;
  st->policy = policy;
  st->flash = flash;
  st->done = std::move(done);
  sched.schedule_after(SimTime::zero(), [this, st] { retry_attempt(st); });
}

void FullVerificationClient::retry_attempt(
    const std::shared_ptr<RetryState>& st) {
  const SimTime now = st->sched->now();
  const MetadataResponse mr =
      fetch_metadata(st->policy, *st->director, *st->image_repo, now);
  if (mr.status == ServeStatus::kRetryAfter) {
    retry_defer(st, mr.retry_after, "metadata",
                &FullVerificationClient::retry_attempt);
    return;
  }
  ++st->attempt;
  c_fetch_attempts_.inc();
  ASECK_TRACE(trace_, now, k_fetch_attempt_,
              "n=" + std::to_string(st->attempt) + " image=" + st->image_name);
  if (mr.status == ServeStatus::kUnavailable) {
    ASECK_TRACE(trace_, now, k_fetch_interrupted_,
                st->policy.server ? "server_unavailable" : "repo_unavailable");
    retry_fail_transport(st);
    return;
  }
  TargetInfo info;
  const OtaError err = resolve_target(
      *mr.snapshot.director, *mr.snapshot.image, st->image_name,
      st->hardware_id, st->installed_version, now, &info);
  if (err != OtaError::kOk) {
    // Metadata failures are final: a retry cannot fix a bad signature,
    // rollback, or repo disagreement.
    retry_finish(st, err);
    return;
  }
  if (st->offset > 0 &&
      (info.sha256 != st->info.sha256 || info.length != st->info.length)) {
    // The target changed between attempts; a partial download of the old
    // bytes is useless.
    st->offset = 0;
    st->buffer.clear();
  }
  st->info = info;
  if (st->flash) {
    // Open (or resume) the staging journal keyed by the content digest. A
    // different digest resets the journal inside stage_begin.
    ecu::Flash::StageRequest req;
    req.name = st->image_name;
    req.version = info.version;
    req.total_bytes = info.length;
    req.sha256 = info.sha256;
    if (!st->flash->stage_begin(req)) {
      retry_finish(st, st->flash->lost_power() ? OtaError::kPowerLoss
                                               : OtaError::kImageRollback);
      return;
    }
    const std::uint64_t wm = st->flash->staging_watermark();
    if (!st->journal_opened && wm > 0) {
      // Journal survived a previous session (power cut + boot recovery):
      // these bytes never cross the link again.
      st->resume_saved = static_cast<std::size_t>(wm);
      c_resume_bytes_saved_.inc(wm);
      ASECK_TRACE(trace_, now, k_stage_resume_,
                  "watermark=" + std::to_string(wm) +
                      " image=" + st->image_name);
    }
    st->journal_opened = true;
    st->offset = static_cast<std::size_t>(wm);
  }
  st->resumed_from = st->offset;
  if (st->offset > 0) {
    ASECK_TRACE(trace_, now, k_fetch_resume_,
                "offset=" + std::to_string(st->offset));
  }
  if (mr.latency > SimTime::zero()) {
    // The metadata response spent queue + service time at the front.
    st->sched->schedule_after(mr.latency,
                              [this, st] { retry_fetch_chunk(st); });
  } else {
    retry_fetch_chunk(st);
  }
}

void FullVerificationClient::retry_fetch_chunk(
    const std::shared_ptr<RetryState>& st) {
  const SimTime now = st->sched->now();
  if (st->offset >= st->info.length) {
    OtaError err = OtaError::kOk;
    if (st->flash) {
      // Seal the journal: page CRCs + content digest are checked in flash.
      const ecu::FlashWrite w = st->flash->stage_finish();
      if (w == ecu::FlashWrite::kPowerLoss) {
        ASECK_TRACE(trace_, now, k_power_loss_,
                    "at=stage_finish image=" + st->image_name);
        retry_finish(st, OtaError::kPowerLoss);
        return;
      }
      // kRejected: the journal bytes failed verification and stage_finish
      // erased them, which is a hash mismatch like the RAM sink's.
      if (w == ecu::FlashWrite::kRejected) err = OtaError::kImageHashMismatch;
    } else {
      err = check_image(st->buffer, st->info);
    }
    if (err == OtaError::kImageHashMismatch) {
      // Bytes changed under us mid-download (repo republished); restart the
      // download on the next attempt.
      st->offset = 0;
      st->buffer.clear();
      ASECK_TRACE(trace_, now, k_fetch_interrupted_, "hash_mismatch_restart");
      retry_fail_transport(st);
      return;
    }
    retry_finish(st, err);
    return;
  }
  const ChunkResponse cr = fetch_chunk(st->policy, *st->director,
                                       *st->image_repo, st->image_name,
                                       st->offset, now);
  if (cr.status == ServeStatus::kRetryAfter) {
    // Mid-download shed: keep the offset, come back at the server's slot.
    retry_defer(st, cr.retry_after, "chunk",
                &FullVerificationClient::retry_fetch_chunk);
    return;
  }
  if (cr.status == ServeStatus::kUnavailable) {
    ASECK_TRACE(trace_, now, k_fetch_interrupted_,
                "offset=" + std::to_string(st->offset));
    retry_fail_transport(st);
    return;
  }
  if (cr.chunk.empty()) {
    // Stored image is shorter than the metadata claims.
    retry_finish(st, OtaError::kImageLengthMismatch);
    return;
  }
  if (st->flash) {
    const ecu::FlashWrite w = st->flash->stage_write(cr.chunk);
    if (w == ecu::FlashWrite::kPowerLoss) {
      ASECK_TRACE(trace_, now, k_power_loss_,
                  "offset=" + std::to_string(st->offset) +
                      " image=" + st->image_name);
      retry_finish(st, OtaError::kPowerLoss);
      return;
    }
    if (w == ecu::FlashWrite::kRejected) {
      retry_finish(st, OtaError::kDownloadFailed);
      return;
    }
  } else {
    st->buffer.insert(st->buffer.end(), cr.chunk.begin(), cr.chunk.end());
  }
  st->offset += cr.chunk.size();
  st->wire_bytes += cr.wire_bytes;
  c_bytes_fetched_.inc(cr.chunk.size());
  c_wire_bytes_.inc(cr.wire_bytes);
  // Transfer time is paid on WIRE bytes (a delta-compressed chunk crosses
  // the link faster), plus whatever the serving front charged in queueing.
  const SimTime tx =
      SimTime::from_seconds_f(
          static_cast<double>(cr.wire_bytes) /
          static_cast<double>(st->policy.link_bytes_per_sec)) +
      cr.latency;
  st->sched->schedule_after(tx, [this, st] { retry_fetch_chunk(st); });
}

void FullVerificationClient::retry_defer(const std::shared_ptr<RetryState>& st,
                                         SimTime after, const char* at,
                                         RetryStep step) {
  // A kRetryAfter answer is an instruction, not a failure: honoring the
  // server's slot keeps a shed herd de-synchronized, so deferrals never
  // count against max_attempts.
  const SimTime now = st->sched->now();
  if (++st->deferrals > kMaxServerDeferrals) {
    ASECK_TRACE(trace_, now, k_retries_exhausted_,
                "deferrals=" + std::to_string(st->deferrals));
    retry_finish(st, OtaError::kRetriesExhausted);
    return;
  }
  c_server_deferrals_.inc();
  ASECK_TRACE(trace_, now, k_retry_after_,
              "ns=" + std::to_string(after.ns) + " at=" + at);
  st->sched->schedule_after(after, [this, st, step] { (this->*step)(st); });
}

void FullVerificationClient::retry_fail_transport(
    const std::shared_ptr<RetryState>& st) {
  if (st->attempt >= st->policy.max_attempts) {
    ASECK_TRACE(trace_, st->sched->now(), k_retries_exhausted_,
                "attempts=" + std::to_string(st->attempt));
    retry_finish(st, OtaError::kRetriesExhausted);
    return;
  }
  c_fetch_retries_.inc();
  const double base = st->policy.initial_backoff.seconds() *
                      std::pow(st->policy.multiplier, st->attempt - 1);
  double capped = std::min(base, st->policy.max_backoff.seconds());
  if (st->policy.jitter > 0 && st->policy.jitter_rng) {
    capped *= st->policy.jitter_rng->uniform_real(1.0 - st->policy.jitter,
                                                  1.0 + st->policy.jitter);
  }
  const SimTime backoff = SimTime::from_seconds_f(capped);
  c_backoffs_.inc();
  c_backoff_ns_.inc(backoff.ns);
  h_backoff_ms_.record(backoff.ms());
  ASECK_TRACE(trace_, st->sched->now(), k_backoff_,
              "ns=" + std::to_string(backoff.ns));
  st->sched->schedule_after(backoff, [this, st] { retry_attempt(st); });
}

void FullVerificationClient::retry_finish(const std::shared_ptr<RetryState>& st,
                                          OtaError err) {
  const SimTime now = st->sched->now();
  record_verdict(now, err, st->image_name);
  RetryOutcome ro;
  ro.outcome.error = err;
  if (err == OtaError::kOk) {
    ro.outcome.target = st->info;
    // Empty for the flash sink: the bytes live in the staging journal.
    ro.outcome.image = std::move(st->buffer);
  }
  ro.attempts = st->attempt;
  ro.resumed_from = st->resumed_from;
  ro.resume_bytes_saved = st->resume_saved;
  ro.wire_bytes = st->wire_bytes;
  ro.server_deferrals = st->deferrals;
  ro.finished_at = now;
  if (st->done) st->done(ro);
}

PartialVerificationClient::Outcome PartialVerificationClient::verify(
    const Signed<TargetsMeta>& director_targets, const std::string& image_name,
    const std::string& hardware_id, std::uint32_t installed_version,
    SimTime now) {
  Outcome out;
  // Single pinned key, threshold 1.
  bool ok = false;
  const util::Bytes payload = director_targets.body.serialize();
  for (const Signature& s : director_targets.signatures) {
    if (crypto::ecdsa_verify(targets_key_, payload, s.sig)) {
      ok = true;
      break;
    }
  }
  if (!ok) {
    out.error = OtaError::kTargetsSignature;
    return out;
  }
  if (now > director_targets.body.expires) {
    out.error = OtaError::kTargetsExpired;
    return out;
  }
  if (director_targets.body.version < last_targets_) {
    out.error = OtaError::kTargetsVersionMismatch;
    return out;
  }
  const auto it = director_targets.body.targets.find(image_name);
  if (it == director_targets.body.targets.end()) {
    out.error = OtaError::kTargetUnknown;
    return out;
  }
  if (it->second.hardware_id != hardware_id) {
    out.error = OtaError::kHardwareMismatch;
    return out;
  }
  if (it->second.version < installed_version) {
    out.error = OtaError::kImageRollback;
    return out;
  }
  last_targets_ = director_targets.body.version;
  out.target = it->second;
  return out;
}

InstallResult install_image(ecu::Flash& flash, const std::string& image_name,
                            std::uint32_t version, const util::Bytes& image,
                            const std::function<bool()>& self_test) {
  if (!flash.stage(ecu::FirmwareImage{image_name, version, image})) {
    return not_activated(flash);
  }
  return install_staged(flash, util::SimTime::zero(), util::SimTime::zero(),
                        self_test);
}

InstallResult install_staged(ecu::Flash& flash, util::SimTime now,
                             util::SimTime confirm_timeout,
                             const std::function<bool()>& self_test) {
  if (!flash.staged() || !flash.activate(now, confirm_timeout)) {
    return not_activated(flash);
  }
  return confirm_or_revert(flash, self_test);
}

InstallResult confirm_or_revert(ecu::Flash& flash,
                                const std::function<bool()>& self_test) {
  if (self_test && !self_test()) {
    flash.revert();
    return InstallResult::kRevertedSelfTest;
  }
  flash.commit();
  // A cut at the commit marker leaves the slot ACTIVE-unconfirmed; the
  // confirm deadline machinery settles it at the next boot.
  if (flash.lost_power()) return InstallResult::kPowerLoss;
  return InstallResult::kCommitted;
}

}  // namespace aseck::ota
