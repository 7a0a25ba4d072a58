#pragma once
// Uptane clients. The full-verification client (primary ECU) performs the
// complete metadata check chain against BOTH repositories; the partial-
// verification client (resource-constrained secondary ECU) checks only the
// director targets signature. Experiment E5's compromise matrix shows what
// each level withstands.

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "ecu/flash.hpp"
#include "ota/repository.hpp"
#include "ota/server.hpp"
#include "sim/scheduler.hpp"
#include "sim/telemetry.hpp"
#include "util/rng.hpp"

namespace aseck::ota {

enum class OtaError {
  kOk,
  kRootSignature,
  kRootExpired,
  kTimestampSignature,
  kTimestampExpired,
  kTimestampRollback,
  kSnapshotSignature,
  kSnapshotExpired,
  kSnapshotHashMismatch,
  kSnapshotRollback,
  kTargetsSignature,
  kTargetsExpired,
  kTargetsVersionMismatch,
  kTargetUnknown,
  kReposDisagree,
  kImageHashMismatch,
  kImageLengthMismatch,
  kHardwareMismatch,
  kImageRollback,
  kDownloadFailed,
  kRetriesExhausted,  // transport kept failing past RetryPolicy::max_attempts
  kPowerLoss,         // power cut mid-install; journal watermark survives
};
const char* ota_error_name(OtaError e);

/// Full-verification (primary ECU) client.
class FullVerificationClient {
 public:
  /// Pins the initial trusted roots of both repositories (factory install).
  FullVerificationClient(std::string name, Signed<RootMeta> director_root,
                         Signed<RootMeta> image_root,
                         const sim::Telemetry& telemetry = {});

  /// Verifies metadata from both repositories and checks that they agree on
  /// `image_name` for `hardware_id`; verifies the downloaded image; returns
  /// the validated TargetInfo or the first error.
  struct Outcome {
    OtaError error = OtaError::kOk;
    TargetInfo target;
    util::Bytes image;
  };
  Outcome fetch_and_verify(const MetadataBundle& director,
                           const MetadataBundle& image_repo,
                           const Repository& director_repo,
                           const Repository& image_repo_store,
                           const std::string& image_name,
                           const std::string& hardware_id,
                           std::uint32_t installed_version, SimTime now);

  /// Verifies one repository's metadata chain (no cross-check, no image).
  OtaError verify_chain(const MetadataBundle& bundle, bool is_director,
                        SimTime now);

  /// Exponential-backoff retry + resumable chunked download policy for
  /// fetch_and_verify_with_retry.
  struct RetryPolicy {
    int max_attempts = 5;
    SimTime initial_backoff = SimTime::from_ms(100);
    double multiplier = 2.0;
    SimTime max_backoff = SimTime::from_s(60);
    std::size_t chunk_bytes = 16 * 1024;
    std::uint64_t link_bytes_per_sec = 1'000'000;  // download link rate
    /// Jittered backoff: each backoff is scaled by a factor drawn uniformly
    /// from [1 - jitter, 1 + jitter] out of `jitter_rng` (e.g. the owning
    /// FaultPlan's RNG or a fork of it), decorrelating fleet-wide retry
    /// storms while staying bit-deterministic per seed. jitter == 0 or a
    /// null rng keeps the pure exponential schedule (and draws nothing, so
    /// an unjittered client never perturbs a shared RNG stream).
    double jitter = 0.0;
    util::Rng* jitter_rng = nullptr;
    /// When non-null, every metadata and chunk fetch goes through this
    /// serving front instead of the raw repositories. kRetryAfter responses
    /// defer the fetch to the server-suggested time — honoring the server's
    /// slot (instead of blind local exponential backoff) is what keeps a
    /// shed herd de-synchronized. Deferrals do NOT count against
    /// max_attempts (the server asked us to wait; nothing failed);
    /// kUnavailable falls back to the transport-error backoff path. The
    /// client always requests in ServeClass::kCampaign.
    RepositoryServer* server = nullptr;
  };
  struct RetryOutcome {
    Outcome outcome;
    int attempts = 0;
    std::size_t resumed_from = 0;  // offset the final attempt resumed at
    /// Bytes NOT refetched because a pre-reboot staging journal survived
    /// (fetch_and_stage_with_retry only; the journal watermark when this
    /// session first opens the journal, whichever attempt that is).
    std::size_t resume_bytes_saved = 0;
    /// Bytes that actually crossed the link (delta-compressed when served
    /// through a RepositoryServer with a registered delta base).
    std::size_t wire_bytes = 0;
    int server_deferrals = 0;  // kRetryAfter responses honored
    SimTime finished_at = SimTime::zero();
  };
  using RetryCallback = std::function<void(const RetryOutcome&)>;

  /// Scheduler-driven fetch_and_verify that survives repository outages:
  /// each attempt re-verifies metadata, then downloads the image in chunks
  /// at the link rate, resuming from the last good offset after an outage.
  /// Transport faults back off exponentially; metadata verification failures
  /// are final (a retry cannot fix a bad signature). Ends with kOk, the
  /// first non-transport error, or kRetriesExhausted via `done`.
  void fetch_and_verify_with_retry(sim::Scheduler& sched,
                                   const Repository& director_repo,
                                   const Repository& image_repo,
                                   const std::string& image_name,
                                   const std::string& hardware_id,
                                   std::uint32_t installed_version,
                                   RetryPolicy policy, RetryCallback done);

  /// fetch_and_verify_with_retry, but verified chunks stream straight into
  /// `flash`'s staging journal instead of a RAM buffer. If a journal for the
  /// same content digest already exists (e.g. a power cut interrupted a
  /// previous session and boot() recovered the watermark), the download
  /// resumes from the watermark and `RetryOutcome::resume_bytes_saved`
  /// records the bytes not refetched. The image digest is checked by
  /// `Flash::stage_finish`; on success the outcome carries the target but an
  /// empty image (the bytes live in flash). An injected power cut ends the
  /// fetch with OtaError::kPowerLoss — re-run after `flash.boot()` to resume.
  void fetch_and_stage_with_retry(sim::Scheduler& sched,
                                  const Repository& director_repo,
                                  const Repository& image_repo,
                                  const std::string& image_name,
                                  const std::string& hardware_id,
                                  std::uint32_t installed_version,
                                  RetryPolicy policy, ecu::Flash& flash,
                                  RetryCallback done);

  std::uint64_t verify_fail() const { return c_verify_fail_.value(); }
  /// Engine behind all metadata signature checks: poll cycles re-verify
  /// identical role metadata, so steady-state verification is a cache hit.
  crypto::VerifyEngine& verify_engine() { return verify_engine_; }

 private:
  struct RepoState {
    Signed<RootMeta> trusted_root;
    std::uint32_t last_timestamp = 0;
    std::uint32_t last_snapshot = 0;
    std::uint32_t last_targets = 0;
  };
  struct RetryState;

  OtaError verify_repo(const MetadataBundle& bundle, RepoState& st, SimTime now,
                       const TargetsMeta** out_targets);
  /// Metadata verification + cross-repo target agreement, no image download.
  OtaError resolve_target(const MetadataBundle& director,
                          const MetadataBundle& image_repo,
                          const std::string& image_name,
                          const std::string& hardware_id,
                          std::uint32_t installed_version, SimTime now,
                          TargetInfo* out_info);
  /// verify_ok / verify_fail accounting for one finished fetch.
  void record_verdict(SimTime now, OtaError err, const std::string& image);
  /// Both retry entry points; a null `flash` buffers the image in RAM.
  void start_retry(sim::Scheduler& sched, const Repository& director_repo,
                   const Repository& image_repo, const std::string& image_name,
                   const std::string& hardware_id,
                   std::uint32_t installed_version, RetryPolicy policy,
                   ecu::Flash* flash, RetryCallback done);
  using RetryStep = void (FullVerificationClient::*)(
      const std::shared_ptr<RetryState>&);
  void retry_attempt(const std::shared_ptr<RetryState>& st);
  void retry_fetch_chunk(const std::shared_ptr<RetryState>& st);
  /// Honors a kRetryAfter answer by re-running `step` at the server's slot.
  void retry_defer(const std::shared_ptr<RetryState>& st, SimTime after,
                   const char* at, RetryStep step);
  void retry_fail_transport(const std::shared_ptr<RetryState>& st);
  void retry_finish(const std::shared_ptr<RetryState>& st, OtaError err);

  std::string name_;
  RepoState director_;
  RepoState image_;
  sim::TraceScope trace_;
  crypto::VerifyEngine verify_engine_;
  sim::Counter& c_verify_ok_ = trace_.counter("verify_ok");
  sim::Counter& c_verify_fail_ = trace_.counter("verify_fail");
  sim::Counter& c_fetch_attempts_ = trace_.counter("fetch_attempts");
  sim::Counter& c_fetch_retries_ = trace_.counter("fetch_retries");
  sim::Counter& c_bytes_fetched_ = trace_.counter("bytes_fetched");
  sim::Counter& c_backoffs_ = trace_.counter("backoffs");
  sim::Counter& c_backoff_ns_ = trace_.counter("backoff_ns_total");
  sim::Counter& c_resume_bytes_saved_ = trace_.counter("resume_bytes_saved");
  sim::Counter& c_server_deferrals_ = trace_.counter("server_deferrals");
  sim::Counter& c_wire_bytes_ = trace_.counter("wire_bytes");
  sim::LatencyHistogram& h_backoff_ms_ =
      trace_.histogram("backoff_ms", 0.0, 60'000.0, 60);
  const sim::TraceId k_verify_ok_ = trace_.kind("verify_ok");
  const sim::TraceId k_verify_fail_ = trace_.kind("verify_fail");
  const sim::TraceId k_fetch_attempt_ = trace_.kind("fetch_attempt");
  const sim::TraceId k_fetch_resume_ = trace_.kind("fetch_resume");
  const sim::TraceId k_fetch_interrupted_ = trace_.kind("fetch_interrupted");
  const sim::TraceId k_backoff_ = trace_.kind("backoff");
  const sim::TraceId k_retries_exhausted_ = trace_.kind("retries_exhausted");
  const sim::TraceId k_stage_resume_ = trace_.kind("stage_resume");
  const sim::TraceId k_power_loss_ = trace_.kind("power_loss");
  const sim::TraceId k_retry_after_ = trace_.kind("retry_after");
};

/// Partial-verification (secondary ECU) client: pinned director-targets key,
/// expiry and version checks only.
class PartialVerificationClient {
 public:
  PartialVerificationClient(std::string name, crypto::EcdsaPublicKey targets_key)
      : name_(std::move(name)), targets_key_(std::move(targets_key)) {}

  struct Outcome {
    OtaError error = OtaError::kOk;
    TargetInfo target;
  };
  Outcome verify(const Signed<TargetsMeta>& director_targets,
                 const std::string& image_name, const std::string& hardware_id,
                 std::uint32_t installed_version, SimTime now);

 private:
  std::string name_;
  crypto::EcdsaPublicKey targets_key_;
  std::uint32_t last_targets_ = 0;
};

/// Installs a verified image into an ECU's flash (stage + activate + commit
/// after the self-test callback returns true; reverts otherwise).
enum class InstallResult {
  kCommitted,
  kRevertedSelfTest,
  kStageRejected,
  kPowerLoss,  // cut while staging or at a marker write; boot() decides fate
};
/// Stages `image`, then install_staged with no confirm deadline.
InstallResult install_image(ecu::Flash& flash, const std::string& image_name,
                            std::uint32_t version, const util::Bytes& image,
                            const std::function<bool()>& self_test);

/// Activates an already-STAGED image (e.g. streamed in by
/// fetch_and_stage_with_retry) with a confirm-or-revert deadline: if the
/// vehicle reboots after `now + confirm_timeout` without the commit marker,
/// `Flash::boot()` auto-reverts to the previous bank. Then confirm_or_revert.
InstallResult install_staged(ecu::Flash& flash, util::SimTime now,
                             util::SimTime confirm_timeout,
                             const std::function<bool()>& self_test);

/// Settles an ACTIVE-unconfirmed image: runs the self-test, then commits
/// (raising the rollback floor) or reverts to the previous bank. kPowerLoss
/// when the commit marker write is cut.
InstallResult confirm_or_revert(ecu::Flash& flash,
                                const std::function<bool()>& self_test);

}  // namespace aseck::ota
