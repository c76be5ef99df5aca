// Wire protocol of the campaign service (DESIGN.md §4h): newline-delimited
// JSON over a local stream socket.  Every request is one line holding one
// JSON object with a "verb" member; every response is one line holding one
// JSON object with an "ok" member.  Responses echo the request's optional
// "request_id" verbatim so clients may pipeline.
//
//   {"verb":"submit","job":{"tenant":"t0","options":{"trials":4,"seed":9}}}
//   {"verb":"status","id":"j-000001"}
//   {"verb":"result","id":"j-000001"}
//   {"verb":"cancel","id":"j-000001"}
//   {"verb":"list","tenant":"t0"}
//   {"verb":"metrics"}
//   {"verb":"shutdown","drain":true}
//
// Error responses carry an HTTP-flavoured "code" (400 malformed, 404 unknown
// job, 409 wrong state, 429 queue full — with a "retry_after_ms" hint —
// 503 shutting down) so load generators can implement honest backoff.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "campaign/campaign.h"

namespace sbm {
class JsonWriter;
struct JsonValue;
}

namespace sbm::service {

/// How a job's trials execute.  kAttack runs the real Section VI pipeline
/// per trial; kSynthetic runs a deterministic stand-in trial (optionally
/// sleeping synthetic_trial_ms) through the identical orchestration,
/// checkpoint and scheduling path — the calibration workload load tests use
/// so a thousand submitters don't need a thousand full attacks.
enum class JobMode : u8 { kAttack, kSynthetic };
std::string_view to_string(JobMode mode);
std::optional<JobMode> job_mode_from_string(std::string_view s);

/// Job lifecycle: queued -> running -> done | failed | cancelled |
/// deadline_exceeded.  A daemon restart maps queued/running jobs back to
/// queued (resuming from their checkpoints); the terminal states are final.
/// kDeadline is the distinct terminal state of a job cancelled for
/// exceeding its CampaignOptions::deadline_seconds wall-clock budget.
enum class JobState : u8 { kQueued, kRunning, kDone, kFailed, kCancelled, kDeadline };
std::string_view to_string(JobState state);
/// Every state but queued and running is final.
constexpr bool is_terminal(JobState state) {
  return state != JobState::kQueued && state != JobState::kRunning;
}
std::optional<JobState> job_state_from_string(std::string_view s);

/// Everything a tenant specifies when submitting a job.
struct JobSpec {
  std::string tenant = "default";
  /// Campaign knobs; the service overrides the process-local fields
  /// (checkpoint_path, resume, verbose, threads) — the shared pool and the
  /// per-job checkpoint file are the daemon's business, not the tenant's.
  campaign::CampaignOptions options;
  JobMode mode = JobMode::kAttack;
  /// Per-trial sleep for synthetic jobs, to model slow boards.
  u32 synthetic_trial_ms = 0;
  /// Weighted-fair-queuing weight for this tenant (updates the tenant's
  /// weight; <= 0 keeps the current one).
  double weight = 0;
};

void write_job_spec(JsonWriter& w, const JobSpec& spec);
std::optional<JobSpec> job_spec_from_json(const JsonValue& v);

enum class Verb : u8 { kSubmit, kStatus, kResult, kCancel, kList, kMetrics, kShutdown };
std::string_view to_string(Verb verb);
std::optional<Verb> verb_from_string(std::string_view s);

struct Request {
  Verb verb = Verb::kStatus;
  std::string request_id;  // echoed in the response when non-empty
  std::string job_id;      // status | result | cancel
  std::string tenant;      // list filter; empty = all tenants
  JobSpec spec;            // submit
  bool drain = true;       // shutdown: finish the queue first?
};

/// Parses one request line; nullopt + *error on malformed input.
std::optional<Request> parse_request(std::string_view line, std::string* error);
/// Renders a request as one line (no trailing newline).
std::string request_to_json(const Request& req);

/// Opens a response object — {"ok":...,"verb":...[,"request_id":...] — and
/// leaves it open for verb-specific members; close with w.end_object().
void begin_response(JsonWriter& w, Verb verb, bool ok, const std::string& request_id);
/// Complete error line.  retry_after_ms != 0 adds the backoff hint (429s).
std::string error_response(Verb verb, int code, std::string_view reason,
                           const std::string& request_id, size_t retry_after_ms = 0);
/// Error line for input so malformed the verb is unknown.
std::string error_response(int code, std::string_view reason, const std::string& request_id);

}  // namespace sbm::service
