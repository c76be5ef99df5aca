// Campaign checkpoint/resume: a JSON file of completed TrialOutcomes plus a
// signature of the outcome-determining options.  run_campaign rewrites it
// after every finished trial; on resume, trials the file already covers are
// taken from it verbatim — the determinism contract makes the resumed
// report's fingerprint identical to an uninterrupted run's.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/campaign.h"

namespace sbm {
class JsonWriter;
struct JsonValue;
}

namespace sbm::campaign {

/// Digest of every CampaignOptions field that determines trial outcomes.
/// Scheduling knobs (threads, batch_width) are excluded: the
/// determinism contract makes them outcome-invariant, so a campaign may be
/// resumed under a different thread count or batch width.
u64 options_signature(const CampaignOptions& options);

/// Serializes one trial (every field, including the informational ones).
void write_trial(JsonWriter& w, const TrialOutcome& t);
/// Inverse of write_trial; nullopt when required fields are missing.
std::optional<TrialOutcome> trial_from_json(const JsonValue& v);

/// Serializes the outcome-relevant options as one JSON object — the exact
/// bytes of the "options" block in CampaignReport::to_json.  The process-
/// local fields (checkpoint_path, resume, verbose) are not part of it.
void write_options(JsonWriter& w, const CampaignOptions& options);
/// Inverse of write_options; absent fields keep their defaults, so a job
/// submission may specify only the knobs it cares about.  "noise" may be
/// either the object write_options emits or a profile name string
/// ("none" | "mild" | "harsh", optional "@seed" suffix).  nullopt when `v`
/// is not an object, the noise spec or controller is unknown, a present
/// deadline_seconds is not positive, or options_error rejects the result.
std::optional<CampaignOptions> options_from_json(const JsonValue& v);

struct CampaignCheckpoint {
  u64 signature = 0;
  std::vector<TrialOutcome> completed;
};

std::string checkpoint_to_json(const CampaignOptions& options,
                               const std::vector<TrialOutcome>& completed);
std::optional<CampaignCheckpoint> checkpoint_from_json(std::string_view json);

/// Atomically rewrites `path` (write temp + rename).  False on I/O failure.
bool save_checkpoint(const std::string& path, const CampaignOptions& options,
                     const std::vector<TrialOutcome>& completed);
/// Loads `path` and validates its signature against `options`; nullopt when
/// the file is absent, malformed, or belongs to a different campaign.
std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignOptions& options);

}  // namespace sbm::campaign
