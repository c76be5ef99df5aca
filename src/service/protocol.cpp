#include "service/protocol.h"

#include "campaign/checkpoint.h"
#include "common/json.h"

namespace sbm::service {

std::string_view to_string(JobMode mode) {
  return mode == JobMode::kAttack ? "attack" : "synthetic";
}

std::optional<JobMode> job_mode_from_string(std::string_view s) {
  if (s == "attack") return JobMode::kAttack;
  if (s == "synthetic") return JobMode::kSynthetic;
  return std::nullopt;
}

std::string_view to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDeadline: return "deadline_exceeded";
  }
  return "unknown";
}

std::optional<JobState> job_state_from_string(std::string_view s) {
  if (s == "queued") return JobState::kQueued;
  if (s == "running") return JobState::kRunning;
  if (s == "done") return JobState::kDone;
  if (s == "failed") return JobState::kFailed;
  if (s == "cancelled") return JobState::kCancelled;
  if (s == "deadline_exceeded") return JobState::kDeadline;
  return std::nullopt;
}

void write_job_spec(JsonWriter& w, const JobSpec& spec) {
  w.begin_object();
  w.field("tenant", spec.tenant)
      .field("mode", std::string(to_string(spec.mode)))
      .field("synthetic_trial_ms", u64{spec.synthetic_trial_ms})
      .field("weight", spec.weight);
  w.key("options");
  campaign::write_options(w, spec.options);
  w.end_object();
}

std::optional<JobSpec> job_spec_from_json(const JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  JobSpec spec;
  if (const JsonValue* f = v.find("tenant")) {
    if (f->as_string().empty()) return std::nullopt;
    spec.tenant = f->as_string();
  }
  if (const JsonValue* f = v.find("mode")) {
    const auto mode = job_mode_from_string(f->as_string());
    if (!mode) return std::nullopt;
    spec.mode = *mode;
  }
  if (const JsonValue* f = v.find("synthetic_trial_ms")) {
    spec.synthetic_trial_ms = static_cast<u32>(f->as_u64());
  }
  if (const JsonValue* f = v.find("weight")) spec.weight = f->as_double();
  if (const JsonValue* f = v.find("options")) {
    auto options = campaign::options_from_json(*f);
    if (!options) return std::nullopt;
    spec.options = *options;
  }
  // Fleet-size cap is service policy (a tenant cannot demand an absurd
  // board pool); the range checks every entry point shares are
  // campaign::options_error, applied by options_from_json.
  if (spec.options.fleet_size > 64) return std::nullopt;
  return spec;
}

std::string_view to_string(Verb verb) {
  switch (verb) {
    case Verb::kSubmit: return "submit";
    case Verb::kStatus: return "status";
    case Verb::kResult: return "result";
    case Verb::kCancel: return "cancel";
    case Verb::kList: return "list";
    case Verb::kMetrics: return "metrics";
    case Verb::kShutdown: return "shutdown";
  }
  return "unknown";
}

std::optional<Verb> verb_from_string(std::string_view s) {
  if (s == "submit") return Verb::kSubmit;
  if (s == "status") return Verb::kStatus;
  if (s == "result") return Verb::kResult;
  if (s == "cancel") return Verb::kCancel;
  if (s == "list") return Verb::kList;
  if (s == "metrics") return Verb::kMetrics;
  if (s == "shutdown") return Verb::kShutdown;
  return std::nullopt;
}

std::optional<Request> parse_request(std::string_view line, std::string* error) {
  auto fail = [&](const char* why) -> std::optional<Request> {
    if (error != nullptr) *error = why;
    return std::nullopt;
  };
  const std::optional<JsonValue> doc = parse_json(line);
  if (!doc || !doc->is_object()) return fail("request is not a JSON object");
  const JsonValue* verb_member = doc->find("verb");
  if (verb_member == nullptr) return fail("missing verb");
  const auto verb = verb_from_string(verb_member->as_string());
  if (!verb) return fail("unknown verb");

  Request req;
  req.verb = *verb;
  if (const JsonValue* f = doc->find("request_id")) req.request_id = f->as_string();
  switch (req.verb) {
    case Verb::kSubmit: {
      const JsonValue* job = doc->find("job");
      if (job == nullptr) return fail("submit requires a job object");
      auto spec = job_spec_from_json(*job);
      if (!spec) return fail("malformed job spec");
      req.spec = std::move(*spec);
      break;
    }
    case Verb::kStatus:
    case Verb::kResult:
    case Verb::kCancel: {
      const JsonValue* id = doc->find("id");
      if (id == nullptr || id->as_string().empty()) return fail("missing job id");
      req.job_id = id->as_string();
      break;
    }
    case Verb::kList:
      if (const JsonValue* f = doc->find("tenant")) req.tenant = f->as_string();
      break;
    case Verb::kMetrics:
      break;
    case Verb::kShutdown:
      if (const JsonValue* f = doc->find("drain")) req.drain = f->as_bool(true);
      break;
  }
  return req;
}

std::string request_to_json(const Request& req) {
  JsonWriter w;
  w.begin_object();
  w.field("verb", std::string(to_string(req.verb)));
  if (!req.request_id.empty()) w.field("request_id", req.request_id);
  switch (req.verb) {
    case Verb::kSubmit:
      w.key("job");
      write_job_spec(w, req.spec);
      break;
    case Verb::kStatus:
    case Verb::kResult:
    case Verb::kCancel:
      w.field("id", req.job_id);
      break;
    case Verb::kList:
      if (!req.tenant.empty()) w.field("tenant", req.tenant);
      break;
    case Verb::kMetrics:
      break;
    case Verb::kShutdown:
      w.field("drain", req.drain);
      break;
  }
  w.end_object();
  return w.str();
}

void begin_response(JsonWriter& w, Verb verb, bool ok, const std::string& request_id) {
  w.begin_object();
  w.field("ok", ok).field("verb", std::string(to_string(verb)));
  if (!request_id.empty()) w.field("request_id", request_id);
}

std::string error_response(Verb verb, int code, std::string_view reason,
                           const std::string& request_id, size_t retry_after_ms) {
  JsonWriter w;
  begin_response(w, verb, false, request_id);
  w.field("code", code).field("error", std::string(reason));
  if (retry_after_ms != 0) w.field("retry_after_ms", retry_after_ms);
  w.end_object();
  return w.str();
}

std::string error_response(int code, std::string_view reason, const std::string& request_id) {
  JsonWriter w;
  w.begin_object();
  w.field("ok", false);
  if (!request_id.empty()) w.field("request_id", request_id);
  w.field("code", code).field("error", std::string(reason));
  w.end_object();
  return w.str();
}

}  // namespace sbm::service
