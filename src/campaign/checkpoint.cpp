#include "campaign/checkpoint.h"

#include <bit>
#include <limits>
#include <type_traits>

#include "common/fsio.h"
#include "common/json.h"

namespace sbm::campaign {

namespace {

// v2: options carry the probe-confirmation controller kind (DESIGN.md §4j);
// it is folded into the signature because resuming a static-vote campaign
// with the adaptive controller (or vice versa) would splice trials whose
// physical-layer accounting disagrees.
// v3: fleet topology (fleet_size, per-board noise factors, hedging —
// DESIGN.md §4k) joins the signature for the same reason; trial records
// carry migration_runs.  deadline_seconds stays out, like threads: it
// decides when a run stops, never what it computes.
// v4: the job kind ("attack" | "crack") and the crack-campaign `equalized`
// flag join the signature — an attack checkpoint must never seed a crack
// campaign of the same seed; crack trial records carry the verdict and the
// adaptive-probe accounting.
constexpr u64 kCheckpointVersion = 4;

}  // namespace

u64 options_signature(const CampaignOptions& options) {
  u64 h = mix64(kCheckpointVersion);
  auto fold = [&h](u64 v) { h = mix64(h ^ (v + 0x9e3779b97f4a7c15ull)); };
  fold(options.trials);
  fold(options.seed);
  fold(options.protected_every);
  fold(options.kind.size());
  for (const char c : options.kind) fold(static_cast<u64>(static_cast<unsigned char>(c)));
  fold(options.equalized ? 1 : 2);
  fold(options.words);
  fold(1);  // the probe cache, now always on: keeps every default-options v4 signature
  fold(std::bit_cast<u64>(options.noise.transient_reject));
  fold(std::bit_cast<u64>(options.noise.bit_flip));
  fold(std::bit_cast<u64>(options.noise.truncate));
  fold(std::bit_cast<u64>(options.noise.timeout));
  fold(std::bit_cast<u64>(options.noise.death));
  fold(options.noise.seed);
  fold(static_cast<u64>(options.controller) + 1);
  fold(options.fleet_size);
  fold(options.fleet_hedge ? 1 : 2);
  fold(options.fleet_noise_factors.size());
  for (const double f : options.fleet_noise_factors) fold(std::bit_cast<u64>(f));
  return h;
}

void write_trial(JsonWriter& w, const TrialOutcome& t) {
  w.begin_object();
  w.field("index", t.index)
      .field("trial_seed", t.trial_seed)
      .field("protected", t.protected_variant)
      .field("attack_success", t.attack_success)
      .field("key_match", t.key_match)
      .field("expected", t.expected)
      .field("partial", t.partial)
      .field("failure", t.failure);
  for_each_field(t, [&w](const char* name, size_t value) { w.field(name, value); });
  w.field("lut_sites", t.lut_sites)
      .field("sites_decoded", t.sites_decoded)
      .field("parent_promotions", t.parent_promotions)
      .field("parent_hits", t.parent_hits)
      .field("wall_seconds", t.wall_seconds);
  if (t.crack) {
    // "adaptive_probes_to_unique" is the headline crack metric: the logical
    // probes to the verdict (the trial's oracle_runs), vs the static log2
    // bound next to it.
    w.field("crack", true)
        .field("crack_unique", t.crack_unique)
        .field("crack_proven_ambiguous", t.crack_proven_ambiguous)
        .field("crack_candidates", t.crack_candidates)
        .field("adaptive_probes_to_unique", t.oracle_runs)
        .field("log2_static_bound", t.log2_static_bound)
        .field("log2_hypotheses_final", t.log2_final);
  }
  w.key("phase_runs").begin_object();
  for (const auto& [phase, runs] : t.phase_runs) w.field(phase, runs);
  w.end_object();
  w.end_object();
}

std::optional<TrialOutcome> trial_from_json(const JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  const JsonValue* index = v.find("index");
  const JsonValue* trial_seed = v.find("trial_seed");
  const JsonValue* phase_runs = v.find("phase_runs");
  if (index == nullptr || trial_seed == nullptr || phase_runs == nullptr ||
      !phase_runs->is_object()) {
    return std::nullopt;
  }
  TrialOutcome t;
  t.index = static_cast<size_t>(index->as_u64());
  t.trial_seed = trial_seed->as_u64();
  auto get_bool = [&](const char* name, bool& out) {
    if (const JsonValue* f = v.find(name)) out = f->as_bool();
  };
  auto get_size = [&](const char* name, size_t& out) {
    if (const JsonValue* f = v.find(name)) out = static_cast<size_t>(f->as_u64());
  };
  get_bool("protected", t.protected_variant);
  get_bool("attack_success", t.attack_success);
  get_bool("key_match", t.key_match);
  get_bool("expected", t.expected);
  get_bool("partial", t.partial);
  if (const JsonValue* f = v.find("failure")) t.failure = f->as_string();
  for_each_field(t, get_size);
  get_size("lut_sites", t.lut_sites);
  get_size("sites_decoded", t.sites_decoded);
  get_size("parent_promotions", t.parent_promotions);
  get_size("parent_hits", t.parent_hits);
  get_bool("crack", t.crack);
  get_bool("crack_unique", t.crack_unique);
  get_bool("crack_proven_ambiguous", t.crack_proven_ambiguous);
  get_size("crack_candidates", t.crack_candidates);
  if (const JsonValue* f = v.find("log2_static_bound")) t.log2_static_bound = f->as_double();
  if (const JsonValue* f = v.find("log2_hypotheses_final")) t.log2_final = f->as_double();
  if (const JsonValue* f = v.find("wall_seconds")) t.wall_seconds = f->as_double();
  for (const auto& [name, runs] : phase_runs->members) {
    t.phase_runs.emplace_back(name, static_cast<size_t>(runs.as_u64()));
  }
  return t;
}

void write_options(JsonWriter& w, const CampaignOptions& options) {
  w.begin_object();
  w.field("trials", options.trials)
      .field("threads", u64{options.threads})
      .field("seed", options.seed)
      .field("protected_every", options.protected_every)
      .field("kind", options.kind)
      .field("equalized", options.equalized)
      .field("words", options.words)
      .field("batch_width", u64{options.batch_width})
      .field("controller", runtime::controller_kind_name(options.controller))
      .field("fleet_size", u64{options.fleet_size})
      .field("fleet_hedge", options.fleet_hedge);
  w.key("fleet_noise_factors").begin_array();
  for (const double f : options.fleet_noise_factors) w.value(f);
  w.end_array();
  // Written only when set so default-option records round-trip: a present
  // non-positive deadline is malformed (service validation rejects it).
  if (options.deadline_seconds > 0) {
    w.field("deadline_seconds", options.deadline_seconds);
  }
  w.key("noise").begin_object();
  w.field("transient_reject", options.noise.transient_reject)
      .field("bit_flip", options.noise.bit_flip)
      .field("truncate", options.noise.truncate)
      .field("timeout", options.noise.timeout)
      .field("death", options.noise.death)
      .field("seed", options.noise.seed);
  w.end_object();
  w.end_object();
}

std::optional<CampaignOptions> options_from_json(const JsonValue& v) {
  if (!v.is_object()) return std::nullopt;
  CampaignOptions o;
  // A count that is not a non-negative integer, or does not fit its field,
  // makes the spec malformed instead of wrapping (-1) or truncating (a
  // fleet_size of 2^32 + 2 is not 2).
  bool bad_count = false;
  auto get_count = [&](const char* name, auto& out) {
    using Field = std::remove_reference_t<decltype(out)>;
    constexpr u64 kNotACount = ~u64{0};
    const JsonValue* f = v.find(name);
    if (f == nullptr) return;
    const u64 n = f->as_u64(kNotACount);
    if (n == kNotACount || n > std::numeric_limits<Field>::max()) {
      bad_count = true;
    } else {
      out = static_cast<Field>(n);
    }
  };
  get_count("trials", o.trials);
  get_count("threads", o.threads);
  if (const JsonValue* f = v.find("seed")) o.seed = f->as_u64();
  get_count("protected_every", o.protected_every);
  if (const JsonValue* f = v.find("kind")) o.kind = f->as_string();
  if (const JsonValue* f = v.find("equalized")) o.equalized = f->as_bool();
  get_count("words", o.words);
  get_count("batch_width", o.batch_width);
  if (const JsonValue* f = v.find("controller")) {
    const auto kind = runtime::parse_controller_kind(f->as_string());
    if (!kind) return std::nullopt;  // service job validation rejects with 400
    o.controller = *kind;
  }
  get_count("fleet_size", o.fleet_size);
  if (const JsonValue* f = v.find("fleet_hedge")) o.fleet_hedge = f->as_bool();
  if (const JsonValue* f = v.find("fleet_noise_factors")) {
    if (!f->is_array()) return std::nullopt;
    // A non-number reads as -1, which options_error rejects.
    for (const JsonValue& item : f->items) o.fleet_noise_factors.push_back(item.as_double(-1));
  }
  if (const JsonValue* f = v.find("deadline_seconds")) {
    o.deadline_seconds = f->as_double();
    if (o.deadline_seconds <= 0) return std::nullopt;  // 400 at the service
  }
  if (const JsonValue* noise = v.find("noise")) {
    if (noise->kind == JsonValue::Kind::kString) {
      const auto profile = faultsim::NoiseProfile::named(noise->as_string());
      if (!profile) return std::nullopt;
      o.noise = *profile;
    } else if (noise->is_object()) {
      auto get_rate = [&](const char* name, double& out) {
        if (const JsonValue* f = noise->find(name)) out = f->as_double();
      };
      o.noise = faultsim::NoiseProfile::none();
      get_rate("transient_reject", o.noise.transient_reject);
      get_rate("bit_flip", o.noise.bit_flip);
      get_rate("truncate", o.noise.truncate);
      get_rate("timeout", o.noise.timeout);
      get_rate("death", o.noise.death);
      if (const JsonValue* f = noise->find("seed")) o.noise.seed = f->as_u64(o.noise.seed);
    } else {
      return std::nullopt;
    }
  }
  // Out-of-range options are malformed specs: the service answers 400.
  if (bad_count || !options_error(o).empty()) return std::nullopt;
  return o;
}

std::string checkpoint_to_json(const CampaignOptions& options,
                               const std::vector<TrialOutcome>& completed) {
  JsonWriter w;
  w.begin_object();
  w.field("version", kCheckpointVersion);
  w.field("options_signature", options_signature(options));
  w.field("trials_total", options.trials);
  w.key("completed").begin_array();
  for (const TrialOutcome& t : completed) write_trial(w, t);
  w.end_array();
  w.end_object();
  return w.str();
}

std::optional<CampaignCheckpoint> checkpoint_from_json(std::string_view json) {
  const std::optional<JsonValue> doc = parse_json(json);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* version = doc->find("version");
  const JsonValue* signature = doc->find("options_signature");
  const JsonValue* completed = doc->find("completed");
  if (version == nullptr || version->as_u64() != kCheckpointVersion || signature == nullptr ||
      completed == nullptr || !completed->is_array()) {
    return std::nullopt;
  }
  CampaignCheckpoint cp;
  cp.signature = signature->as_u64();
  for (const JsonValue& item : completed->items) {
    auto t = trial_from_json(item);
    if (!t) return std::nullopt;
    cp.completed.push_back(std::move(*t));
  }
  return cp;
}

bool save_checkpoint(const std::string& path, const CampaignOptions& options,
                     const std::vector<TrialOutcome>& completed) {
  // write_file_atomic is temp + flush + fsync + rename: a daemon killed
  // mid-save leaves either the previous checkpoint or the new one, never a
  // truncated file (tests/test_service.cpp injects exactly that crash).
  return write_file_atomic(path, checkpoint_to_json(options, completed));
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignOptions& options) {
  const auto data = read_file(path);
  if (!data) return std::nullopt;
  auto cp = checkpoint_from_json(*data);
  if (!cp || cp->signature != options_signature(options)) return std::nullopt;
  return cp;
}

}  // namespace sbm::campaign
