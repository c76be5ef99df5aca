#include "campaign/campaign.h"

#include <bit>
#include <chrono>

#include "attack/cracker.h"
#include "attack/pipeline.h"
#include "campaign/checkpoint.h"
#include "campaign/orchestrator.h"
#include "common/json.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "fleet/fleet.h"
#include "fpga/system.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbm::campaign {

std::string options_error(const CampaignOptions& options) {
  if (options.kind != "attack" && options.kind != "crack") return "kind must be attack or crack";
  if (options.trials == 0 || options.trials > kMaxTrials) {
    return "trials must be 1-" + std::to_string(kMaxTrials);
  }
  if (options.words == 0 || options.words > kMaxWords) {
    return "words must be 1-" + std::to_string(kMaxWords);
  }
  if (options.threads > kMaxThreads) return "threads must be 0-" + std::to_string(kMaxThreads);
  if (options.batch_width == 0 || options.batch_width > kMaxBatchWidth) {
    return "batch_width must be 1-" + std::to_string(kMaxBatchWidth);
  }
  if (options.fleet_size == 0) return "fleet_size must be >= 1";
  for (const double factor : options.fleet_noise_factors) {
    if (!(factor >= 0)) return "fleet noise factors must be >= 0";
  }
  return {};
}

TrialOutcome run_trial(const CampaignOptions& options, size_t index) {
  const auto start = std::chrono::steady_clock::now();
  obs::Span span("campaign", "trial", "index", index);
  TrialOutcome out;
  out.index = index;
  out.trial_seed = trial_seed(options, index);
  out.crack = options.kind == "crack";
  // A crack trial always targets a protected victim — that is what it is
  // disambiguating; `equalized` picks the strengthened variant.
  out.protected_variant = out.crack || is_protected_trial(options, index);

  // All trial randomness — victim key, host IV, placement scatter — derives
  // from the trial seed, never from global state, so trials are independent
  // of scheduling order.  The draw order (key x4, placement seed, IV x4) is
  // shared by both trial kinds so a seed identifies one victim.
  Rng rng(out.trial_seed);
  fpga::SystemOptions sys_opt;
  sys_opt.protected_variant = out.protected_variant;
  sys_opt.equalized = out.crack && options.equalized;
  sys_opt.key = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  sys_opt.packing.placement_seed = rng.next_u64();
  const snow3g::Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};

  const fpga::System sys = fpga::build_system(sys_opt);
  out.lut_sites = sys.placed.phys.size();

  attack::DeviceOracle device(sys, iv, nullptr, options.batch_width);
  // Non-quiet noise: wrap the device in the fault model (noise stream
  // re-seeded per trial so trials stay independent) and confirm every probe
  // by agreement voting.  The logical metrics are unchanged by construction.
  const bool noisy = !options.noise.quiet();
  faultsim::NoiseProfile noise = options.noise;
  noise.seed = mix64(options.noise.seed ^ out.trial_seed);
  faultsim::FaultyOracle faulty(device, noise);
  // fleet_size >= 2: run the trial against a health-tracked board pool
  // (DESIGN.md §4k) so a board death migrates in-flight probes to a spare
  // instead of aborting the trial.  Each board derives its own fault stream
  // from the per-trial noise seed; the fleet is used even with quiet noise
  // so the options knob alone decides the topology.
  std::optional<fleet::FleetOracle> fleet;
  if (options.fleet_size >= 2) {
    fleet::FleetOptions fleet_opt;
    fleet_opt.boards = options.fleet_size;
    fleet_opt.noise = noise;
    fleet_opt.noise_factors = options.fleet_noise_factors;
    fleet_opt.hedge = options.fleet_hedge;
    fleet.emplace(sys, iv, fleet_opt, options.batch_width);
  }
  attack::Oracle& oracle =
      fleet ? static_cast<attack::Oracle&>(*fleet)
            : (noisy ? static_cast<attack::Oracle&>(faulty) : device);

  // Shared probe-layer policy for both trial kinds.  A fleet needs a
  // retrying policy even under quiet noise: migration is driven by the retry
  // layer re-demanding the timeouts a dying board left.
  attack::ProbeSessionConfig policy;
  policy.words = options.words;
  if (noisy) {
    policy.retry = runtime::RetryPolicy::voting(3);
  } else if (fleet) {
    policy.retry = runtime::RetryPolicy::voting(1);
  }
  policy.controller = options.controller;
  if (options.controller == runtime::ControllerKind::kAdaptive) {
    // The profile's rates are campaign knowledge, so seed the sequential
    // test's corruption prior from them (the per-trial seed only moves the
    // noise stream, never the rates).
    policy.adaptive = faultsim::adaptive_config_for(noise, options.words);
  }

  if (out.crack) {
    attack::Cracker cracker(oracle, sys.golden.bytes, policy);
    const attack::CrackResult res = cracker.execute();

    out.attack_success = res.success;
    out.crack_unique = res.unique;
    out.crack_proven_ambiguous = res.proven_ambiguous;
    // The cracker "wins" when its verdict matches the variant: unique
    // identification against the plain countermeasure, a proof of ambiguity
    // against the response-equalized one.
    out.expected = res.success &&
                   (options.equalized ? res.proven_ambiguous : res.unique);
    out.failure = res.failure;
    out.crack_candidates = res.candidates;
    out.log2_static_bound = res.log2_static_bound;
    out.log2_final = res.log2_hypotheses_final;
    static_cast<runtime::RunLedger&>(out) = res;
  } else {
    attack::PipelineConfig cfg{policy};
    cfg.iv = iv;
    attack::Attack attack(oracle, sys.golden.bytes, cfg);
    const attack::AttackResult res = attack.execute();

    out.attack_success = res.success;
    out.key_match = res.success && res.secrets.key == sys_opt.key;
    out.expected = out.protected_variant ? !res.success : out.key_match;
    out.partial = res.partial;
    out.failure = res.failure;
    out.phase_runs = res.phase_runs;
    static_cast<runtime::RunLedger&>(out) = res;
  }
  const fpga::ConfigureStats work = sys.snapshot->stats();
  out.sites_decoded = work.sites_decoded;
  out.parent_promotions = work.parent_promotions;
  out.parent_hits = work.parent_hits;
  out.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  span.arg("oracle_runs", out.oracle_runs);
  span.arg("expected", out.expected ? 1 : 0);
  static obs::Counter& trial_counter = obs::MetricsRegistry::global().counter("campaign.trials");
  trial_counter.add();
  return out;
}

CampaignReport run_campaign(const CampaignOptions& options) {
  // The full orchestration (resume, fan-out, checkpointing, aggregation)
  // lives in Orchestrator::run; this entry point is the CLI-flavoured
  // configuration of it — own pool, no cancellation, no hooks.
  return Orchestrator().run(options);
}

void CampaignReport::accumulate(const TrialOutcome& t) {
  if (t.crack) {
    ++crack_trials;
    crack_unique_verdicts += t.crack_unique ? 1 : 0;
    crack_ambiguous_verdicts += t.crack_proven_ambiguous ? 1 : 0;
  } else if (t.protected_variant) {
    ++protected_trials;
    protected_resisted += t.expected ? 1 : 0;
  } else {
    ++unprotected_trials;
    unprotected_successes += t.key_match ? 1 : 0;
  }
  totals += t;
  total_sites_decoded += t.sites_decoded;
  total_parent_promotions += t.parent_promotions;
  total_parent_hits += t.parent_hits;
  for (const auto& [phase, runs] : t.phase_runs) {
    bool found = false;
    for (auto& [name, total] : phase_run_totals) {
      if (name == phase) {
        total += runs;
        found = true;
      }
    }
    if (!found) phase_run_totals.emplace_back(phase, runs);
  }
}

void CampaignReport::write_metrics(JsonWriter& w) const {
  w.begin_object();
  for_each_field(totals, [&w](const char* name, size_t value) { w.field(name, value); });
  w.field("resumed_trials", resumed_trials)
      .field("scan_index_cache_entries", scan_index_cache_entries)
      .field("sites_decoded", total_sites_decoded)
      .field("parent_promotions", total_parent_promotions)
      .field("parent_hits", total_parent_hits);
  w.key("phase_oracle_runs").begin_object();
  for (const auto& [phase, runs] : phase_run_totals) w.field(phase, runs);
  w.end_object();
  w.end_object();
}

bool CampaignReport::all_expected() const {
  for (const TrialOutcome& t : trials) {
    if (!t.expected) return false;
  }
  return true;
}

u64 CampaignReport::fingerprint() const {
  u64 h = mix64(trials.size());
  auto fold = [&h](u64 v) { h = mix64(h ^ (v + 0x9e3779b97f4a7c15ull)); };
  for (const TrialOutcome& t : trials) {
    fold(t.index);
    fold(t.trial_seed);
    fold(t.protected_variant ? 1 : 2);
    fold(t.attack_success ? 1 : 2);
    fold(t.key_match ? 1 : 2);
    fold(t.expected ? 1 : 2);
    fold(t.failure.size());
    for (const char c : t.failure) fold(static_cast<u64>(static_cast<unsigned char>(c)));
    fold(t.oracle_runs);
    fold(t.cache_hits);
    fold(t.probe_calls);
    fold(t.lut_sites);
    for (const auto& [phase, runs] : t.phase_runs) {
      fold(phase.size());
      fold(runs);
    }
    if (t.crack) {
      fold(t.crack_unique ? 1 : 2);
      fold(t.crack_proven_ambiguous ? 1 : 2);
      fold(t.crack_candidates);
      fold(t.oracle_runs);  // the verdict's probe count
      fold(std::bit_cast<u64>(t.log2_static_bound));
      fold(std::bit_cast<u64>(t.log2_final));
    }
  }
  return h;
}

std::string CampaignReport::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("options");
  write_options(w, options);

  w.key("aggregate").begin_object();
  w.field("threads_used", u64{threads_used})
      .field("unprotected_trials", unprotected_trials)
      .field("unprotected_successes", unprotected_successes)
      .field("protected_trials", protected_trials)
      .field("protected_resisted", protected_resisted)
      .field("crack_trials", crack_trials)
      .field("crack_unique_verdicts", crack_unique_verdicts)
      .field("crack_ambiguous_verdicts", crack_ambiguous_verdicts)
      .field("total_adaptive_probes", options.kind == "crack" ? totals.oracle_runs : 0)
      .field("all_expected", all_expected());
  for_each_field(totals, [&w](const char* name, size_t value) {
    w.field(std::string("total_") + name, value);
  });
  w.field("resumed_trials", resumed_trials)
      .field("scan_index_cache_entries", scan_index_cache_entries)
      .field("wall_seconds", wall_seconds)
      .field("fingerprint", fingerprint());
  w.key("phase_oracle_runs").begin_object();
  for (const auto& [phase, runs] : phase_run_totals) w.field(phase, runs);
  w.end_object();
  w.end_object();

  // Canonical metrics block (DESIGN.md §4g).  Same deterministic totals the
  // aggregate carries under its historical total_* names — those stay as
  // aliases so existing consumers keep working.
  w.key("metrics");
  write_metrics(w);

  w.key("trials").begin_array();
  for (const TrialOutcome& t : trials) write_trial(w, t);
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace sbm::campaign
