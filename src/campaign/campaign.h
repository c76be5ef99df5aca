// Batch attack campaigns: fan out M independent attack trials across the
// worker pool and aggregate a machine-readable report.
//
// Each trial builds its own victim — randomized session key, host IV and
// placement seed, optionally the Section VII protected (trivial-cut) variant
// — and runs the full Section VI pipeline against it, the way related work
// (Puschner et al., "Patching FPGAs"; Ender et al., "The Unpatchable
// Silicon") evaluates bitstream attacks statistically over many targets
// rather than on one board.
//
// Determinism contract: every field of the report except wall-clock timings
// and physical-layer retry accounting is a pure function of CampaignOptions
// — trials derive their randomness from (options.seed, trial index) only,
// noise streams from (noise.seed, trial seed, physical run index) only, and
// each trial runs on one thread: the pool fans out trials and nothing
// inside them.  fingerprint() digests exactly the timing-free logical
// fields, so `fingerprint(threads=1) == fingerprint(threads=N)` is the
// subsystem's contract — including across checkpoint/resume — and is
// enforced by tests/test_campaign.cpp.
//
// Cost: each trial's probe session owns its probe cache, so a trial never
// reconfigures a byte-identical image twice; its oracle_runs is the
// paper's reflash count and probe_calls what it would pay uncached.
//
// Fault tolerance (DESIGN.md §4f): a non-quiet `noise` profile wraps every
// trial's device in a FaultyOracle and upgrades the pipeline to voting
// probes; `checkpoint_path` persists completed trials after each finish so a
// killed campaign resumes without re-spending them.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "faultsim/noise.h"
#include "runtime/retry.h"
#include "simd/backend.h"

namespace sbm {
class JsonWriter;
}

namespace sbm::campaign {

struct CampaignOptions {
  /// Independent attack trials to run.
  size_t trials = 8;
  /// Worker threads (total, including the driver); 0 = hardware concurrency.
  unsigned threads = 0;
  /// Master seed; trial i draws all its randomness from (seed, i).
  u64 seed = 0x5eedc0de;
  /// Every k-th trial (i % k == k - 1) builds the Section VII protected
  /// variant, whose expected outcome is that the attack *fails*.  0 = never.
  size_t protected_every = 0;
  /// What each trial runs.  "attack" = the Section VI key-recovery pipeline.
  /// "crack" = the oracle-guided countermeasure cracker (DESIGN.md §4l):
  /// every trial builds a *protected* victim and disambiguates its decoy
  /// hypothesis set adaptively; success means a verdict, and the trial is
  /// `expected` when the verdict matches the variant (unique identification
  /// on the plain countermeasure, a proof of ambiguity on the
  /// response-equalized one).  Unknown kinds are rejected at job validation
  /// (the service answers 400).
  std::string kind = "attack";
  /// Crack campaigns only: build the response-equalized countermeasure
  /// (three XOR-recombined copies per target bit) instead of the plain
  /// Section VII decoy population.  Ignored for kind == "attack".
  bool equalized = false;
  /// Keystream words per probe (the paper's w).
  size_t words = 16;
  /// Lanes per bit-sliced oracle batch (1..kMaxBatchWidth, clamped at
  /// runtime to the active SIMD backend's width — 64 scalar, 256 AVX2).  1
  /// selects the scalar reference path; any width yields bit-identical
  /// trial outcomes (the fingerprint() contract extends over this knob).
  unsigned batch_width = simd::kMaxLanes;
  /// Unreliable-hardware model: a non-quiet profile wraps each trial's
  /// device in a faultsim::FaultyOracle (noise stream re-seeded per trial)
  /// and the pipeline probes with runtime::RetryPolicy::voting(3).  The
  /// logical metrics — and therefore fingerprint() — are unchanged from the
  /// clean run by the accounting contract.
  faultsim::NoiseProfile noise{};
  /// Probe-confirmation controller (DESIGN.md §4j): kStatic = the classic
  /// r-repetition vote; kAdaptive = the sequential test, seeded from `noise`
  /// per trial (same logical outcome and fingerprint, roughly half the
  /// physical runs on a mildly noisy board).
  runtime::ControllerKind controller = runtime::ControllerKind::kStatic;
  /// Board pool per trial (DESIGN.md §4k).  1 = the classic single board
  /// (a FaultyOracle when `noise` is non-quiet); >= 2 wraps every trial's
  /// device in a fleet::FleetOracle of this many boards, each with its own
  /// (per-trial re-seeded) noise stream, so a board death migrates the
  /// in-flight probes to a spare instead of aborting the trial.  The
  /// logical metrics and fingerprint() are unchanged by the fleet size.
  unsigned fleet_size = 1;
  /// Per-board fault-rate multipliers on `noise` (board i uses entry i;
  /// missing entries default to 1.0).  Only meaningful with fleet_size >= 2.
  std::vector<double> fleet_noise_factors;
  /// Hedge straggler chunks on a second healthy board (fleet runs only).
  bool fleet_hedge = false;
  /// Wall-clock budget for the whole campaign in seconds; 0 = unlimited.
  /// Enforced by the service layer (the job is cancelled with a
  /// `deadline_exceeded` terminal status once exceeded); run_campaign
  /// itself ignores it.  Excluded from the checkpoint options signature,
  /// like `threads` — it changes when a run stops, never what it computes.
  double deadline_seconds = 0;
  /// When non-empty, every completed trial is appended to this JSON file
  /// (atomically rewritten under a lock), so a killed campaign can resume.
  std::string checkpoint_path;
  /// Load `checkpoint_path` first and skip trials it already covers.  The
  /// checkpoint's options signature must match, else it is ignored.
  bool resume = false;
  bool verbose = false;
};

/// One trial's record.  Its RunLedger base is the trial's run ledger
/// (DESIGN.md §4f), copied whole from the attack or crack result: physical
/// accounting under noise (physical_runs = oracle_runs + retry_runs +
/// vote_runs + migration_runs) is informational — fingerprint() digests only
/// the logical counts (oracle_runs, cache_hits, probe_calls).
struct TrialOutcome : runtime::RunLedger {
  size_t index = 0;
  u64 trial_seed = 0;
  bool protected_variant = false;
  bool attack_success = false;  // pipeline reported a confirmed key
  bool key_match = false;       // recovered key equals the planted key
  /// Trial behaved as the paper predicts: key recovered on an unprotected
  /// victim, attack defeated on a protected one.
  bool expected = false;
  /// The device was lost mid-attack (irrecoverable fault); the trial carries
  /// whatever the pipeline verified before dying.
  bool partial = false;
  std::string failure;  // pipeline failure reason when !attack_success
  size_t lut_sites = 0;  // victim fabric size (varies with the placement seed)
  std::vector<std::pair<std::string, size_t>> phase_runs;
  /// Device work through the victim's snapshot (fpga::ConfigureStats):
  /// LUT sites decoded, parent images promoted and parent-cache hits.
  /// Informational — excluded from fingerprint().  A trial runs on one
  /// thread, so these counts do not depend on the campaign's thread count.
  size_t sites_decoded = 0;
  size_t parent_promotions = 0;
  size_t parent_hits = 0;
  /// Crack-kind trials only (kind == "crack"); all-zero for attack trials.
  /// On a crack trial oracle_runs is the logical probe count the cracker
  /// needed to reach its verdict, recorded as "adaptive_probes_to_unique".
  bool crack = false;
  bool crack_unique = false;
  bool crack_proven_ambiguous = false;
  size_t crack_candidates = 0;
  double log2_static_bound = 0;
  double log2_final = 0;
  double wall_seconds = 0;  // informational only — excluded from fingerprint()
};

struct CampaignReport {
  CampaignOptions options;
  std::vector<TrialOutcome> trials;

  size_t unprotected_trials = 0;
  size_t unprotected_successes = 0;
  size_t protected_trials = 0;
  size_t protected_resisted = 0;
  /// Every trial's run ledger, summed.
  runtime::RunLedger totals;
  size_t total_sites_decoded = 0;
  size_t total_parent_promotions = 0;
  size_t total_parent_hits = 0;
  /// Crack-kind aggregates (zero for attack campaigns).
  size_t crack_trials = 0;
  size_t crack_unique_verdicts = 0;
  size_t crack_ambiguous_verdicts = 0;
  /// Trials answered from the resume checkpoint instead of being re-run.
  size_t resumed_trials = 0;
  /// Trials skipped because the run was cancelled (Orchestrator::Hooks).
  /// Always 0 for run_campaign; not serialized — the report JSON schema is
  /// unchanged and `trials` simply carries only the finished ones.
  size_t cancelled_trials = 0;
  /// Per-phase oracle-run totals summed across trials, in pipeline order.
  std::vector<std::pair<std::string, size_t>> phase_run_totals;
  double wall_seconds = 0;
  unsigned threads_used = 0;
  /// Compiled scan-engine pattern indexes alive after the campaign: the
  /// standard families compile once (pre-warmed before the trial fan-out)
  /// and every trial's FINDLUT phases reuse them.  Informational — excluded
  /// from fingerprint().
  size_t scan_index_cache_entries = 0;

  bool all_expected() const;
  /// Digest of every timing-independent logical field of every trial, in
  /// trial order.  Identical for 1 and N threads, any batch width, and
  /// across checkpoint/resume, by the determinism contract.
  u64 fingerprint() const;
  std::string to_json() const;

  /// Folds one trial into the aggregate fields (counts, totals, total_*,
  /// phase_run_totals).  Does not touch `trials` — the orchestrator
  /// calls it per finished trial, and the campaign daemon reuses it to keep
  /// a live per-job aggregate while a run is still in flight.
  void accumulate(const TrialOutcome& t);
  /// Writes the canonical metrics block (DESIGN.md §4g) as one JSON object —
  /// the exact bytes of the "metrics" member of to_json.  The daemon's
  /// status responses stream this same block per job.
  void write_metrics(JsonWriter& w) const;
};

/// Trial `index`'s seed: every draw of the trial (victim key, placement,
/// host IV, noise stream) derives from it and nothing else.
constexpr u64 trial_seed(const CampaignOptions& options, size_t index) {
  return mix64(options.seed ^ (0x9e3779b97f4a7c15ull * (index + 1)));
}

/// Whether trial `index` is one of the every-protected_every-th attack
/// trials that build the Section VII protected variant.
constexpr bool is_protected_trial(const CampaignOptions& options, size_t index) {
  return options.protected_every != 0 &&
         index % options.protected_every == options.protected_every - 1;
}

/// Upper bounds of options_error.  A run allocates per-trial state up
/// front, every probe carries `words` keystream words, and the pool starts
/// `threads` OS threads, so an absurd count must fail validation instead of
/// an allocation or thread start.  Every committed workload sits far below
/// them (the largest runs are tens of trials at w = 16 on a few threads).
inline constexpr size_t kMaxTrials = size_t{1} << 20;
inline constexpr size_t kMaxWords = 1024;
inline constexpr unsigned kMaxThreads = 1024;
/// Wider than any device (simd::kMaxLanes): job records, reports and
/// checkpoints written when the widest device had 512 lanes store that
/// width, and they must still load.  The oracle clamps it like any other.
inline constexpr unsigned kMaxBatchWidth = 512;

/// The range checks every entry point applies to CampaignOptions (the
/// campaign CLI, options_from_json and so the service's job spec): empty
/// when the options are runnable, else what is wrong with them — trials in
/// 1..kMaxTrials, words in 1..kMaxWords, threads in 0..kMaxThreads,
/// fleet_size >= 1, batch_width in 1..kMaxBatchWidth, every fleet noise
/// factor >= 0, kind "attack" or "crack".
std::string options_error(const CampaignOptions& options);

/// Runs one trial on the calling thread (exposed for tests).
TrialOutcome run_trial(const CampaignOptions& options, size_t index);

/// Runs the whole campaign on an internally-owned pool of options.threads.
CampaignReport run_campaign(const CampaignOptions& options);

}  // namespace sbm::campaign
