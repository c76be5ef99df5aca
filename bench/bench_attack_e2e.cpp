// End-to-end cost of the full Section VI attack: wall-clock and oracle
// reconfigurations per phase.  The paper's cost unit is a board reflash;
// ours is a simulated device load, so only the *counts* carry over.
//
// The bench owns every contract that needs no baseline.  Each scenario
// (clean, noisy, fleet, cracker, obs) has one check list, called by the full
// run and by that scenario's smoke mode; the process exits 1 when a check
// fails.  The full run also writes BENCH_attack_e2e.json, whose
// `wall_ratios` are the only thing scripts/check_bench_regression.py
// compares against the committed baseline: each divides two walls measured
// back to back in this process, so a slower machine moves both sides alike.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "attack/cracker.h"
#include "attack/pipeline.h"
#include "common/json.h"
#include "crypto/sha256.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "fleet/fleet.h"
#include "fpga/system.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "runtime/thread_pool.h"
#include "simd/backend.h"

namespace {

using namespace sbm;
using namespace sbm::attack;

constexpr snow3g::Iv kIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

/// Repeats behind every gated wall ratio; the median is kept.
constexpr int kRepeats = 5;

/// The clean run keeps every kSampleStride-th image its device runs for the
/// scalar-vs-batched differential (about 260 of the 8,350).
constexpr size_t kSampleStride = 32;

// Set from --trace-out / --metrics-out before benchmark::Initialize sees argv.
std::string g_trace_out;
std::string g_metrics_out;

/// Contract checks that failed so far; any failure makes the exit code 1.
int g_failed = 0;

bool check(bool cond, const std::string& what) {
  std::printf("  %-66s %s\n", what.c_str(), cond ? "ok" : "FAIL");
  if (!cond) ++g_failed;
  return cond;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

const fpga::System& system_instance() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

/// One probed image and the outcome the batched device gave it.
struct Sample {
  std::vector<u8> image;
  size_t words = 0;
  runtime::ProbeOutcome outcome;
};

/// Forwards to the wrapped oracle and keeps a fixed, deterministic sample of
/// the images it runs: every kSampleStride-th, rejected ones included.
class SampleRecorder : public Oracle {
 public:
  explicit SampleRecorder(Oracle& inner) : inner_(inner) {}

  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
    ++runs_;
    runtime::ProbeOutcome out = inner_.run(bitstream, words);
    keep(bitstream, words, out);
    return out;
  }
  std::vector<runtime::ProbeOutcome> run_batch(std::span<const std::vector<u8>> bitstreams,
                                               size_t words) override {
    runs_ += bitstreams.size();
    std::vector<runtime::ProbeOutcome> out = inner_.run_batch(bitstreams, words);
    for (size_t i = 0; i < bitstreams.size(); ++i) keep(bitstreams[i], words, out[i]);
    return out;
  }
  unsigned batch_lanes() const override { return inner_.batch_lanes(); }

  std::vector<Sample> samples;

 private:
  void keep(std::span<const u8> bitstream, size_t words, const runtime::ProbeOutcome& out) {
    if (seen_++ % kSampleStride == 0) {
      samples.push_back({{bitstream.begin(), bitstream.end()}, words, out});
    }
  }

  Oracle& inner_;
  size_t seen_ = 0;
};

struct CleanRun {
  AttackResult res;
  double wall = 0;
  size_t trace_events = 0;  // obs-on run only
};

/// The runtime configuration: probe cache + bit-sliced batches of up to
/// `width` lanes (the default runs the active backend's widest device, 64
/// the u64 one), on one thread, or with the oracle's chunks offered to
/// `pool` (the scans stay on the calling thread).  With `samples` the device
/// is wrapped in a SampleRecorder.
CleanRun run_clean(runtime::ThreadPool* pool, std::vector<Sample>* samples = nullptr,
                   unsigned width = simd::kMaxLanes) {
  const fpga::System& sys = system_instance();
  DeviceOracle device(sys, kIv, pool, width);
  SampleRecorder recorder(device);
  PipelineConfig cfg;
  cfg.iv = kIv;
  CleanRun run;
  const auto start = std::chrono::steady_clock::now();
  Attack attack(samples ? static_cast<Oracle&>(recorder) : device, sys.golden.bytes, cfg);
  run.res = attack.execute();
  run.wall = seconds_since(start);
  if (samples) *samples = std::move(recorder.samples);
  return run;
}

/// The one-thread clean run with the full obs layer on: the same
/// configuration as runtime_1t, so the wall ratio is the enabled-mode cost.
CleanRun run_observed() {
  obs::set_mode(obs::Mode::kAll);
  obs::Tracer::global().clear();  // --trace-out gets the last repeat's attack
  CleanRun run = run_clean(nullptr);
  run.trace_events = obs::Tracer::global().event_count();
  obs::set_mode(obs::Mode::kOff);
  return run;
}

struct Differential {
  size_t samples = 0;
  size_t rejected = 0;
  size_t mismatches = 0;
  double wall = 0;
};

/// Replays the sampled images through DeviceOracle at width 1, the scalar
/// fpga::Device reference: each must return the batched device's outcome.
Differential replay_on_scalar(const std::vector<Sample>& samples) {
  DeviceOracle scalar(system_instance(), kIv, nullptr, 1);
  Differential diff;
  const auto start = std::chrono::steady_clock::now();
  for (const Sample& s : samples) {
    const runtime::ProbeOutcome out = scalar.run(s.image, s.words);
    diff.rejected += out.error() == runtime::ProbeError::kRejected;
    diff.mismatches += !(out == s.outcome);
  }
  diff.samples = samples.size();
  diff.wall = seconds_since(start);
  return diff;
}

/// Wall time of a fixed amount of work that runs no attack code: SHA-256
/// over 12 MiB.  runtime_1t is gated as a ratio to it.
struct Calibration {
  double wall = 0;
};

Calibration calibrate() {
  static const std::vector<u8> block(1 << 20, 0x5a);
  u8 sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 12; ++i) sink ^= crypto::sha256(block)[0];
  Calibration cal{seconds_since(start)};
  benchmark::DoNotOptimize(sink);
  return cal;
}

struct NoisyRun {
  AttackResult res;
  double wall = 0;
  /// Delta of oracle.singleton_runs across the run: probes that fell off the
  /// wide batch path onto the scalar one-at-a-time fallback.  Must be 0 —
  /// the chunk-refill scheduler keeps every re-read on the batch device.
  u64 singleton_runs = 0;
};

/// The fault-tolerant configuration: noise on the oracle, confirmation by
/// the selected controller (static 3-vote or adaptive sequential test),
/// cache + 64-lane batches on one thread.  Metrics are forced on for the
/// duration so the singleton-straggler counter is readable.
NoisyRun run_noisy(runtime::ControllerKind controller, const faultsim::NoiseProfile& profile) {
  const fpga::System& sys = system_instance();
  DeviceOracle device(sys, kIv, nullptr, 64);
  faultsim::FaultyOracle oracle(device, profile);
  PipelineConfig cfg;
  cfg.iv = kIv;
  cfg.retry = runtime::RetryPolicy::voting(3);
  cfg.controller = controller;
  if (controller == runtime::ControllerKind::kAdaptive) {
    cfg.adaptive = faultsim::adaptive_config_for(profile, cfg.words);
  }
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kMetrics);
  obs::Counter& singleton = obs::MetricsRegistry::global().counter("oracle.singleton_runs");
  const u64 singleton_before = singleton.value();
  NoisyRun run;
  const auto start = std::chrono::steady_clock::now();
  Attack attack(oracle, sys.golden.bytes, cfg);
  run.res = attack.execute();
  run.wall = seconds_since(start);
  run.singleton_runs = singleton.value() - singleton_before;
  obs::set_mode(saved);
  return run;
}

/// Noise-level sweep for the adaptive controller: the stopping depth (and
/// with it the physical cost) should track the actual corruption rate.
struct SweepLevel {
  const char* name;
  NoisyRun run;
};

std::vector<SweepLevel> run_noise_sweep() {
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  std::vector<SweepLevel> sweep;
  sweep.push_back({"0.5x", run_noisy(runtime::ControllerKind::kAdaptive, mild.scaled(0.5))});
  sweep.push_back({"2x", run_noisy(runtime::ControllerKind::kAdaptive, mild.scaled(2.0))});
  return sweep;
}

struct FleetRun {
  AttackResult res;
  double wall = 0;
  u64 singleton_runs = 0;
  // FleetOracle ledger, read back after the attack.
  size_t migrations = 0;
  size_t quarantines = 0;
  size_t hedged_wins = 0;
  size_t lost_probes = 0;
  unsigned boards = 0;
  unsigned alive = 0;
};

/// The deathmatch pool: board 0 draws from a death process hot enough to
/// kill it within the first phase, the spares are quiet.  Fully seeded, so
/// the single-board control deterministically aborts while the 4-board
/// fleet deterministically migrates and finishes with the clean cached
/// run's exact oracle_runs.
fleet::FleetOptions deathmatch_options(unsigned boards) {
  fleet::FleetOptions opt;
  opt.boards = boards;
  opt.noise.death = 1e-4;
  opt.noise.seed = 0xf1ee7;
  opt.noise_factors.assign(boards, 0.0);
  opt.noise_factors[0] = 1e9;
  return opt;
}

/// The failover configuration: the attack through a FleetOracle over the
/// deathmatch pool, cache + 64-lane batches, single confirmation with a
/// retry budget (voting(1)) so a mid-chunk death migrates instead of
/// latching fatal on the first timeout.
FleetRun run_fleet(unsigned boards, bool hedge) {
  const fpga::System& sys = system_instance();
  fleet::FleetOptions opt = deathmatch_options(boards);
  opt.hedge = hedge;
  fleet::FleetOracle oracle(sys, kIv, opt, 64);
  PipelineConfig cfg;
  cfg.iv = kIv;
  cfg.retry = runtime::RetryPolicy::voting(1);
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kMetrics);
  obs::Counter& singleton = obs::MetricsRegistry::global().counter("oracle.singleton_runs");
  const u64 singleton_before = singleton.value();
  FleetRun run;
  const auto start = std::chrono::steady_clock::now();
  Attack attack(oracle, sys.golden.bytes, cfg);
  run.res = attack.execute();
  run.wall = seconds_since(start);
  run.singleton_runs = singleton.value() - singleton_before;
  obs::set_mode(saved);
  run.migrations = oracle.migrations();
  run.quarantines = oracle.quarantines();
  run.hedged_wins = oracle.hedged_wins();
  run.lost_probes = oracle.lost_probes();
  run.boards = oracle.boards();
  run.alive = oracle.alive_boards();
  return run;
}

struct CrackRun {
  CrackResult res;
  double wall = 0;
};

/// A protected victim: plain Section VII decoys or the response-equalized
/// strengthening, each built once.
const fpga::System& protected_system(bool equalized) {
  auto build = [](bool eq) {
    fpga::SystemOptions opt;
    opt.protected_variant = true;
    opt.equalized = eq;
    return fpga::build_system(opt);
  };
  static const fpga::System plain = build(false);
  static const fpga::System strengthened = build(true);
  return equalized ? strengthened : plain;
}

/// The oracle-guided countermeasure cracker (DESIGN.md §4l) against a
/// protected victim.  Cache + 64-lane batches on one thread, like the noisy
/// configuration.
CrackRun run_crack(bool equalized) {
  const fpga::System& sys = protected_system(equalized);
  DeviceOracle oracle(sys, kIv, nullptr, 64);
  CrackerConfig cfg;
  CrackRun run;
  const auto start = std::chrono::steady_clock::now();
  Cracker cracker(oracle, sys.golden.bytes, cfg);
  run.res = cracker.execute();
  run.wall = seconds_since(start);
  return run;
}

// ---- One check list per scenario, shared by the full run and the smokes ----

/// Clean: every batched configuration (the width-64 u64 run on one thread,
/// the pooled run) recovers the key with the reference run's exact
/// keystream and counts, and every sampled probe answers identically on the
/// width-1 scalar device.  Returns results_identical.
bool check_clean(const AttackResult& ref, const std::vector<const AttackResult*>& others,
                 const Differential& diff) {
  std::printf("clean:\n");
  bool ok = check(ref.success && ref.key_confirmed, "runtime_1t recovers and confirms the key");
  bool same = true;
  for (const AttackResult* r : others) {
    same = same && r->success && r->faulty_keystream == ref.faulty_keystream &&
           r->secrets.key == ref.secrets.key && r->oracle_runs == ref.oracle_runs &&
           r->cache_hits == ref.cache_hits && r->probe_calls == ref.probe_calls;
  }
  ok = check(same, "the u64 and the pooled runs match runtime_1t") && ok;
  ok = check(diff.samples > 0 && diff.mismatches == 0,
             "sampled probes identical on the width-1 scalar device") && ok;
  return ok;
}

/// Noisy: both controllers recover the key through mild noise at the clean
/// run's logical cost, within their physical budgets (3x / 2x the clean
/// probe calls), with a balanced ledger and no singleton stragglers; the
/// adaptive one is strictly cheaper physically; every sweep level succeeds.
void check_noisy(const AttackResult& clean, const NoisyRun& stat, const NoisyRun& adapt,
                 const std::vector<SweepLevel>& sweep) {
  std::printf("noisy:\n");
  struct Controller {
    const char* name;
    const NoisyRun& run;
    size_t factor;
  };
  for (const Controller& c : {Controller{"static", stat, 3}, Controller{"adaptive", adapt, 2}}) {
    const std::string name = c.name;
    const AttackResult& r = c.run.res;
    check(r.success, name + ": key recovered through mild noise");
    check(r.oracle_runs == clean.oracle_runs, name + ": oracle_runs equal the clean run's");
    check(r.physical_runs <= c.factor * clean.probe_calls,
          name + ": physical runs <= " + std::to_string(c.factor) + "x clean probe calls");
    check(r.physical_runs == r.oracle_runs + r.retry_runs + r.vote_runs,
          name + ": ledger physical = oracle + retry + vote");
    check(c.run.singleton_runs == 0, name + ": no singleton stragglers");
  }
  check(adapt.res.physical_runs < stat.res.physical_runs,
        "adaptive physically cheaper than static");
  for (const SweepLevel& s : sweep) {
    check(s.run.res.success, std::string("noise sweep ") + s.name + ": key recovered");
  }
}

/// Fleet: the deathmatch profile kills the single-board control mid-attack,
/// while the 4-board fleet migrates and finishes with the clean run's exact
/// logical result, a balanced physical ledger, and zero lost probes; the
/// hedged variant reaches the same logical result through hedge rescues or
/// migration.
void check_fleet(const AttackResult& clean, const FleetRun& single, const FleetRun& fleet,
                 const FleetRun& hedged) {
  std::printf("fleet:\n");
  check(!single.res.success && single.res.partial,
        "single board aborts under the death profile");
  check(fleet.res.success, "4-board fleet recovers the key");
  check(fleet.res.oracle_runs == clean.oracle_runs, "oracle_runs equal the clean run's");
  check(fleet.res.faulty_keystream == clean.faulty_keystream,
        "faulty keystream bit-identical to clean");
  check(fleet.res.physical_runs == fleet.res.oracle_runs + fleet.res.retry_runs +
                                       fleet.res.vote_runs + fleet.res.migration_runs,
        "ledger physical = oracle + retry + vote + migration");
  check(fleet.migrations >= 1, "at least one board death migrated");
  check(fleet.lost_probes == 0, "no probes lost to the fleet");
  check(fleet.singleton_runs == 0, "no singleton stragglers");
  check(hedged.res.success && hedged.res.oracle_runs == clean.oracle_runs &&
            hedged.res.faulty_keystream == clean.faulty_keystream,
        "hedged fleet: same logical result");
  check(hedged.migrations + hedged.hedged_wins >= 1,
        "hedged fleet survived via rescue or migration");
  check(hedged.lost_probes == 0, "hedged fleet: no probes lost");
}

/// Cracker: unique identification of the 32 true sources on the plain
/// protected victim, adaptive probes more than 80 bits below the static
/// C(n-32,32) bound, and the response-equalized countermeasure forcing a
/// proof of ambiguity at a strictly higher probe cost.
void check_cracker(const CrackRun& crack, const CrackRun& crack_eq) {
  std::printf("cracker:\n");
  check(crack.res.success && crack.res.unique && !crack.res.proven_ambiguous,
        "protected: unique identification of all 32 sources");
  check(crack.res.oracle_runs > 0 &&
            crack.res.log2_static_bound -
                    std::log2(static_cast<double>(crack.res.oracle_runs)) >
                80,
        "adaptive probes > 80 bits below the static bound");
  check(crack_eq.res.success && crack_eq.res.proven_ambiguous && !crack_eq.res.unique,
        "equalized: cracker proves residual ambiguity");
  check(crack_eq.res.oracle_runs > crack.res.oracle_runs,
        "equalized countermeasure costs strictly more probes");
}

/// Obs: tracing records events and does not change the attack's oracle work.
void check_obs(const AttackResult& clean, const CleanRun& observed) {
  std::printf("obs:\n");
  check(observed.res.oracle_runs == clean.oracle_runs, "obs-on oracle_runs equal the clean run's");
  check(observed.trace_events > 0, "obs-on run recorded trace events");
}

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Walls of one entry across the repeats; the first run feeds the check
/// lists and the JSON counts.
template <class Run>
struct Series {
  Run first;
  std::vector<double> walls;
  double add(Run run) {
    walls.push_back(run.wall);
    if (walls.size() == 1) first = std::move(run);
    return walls.back();
  }
  double median() const { return ::median(walls); }
};

void write_json_file(const std::string& path, const std::string& text) {
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }
}

int run_full() {
  // The gated entries measure the attack itself with obs off; only the
  // obs-on run switches it on.
  const obs::Mode saved_mode = obs::mode();
  obs::set_mode(obs::Mode::kOff);
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  const simd::Backend active = simd::active_backend();

  Series<CleanRun> clean_runs;  // runtime_1t
  Series<Calibration> cal;
  Series<CleanRun> pooled, observed, scalar;
  Series<NoisyRun> stat, adapt;
  Series<FleetRun> fleet;
  Series<CrackRun> crack, crack_eq;
  std::vector<Sample> samples;

  // Load on a shared machine comes and goes in bursts of a second or so, so
  // every gated entry runs between two runtime_1t runs: clean, entry, clean,
  // entry, ..., clean, kRepeats times over.  Its ratio is its wall over the
  // mean of the two clean walls around it, and the median over the repeats
  // is kept.  runtime_1t's own ratio is each clean wall over the calibration
  // run right after it, median over all of them.
  struct Gated {
    std::string name;
    std::function<double()> run;  // one run of the entry; returns its wall
    std::vector<double> ratios;
  };
  // The two noisy controllers come first: adaptive_vs_static divides their
  // ratios repeat by repeat.
  std::vector<Gated> gated = {
      {"noisy", [&] { return stat.add(run_noisy(runtime::ControllerKind::kStatic, mild)); }, {}},
      {"noisy_adaptive",
       [&] { return adapt.add(run_noisy(runtime::ControllerKind::kAdaptive, mild)); }, {}},
      {"runtime", [&] { return pooled.add(run_clean(&runtime::ThreadPool::global())); }, {}},
      {"fleet_deathmatch", [&] { return fleet.add(run_fleet(4, /*hedge=*/false)); }, {}},
      // Both countermeasures in one entry: each run alone is short enough
      // for load bursts to swing its ratio by 20%.
      {"cracker",
       [&] { return crack.add(run_crack(false)) + crack_eq.add(run_crack(true)); }, {}},
      {"obs", [&] { return observed.add(run_observed()); }, {}},
      // Width 64 pins every chunk to the u64 device.
      {"runtime_1t_scalar", [&] { return scalar.add(run_clean(nullptr, nullptr, 64)); }, {}}};
  std::vector<double> calibrated;
  auto reference = [&](std::vector<Sample>* keep) {
    const double wall = clean_runs.add(run_clean(nullptr, keep));
    calibrated.push_back(wall / cal.add(calibrate()));
    return wall;
  };
  for (int r = 0; r < kRepeats; ++r) {
    double before = reference(r == 0 ? &samples : nullptr);
    for (Gated& g : gated) {
      const double wall = g.run();
      const double after = reference(nullptr);
      g.ratios.push_back(wall / ((before + after) / 2));
      before = after;
    }
  }
  std::vector<double> adaptive_vs_static;
  for (int r = 0; r < kRepeats; ++r) {
    adaptive_vs_static.push_back(gated[1].ratios[r] / gated[0].ratios[r]);
  }
  std::vector<std::pair<std::string, std::vector<double>>> ratios = {{"runtime_1t", calibrated}};
  for (const Gated& g : gated) ratios.emplace_back(g.name, g.ratios);
  ratios.emplace_back("adaptive_vs_static", adaptive_vs_static);
  // Count-only runs, once each.
  const std::vector<SweepLevel> sweep = run_noise_sweep();
  const FleetRun fleet_single = run_fleet(1, false);
  const FleetRun hedged = run_fleet(4, /*hedge=*/true);
  const Differential diff = replay_on_scalar(samples);

  const AttackResult& clean = clean_runs.first.res;
  std::printf("=== End-to-end attack cost ===\n");
  std::printf("oracle reconfigurations: %zu true runs + %zu cache hits (%zu probe calls)\n",
              clean.oracle_runs, clean.cache_hits, clean.probe_calls);
  for (const auto& [phase, runs] : clean.phase_runs) {
    std::printf("  %-10s %6zu\n", phase.c_str(), runs);
  }
  std::printf("verified LUT rewrites: %zu z-path + %zu feedback + %zu MUX (beta)\n",
              clean.lut1.size(), clean.feedback.size(), clean.mux_patches);
  std::printf("physical runs: noisy %zu (3-vote), %zu (adaptive); fleet %zu with %zu "
              "migration(s); cracker %zu / %zu adaptive probes (plain / equalized)\n",
              stat.first.res.physical_runs, adapt.first.res.physical_runs,
              fleet.first.res.physical_runs, fleet.first.migrations,
              crack.first.res.oracle_runs, crack_eq.first.res.oracle_runs);
  std::printf("scalar differential: %zu sampled probes (%zu rejected), %zu mismatches (%.2fs)\n",
              diff.samples, diff.rejected, diff.mismatches, diff.wall);
  std::printf("runtime_1t (%s, 1 thread): %.3fs; calibration %.3fs; wall ratios (median and "
              "range of %d repeats):\n",
              simd::backend_name(active), clean_runs.median(), cal.median(), kRepeats);
  for (const auto& [name, v] : ratios) {
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    std::printf("  %-20s %6.3f  (%.3f-%.3f)\n", name.c_str(), median(v), *lo, *hi);
  }
  std::printf("\n");

  std::printf("=== Contracts ===\n");
  const bool identical = check_clean(clean, {&pooled.first.res, &scalar.first.res}, diff);
  check_noisy(clean, stat.first, adapt.first, sweep);
  check_fleet(clean, fleet_single, fleet.first, hedged);
  check_cracker(crack.first, crack_eq.first);
  check_obs(clean, observed.first);
  std::printf("contracts: %s\n\n", g_failed == 0 ? "PASS" : "FAIL");

  if (!g_trace_out.empty()) {
    if (obs::Tracer::global().write(g_trace_out)) {
      std::printf("wrote %s\n", g_trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", g_trace_out.c_str());
    }
  }
  if (!g_metrics_out.empty()) {
    write_json_file(g_metrics_out, obs::MetricsRegistry::global().snapshot().to_json());
  }
  obs::set_mode(saved_mode);

  JsonWriter w;
  w.begin_object();
  w.field("bench", "attack_e2e");
  w.field("threads", u64{runtime::ThreadPool::global().concurrency()});
  w.field("backend", simd::backend_name(active));
  w.field("repeats", u64{kRepeats});
  w.field("results_identical", identical);
  w.field("calibration_seconds", cal.median());
  // Lower is better; check_bench_regression.py compares each with the
  // committed baseline's.
  w.key("wall_ratios").begin_object();
  for (const auto& [name, v] : ratios) w.field(name, median(v));
  w.end_object();
  w.key("plain").begin_object();  // the scalar reference, on a probe sample
  w.field("wall_seconds", diff.wall)
      .field("sample_stride", u64{kSampleStride})
      .field("sampled_probes", diff.samples)
      .field("rejected_probes", diff.rejected)
      .field("mismatches", diff.mismatches)
      .field("backend", "scalar");
  w.end_object();
  auto entry = [&w](const std::string& name, const Series<CleanRun>& runs,
                    simd::Backend backend) {
    w.key(name).begin_object();
    w.field("wall_seconds", runs.median())
        .field("oracle_runs", runs.first.res.oracle_runs)
        .field("cache_hits", runs.first.res.cache_hits)
        .field("probe_calls", runs.first.res.probe_calls)
        .field("backend", simd::backend_name(backend));
    w.end_object();
  };
  entry("runtime_1t", clean_runs, active);
  entry("runtime", pooled, active);
  entry("runtime_1t_scalar", scalar, simd::Backend::kScalar);
  w.key("obs").begin_object();
  w.field("wall_seconds", observed.median())
      .field("oracle_runs", observed.first.res.oracle_runs)
      .field("cache_hits", observed.first.res.cache_hits)
      .field("probe_calls", observed.first.res.probe_calls)
      .field("trace_events", u64{observed.first.trace_events});
  w.end_object();
  auto noisy_entry = [&w](const std::string& name, const NoisyRun& run, double wall) {
    w.key(name).begin_object();
    w.field("wall_seconds", wall)
        .field("success", run.res.success)
        .field("oracle_runs", run.res.oracle_runs)
        .field("cache_hits", run.res.cache_hits)
        .field("probe_calls", run.res.probe_calls)
        .field("physical_runs", run.res.physical_runs)
        .field("retry_runs", run.res.retry_runs)
        .field("vote_runs", run.res.vote_runs)
        .field("corruption_detections", run.res.corruption_detections)
        .field("singleton_runs", run.singleton_runs);
    w.end_object();
  };
  noisy_entry("noisy", stat.first, stat.median());
  noisy_entry("noisy_adaptive", adapt.first, adapt.median());
  const FleetRun& f = fleet.first;
  w.key("fleet_deathmatch").begin_object();
  w.field("wall_seconds", fleet.median())
      .field("success", f.res.success)
      .field("single_success", fleet_single.res.success)  // control: must stay false
      .field("boards", u64{f.boards})
      .field("alive_boards", u64{f.alive})
      .field("oracle_runs", f.res.oracle_runs)
      .field("cache_hits", f.res.cache_hits)
      .field("probe_calls", f.res.probe_calls)
      .field("physical_runs", f.res.physical_runs)
      .field("retry_runs", f.res.retry_runs)
      .field("vote_runs", f.res.vote_runs)
      .field("migration_runs", f.res.migration_runs)
      .field("migrations", u64{f.migrations})
      .field("quarantines", u64{f.quarantines})
      .field("lost_probes", u64{f.lost_probes})
      .field("singleton_runs", f.singleton_runs);
  w.end_object();
  w.key("cracker").begin_object();
  w.field("wall_seconds", crack.median())
      .field("unique", crack.first.res.unique)
      .field("adaptive_probes", crack.first.res.oracle_runs)
      .field("candidates", crack.first.res.candidates)
      .field("unique_sites", crack.first.res.unique_sites)
      .field("log2_static_bound", crack.first.res.log2_static_bound)
      .field("equalized_wall_seconds", crack_eq.median())
      .field("equalized_adaptive_probes", crack_eq.first.res.oracle_runs)
      .field("equalized_proven_ambiguous", crack_eq.first.res.proven_ambiguous)
      .field("equalized_log2_final", crack_eq.first.res.log2_hypotheses_final);
  w.end_object();
  w.key("noise_sweep").begin_object();
  auto sweep_entry = [&w](const char* name, const NoisyRun& run, double wall) {
    w.key(name).begin_object();
    w.field("wall_seconds", wall)
        .field("success", run.res.success)
        .field("oracle_runs", run.res.oracle_runs)
        .field("physical_runs", run.res.physical_runs);
    w.end_object();
  };
  sweep_entry("0.5x", sweep[0].run, sweep[0].run.wall);
  sweep_entry("1x", adapt.first, adapt.median());  // the default profile is the 1x level
  sweep_entry("2x", sweep[1].run, sweep[1].run.wall);
  w.end_object();
  w.key("phase_oracle_runs").begin_object();
  for (const auto& [phase, runs] : clean.phase_runs) w.field(phase, runs);
  w.end_object();
  w.end_object();
  write_json_file("BENCH_attack_e2e.json", w.str());
  std::printf("\n");
  return g_failed == 0 ? 0 : 1;
}

// Smoke modes for ctest (label `bench`): one scenario each, with the clean
// one-thread run as its reference where the check list needs one.  No JSON
// is written — the committed baseline regenerates only on a full run.

int smoke_exit(const char* name) {
  std::printf("%s smoke: %s\n", name, g_failed == 0 ? "PASS" : "FAIL");
  return g_failed == 0 ? 0 : 1;
}

int run_noisy_smoke() {
  obs::set_mode(obs::Mode::kOff);  // run_noisy switches to kMetrics itself
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  const CleanRun clean = run_clean(nullptr);
  const NoisyRun stat = run_noisy(runtime::ControllerKind::kStatic, mild);
  const NoisyRun adapt = run_noisy(runtime::ControllerKind::kAdaptive, mild);
  check_noisy(clean.res, stat, adapt, run_noise_sweep());
  return smoke_exit("noisy");
}

int run_fleet_smoke() {
  obs::set_mode(obs::Mode::kOff);  // run_fleet switches to kMetrics itself
  const CleanRun clean = run_clean(nullptr);
  check_fleet(clean.res, run_fleet(1, false), run_fleet(4, /*hedge=*/false),
              run_fleet(4, /*hedge=*/true));
  return smoke_exit("fleet");
}

int run_cracker_smoke() {
  obs::set_mode(obs::Mode::kOff);
  check_cracker(run_crack(/*equalized=*/false), run_crack(/*equalized=*/true));
  return smoke_exit("cracker");
}

void BM_SystemBuild(benchmark::State& state) {
  for (auto _ : state) {
    auto sys = fpga::build_system();
    benchmark::DoNotOptimize(sys);
  }
}
BENCHMARK(BM_SystemBuild)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google/benchmark sees (and rejects) them.
  bool noisy_smoke = false;
  bool fleet_smoke = false;
  bool cracker_smoke = false;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const bool has_next = i + 1 < argc;
    if (std::strcmp(argv[i], "--noisy-smoke") == 0) {
      noisy_smoke = true;
    } else if (std::strcmp(argv[i], "--fleet-smoke") == 0) {
      fleet_smoke = true;
    } else if (std::strcmp(argv[i], "--cracker-smoke") == 0) {
      cracker_smoke = true;
    } else if (std::strcmp(argv[i], "--trace-out") == 0 && has_next) {
      g_trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && has_next) {
      g_metrics_out = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  if (noisy_smoke) return run_noisy_smoke();
  if (fleet_smoke) return run_fleet_smoke();
  if (cracker_smoke) return run_cracker_smoke();
  const int status = run_full();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return status;
}
