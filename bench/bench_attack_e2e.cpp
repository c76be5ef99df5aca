// End-to-end cost of the full Section VI attack: wall-clock and oracle
// reconfigurations per phase.  The paper's cost unit is a board reflash;
// ours is a simulated device load, so only the *counts* carry over.
//
// Besides the human-readable breakdown, this bench writes
// BENCH_attack_e2e.json (wall time, true oracle runs, cache hits, per-phase
// runs) so the performance trajectory is tracked across PRs.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "attack/cracker.h"
#include "attack/pipeline.h"
#include "common/json.h"
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

// Set from --trace-out / --metrics-out before benchmark::Initialize sees argv.
std::string g_trace_out;
std::string g_metrics_out;

const fpga::System& system_instance() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

AttackResult run_once(runtime::ThreadPool* pool, unsigned batch_width, double* wall_seconds) {
  const fpga::System& sys = system_instance();
  DeviceOracle oracle(sys, kIv, pool, batch_width);
  PipelineConfig cfg;
  cfg.iv = kIv;
  cfg.find.pool = pool;
  const auto start = std::chrono::steady_clock::now();
  Attack attack(oracle, sys.golden.bytes, cfg);
  AttackResult res = attack.execute();
  *wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return res;
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
/// duration so the singleton-straggler counter is readable; the committed
/// baseline is generated under the same condition.
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
  run.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  run.singleton_runs = singleton.value() - singleton_before;
  obs::set_mode(saved);
  return run;
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
  fleet::FleetOracle oracle(sys, kIv, opt, nullptr, 64);
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
  run.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
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

/// The oracle-guided countermeasure cracker (DESIGN.md §4l) against a
/// protected victim — plain Section VII decoys or the response-equalized
/// strengthening.  Cache + 64-lane batches on one thread, like the noisy
/// configuration.
CrackRun run_crack(bool equalized) {
  fpga::SystemOptions opt;
  opt.protected_variant = true;
  opt.equalized = equalized;
  const fpga::System sys = fpga::build_system(opt);
  DeviceOracle oracle(sys, kIv, nullptr, 64);
  CrackerConfig cfg;
  CrackRun run;
  const auto start = std::chrono::steady_clock::now();
  Cracker cracker(oracle, sys.golden.bytes, cfg);
  run.res = cracker.execute();
  run.wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return run;
}

void print_cost_breakdown() {
  // The standard entries measure the attack itself: obs is forced off so the
  // committed baseline captures the disabled-mode cost that
  // check_bench_regression.py holds to < 3% drift.
  const obs::Mode saved_mode = obs::mode();
  obs::set_mode(obs::Mode::kOff);

  // Plain single-threaded scalar run, the reference every other
  // configuration must reproduce (batch width 1 = one reconfiguration per
  // oracle run, no bit-slicing)...
  double wall_plain = 0;
  const AttackResult plain = run_once(nullptr, 1, &wall_plain);
  std::printf("=== End-to-end attack cost ===\n");
  std::printf("success: %s, key confirmed: %s\n", plain.success ? "yes" : "no",
              plain.key_confirmed ? "yes" : "no");
  std::printf("oracle reconfigurations: %zu true runs + %zu cache hits (%zu probe calls)\n",
              plain.oracle_runs, plain.cache_hits, plain.probe_calls);
  for (const auto& [phase, runs] : plain.phase_runs) {
    std::printf("  %-10s %6zu\n", phase.c_str(), runs);
  }
  std::printf("verified LUT rewrites: %zu z-path + %zu feedback + %zu MUX (beta)\n",
              plain.lut1.size(), plain.feedback.size(), plain.mux_patches);

  // ...the runtime configuration on one thread (probe cache + SIMD-wide
  // bit-sliced batches under the active backend, no pool)...
  const simd::Backend active = simd::active_backend();
  double wall_runtime_1t = 0;
  const AttackResult batched_1t =
      run_once(nullptr, simd::kMaxLanes, &wall_runtime_1t);
  // ...and the full production configuration (cache + batches + pool).
  double wall_runtime = 0;
  const AttackResult cached =
      run_once(&runtime::ThreadPool::global(), simd::kMaxLanes, &wall_runtime);
  std::printf("with probe cache + %s batches: %zu true runs + %zu cache hits\n",
              simd::backend_name(active), cached.oracle_runs, cached.cache_hits);
  std::printf("wall: %.2fs plain, %.2fs batched 1 thread, %.2fs batched %u threads\n",
              wall_plain, wall_runtime_1t, wall_runtime,
              runtime::ThreadPool::global().concurrency());
  bool identical = plain.success && cached.success &&
                   plain.faulty_keystream == cached.faulty_keystream &&
                   plain.secrets.key == cached.secrets.key &&
                   batched_1t.faulty_keystream == cached.faulty_keystream &&
                   batched_1t.oracle_runs == cached.oracle_runs &&
                   plain.oracle_runs == cached.oracle_runs &&
                   plain.cache_hits == cached.cache_hits;

  // The runtime_1t configuration once per usable SIMD backend: the wall
  // clocks are the per-backend perf record, and results_identical covers the
  // whole set — any backend drifting from the scalar reference is a bug, not
  // a perf note.
  struct BackendRun {
    simd::Backend backend;
    double wall = 0;
    AttackResult res;
  };
  std::vector<BackendRun> backend_runs;
  for (const simd::Backend b :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512}) {
    if (!simd::compiled(b) || !simd::host_supports(b)) continue;
    simd::ScopedBackend scoped(b);
    BackendRun run{b, 0, {}};
    run.res = run_once(nullptr, simd::kMaxLanes, &run.wall);
    std::printf("backend %-7s: %.2fs batched 1 thread, %zu true runs + %zu cache hits\n",
                simd::backend_name(b), run.wall, run.res.oracle_runs, run.res.cache_hits);
    identical = identical && run.res.success &&
                run.res.faulty_keystream == plain.faulty_keystream &&
                run.res.secrets.key == plain.secrets.key &&
                run.res.oracle_runs == batched_1t.oracle_runs &&
                run.res.cache_hits == batched_1t.cache_hits &&
                run.res.probe_calls == batched_1t.probe_calls;
    backend_runs.push_back(std::move(run));
  }
  std::printf("scalar/batched results identical: %s\n", identical ? "yes" : "NO (BUG)");

  // The same attack through a mild()-noisy oracle, once per controller: the
  // paper metric must not move, only the separately-reported overhead.  The
  // adaptive controller's entire win is in physical_runs/wall — both gated
  // against the static reference by check_bench_regression.py.
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  const NoisyRun noisy = run_noisy(runtime::ControllerKind::kStatic, mild);
  std::printf("noisy (mild, 3-vote): success %s, %zu logical runs + %zu retries + %zu votes "
              "= %zu physical (%.2fs)\n",
              noisy.res.success ? "yes" : "NO (BUG)", noisy.res.oracle_runs,
              noisy.res.retry_runs, noisy.res.vote_runs, noisy.res.physical_runs, noisy.wall);
  const NoisyRun adaptive = run_noisy(runtime::ControllerKind::kAdaptive, mild);
  std::printf("noisy (mild, adaptive): success %s, %zu logical runs + %zu retries + %zu votes "
              "= %zu physical (%.2fs, %.2fx static)\n",
              adaptive.res.success ? "yes" : "NO (BUG)", adaptive.res.oracle_runs,
              adaptive.res.retry_runs, adaptive.res.vote_runs, adaptive.res.physical_runs,
              adaptive.wall,
              noisy.res.physical_runs > 0
                  ? static_cast<double>(adaptive.res.physical_runs) /
                        static_cast<double>(noisy.res.physical_runs)
                  : 0.0);

  // Noise-level sweep for the adaptive controller: the stopping depth (and
  // with it the physical cost) should track the actual corruption rate.
  struct SweepLevel {
    const char* name;
    double factor;
    NoisyRun run;
  };
  std::vector<SweepLevel> sweep;
  sweep.push_back({"0.5x", 0.5, run_noisy(runtime::ControllerKind::kAdaptive, mild.scaled(0.5))});
  sweep.push_back({"2x", 2.0, run_noisy(runtime::ControllerKind::kAdaptive, mild.scaled(2.0))});
  for (const SweepLevel& s : sweep) {
    std::printf("noise sweep %s (adaptive): success %s, %zu physical (%.2fs)\n", s.name,
                s.run.res.success ? "yes" : "NO (BUG)", s.run.res.physical_runs, s.run.wall);
  }

  // Fleet failover under the deathmatch profile: the single-board control
  // must abort (the profile kills its only board mid-attack) while the
  // 4-board fleet migrates and finishes with the clean run's exact
  // oracle_runs and a balanced physical ledger — both gated by
  // check_bench_regression.py.  Hedging stays off here so the committed
  // entry records the migration replay path, not a hedge rescue; the
  // hedged variant is covered by the smoke gate and tests/test_fleet.cpp.
  const FleetRun fleet_single = run_fleet(1, false);
  std::printf("fleet deathmatch (1 board, control): success %s (abort expected), "
              "%zu lost probes (%.2fs)\n",
              fleet_single.res.success ? "yes (BUG)" : "no", fleet_single.lost_probes,
              fleet_single.wall);
  const FleetRun fleet = run_fleet(4, /*hedge=*/false);
  std::printf("fleet deathmatch (4 boards): success %s, %zu logical + %zu retry "
              "+ %zu vote + %zu migration = %zu physical, %zu migration(s), "
              "%u/%u boards alive (%.2fs)\n",
              fleet.res.success ? "yes" : "NO (BUG)", fleet.res.oracle_runs,
              fleet.res.retry_runs, fleet.res.vote_runs, fleet.res.migration_runs,
              fleet.res.physical_runs, fleet.migrations, fleet.alive, fleet.boards,
              fleet.wall);

  // The arms race (DESIGN.md §4l): the cracker adaptively disambiguates the
  // plain countermeasure's decoys in ~600 probes where the static bound
  // claims C(n-32,32); the response-equalized strengthening forces it to a
  // proof of ambiguity and strictly more probes.
  const CrackRun crack = run_crack(/*equalized=*/false);
  std::printf("cracker (protected): verdict %s, %zu adaptive probes vs static bound "
              "2^%.1f over %zu sites (%.2fs)\n",
              crack.res.unique ? "unique" : "NOT UNIQUE (BUG)", crack.res.oracle_runs,
              crack.res.log2_static_bound, crack.res.unique_sites, crack.wall);
  const CrackRun crack_eq = run_crack(/*equalized=*/true);
  std::printf("cracker (equalized): verdict %s, %zu adaptive probes, residual 2^%.1f "
              "hypotheses (%.2fs)\n",
              crack_eq.res.proven_ambiguous ? "proven ambiguous" : "NOT AMBIGUOUS (BUG)",
              crack_eq.res.oracle_runs, crack_eq.res.log2_hypotheses_final, crack_eq.wall);
  std::printf("\n");

  // The runtime_1t configuration again with the full obs layer on: the delta
  // against runtime_1t is the enabled-mode overhead, and the identical
  // oracle_runs count demonstrates observability does not perturb the attack.
  obs::set_mode(obs::Mode::kAll);
  double wall_obs = 0;
  const AttackResult observed = run_once(nullptr, 64, &wall_obs);
  const size_t trace_events = obs::Tracer::global().event_count();
  std::printf("obs on (trace+metrics): %zu true runs, %zu trace events (%.2fs)\n\n",
              observed.oracle_runs, trace_events, wall_obs);
  if (!g_trace_out.empty()) {
    if (obs::Tracer::global().write(g_trace_out)) {
      std::printf("wrote %s\n", g_trace_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", g_trace_out.c_str());
    }
  }
  if (!g_metrics_out.empty()) {
    const std::string snapshot = obs::MetricsRegistry::global().snapshot().to_json();
    if (std::FILE* f = std::fopen(g_metrics_out.c_str(), "w")) {
      std::fwrite(snapshot.data(), 1, snapshot.size(), f);
      std::fclose(f);
      std::printf("wrote %s\n", g_metrics_out.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", g_metrics_out.c_str());
    }
  }
  obs::set_mode(saved_mode);

  JsonWriter w;
  w.begin_object();
  w.field("bench", "attack_e2e");
  w.field("threads", u64{runtime::ThreadPool::global().concurrency()});
  w.field("backend", simd::backend_name(active));
  w.field("results_identical", identical);
  auto entry = [&w](const std::string& name, const AttackResult& r, double wall,
                    const char* backend) {
    w.key(name).begin_object();
    w.field("wall_seconds", wall)
        .field("oracle_runs", r.oracle_runs)
        .field("cache_hits", r.cache_hits)
        .field("probe_calls", r.probe_calls)
        .field("backend", backend);
    w.end_object();
  };
  entry("plain", plain, wall_plain, "scalar");  // width 1: no bit-slicing at all
  entry("runtime_1t", batched_1t, wall_runtime_1t, simd::backend_name(active));
  entry("runtime", cached, wall_runtime, simd::backend_name(active));
  for (const BackendRun& run : backend_runs) {
    entry(std::string("runtime_1t_") + simd::backend_name(run.backend), run.res, run.wall,
          simd::backend_name(run.backend));
  }
  w.key("obs").begin_object();
  w.field("wall_seconds", wall_obs)
      .field("oracle_runs", observed.oracle_runs)
      .field("cache_hits", observed.cache_hits)
      .field("probe_calls", observed.probe_calls)
      .field("trace_events", u64{trace_events});
  w.end_object();
  auto noisy_entry = [&w](const std::string& name, const NoisyRun& run) {
    w.key(name).begin_object();
    w.field("wall_seconds", run.wall)
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
  noisy_entry("noisy", noisy);
  noisy_entry("noisy_adaptive", adaptive);
  w.key("fleet_deathmatch").begin_object();
  w.field("wall_seconds", fleet.wall)
      .field("success", fleet.res.success)
      .field("single_success", fleet_single.res.success)  // control: must stay false
      .field("boards", u64{fleet.boards})
      .field("alive_boards", u64{fleet.alive})
      .field("oracle_runs", fleet.res.oracle_runs)
      .field("cache_hits", fleet.res.cache_hits)
      .field("probe_calls", fleet.res.probe_calls)
      .field("physical_runs", fleet.res.physical_runs)
      .field("retry_runs", fleet.res.retry_runs)
      .field("vote_runs", fleet.res.vote_runs)
      .field("migration_runs", fleet.res.migration_runs)
      .field("migrations", u64{fleet.migrations})
      .field("quarantines", u64{fleet.quarantines})
      .field("lost_probes", u64{fleet.lost_probes})
      .field("singleton_runs", fleet.singleton_runs);
  w.end_object();
  w.key("cracker").begin_object();
  w.field("wall_seconds", crack.wall)
      .field("unique", crack.res.unique)
      .field("adaptive_probes", crack.res.oracle_runs)
      .field("candidates", crack.res.candidates)
      .field("unique_sites", crack.res.unique_sites)
      .field("log2_static_bound", crack.res.log2_static_bound)
      .field("equalized_wall_seconds", crack_eq.wall)
      .field("equalized_adaptive_probes", crack_eq.res.oracle_runs)
      .field("equalized_proven_ambiguous", crack_eq.res.proven_ambiguous)
      .field("equalized_log2_final", crack_eq.res.log2_hypotheses_final);
  w.end_object();
  w.key("noise_sweep").begin_object();
  auto sweep_entry = [&w](const char* name, const NoisyRun& run) {
    w.key(name).begin_object();
    w.field("wall_seconds", run.wall)
        .field("success", run.res.success)
        .field("oracle_runs", run.res.oracle_runs)
        .field("physical_runs", run.res.physical_runs);
    w.end_object();
  };
  sweep_entry("0.5x", sweep[0].run);
  sweep_entry("1x", adaptive);  // the default profile is the 1x level
  sweep_entry("2x", sweep[1].run);
  w.end_object();
  w.key("phase_oracle_runs").begin_object();
  for (const auto& [phase, runs] : cached.phase_runs) w.field(phase, runs);
  w.end_object();
  w.end_object();
  if (std::FILE* f = std::fopen("BENCH_attack_e2e.json", "w")) {
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_attack_e2e.json\n\n");
  }
}

/// Fast gate for ctest (bench.noisy_smoke): both controllers recover the key
/// through mild noise with identical logical cost, the adaptive one strictly
/// cheaper physically, and zero singleton-straggler runs.  No JSON is
/// written — the committed baseline regenerates only on a full bench run.
int run_noisy_smoke() {
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kOff);  // run_noisy switches to kMetrics itself
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  const NoisyRun stat = run_noisy(runtime::ControllerKind::kStatic, mild);
  const NoisyRun adapt = run_noisy(runtime::ControllerKind::kAdaptive, mild);
  obs::set_mode(saved);
  bool ok = true;
  auto check = [&ok](bool cond, const char* what) {
    std::printf("%-48s %s\n", what, cond ? "ok" : "FAIL");
    ok = ok && cond;
  };
  check(stat.res.success, "static: key recovered through mild noise");
  check(adapt.res.success, "adaptive: key recovered through mild noise");
  check(adapt.res.oracle_runs == stat.res.oracle_runs,
        "oracle_runs invariant across controllers");
  check(stat.singleton_runs == 0, "static: no singleton stragglers");
  check(adapt.singleton_runs == 0, "adaptive: no singleton stragglers");
  check(adapt.res.physical_runs < stat.res.physical_runs,
        "adaptive physically cheaper than static");
  std::printf("noisy smoke: %s (static %zu physical, adaptive %zu physical)\n",
              ok ? "PASS" : "FAIL", stat.res.physical_runs, adapt.res.physical_runs);
  return ok ? 0 : 1;
}

/// Fast gate for ctest (bench.fleet_smoke): the deathmatch profile kills the
/// single-board control mid-attack, while the 4-board fleet migrates and
/// finishes with the clean cached run's exact logical cost, a balanced
/// physical ledger, and zero lost probes.  The hedged variant must reach
/// the same logical result, absorbing the death through hedge rescues or
/// migration.  No JSON is written.
int run_fleet_smoke() {
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kOff);  // run_fleet switches to kMetrics itself
  double wall_clean = 0;
  const AttackResult clean = run_once(nullptr, 64, &wall_clean);
  const FleetRun single = run_fleet(1, false);
  const FleetRun fleet = run_fleet(4, /*hedge=*/false);
  const FleetRun hedged = run_fleet(4, /*hedge=*/true);
  obs::set_mode(saved);
  bool ok = true;
  auto check = [&ok](bool cond, const char* what) {
    std::printf("%-48s %s\n", what, cond ? "ok" : "FAIL");
    ok = ok && cond;
  };
  check(!single.res.success && single.res.partial,
        "single board aborts under the death profile");
  check(fleet.res.success, "4-board fleet recovers the key");
  check(fleet.res.oracle_runs == clean.oracle_runs,
        "oracle_runs identical to the clean cached run");
  check(fleet.res.faulty_keystream == clean.faulty_keystream,
        "faulty keystream bit-identical to clean");
  check(fleet.res.physical_runs ==
            fleet.res.oracle_runs + fleet.res.retry_runs + fleet.res.vote_runs +
                fleet.res.migration_runs,
        "ledger: physical = oracle+retry+vote+migration");
  check(fleet.migrations >= 1, "at least one board death migrated");
  check(fleet.lost_probes == 0, "no probes lost to the fleet");
  check(fleet.singleton_runs == 0, "no singleton stragglers");
  check(hedged.res.success && hedged.res.oracle_runs == clean.oracle_runs &&
            hedged.res.faulty_keystream == clean.faulty_keystream,
        "hedged fleet: same logical result");
  check(hedged.migrations + hedged.hedged_wins >= 1,
        "hedged fleet survived via rescue or migration");
  check(hedged.lost_probes == 0, "hedged fleet: no probes lost");
  std::printf("fleet smoke: %s (%u/%u boards alive, %zu migration runs, "
              "%zu hedged wins)\n",
              ok ? "PASS" : "FAIL", fleet.alive, fleet.boards,
              fleet.res.migration_runs, hedged.hedged_wins);
  return ok ? 0 : 1;
}

/// Fast gate for ctest (bench.cracker_smoke): the cracker must uniquely
/// identify the 32 true sources on the plain protected victim in adaptive
/// probes exponentially below the static C(n-32,32) bound, and the
/// response-equalized countermeasure must force a proof of ambiguity at a
/// strictly higher probe cost.  No JSON is written.
int run_cracker_smoke() {
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kOff);
  const CrackRun crack = run_crack(/*equalized=*/false);
  const CrackRun crack_eq = run_crack(/*equalized=*/true);
  obs::set_mode(saved);
  bool ok = true;
  auto check = [&ok](bool cond, const char* what) {
    std::printf("%-48s %s\n", what, cond ? "ok" : "FAIL");
    ok = ok && cond;
  };
  check(crack.res.success && crack.res.unique && !crack.res.proven_ambiguous,
        "protected: unique identification of all 32 sources");
  check(crack.res.oracle_runs > 0 &&
            crack.res.log2_static_bound -
                    std::log2(static_cast<double>(crack.res.oracle_runs)) >
                80,
        "adaptive probes exponentially below the static bound");
  check(crack_eq.res.success && crack_eq.res.proven_ambiguous && !crack_eq.res.unique,
        "equalized: cracker proves residual ambiguity");
  check(crack_eq.res.oracle_runs > crack.res.oracle_runs,
        "equalized countermeasure costs strictly more probes");
  std::printf("cracker smoke: %s (%zu probes vs 2^%.1f static; equalized %zu probes, "
              "2^%.1f residual)\n",
              ok ? "PASS" : "FAIL", crack.res.oracle_runs, crack.res.log2_static_bound,
              crack_eq.res.oracle_runs, crack_eq.res.log2_hypotheses_final);
  return ok ? 0 : 1;
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
  print_cost_breakdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
