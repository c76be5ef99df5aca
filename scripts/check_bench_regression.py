#!/usr/bin/env python3
"""Guard against attack-pipeline and scan-engine wall-clock regressions.

Compares a freshly generated bench JSON against the baseline committed at
the repository root.  Two schemas are understood, keyed on the file's
contents:

* BENCH_attack_e2e.json (written by build/bench/bench_attack_e2e): fails
  when the runtime configuration's wall_seconds regressed by more than the
  threshold, or when the scalar/batched bit-identity flag went false.
  When both files carry the "obs" entry the observability contract is also
  enforced: the obs-on run performs the same oracle work as the clean run,
  and the obs-off runtime_1t stays within 3% of the instrumented baseline.
* BENCH_findlut_scaling.json ("bench": "findlut_scaling", written by
  build/bench/bench_findlut_scaling): fails when any family-sweep row's
  engine and reference match lists diverged (identical=false: the family
  pass against one engine pass per candidate, and on the small rows those
  against Algorithm 1 and the match-by-match contract), or when a row's
  one-pass engine wall-clock regressed by more than the threshold against
  the baseline row with the same (candidates, kib).
* BENCH_service.json ("bench": "service", written by
  build/bench/bench_service): fails when the campaign daemon lost or
  duplicated a job (always enforced), when sustained jobs/s fell below
  1/threshold of the baseline, or when the e2e p99 / protocol round-trip
  p99 latencies regressed past the threshold.  Wall-clock comparisons are
  skipped when fresh and baseline were produced at different scales
  (smoke vs full), and when no baseline exists: none is committed, because
  raw wall numbers do not transfer between machines.  The lost/duplicate
  audit runs either way and still sets the exit code.

Usage:
    scripts/check_bench_regression.py FRESH_JSON [BASELINE_JSON]

BASELINE_JSON defaults to the matching baseline next to this repository's
root.  Exit code 0 = within budget, 1 = regression or malformed input.
"""

import json
import pathlib
import sys

THRESHOLD = 1.25  # fail when fresh wall-clock > 125% of the baseline
# Sub-millisecond scan rows need absolute slack on top of the ratio, or
# scheduler noise on a loaded CI box fails a 100 microsecond measurement.
ABS_SLACK_SECONDS = 0.005

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)


# Retry-overhead budget for the fault-tolerant configuration: the noisy
# attack (mild noise + agreement voting) may spend at most this multiple of
# the clean run's probe calls (what it would reconfigure without the probe
# cache) on physical probe work.
NOISY_OVERHEAD_FACTOR = 3

# The adaptive sequential-test controller's reason to exist is a tighter
# physical-run ceiling on the same noisy board: at most 2x the clean run's
# probe calls where the static 3-vote needs ~2.6x.
ADAPTIVE_OVERHEAD_FACTOR = 2.0

# Disabled-observability guarantee (DESIGN.md §4g): with SBM_OBS off, the
# instrumented runtime_1t configuration may cost at most 3% over the
# committed baseline (plus absolute slack for scheduler noise on short
# runs).  Only enforced when both files carry an "obs" entry, i.e. both
# were produced by an instrumented binary.
OBS_DISABLED_THRESHOLD = 1.03
OBS_ABS_SLACK_SECONDS = 0.15


def check_attack_e2e(fresh, baseline):
    ok = True
    if fresh.get("results_identical") is False:
        print("FAIL: scalar and batched attack results diverged (results_identical=false)")
        ok = False

    for entry in ("runtime", "runtime_1t", "noisy", "noisy_adaptive", "obs",
                  "fleet_deathmatch", "cracker",
                  "runtime_1t_scalar", "runtime_1t_avx2", "runtime_1t_avx512"):
        base = baseline.get(entry, {}).get("wall_seconds")
        new = fresh.get(entry, {}).get("wall_seconds")
        if base is None or new is None:
            # Older baselines predate runtime_1t/noisy and the per-backend
            # entries (which also vary with the build host's ISA); only the
            # entries both files carry are comparable.
            continue
        budget = base * THRESHOLD
        status = "ok" if new <= budget else "REGRESSED"
        print(f"{entry}: {new:.3f}s vs baseline {base:.3f}s (budget {budget:.3f}s) {status}")
        if new > budget:
            ok = False

    # SIMD backend equivalence: every per-backend runtime_1t entry must do
    # exactly the same logical work as the main runtime_1t run — the backend
    # choice is pure wall-clock, never behavioral.
    ref = fresh.get("runtime_1t", {})
    for entry in ("runtime_1t_scalar", "runtime_1t_avx2", "runtime_1t_avx512"):
        run = fresh.get(entry)
        if run is None:
            continue
        for field in ("oracle_runs", "cache_hits", "probe_calls"):
            if ref.get(field) is not None and run.get(field) != ref.get(field):
                print(f"FAIL: {entry}.{field} {run.get(field)} != "
                      f"runtime_1t.{field} {ref.get(field)} (backend changed the attack)")
                ok = False

    for name, factor in (("noisy", NOISY_OVERHEAD_FACTOR),
                         ("noisy_adaptive", ADAPTIVE_OVERHEAD_FACTOR)):
        noisy = fresh.get(name)
        if noisy is None:
            continue  # older baselines predate the adaptive entry
        if noisy.get("success") is not True:
            print(f"FAIL: {name} attack did not recover the key ({name}.success=false)")
            ok = False
        # The paper metric must be noise- and controller-invariant: same
        # logical run count as the clean cached configuration.
        clean_runs = fresh.get("runtime_1t", {}).get("oracle_runs")
        if clean_runs is not None and noisy.get("oracle_runs") != clean_runs:
            print(f"FAIL: {name} oracle_runs {noisy.get('oracle_runs')} != clean "
                  f"{clean_runs} (the paper metric moved under noise)")
            ok = False
        # Retry/vote overhead budget, measured against the clean run's total
        # probe work (runtime_1t's probe calls: cache hits included, so the
        # base is what the run would reconfigure without the cache).  The
        # adaptive controller gets the tight 2x ceiling — that ceiling is the
        # controller's reason to exist.
        probe_work = fresh.get("runtime_1t", {}).get("probe_calls")
        physical = noisy.get("physical_runs")
        if probe_work is not None and physical is not None:
            budget = factor * probe_work
            status = "ok" if physical <= budget else "OVER BUDGET"
            print(f"{name} physical runs: {physical} vs budget {budget:.0f} "
                  f"({factor}x clean {probe_work}) {status}")
            if physical > budget:
                ok = False
        expected = (noisy.get("oracle_runs", 0) + noisy.get("retry_runs", 0)
                    + noisy.get("vote_runs", 0))
        if physical is not None and physical != expected:
            print(f"FAIL: {name} physical_runs {physical} != oracle+retry+vote {expected}")
            ok = False
        # Every probe must ride the wide batch path: a singleton straggler
        # falling back to one-lane reconfiguration is a scheduler bug.
        if noisy.get("singleton_runs", 0) != 0:
            print(f"FAIL: {name} singleton_runs = {noisy.get('singleton_runs')} (must be 0)")
            ok = False

    # Fleet failover contract: the deathmatch profile must keep killing the
    # single-board control (or the scenario proves nothing), the 4-board
    # fleet must finish with the clean run's exact logical cost, and the
    # physical ledger must balance including migration replays.  Lost
    # probes and singleton stragglers are scheduler bugs at any count.
    fleet = fresh.get("fleet_deathmatch")
    if fleet is not None:
        if fleet.get("success") is not True:
            print("FAIL: fleet_deathmatch did not recover the key (fleet.success=false)")
            ok = False
        if fleet.get("single_success") is not False:
            print("FAIL: fleet_deathmatch single-board control survived "
                  "(the death profile lost its teeth)")
            ok = False
        clean_runs = fresh.get("runtime_1t", {}).get("oracle_runs")
        if clean_runs is not None and fleet.get("oracle_runs") != clean_runs:
            print(f"FAIL: fleet_deathmatch oracle_runs {fleet.get('oracle_runs')} != clean "
                  f"{clean_runs} (the paper metric moved under board death)")
            ok = False
        expected = (fleet.get("oracle_runs", 0) + fleet.get("retry_runs", 0)
                    + fleet.get("vote_runs", 0) + fleet.get("migration_runs", 0))
        physical = fleet.get("physical_runs")
        if physical is not None and physical != expected:
            print(f"FAIL: fleet_deathmatch physical_runs {physical} != "
                  f"oracle+retry+vote+migration {expected}")
            ok = False
        for field in ("lost_probes", "singleton_runs"):
            if fleet.get(field, 0) != 0:
                print(f"FAIL: fleet_deathmatch {field} = {fleet.get(field)} (must be 0)")
                ok = False
        if fleet.get("migrations", 0) < 1:
            print("FAIL: fleet_deathmatch recorded no migration (board 0 never died?)")
            ok = False

    # Countermeasure-cracker contract (DESIGN.md §4l): the adaptive cracker
    # must uniquely identify the true sources in exponentially fewer probes
    # than the static C(n-32,32) bound the defender advertises, and the
    # response-equalized strengthening must both survive (proof of ambiguity,
    # no unique identification) and cost strictly more adaptive probes.
    cracker = fresh.get("cracker")
    if cracker is not None:
        import math
        if cracker.get("unique") is not True:
            print("FAIL: cracker did not uniquely identify the protected "
                  "victim's sources (cracker.unique=false)")
            ok = False
        probes = cracker.get("adaptive_probes", 0)
        bound = cracker.get("log2_static_bound", 0)
        if probes <= 0 or bound - math.log2(probes) <= 80:
            print(f"FAIL: cracker adaptive_probes {probes} not exponentially "
                  f"below the static bound 2^{bound:.1f}")
            ok = False
        else:
            print(f"cracker: {probes} adaptive probes vs static bound "
                  f"2^{bound:.1f} ok")
        eq_probes = cracker.get("equalized_adaptive_probes", 0)
        if eq_probes <= probes:
            print(f"FAIL: equalized countermeasure did not raise the adaptive "
                  f"probe cost ({eq_probes} <= {probes})")
            ok = False
        else:
            print(f"cracker equalized: {eq_probes} adaptive probes "
                  f"(> plain {probes}) ok")
        if cracker.get("equalized_proven_ambiguous") is not True:
            print("FAIL: equalized countermeasure was not proven ambiguous "
                  "(the strengthening lost its teeth)")
            ok = False

    adaptive = fresh.get("noisy_adaptive")
    static = fresh.get("noisy")
    if adaptive is not None and static is not None:
        # The adaptive controller must beat the static vote on the same
        # board, in both physical probe work and wall clock.
        if adaptive.get("physical_runs", 0) >= static.get("physical_runs", 1 << 62):
            print(f"FAIL: adaptive physical_runs {adaptive.get('physical_runs')} not below "
                  f"static {static.get('physical_runs')}")
            ok = False
        a_wall, s_wall = adaptive.get("wall_seconds"), static.get("wall_seconds")
        if a_wall is not None and s_wall is not None:
            status = "ok" if a_wall < s_wall else "REGRESSED"
            print(f"noisy_adaptive wall: {a_wall:.3f}s vs static noisy {s_wall:.3f}s {status}")
            if a_wall >= s_wall:
                ok = False

    # The noise-level sweep is informational for cost, but the attack must
    # come through every level it reports.
    for level, run in sorted(fresh.get("noise_sweep", {}).items()):
        if run.get("success") is not True:
            print(f"FAIL: noise_sweep[{level}] did not recover the key")
            ok = False

    obs = fresh.get("obs")
    if obs is not None:
        # Observability must never change logical behaviour: the traced run
        # performs exactly the same oracle work as the clean cached run.
        clean_runs = fresh.get("runtime_1t", {}).get("oracle_runs")
        if clean_runs is not None and obs.get("oracle_runs") != clean_runs:
            print(f"FAIL: obs-on oracle_runs {obs.get('oracle_runs')} != clean "
                  f"{clean_runs} (tracing changed the attack's logical work)")
            ok = False
        if obs.get("trace_events", 0) <= 0:
            print("FAIL: obs-on run recorded no trace events")
            ok = False
    if obs is not None and baseline.get("obs") is not None:
        # Disabled-mode overhead guarantee: runtime_1t runs with the layer
        # off, so against an instrumented baseline it gets the tight budget.
        base = baseline.get("runtime_1t", {}).get("wall_seconds")
        new = fresh.get("runtime_1t", {}).get("wall_seconds")
        if base is not None and new is not None:
            budget = base * OBS_DISABLED_THRESHOLD + OBS_ABS_SLACK_SECONDS
            status = "ok" if new <= budget else "REGRESSED"
            print(f"obs-disabled runtime_1t: {new:.3f}s vs baseline {base:.3f}s "
                  f"(tight budget {budget:.3f}s) {status}")
            if new > budget:
                ok = False
    return ok


def check_findlut_scaling(fresh, baseline):
    ok = True
    base_rows = {
        (row.get("candidates"), row.get("kib")): row
        for row in baseline.get("family_sweep", [])
    }
    for row in fresh.get("family_sweep", []):
        key = (row.get("candidates"), row.get("kib"))
        label = f"{key[0]} candidates x {key[1]} KiB"
        if row.get("identical") is not True:
            print(f"FAIL: {label}: engine and reference match lists diverged")
            ok = False
        base = base_rows.get(key)
        new = row.get("engine_seconds")
        if base is None or new is None:
            # Rows only present on one side are informational, not comparable.
            continue
        base_wall = base.get("engine_seconds")
        if base_wall is None:
            continue
        budget = base_wall * THRESHOLD + ABS_SLACK_SECONDS
        status = "ok" if new <= budget else "REGRESSED"
        speedup = row.get("speedup")
        extra = (f", {speedup:.1f}x over one pass per candidate"
                 if isinstance(speedup, (int, float)) else "")
        print(f"{label}: engine {new:.4f}s vs baseline {base_wall:.4f}s "
              f"(budget {budget:.4f}s){extra} {status}")
        if new > budget:
            ok = False
        # Index compile time (once per family per campaign) gets the same
        # ratio + absolute-slack gate; older baselines predate the field.
        base_build = base.get("index_build_seconds")
        new_build = row.get("index_build_seconds")
        if base_build is not None and new_build is not None:
            budget = base_build * THRESHOLD + ABS_SLACK_SECONDS
            status = "ok" if new_build <= budget else "REGRESSED"
            print(f"{label}: index build {new_build:.4f}s vs baseline "
                  f"{base_build:.4f}s (budget {budget:.4f}s) {status}")
            if new_build > budget:
                ok = False
    return ok


# Latency gates on a loaded single-core CI box need absolute slack on top
# of the ratio: the sustained run's tail is scheduler-noise territory and
# the round-trip floor is measured in tens of microseconds.
SERVICE_E2E_SLACK_MS = 250.0
SERVICE_RTT_SLACK_MS = 0.5


def check_service(fresh, baseline):
    ok = True
    sustained = fresh.get("sustained", {})

    # Correctness audit — enforced unconditionally: a lost or duplicated job
    # is a daemon bug at any scale.
    for key in ("lost", "duplicates"):
        if sustained.get(key, 0) != 0:
            print(f"FAIL: sustained.{key} = {sustained.get(key)} (must be 0)")
            ok = False
    if sustained.get("completed") != sustained.get("accepted"):
        print(f"FAIL: completed {sustained.get('completed')} != accepted "
              f"{sustained.get('accepted')}")
        ok = False

    if baseline is None:
        for name in ("sustained jobs/s", "e2e p99", "roundtrip p99"):
            print(f"{name}: skipped (no baseline)")
        return ok

    if fresh.get("smoke") != baseline.get("smoke") or (
            fresh.get("clients") != baseline.get("clients")):
        print("note: fresh and baseline ran at different scales; "
              "skipping throughput/latency comparison")
        return ok

    base_sustained = baseline.get("sustained", {})
    base_jps = base_sustained.get("jobs_per_s")
    new_jps = sustained.get("jobs_per_s")
    if base_jps is not None and new_jps is not None:
        floor = base_jps / THRESHOLD
        status = "ok" if new_jps >= floor else "REGRESSED"
        print(f"sustained jobs/s: {new_jps:.0f} vs baseline {base_jps:.0f} "
              f"(floor {floor:.0f}) {status}")
        if new_jps < floor:
            ok = False

    base_p99 = base_sustained.get("e2e_p99_ms")
    new_p99 = sustained.get("e2e_p99_ms")
    if base_p99 is not None and new_p99 is not None:
        budget = base_p99 * THRESHOLD + SERVICE_E2E_SLACK_MS
        status = "ok" if new_p99 <= budget else "REGRESSED"
        print(f"e2e p99: {new_p99:.1f}ms vs baseline {base_p99:.1f}ms "
              f"(budget {budget:.1f}ms) {status}")
        if new_p99 > budget:
            ok = False

    base_rtt = baseline.get("roundtrip", {}).get("p99_ms")
    new_rtt = fresh.get("roundtrip", {}).get("p99_ms")
    if base_rtt is not None and new_rtt is not None:
        budget = base_rtt * THRESHOLD + SERVICE_RTT_SLACK_MS
        status = "ok" if new_rtt <= budget else "REGRESSED"
        print(f"roundtrip p99: {new_rtt:.3f}ms vs baseline {base_rtt:.3f}ms "
              f"(budget {budget:.3f}ms) {status}")
        if new_rtt > budget:
            ok = False
    return ok


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 1
    fresh = load(argv[1])
    bench = fresh.get("bench")
    if bench == "findlut_scaling":
        default_name, check = "BENCH_findlut_scaling.json", check_findlut_scaling
    elif bench == "service":
        default_name, check = "BENCH_service.json", check_service
    else:
        default_name, check = "BENCH_attack_e2e.json", check_attack_e2e
    default_path = REPO_ROOT / default_name
    if len(argv) == 3:
        baseline = load(argv[2])
    elif bench == "service" and not default_path.exists():
        baseline = None  # check_service runs the audit and skips the comparisons
    else:
        baseline = load(default_path)

    ok = check(fresh, baseline)
    if not ok:
        return 1
    print("bench within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
