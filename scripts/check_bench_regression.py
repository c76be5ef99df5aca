#!/usr/bin/env python3
"""Compare a fresh bench JSON with its committed baseline.

Each bench binary owns every contract that needs no baseline (exact counts,
ledger balance, verdicts, findlut's `identical` rows, the service's job
audit) and exits 1 when one fails.  This script owns only the comparisons
against the committed baseline, BENCH_<bench>.json at the repository root:

* completeness: every entry, field and row of the baseline must be present
  in the fresh run, so a run that stops emitting one fails instead of
  passing silently;
* wall ratios: each value under `wall_ratios` divides two walls measured in
  the same process, timed in interleaved repeats (lower is better), and
  may exceed the baseline's by at most THRESHOLD.  Raw wall seconds are
  never compared: they do not carry across machines.

The SIMD-path ratios move with the instruction set, so a baseline holds for
the backend it was taken under; a run under another backend fails and asks
for a baseline regenerated with it.

Usage:
    scripts/check_bench_regression.py FRESH_JSON [BASELINE_JSON]

BASELINE_JSON defaults to BENCH_<bench>.json at the repository root.
Exit code 0 = within budget, 1 = regression, missing entry or malformed input.
"""

import json
import pathlib
import sys

THRESHOLD = 1.20  # fail when a fresh wall ratio > 120% of the baseline's

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(1)


def missing(baseline, fresh, path="<root>"):
    """Paths of the entries, fields and rows of `baseline` absent from `fresh`."""
    if isinstance(baseline, dict):
        if not isinstance(fresh, dict):
            return [path]
        return [p for key, value in baseline.items()
                for p in ([f"{path}.{key}"] if key not in fresh
                          else missing(value, fresh[key], f"{path}.{key}"))]
    if isinstance(baseline, list):
        if not isinstance(fresh, list):
            return [path]
        return [f"{path}[{i}]" for i in range(len(fresh), len(baseline))] + [
            p for i, (b, f) in enumerate(zip(baseline, fresh))
            for p in missing(b, f, f"{path}[{i}]")]
    return []


def check(fresh, baseline):
    ok = True
    if fresh.get("backend") != baseline.get("backend"):
        print(f"FAIL: the baseline was taken under the {baseline.get('backend')} backend, "
              f"this run under {fresh.get('backend')}; regenerate the baseline with it")
        ok = False
    for path in missing(baseline, fresh):
        print(f"FAIL: {path} is in the baseline but not in the fresh run")
        ok = False
    ratios = fresh.get("wall_ratios", {})
    for name, base in sorted(baseline.get("wall_ratios", {}).items()):
        new = ratios.get(name)
        if new is None:
            continue  # reported as missing above
        budget = base * THRESHOLD
        status = "ok" if new <= budget else "REGRESSED"
        print(f"{name}: {new:.3f} vs baseline {base:.3f} (budget {budget:.3f}) {status}")
        ok = ok and new <= budget
    return ok


def main(argv):
    if len(argv) < 2 or len(argv) > 3:
        print(__doc__, file=sys.stderr)
        return 1
    fresh = load(argv[1])
    baseline = load(argv[2] if len(argv) == 3
                    else REPO_ROOT / f"BENCH_{fresh.get('bench')}.json")
    if not check(fresh, baseline):
        return 1
    print("bench within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
