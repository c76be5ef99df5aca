#!/usr/bin/env python3
"""Self-test of check_bench_regression.py on the committed baselines.

For each BENCH_*.json at the repository root: the baseline compared with
itself passes and so does a copy with one wall ratio 10% higher, while a
copy with any one wall ratio 30% higher, any one top-level entry removed or
the last row of any list dropped fails.  Exit code 0 when every case behaves.
"""

import contextlib
import copy
import io
import json
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
import check_bench_regression as checker  # noqa: E402


def cases(baseline):
    """(name, edit of a copy, expected exit code) for one baseline."""
    def scale(name, factor):
        return lambda b: b["wall_ratios"].update({name: b["wall_ratios"][name] * factor})

    ratios = sorted(baseline["wall_ratios"])
    yield "itself", lambda b: None, 0
    yield f"{ratios[0]} x1.1", scale(ratios[0], 1.1), 0
    for name in ratios:
        yield f"{name} x1.3", scale(name, 1.3), 1
    for key, value in baseline.items():
        yield f"without {key}", lambda b, k=key: b.pop(k), 1
        if isinstance(value, list) and value:
            yield f"{key} without its last row", lambda b, k=key: b[k].pop(), 1


def main():
    baselines = sorted(checker.REPO_ROOT.glob("BENCH_*.json"))
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        fresh_path = pathlib.Path(tmp) / "fresh.json"
        for path in baselines:
            baseline = checker.load(path)
            for name, edit, expected in cases(baseline):
                fresh = copy.deepcopy(baseline)
                edit(fresh)
                fresh_path.write_text(json.dumps(fresh))
                with contextlib.redirect_stdout(io.StringIO()):
                    got = checker.main(["check", str(fresh_path), str(path)])
                if got != expected:
                    print(f"FAIL: {path.name} {name}: exit {got}, expected {expected}")
                    failures += 1
    print(f"{len(baselines)} baselines, {failures} failing case(s)")
    return 1 if failures or not baselines else 0


if __name__ == "__main__":
    sys.exit(main())
