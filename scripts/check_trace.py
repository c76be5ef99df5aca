#!/usr/bin/env python3
"""Validate a Chrome trace_event JSON file (as written by the obs tracer).

Checks, per (pid, tid) track:
  * every event has the required keys (name, ph, ts, pid, tid) with sane
    types; 'X' events also need a non-negative dur;
  * timestamps and durations are non-negative integers;
  * 'X' (complete) spans are properly nested: sorted by (ts, -dur), every
    span must end no later than the enclosing span still open on its track
    (structural balance -- a trial runs on one thread, so its attack
    phases and scans must close inside its campaign/trial span);
  * the file-order event stream of each tid is ts-monotone (the tracer
    emits per-thread buffers in append order).

Accepts either the {"traceEvents": [...]} object form (what the tracer
writes) or a bare JSON array of events.  Exits 0 when the trace is valid,
1 with a diagnostic otherwise.

Usage: check_trace.py TRACE.json [TRACE2.json ...]
"""

import json
import sys

REQUIRED_KEYS = ("name", "ph", "ts", "pid", "tid")
KNOWN_PHASES = {"X", "i", "B", "E", "M", "C"}


def fail(path, message):
    print(f"check_trace: {path}: {message}")
    return False


def load_events(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if isinstance(doc, dict):
        events = doc.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("object form must carry a 'traceEvents' array")
        return events
    if isinstance(doc, list):
        return doc
    raise ValueError("top level must be an object or an array")


def check_event_shape(path, i, e):
    if not isinstance(e, dict):
        return fail(path, f"event {i}: not an object")
    for key in REQUIRED_KEYS:
        if key not in e:
            return fail(path, f"event {i}: missing required key '{key}'")
    if not isinstance(e["name"], str) or not isinstance(e["ph"], str):
        return fail(path, f"event {i}: name/ph must be strings")
    if e["ph"] not in KNOWN_PHASES:
        return fail(path, f"event {i}: unknown phase '{e['ph']}'")
    for key in ("ts", "pid", "tid"):
        if not isinstance(e[key], (int, float)) or isinstance(e[key], bool):
            return fail(path, f"event {i}: '{key}' must be a number")
    if e["ts"] < 0:
        return fail(path, f"event {i}: negative ts {e['ts']}")
    if e["ph"] == "X":
        dur = e.get("dur")
        if not isinstance(dur, (int, float)) or isinstance(dur, bool) or dur < 0:
            return fail(path, f"event {i}: 'X' event needs a non-negative dur")
    if "args" in e and not isinstance(e["args"], dict):
        return fail(path, f"event {i}: args must be an object")
    return True


def check_span_nesting(path, track, spans):
    """spans: list of (ts, dur, name), sorted by (ts, -dur).  Standard
    interval-nesting check with a stack of open end times."""
    stack = []  # (end, name)
    for ts, dur, name in spans:
        end = ts + dur
        while stack and ts >= stack[-1][0]:
            stack.pop()
        if stack and end > stack[-1][0]:
            return fail(
                path,
                f"track {track}: span '{name}' [{ts}, {end}) overlaps but is not "
                f"nested inside '{stack[-1][1]}' (ends {stack[-1][0]})",
            )
        stack.append((end, name))
    return True


def check_file(path):
    try:
        events = load_events(path)
    except (OSError, ValueError, json.JSONDecodeError) as err:
        return fail(path, str(err))

    tracks = {}  # (pid, tid) -> list of spans
    file_order_ts = {}  # (pid, tid) -> last ts seen in file order
    for i, e in enumerate(events):
        if not check_event_shape(path, i, e):
            return False
        key = (e["pid"], e["tid"])
        last = file_order_ts.get(key)
        if last is not None and e["ts"] < last:
            return fail(
                path,
                f"track {key}: event {i} ('{e['name']}') ts {e['ts']} goes "
                f"backwards (previous {last})",
            )
        file_order_ts[key] = e["ts"]
        if e["ph"] == "X":
            tracks.setdefault(key, []).append((e["ts"], e["dur"], e["name"]))

    for track, spans in sorted(tracks.items()):
        spans.sort(key=lambda s: (s[0], -s[1]))
        if not check_span_nesting(path, track, spans):
            return False

    n_spans = sum(len(s) for s in tracks.values())
    print(
        f"check_trace: {path}: OK ({len(events)} events, {n_spans} spans, "
        f"{len(file_order_ts)} tracks)"
    )
    return True


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip())
        return 2
    ok = all([check_file(path) for path in argv[1:]])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
