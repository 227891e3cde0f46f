#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON file emitted by src/obs/trace.cpp.

Checks the wire shape (traceEvents array of complete "X" duration
events; displayTimeUnit), the field invariants the tracer guarantees
(nonnegative microsecond timestamps and durations, pid pinned to 1,
small dense thread ids, short names), and the structural property that makes the file loadable in a
flame viewer: within each thread id, spans form a proper nesting — a
span either contains a later span entirely or ends before it starts,
never a partial overlap. CI runs this on the trace the bench-smoke
golden-ladder sweep writes via SHHPASS_TRACE (stdlib only, no pip
installs).

Usage: validate_trace_json.py PATH [--require-stages] [--min-events N]
  --require-stages  require every canonical Fig.-1 stage name to appear
                    among cat == "stage" spans (use on workloads known
                    to reach the PR test, e.g. passive golden ladders)
  --require-kernel NAME
                    require a cat == "kernel" span named NAME nested in
                    a "prerequisites" stage span (repeatable; kernel
                    spans are sampled only at n >= 32, so run a workload
                    with an item of at least that order)
  --min-events N    require at least N trace events (default 1)
  --min-margin-spans N
                    require at least N "margin" stage spans (analyses
                    that requested a margin; default 0)
Exit status 0 when the file conforms, 1 with a diagnostic otherwise.
"""

import argparse
import json
import sys

PIPELINE_STAGES = [
    "prerequisites",
    "build-phi",
    "impulse-deflation",
    "nondynamic-removal",
    "m1-extraction",
    "proper-part",
    "pr-test",
]

# Stage spans that only appear when a request asks for them (the margin
# bisection of AnalysisRequest::marginTol); never required by
# --require-stages.
OPTIONAL_STAGES = ["margin"]

# Sub-microsecond slack for boundary comparisons: timestamps are written
# with three decimals (nanosecond resolution), so 2e-3 us absorbs the
# rounding of both endpoints without masking any real overlap.
EPS = 2e-3


def fail(msg):
    print(f"validate_trace_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_nesting(tid, events):
    """Spans on one thread must nest like a call stack."""
    # Parent-first order: by start time, widest span first on ties.
    order = sorted(events, key=lambda e: (e["ts"], -e["dur"]))
    stack = []  # (end, name)
    for e in order:
        start, end = e["ts"], e["ts"] + e["dur"]
        while stack and start >= stack[-1][0] - EPS:
            stack.pop()
        if stack:
            parent_end, parent_name = stack[-1]
            require(end <= parent_end + EPS,
                    f"tid {tid}: span '{e['name']}' [{start:.3f}, {end:.3f}] "
                    f"partially overlaps enclosing '{parent_name}' "
                    f"(ends {parent_end:.3f}) — spans must nest")
        stack.append((end, e["name"]))


def nested_in_stage(span, stages):
    """True when `span` lies inside one of `stages` on its own thread."""
    start, end = span["ts"], span["ts"] + span["dur"]
    return any(s["tid"] == span["tid"] and s["ts"] - EPS <= start
               and end <= s["ts"] + s["dur"] + EPS for s in stages)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    parser.add_argument("--require-stages", action="store_true")
    parser.add_argument("--min-events", type=int, default=1)
    parser.add_argument("--min-margin-spans", type=int, default=0)
    parser.add_argument("--require-kernel", action="append", default=[],
                        metavar="NAME")
    args = parser.parse_args()

    with open(args.path, encoding="utf-8") as f:
        doc = json.load(f)

    require(isinstance(doc, dict), "root must be an object")
    require(doc.get("displayTimeUnit") == "ms",
            f"displayTimeUnit must be 'ms', got {doc.get('displayTimeUnit')!r}")
    events = doc.get("traceEvents")
    require(isinstance(events, list), "traceEvents must be an array")
    require(len(events) >= args.min_events,
            f"only {len(events)} trace events, expected >= {args.min_events}")

    by_tid = {}
    stage_names = set()
    margin_spans = 0
    cats = set()
    for i, e in enumerate(events):
        ctx = f"traceEvents[{i}]"
        require(isinstance(e, dict), f"{ctx}: must be an object")
        require(isinstance(e.get("name"), str) and 0 < len(e["name"]) <= 64,
                f"{ctx}: 'name' must be a short non-empty string")
        require(isinstance(e.get("cat"), str) and e["cat"],
                f"{ctx}: 'cat' must be a non-empty string")
        require(e.get("ph") == "X",
                f"{ctx}: ph must be 'X' (complete event), got {e.get('ph')!r}")
        for key in ("ts", "dur"):
            require(isinstance(e.get(key), (int, float))
                    and not isinstance(e[key], bool) and e[key] >= 0,
                    f"{ctx}: '{key}' must be a nonnegative number")
        require(e.get("pid") == 1, f"{ctx}: pid must be 1, got {e.get('pid')!r}")
        require(isinstance(e.get("tid"), int) and 0 <= e["tid"] <= 100000,
                f"{ctx}: tid must be a small nonnegative int, "
                f"got {e.get('tid')!r}")
        argsv = e.get("args", {})
        require(isinstance(argsv, dict), f"{ctx}: 'args' must be an object")
        cats.add(e["cat"])
        if e["cat"] == "stage":
            stage_names.add(e["name"])
            margin_spans += e["name"] == "margin"
        by_tid.setdefault(e["tid"], []).append(e)

    for tid, tid_events in sorted(by_tid.items()):
        check_nesting(tid, tid_events)

    unknown = stage_names - set(PIPELINE_STAGES) - set(OPTIONAL_STAGES)
    require(not unknown,
            f"stage spans with non-canonical names: {sorted(unknown)}")
    if args.require_stages:
        missing = [s for s in PIPELINE_STAGES if s not in stage_names]
        require(not missing,
                f"canonical stages missing from the trace: {missing}")
    prerequisites = [e for e in events
                     if e["cat"] == "stage" and e["name"] == "prerequisites"]
    for name in args.require_kernel:
        require(any(e["cat"] == "kernel" and e["name"] == name
                    and nested_in_stage(e, prerequisites) for e in events),
                f"no '{name}' kernel span inside a prerequisites stage span")
    require(margin_spans >= args.min_margin_spans,
            f"only {margin_spans} margin stage spans, expected >= "
            f"{args.min_margin_spans}")

    print(f"validate_trace_json: OK: {args.path} ({len(events)} events, "
          f"{len(by_tid)} threads, cats {sorted(cats)}, "
          f"{len(stage_names & set(PIPELINE_STAGES))}/{len(PIPELINE_STAGES)} "
          f"stages, {margin_spans} margin spans)")


if __name__ == "__main__":
    main()
