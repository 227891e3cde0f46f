#!/usr/bin/env python3
"""Validate a BENCH_pipeline.json file against the documented schema.

Schema: docs/BENCHMARKS.md (shhpass-bench-pipeline, version 7: version 6
— the staircase deflation-chain health/kernel rows with the >= 1.5x
SVD-chain speedup floor at order 256, the batchThroughput object from
runBatch (decisionMismatches exactly 0; speedup floor
2.0x when the recording machine had >= 8 hardware threads), and the
sweepThroughput object from the parametric-sweep workload
(decisionMismatches again exactly 0) — plus the telemetry surface: every
pipeline stage row carries 'peakBytes' from the memory accountant, and
the observerOverhead object times one analysis at the top ladder order
with all telemetry dark vs forced on; overheadPct must stay below 3% at
order >= 400 (the ISSUE-10 acceptance ceiling) with only a loose sanity
ceiling on short smoke runs). Stdlib only — CI runs this after the
bench smoke job with no pip installs.

Usage: validate_bench_json.py PATH [--expect-order N]...
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


def fail(msg):
    print(f"validate_bench_json: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def require(cond, msg):
    if not cond:
        fail(msg)


def check_number(obj, key, ctx, minimum=None):
    require(key in obj, f"{ctx}: missing key '{key}'")
    value = obj[key]
    require(
        isinstance(value, (int, float)) and not isinstance(value, bool),
        f"{ctx}: '{key}' must be a number, got {type(value).__name__}",
    )
    if minimum is not None:
        require(value >= minimum, f"{ctx}: '{key}' = {value} < {minimum}")
    return value


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("path")
    parser.add_argument(
        "--expect-order",
        type=int,
        action="append",
        default=[],
        help="require a pipeline row at this order (repeatable)",
    )
    args = parser.parse_args()

    with open(args.path, encoding="utf-8") as f:
        doc = json.load(f)

    require(doc.get("schema") == "shhpass-bench-pipeline",
            f"schema must be 'shhpass-bench-pipeline', got {doc.get('schema')!r}")
    require(doc.get("schemaVersion") == 7,
            f"unsupported schemaVersion {doc.get('schemaVersion')!r}")
    require(doc.get("timeUnit") == "seconds",
            f"timeUnit must be 'seconds', got {doc.get('timeUnit')!r}")
    check_number(doc, "gemmThreads", "root", minimum=1)
    check_number(doc, "reps", "root", minimum=1)

    pipeline = doc.get("pipeline")
    require(isinstance(pipeline, list) and pipeline,
            "pipeline must be a non-empty array")
    seen_orders = set()
    for i, row in enumerate(pipeline):
        ctx = f"pipeline[{i}]"
        require(isinstance(row, dict), f"{ctx}: must be an object")
        order = int(check_number(row, "order", ctx, minimum=1))
        seen_orders.add(order)
        check_number(row, "ports", ctx, minimum=1)
        require(isinstance(row.get("passive"), bool),
                f"{ctx}: 'passive' must be a bool")
        check_number(row, "properOrder", ctx, minimum=0)
        total = check_number(row, "totalSeconds", ctx, minimum=0.0)
        stages = row.get("stages")
        require(isinstance(stages, list) and stages,
                f"{ctx}: 'stages' must be a non-empty array")
        stage_sum = 0.0
        peak_max = 0
        names = []
        for j, stage in enumerate(stages):
            sctx = f"{ctx}.stages[{j}]"
            require(isinstance(stage, dict), f"{sctx}: must be an object")
            require(isinstance(stage.get("name"), str) and stage["name"],
                    f"{sctx}: 'name' must be a non-empty string")
            names.append(stage["name"])
            stage_sum += check_number(stage, "seconds", sctx, minimum=0.0)
            peak_max = max(peak_max,
                           check_number(stage, "peakBytes", sctx, minimum=0))
        require(names == PIPELINE_STAGES[: len(names)],
                f"{ctx}: stage names {names} do not follow the Fig.-1 "
                f"pipeline order {PIPELINE_STAGES}")
        # Memory accounting is on for the pipeline rows: at least one
        # stage of every row must have seen a live Matrix allocation.
        require(peak_max > 0,
                f"{ctx}: every stage has peakBytes == 0 — the memory "
                f"accountant was off during the pipeline rows")
        require(abs(stage_sum - total) <= 0.05 * max(total, 1e-9) + 1e-6,
                f"{ctx}: stage seconds sum {stage_sum} != totalSeconds {total}")
        reorder = row.get("reorder")
        require(isinstance(reorder, dict), f"{ctx}: missing 'reorder' object")
        for key in ("swaps", "rejectedSwaps", "maxResidual", "eigenvalueDrift"):
            check_number(reorder, key, f"{ctx}.reorder", minimum=0)
        schur = row.get("schur")
        require(isinstance(schur, dict), f"{ctx}: missing 'schur' object")
        require(isinstance(schur.get("multishift"), bool),
                f"{ctx}.schur: 'multishift' must be a bool")
        for key in ("sweeps", "aedWindows", "aedDeflations", "shiftsApplied",
                    "iterations"):
            check_number(schur, key, f"{ctx}.schur", minimum=0)
        staircase = row.get("staircase")
        require(isinstance(staircase, dict),
                f"{ctx}: missing 'staircase' object")
        for key in ("compressions", "svdFallbacks", "diagonalFastPaths",
                    "qrCompressions", "skewTridiagonalizations",
                    "reusedCompressions", "chainLength", "truncatedSteps"):
            check_number(staircase, key, f"{ctx}.staircase", minimum=0)

    for order in args.expect_order:
        require(order in seen_orders,
                f"pipeline has no row at order {order} (has {sorted(seen_orders)})")

    kernels = doc.get("kernels")
    require(isinstance(kernels, list) and kernels,
            "kernels must be a non-empty array")
    variants = {}
    for i, row in enumerate(kernels):
        ctx = f"kernels[{i}]"
        require(isinstance(row, dict), f"{ctx}: must be an object")
        require(isinstance(row.get("kernel"), str) and row["kernel"],
                f"{ctx}: 'kernel' must be a non-empty string")
        require(isinstance(row.get("variant"), str) and row["variant"],
                f"{ctx}: 'variant' must be a non-empty string")
        check_number(row, "n", ctx, minimum=1)
        check_number(row, "seconds", ctx, minimum=0.0)
        check_number(row, "gflops", ctx, minimum=0.0)
        variants.setdefault(row["kernel"], set()).add(row["variant"])
    require({"reference", "blocked"} <= variants.get("gemm", set()),
            f"kernels must cover gemm reference+blocked, got {variants}")
    require({"unblocked", "blocked"} <= variants.get("svd", set()),
            f"kernels must cover svd unblocked+blocked, got {variants}")
    require({"unblocked", "multishift"} <= variants.get("schur", set()),
            f"kernels must cover schur unblocked+multishift, got {variants}")
    require({"staircase", "svd-chain"} <= variants.get("deflation-chain",
                                                       set()),
            f"kernels must cover deflation-chain staircase+svd-chain, "
            f"got {variants}")

    # Bench-smoke performance floor: the one-pass staircase chain must
    # beat the SVD-chain oracle (tests/svd_chain_oracle.hpp) by at least
    # 1.5x at order 256.
    chain = {row["variant"]: row["seconds"]
             for row in kernels
             if row["kernel"] == "deflation-chain" and row["n"] == 256}
    require({"staircase", "svd-chain"} <= set(chain),
            "deflation-chain kernel rows at n=256 are required")
    require(chain["staircase"] * 1.5 <= chain["svd-chain"],
            f"staircase deflation chain ({chain['staircase']:.4f}s) is not "
            f">= 1.5x faster than the SVD chain ({chain['svd-chain']:.4f}s) "
            f"at order 256")

    # -------------------------------------------- batchThroughput (v5)
    bt = doc.get("batchThroughput")
    require(isinstance(bt, dict), "missing 'batchThroughput' object")
    items = check_number(bt, "items", "batchThroughput", minimum=1)
    orders = bt.get("orders")
    require(isinstance(orders, list) and len(orders) == items,
            "batchThroughput.orders must be an array of length 'items'")
    require(len(set(orders)) >= 2,
            "batchThroughput.orders must mix at least two distinct orders")
    hw = check_number(bt, "hardwareThreads", "batchThroughput", minimum=1)
    for leg in ("sequential", "scheduled"):
        sub = bt.get(leg)
        require(isinstance(sub, dict), f"batchThroughput.{leg} must be an "
                                       f"object")
        check_number(sub, "workers", f"batchThroughput.{leg}", minimum=1)
        check_number(sub, "seconds", f"batchThroughput.{leg}", minimum=0.0)
        check_number(sub, "analysesPerSecond", f"batchThroughput.{leg}",
                     minimum=0.0)
    require(bt["sequential"]["workers"] == 1,
            "batchThroughput.sequential must record exactly 1 worker")
    speedup = check_number(bt, "speedup", "batchThroughput", minimum=0.0)
    mismatches = check_number(bt, "decisionMismatches", "batchThroughput",
                              minimum=0)
    # Determinism is unconditional: scheduled results must decisionEquals
    # the sequential baseline on every machine, every worker count.
    require(mismatches == 0,
            f"batchThroughput.decisionMismatches = {mismatches} != 0 — "
            f"the batch changed a decision")
    # The throughput floor is conditional on the recording machine: >= 2x
    # with >= 8 hardware threads (the acceptance gate), else only a
    # sanity floor that catches a pathological scheduler (overhead must
    # not halve throughput even on a single core).
    if hw >= 8:
        require(speedup >= 2.0,
                f"batchThroughput.speedup = {speedup:.2f} < 2.0 with "
                f"{int(hw)} hardware threads")
    else:
        require(speedup >= 0.5,
                f"batchThroughput.speedup = {speedup:.2f} < 0.5 — scheduler "
                f"overhead is pathological even for {int(hw)} thread(s)")

    # -------------------------------------------- sweepThroughput (v6)
    st = doc.get("sweepThroughput")
    require(isinstance(st, dict), "missing 'sweepThroughput' object")
    points = check_number(st, "points", "sweepThroughput", minimum=64)
    axes = check_number(st, "axes", "sweepThroughput", minimum=1)
    per_axis = check_number(st, "pointsPerAxis", "sweepThroughput", minimum=2)
    require(points == per_axis ** axes,
            f"sweepThroughput.points = {points} != pointsPerAxis^axes = "
            f"{per_axis} ** {axes}")
    check_number(st, "order", "sweepThroughput", minimum=1)
    check_number(st, "passiveCount", "sweepThroughput", minimum=0)
    sweep_hw = check_number(st, "hardwareThreads", "sweepThroughput",
                            minimum=1)
    for leg in ("sequential", "scheduled"):
        sub = st.get(leg)
        require(isinstance(sub, dict), f"sweepThroughput.{leg} must be an "
                                       f"object")
        check_number(sub, "seconds", f"sweepThroughput.{leg}", minimum=0.0)
        check_number(sub, "pointsPerSecond", f"sweepThroughput.{leg}",
                     minimum=0.0)
    require(st["sequential"].get("workers") == 1,
            "sweepThroughput.sequential must record exactly 1 worker")
    sweep_speedup = check_number(st, "speedup", "sweepThroughput",
                                 minimum=0.0)
    sweep_mismatches = check_number(st, "decisionMismatches",
                                    "sweepThroughput", minimum=0)
    # Determinism is unconditional here too: every sweep point's verdict
    # through runBatch must match the sequential baseline.
    require(sweep_mismatches == 0,
            f"sweepThroughput.decisionMismatches = {sweep_mismatches} != 0 "
            f"— the sweep changed a decision under runBatch")
    # Same conditional throughput floor shape as batchThroughput: 1.5x
    # with >= 8 hardware threads (sweep points are smaller than the batch
    # mix, so scheduling overhead weighs more), else a sanity floor only.
    if sweep_hw >= 8:
        require(sweep_speedup >= 1.5,
                f"sweepThroughput.speedup = {sweep_speedup:.2f} < 1.5 with "
                f"{int(sweep_hw)} hardware threads")
    else:
        require(sweep_speedup >= 0.5,
                f"sweepThroughput.speedup = {sweep_speedup:.2f} < 0.5 — "
                f"sweep scheduling overhead is pathological even for "
                f"{int(sweep_hw)} thread(s)")

    # -------------------------------------------- observerOverhead (v7)
    oo = doc.get("observerOverhead")
    require(isinstance(oo, dict), "missing 'observerOverhead' object")
    oo_order = check_number(oo, "order", "observerOverhead", minimum=1)
    require(oo_order in seen_orders,
            f"observerOverhead.order = {int(oo_order)} has no pipeline row")
    check_number(oo, "darkSeconds", "observerOverhead", minimum=0.0)
    check_number(oo, "telemetrySeconds", "observerOverhead", minimum=0.0)
    require("overheadPct" in oo and isinstance(oo["overheadPct"],
                                               (int, float)),
            "observerOverhead: missing numeric 'overheadPct'")
    overhead = oo["overheadPct"]
    # The ISSUE-10 acceptance ceiling: full telemetry (span tracing +
    # memory accounting) must cost < 3% of an order-400+
    # analysis. Short smoke runs (order 100 takes ~10 ms) cannot resolve
    # a 3% delta above timer noise, so they only get a sanity ceiling
    # that still catches a pathological observer.
    ceiling = 3.0 if oo_order >= 400 else 25.0
    require(overhead <= ceiling,
            f"observerOverhead.overheadPct = {overhead:.2f} > {ceiling} "
            f"at order {int(oo_order)} — telemetry is not near-free")

    print(f"validate_bench_json: OK: {args.path} "
          f"({len(pipeline)} pipeline rows, {len(kernels)} kernel rows, "
          f"batch speedup {speedup:.2f}x, sweep {int(points)} points "
          f"{sweep_speedup:.2f}x @ {int(hw)} hw threads, observer "
          f"overhead {overhead:.2f}% @ order {int(oo_order)})")


if __name__ == "__main__":
    main()
