#!/usr/bin/env python3
"""Schema validation for BENCH_hook_latency.json.

The benchmark gate hand-renders this file from shell and Rust (the repo
vendors no serde/JSON library), so this validator is the only thing that
catches a malformed splice before it is committed. Checks:

  * the file parses as JSON;
  * every section the gate writes is present;
  * the gate block records every threshold the gate script enforces;
  * the working_set_64 block records the pre-removal warm-cache median
    and the DFA hook p50 satisfies the gate's max_hook_p50_ns;
  * the smp block has every scenario with per-thread-count percentiles,
    and a scaling_efficiency exactly when available_parallelism covers
    max_threads;
  * the sds block has a point per swept rate plus the two values the
    gate checks (speedup_at_100k, warm_impact), and each recorded value
    satisfies the threshold the gate block records for it;
  * the fleet block has a fold-cost point per swept instance count plus
    the scraped/idle warm-hook pair, and the recorded warm_impact
    satisfies the gate's max_fleet_warm_impact;
  * the profile_compile block has every bulk/lazy median plus the
    normalised parallel floor, and the recorded speedup and cold-attach
    fraction satisfy the thresholds recorded for them;
  * every numeric leaf in the whole document is finite (a NaN/Infinity
    ratio means a benchmark div-by-zero went unnoticed).

Usage: python3 scripts/validate_bench_json.py [BENCH_hook_latency.json]
Exits non-zero with one line per problem.
"""

import json
import math
import sys

TOP_LEVEL_KEYS = [
    "bench",
    "policy_rules",
    "single_path",
    "working_set_64",
    "rule_sweep",
    "apparmor_profile_table",
    "profile_compile",
    "tracing",
    "smp",
    "sds",
    "fleet",
    "gate",
]

# Must match the thresholds scripts/bench_gate.sh enforces.
GATE_KEYS = [
    "max_hook_p50_ns",
    "min_dfa_speedup_1k",
    "max_dfa_degradation",
    "min_aa_dfa_speedup",
    "min_incr_recompile_speedup",
    "min_parallel_compile_speedup",
    "max_cold_attach_fraction",
    "max_trace_overhead",
    "min_smp_efficiency",
    "min_sds_speedup",
    "max_sds_warm_impact",
    "max_fleet_warm_impact",
]

SMP_SCENARIOS = ["hook", "reload_racing"]

WORKING_SET_KEYS = [
    "dfa_median_ns",
    "scan_median_ns",
    "dfa_speedup",
    "pre_removal_warm_cache_median_ns",
]
SMP_POINT_KEYS = ["p50_ns", "p90_ns", "p99_ns", "ops_per_sec"]

SDS_POINT_KEYS = ["batch", "sync_eps", "batched_eps", "speedup"]

FLEET_POINT_KEYS = ["fold_ns", "fold_per_instance_ns"]

PROFILE_COMPILE_KEYS = [
    "rules_per_profile",
    "bulk_serial_100_median_ns",
    "bulk_parallel_100_median_ns",
    "bulk_serial_1000_median_ns",
    "bulk_parallel_1000_median_ns",
    "bulk_serial_10000_median_ns",
    "bulk_parallel_10000_median_ns",
    "parallel_speedup_1k",
    "cores",
    "enforced_min_parallel_speedup",
    "lazy_load_1000_median_ns",
    "cold_attach_1000_median_ns",
    "cold_attach_fraction",
]


def walk_numbers(node, path, problems):
    """Recursively checks every numeric leaf for finiteness."""
    if isinstance(node, bool):
        return
    if isinstance(node, (int, float)):
        if not math.isfinite(node):
            problems.append(f"{path}: non-finite value {node!r}")
    elif isinstance(node, dict):
        for key, value in node.items():
            walk_numbers(value, f"{path}.{key}", problems)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            walk_numbers(value, f"{path}[{i}]", problems)


def validate(doc):
    problems = []
    for key in TOP_LEVEL_KEYS:
        if key not in doc:
            problems.append(f"missing top-level section {key!r}")

    gate = doc.get("gate", {})
    for key in GATE_KEYS:
        if key not in gate:
            problems.append(f"gate block missing threshold {key!r}")

    wset = doc.get("working_set_64", {})
    if wset:
        for key in WORKING_SET_KEYS:
            if key not in wset:
                problems.append(f"working_set_64 block missing {key!r}")
        p50 = wset.get("dfa_median_ns")
        max_p50 = gate.get("max_hook_p50_ns")
        if isinstance(p50, (int, float)) and isinstance(max_p50, (int, float)):
            if p50 > max_p50:
                problems.append(
                    f"working_set_64.dfa_median_ns {p50} violates gate.max_hook_p50_ns {max_p50}"
                )

    smp = doc.get("smp", {})
    if smp:
        for key in ["available_parallelism", "thread_counts", "iters_per_thread", "max_threads"]:
            if key not in smp:
                problems.append(f"smp block missing {key!r}")
        threads = smp.get("thread_counts", [])
        if not threads:
            problems.append("smp.thread_counts is empty")
        scenarios = smp.get("scenarios", {})
        for name in SMP_SCENARIOS:
            block = scenarios.get(name)
            if block is None:
                problems.append(f"smp.scenarios missing {name!r}")
                continue
            # A scaling ratio is only meaningful when every thread can run
            # on its own core; the sweep omits it otherwise.
            parallel = smp.get("available_parallelism", 0) >= smp.get("max_threads", 0)
            if parallel and "scaling_efficiency" not in block:
                problems.append(f"smp.scenarios.{name} missing scaling_efficiency")
            if not parallel and "scaling_efficiency" in block:
                problems.append(
                    f"smp.scenarios.{name} records scaling_efficiency on an "
                    f"oversubscribed host (available_parallelism < max_threads)"
                )
            for t in threads:
                point = block.get(f"t{t}")
                if point is None:
                    problems.append(f"smp.scenarios.{name} missing t{t}")
                    continue
                for key in SMP_POINT_KEYS:
                    if key not in point:
                        problems.append(f"smp.scenarios.{name}.t{t} missing {key!r}")

    pc = doc.get("profile_compile", {})
    if pc:
        for key in PROFILE_COMPILE_KEYS:
            if key not in pc:
                problems.append(f"profile_compile block missing {key!r}")
        # Recorded measurements must satisfy the thresholds the gate block
        # records (the gate exempts single-core hosts from the parallel
        # floor by recording enforced_min_parallel_speedup = 0).
        speedup = pc.get("parallel_speedup_1k")
        enforced = pc.get("enforced_min_parallel_speedup")
        if isinstance(speedup, (int, float)) and isinstance(enforced, (int, float)):
            if speedup < enforced:
                problems.append(
                    f"profile_compile.parallel_speedup_1k {speedup} violates "
                    f"enforced_min_parallel_speedup {enforced}"
                )
        configured = gate.get("min_parallel_compile_speedup")
        if isinstance(enforced, (int, float)) and isinstance(configured, (int, float)):
            if enforced > configured:
                problems.append(
                    f"profile_compile.enforced_min_parallel_speedup {enforced} exceeds "
                    f"gate.min_parallel_compile_speedup {configured}"
                )
        fraction = pc.get("cold_attach_fraction")
        max_fraction = gate.get("max_cold_attach_fraction")
        if isinstance(fraction, (int, float)) and isinstance(max_fraction, (int, float)):
            if fraction > max_fraction:
                problems.append(
                    f"profile_compile.cold_attach_fraction {fraction} violates "
                    f"gate.max_cold_attach_fraction {max_fraction}"
                )

    sds = doc.get("sds", {})
    if sds:
        for key in [
            "events_per_point",
            "rates",
            "points",
            "speedup_at_100k",
            "warm_base_p50_ns",
            "warm_plane_p50_ns",
            "warm_impact",
        ]:
            if key not in sds:
                problems.append(f"sds block missing {key!r}")
        rates = sds.get("rates", [])
        if not rates:
            problems.append("sds.rates is empty")
        if 100000 not in rates:
            problems.append("sds.rates does not include the gated 100000 events/sec point")
        points = sds.get("points", {})
        for rate in rates:
            point = points.get(f"r{rate}")
            if point is None:
                problems.append(f"sds.points missing r{rate}")
                continue
            for key in SDS_POINT_KEYS:
                if key not in point:
                    problems.append(f"sds.points.r{rate} missing {key!r}")
        # The recorded measurements must satisfy the thresholds the gate
        # block itself records — a committed file that fails its own gate
        # means the gate script did not actually run.
        speedup = sds.get("speedup_at_100k")
        min_speedup = gate.get("min_sds_speedup")
        if isinstance(speedup, (int, float)) and isinstance(min_speedup, (int, float)):
            if speedup < min_speedup:
                problems.append(
                    f"sds.speedup_at_100k {speedup} violates gate.min_sds_speedup {min_speedup}"
                )
        impact = sds.get("warm_impact")
        max_impact = gate.get("max_sds_warm_impact")
        if isinstance(impact, (int, float)) and isinstance(max_impact, (int, float)):
            if impact > max_impact:
                problems.append(
                    f"sds.warm_impact {impact} violates gate.max_sds_warm_impact {max_impact}"
                )

    fleet = doc.get("fleet", {})
    if fleet:
        for key in [
            "instance_counts",
            "points",
            "warm_base_p50_ns",
            "warm_scraped_p50_ns",
            "warm_impact",
        ]:
            if key not in fleet:
                problems.append(f"fleet block missing {key!r}")
        counts = fleet.get("instance_counts", [])
        if not counts:
            problems.append("fleet.instance_counts is empty")
        points = fleet.get("points", {})
        for count in counts:
            point = points.get(f"i{count}")
            if point is None:
                problems.append(f"fleet.points missing i{count}")
                continue
            for key in FLEET_POINT_KEYS:
                if key not in point:
                    problems.append(f"fleet.points.i{count} missing {key!r}")
        impact = fleet.get("warm_impact")
        max_impact = gate.get("max_fleet_warm_impact")
        if isinstance(impact, (int, float)) and isinstance(max_impact, (int, float)):
            if impact > max_impact:
                problems.append(
                    f"fleet.warm_impact {impact} violates gate.max_fleet_warm_impact {max_impact}"
                )

    walk_numbers(doc, "$", problems)
    return problems


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_hook_latency.json"
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"validate_bench_json: {path}: {e}", file=sys.stderr)
        return 1
    problems = validate(doc)
    for problem in problems:
        print(f"validate_bench_json: {path}: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"validate_bench_json: {path}: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
