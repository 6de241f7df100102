#!/usr/bin/env python3
"""Schema check for the BENCH_*.json files the bench binaries emit.

Every bench writes a machine-readable companion to its printed table
(bench/bench_util.h BenchJson); CI uploads them as the perf-trajectory
artifact. A malformed file — missing rows, a row without its wall_ms
stamp, NaN/Infinity smuggled through printf formatting — would silently
poison that trajectory, so the bench-smoke job fails instead.

Usage: check_bench_json.py BENCH_a.json [BENCH_b.json ...]

Checks, per file:
  * parses as strict JSON (NaN / Infinity literals are rejected);
  * top level is an object with a non-empty "bench" string and a
    non-empty "rows" array of objects;
  * every row carries the required keys (schema_version, wall_ms);
  * every row's schema_version is the integer this checker understands
    (bench/bench_util.h kBenchJsonSchemaVersion) — cross-PR trajectory
    tooling keys on it, so an unstamped or mismatched row fails CI;
  * every numeric value in every row is finite;
  * engine cost is per operation: the throughput replay's storm rows and
    the federation bench's flat-scaling rows carry a positive ns_per_op
    next to events_per_sec (events are not a unit of work);
  * bench-specific schemas: the loss sweep's drain invariant, the
    federation bench's scaling contract (every flat-scaling row drains
    with a finite p99 and nonzero gossip bytes; delta gossip >= 10x
    fewer bytes than full at 64+ edges within 3 hit-rate points; a
    1-vs-4-worker determinism row with no mismatch), and — for benches
    that run a traced pass — the per-phase breakdown rows
    (section == "phase_breakdown") exist and are coherent.
"""

import json
import math
import sys

REQUIRED_ROW_KEYS = ("schema_version", "wall_ms")
# Must match bench/bench_util.h kBenchJsonSchemaVersion.
EXPECTED_SCHEMA_VERSION = 1


def check_phase_breakdown_row(i, row, errors):
    """Schema for the per-phase latency rows traced bench runs emit.

    Rows tagged section == "phase_breakdown" reduce one traced run to
    per-phase histograms (src/obs/trace.h); trajectory tooling plots
    them across PRs, so each must name its phase and carry a coherent
    span count and latency triple.
    """
    for key in ("phase", "spans", "mean_us", "p50_us", "p99_us"):
        if key not in row:
            errors.append(f'row {i} lacks phase-breakdown key "{key}"')
    if not isinstance(row.get("phase"), str) or not row.get("phase"):
        errors.append(f"row {i} phase is not a non-empty string")
    spans = row.get("spans")
    if isinstance(spans, int) and spans <= 0:
        errors.append(f"row {i} phase-breakdown has no spans")
    p50, p99 = row.get("p50_us"), row.get("p99_us")
    if (
        isinstance(p50, (int, float))
        and isinstance(p99, (int, float))
        and p50 > p99
    ):
        errors.append(f"row {i} p50_us {p50} exceeds p99_us {p99}")


def check_ns_per_op(i, row, errors):
    """Rows that report engine cost must report it per operation."""
    ns = row.get("ns_per_op")
    if not isinstance(ns, (int, float)) or isinstance(ns, bool) or not ns > 0:
        errors.append(f"row {i} lacks a positive ns_per_op: {ns!r}")


def check_sharded_storm_row(i, row, errors):
    """Schema for the multi-core engine's aggregate rows.

    Conservation is the contract (drained == operations — a sharded run
    that loses or duplicates an operation is a synchronizer bug); the
    wall-clock speedup is intentionally NOT checked, because it depends
    on the host's core count and CI may run single-core.
    """
    for key in (
        "workers",
        "mode",
        "operations",
        "drained",
        "sync_windows",
        "cross_shard_messages",
        "events_per_sec",
    ):
        if key not in row:
            errors.append(f'row {i} lacks sharded-storm key "{key}"')
    if row.get("mode") not in ("deterministic", "fast"):
        errors.append(f"row {i} unknown sharded mode {row.get('mode')!r}")
    workers = row.get("workers")
    if isinstance(workers, int) and workers < 2:
        errors.append(f"row {i} sharded_storm with workers {workers}")
    ops, drained = row.get("operations"), row.get("drained")
    if isinstance(ops, int) and isinstance(drained, int) and drained != ops:
        errors.append(f"row {i} did not drain: {drained} of {ops} operations")


def check_sharded_worker_row(i, row, errors):
    """Schema for the per-worker-thread events/sec rows."""
    for key in ("workers", "worker", "events_fired", "events_per_sec"):
        if key not in row:
            errors.append(f'row {i} lacks sharded-worker key "{key}"')
    worker, workers = row.get("worker"), row.get("workers")
    if (
        isinstance(worker, int)
        and isinstance(workers, int)
        and not 0 <= worker < workers
    ):
        errors.append(f"row {i} worker {worker} outside [0, {workers})")


def check_throughput_replay_row(i, row, errors):
    """Bench-specific schema for BENCH_throughput_replay.json rows."""
    if row.get("section") == "phase_breakdown":
        check_phase_breakdown_row(i, row, errors)
    if row.get("regime") == "sharded_storm":
        check_sharded_storm_row(i, row, errors)
    if row.get("regime") in ("closed-loop", "open-loop", "sharded_storm"):
        check_ns_per_op(i, row, errors)
    if row.get("section") == "sharded_worker":
        check_sharded_worker_row(i, row, errors)
    if (
        row.get("row") == "sharded-determinism"
        and row.get("outcome_mismatch") != 0
    ):
        errors.append(
            f"row {i} sharded replay diverged from single-thread: "
            f"outcome_mismatch {row.get('outcome_mismatch')!r}"
        )


def check_throughput_replay_file(rows, errors):
    """The sharded rows are load-bearing (multi-core scaling trajectory):
    a run without them means the sharded path silently stopped being
    exercised."""
    regimes = {row.get("regime") for row in rows if isinstance(row, dict)}
    if "sharded_storm" not in regimes:
        errors.append("missing sharded_storm rows")
    if not any(
        isinstance(row, dict) and row.get("section") == "sharded_worker"
        for row in rows
    ):
        errors.append("missing per-worker sharded rows")
    if not any(
        isinstance(row, dict) and row.get("row") == "sharded-determinism"
        for row in rows
    ):
        errors.append("missing sharded-determinism row")


def check_loss_sweep_row(i, row, errors):
    """Bench-specific schema for BENCH_loss_sweep.json rows.

    The loss sweep's contract is stronger than well-formedness: every
    row names its loss point, reports a finite tail latency (a hung
    request would surface as a missing/NaN p99), and fully drained —
    drained == operations is the "no run ever hangs" invariant, checked
    here so a silently stuck sweep fails CI rather than shipping a
    truncated trajectory.
    """
    if row.get("section") == "phase_breakdown":
        check_phase_breakdown_row(i, row, errors)
        if "loss_rate" not in row:
            errors.append(f"row {i} phase-breakdown lacks its loss_rate tag")
        return
    for key in ("loss_rate", "p99_ms", "operations", "drained"):
        if key not in row:
            errors.append(f'row {i} lacks loss-sweep key "{key}"')
    loss = row.get("loss_rate")
    if isinstance(loss, (int, float)) and not 0 <= loss < 1:
        errors.append(f"row {i} loss_rate {loss} outside [0, 1)")
    p99 = row.get("p99_ms")
    if not isinstance(p99, (int, float)) or not math.isfinite(p99):
        errors.append(f"row {i} p99_ms is not a finite number: {p99!r}")
    ops, drained = row.get("operations"), row.get("drained")
    if isinstance(ops, int) and isinstance(drained, int) and drained != ops:
        errors.append(f"row {i} did not drain: {drained} of {ops} operations")


# Loss-tail gate: the 1% open-loop p99 may be at most this many times the
# loss-free open-loop p99. Selective chunk recovery measured 1.12x on the
# --quick sweep (1497.9 vs 1343.4 ms) and 1.17x on the full one; a lost
# chunk that again cost a request retry (4 s cloud, 10 s client timeout)
# would put the ratio far above 2.
LOSS_TAIL_FACTOR = 2.0


def check_loss_sweep_file(rows, errors):
    """Cross-row contract for the loss sweep: the 1% open-loop tail stays
    within LOSS_TAIL_FACTOR of the loss-free open-loop tail."""
    open_loop = {
        row.get("loss_rate"): row
        for row in rows
        if isinstance(row, dict) and row.get("regime") == "open-loop"
    }
    clean, lossy = open_loop.get(0.0), open_loop.get(0.01)
    if clean is None or lossy is None:
        errors.append("missing 0% / 1% open-loop rows")
        return
    base, tail = clean.get("p99_ms"), lossy.get("p99_ms")
    if not all(isinstance(v, (int, float)) for v in (base, tail)):
        return  # the row check already reported the malformed p99
    if tail > LOSS_TAIL_FACTOR * base:
        errors.append(
            f"1% loss open-loop p99 {tail:.1f} ms exceeds "
            f"{LOSS_TAIL_FACTOR}x the loss-free p99 {base:.1f} ms"
        )


def check_chaos_soak_row(i, row, errors):
    """Bench-specific schema for BENCH_chaos_soak.json rows.

    Three row shapes share the file: measurement rows (tagged with
    "operations") must have fully drained and can never report more
    goodput-within-deadline than non-error completions; per-heal rows
    (tagged with "recovery_ms") must report a finite recovery time even
    when the hit rate never re-converged (the bench falls back to the
    last affected completion); the determinism row must report zero
    mismatched outcomes across its two identically-seeded runs.
    """
    if "operations" in row:
        ops, drained = row.get("operations"), row.get("drained")
        if isinstance(ops, int) and isinstance(drained, int) and drained != ops:
            errors.append(
                f"row {i} did not drain: {drained} of {ops} operations"
            )
        good, achieved = row.get("goodput"), row.get("achieved")
        if (
            isinstance(good, int)
            and isinstance(achieved, int)
            and good > achieved
        ):
            errors.append(
                f"row {i} goodput {good} exceeds achieved {achieved}"
            )
    if "recovery_ms" in row:
        rec = row.get("recovery_ms")
        if not isinstance(rec, (int, float)) or not math.isfinite(rec):
            errors.append(f"row {i} recovery_ms is not finite: {rec!r}")
    if row.get("row") == "determinism" and row.get("outcome_mismatch") != 0:
        errors.append(
            f"row {i} chaos replay diverged: outcome_mismatch "
            f"{row.get('outcome_mismatch')!r}"
        )


def check_chaos_soak_file(rows, errors):
    """Cross-row contract for the chaos soak: under the 4x flash storm,
    overload control ON must beat OFF on both goodput-within-deadline
    and tail latency — the graceful-degradation stack has to earn its
    keep, not merely exist."""
    by_name = {
        row.get("row"): row for row in rows if isinstance(row, dict)
    }
    on, off = by_name.get("overload-4x-on"), by_name.get("overload-4x-off")
    if on is None or off is None:
        errors.append("missing overload-4x-on/off comparison rows")
        return
    if not on.get("goodput", 0) > off.get("goodput", 0):
        errors.append(
            f"overload control did not improve goodput: on "
            f"{on.get('goodput')!r} vs off {off.get('goodput')!r}"
        )
    if not on.get("p99_ms", math.inf) < off.get("p99_ms", 0):
        errors.append(
            f"overload control did not improve p99: on "
            f"{on.get('p99_ms')!r} vs off {off.get('p99_ms')!r}"
        )


def check_flat_scaling_row(i, row, errors):
    """Schema for the federation bench's flat-gossip scaling rows.

    Rows tagged section == "flat_scaling" carry one full- or delta-gossip
    run at one cluster size: each must name its mode, report a finite
    tail (a stranded open-loop request would surface as a missing/NaN
    p99), record the gossip bytes it paid, and have fully drained — the
    same "no run ever hangs" invariant the loss sweep pins.
    """
    for key in (
        "venues",
        "mode",
        "operations",
        "drained",
        "hit_rate",
        "p50_ms",
        "p99_ms",
        "peer_probes",
        "summary_frames",
        "gossip_bytes",
        "bytes_ratio_vs_full",
    ):
        if key not in row:
            errors.append(f'row {i} lacks flat-scaling key "{key}"')
    if row.get("mode") not in ("full", "delta"):
        errors.append(f"row {i} unknown gossip mode {row.get('mode')!r}")
    check_ns_per_op(i, row, errors)
    p99 = row.get("p99_ms")
    if not isinstance(p99, (int, float)) or not math.isfinite(p99):
        errors.append(f"row {i} p99_ms is not a finite number: {p99!r}")
    gossip = row.get("gossip_bytes")
    if not isinstance(gossip, int) or isinstance(gossip, bool) or gossip <= 0:
        errors.append(f"row {i} records no gossip bytes: {gossip!r}")
    ops, drained = row.get("operations"), row.get("drained")
    if not (isinstance(ops, int) and drained == ops):
        errors.append(f"row {i} did not drain: {drained!r} of {ops!r} operations")


def check_federation_scaling_row(i, row, errors):
    """Bench-specific schema for BENCH_federation_scaling.json rows."""
    if row.get("section") == "flat_scaling":
        check_flat_scaling_row(i, row, errors)
    if (
        row.get("section") == "flat_determinism"
        and row.get("outcome_mismatch") != 0
    ):
        errors.append(
            f"row {i} sharded delta-gossip run diverged from single-thread: "
            f"outcome_mismatch {row.get('outcome_mismatch')!r}"
        )


# Delta gossip must cut wire bytes by at least this factor against full
# gossip at SCALE_VENUES+ edges while staying within HIT_RATE_SLACK of
# full gossip's hit rate — the scaling claim, pinned so a regression
# that quietly re-broadcasts whole summaries (or tanks the hit rate)
# fails CI. The delta rows measure 33-35x and a 0-point gap.
SCALE_VENUES = 64
DELTA_BYTE_RATIO_FLOOR = 10.0
HIT_RATE_SLACK = 0.03


def check_federation_scaling_file(rows, errors):
    """Cross-row contract for the flat-gossip scaling section."""
    pairs = {}
    for row in rows:
        if not isinstance(row, dict) or row.get("section") != "flat_scaling":
            continue
        if isinstance(row.get("venues"), int):
            pairs.setdefault(row["venues"], {})[row.get("mode")] = row
    if not any(v >= SCALE_VENUES for v in pairs):
        errors.append(f"no flat_scaling rows at >= {SCALE_VENUES} venues")
    for venues in sorted(pairs):
        full, delta = pairs[venues].get("full"), pairs[venues].get("delta")
        if full is None or delta is None:
            errors.append(
                f"flat_scaling rows at {venues} venues lack a full/delta pair"
            )
            continue
        if venues < SCALE_VENUES:
            continue
        full_hit, delta_hit = full.get("hit_rate"), delta.get("hit_rate")
        if (
            isinstance(full_hit, (int, float))
            and isinstance(delta_hit, (int, float))
            and abs(full_hit - delta_hit) > HIT_RATE_SLACK
        ):
            errors.append(
                f"delta-gossip hit rate at {venues} venues strayed "
                f"{abs(full_hit - delta_hit):.3f} from full gossip "
                f"(> {HIT_RATE_SLACK})"
            )
        ratio = delta.get("bytes_ratio_vs_full")
        if not isinstance(ratio, (int, float)) or ratio < DELTA_BYTE_RATIO_FLOOR:
            errors.append(
                f"delta gossip at {venues} venues saved only {ratio!r}x "
                f"bytes vs full (floor {DELTA_BYTE_RATIO_FLOOR}x)"
            )
    if not any(
        isinstance(row, dict) and row.get("section") == "flat_determinism"
        for row in rows
    ):
        errors.append("missing flat_determinism row")


# Per-bench row checks, keyed on the top-level "bench" name.
BENCH_ROW_CHECKS = {
    "chaos_soak": check_chaos_soak_row,
    "federation_scaling": check_federation_scaling_row,
    "loss_sweep": check_loss_sweep_row,
    "throughput_replay": check_throughput_replay_row,
}

# Per-bench whole-file checks, run after the row loop with every row in
# hand — for invariants that compare rows against each other.
BENCH_FILE_CHECKS = {
    "chaos_soak": check_chaos_soak_file,
    "federation_scaling": check_federation_scaling_file,
    "loss_sweep": check_loss_sweep_file,
    "throughput_replay": check_throughput_replay_file,
}

# Benches whose traced run must have produced per-phase rows: a missing
# breakdown means tracing silently stopped feeding the trajectory.
PHASE_BREAKDOWN_REQUIRED = ("loss_sweep", "throughput_replay")


def reject_constant(value):
    raise ValueError(f"non-finite JSON constant {value!r}")


def check_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f, parse_constant=reject_constant)
    except (OSError, ValueError) as err:
        return [f"unreadable or invalid JSON: {err}"]

    if not isinstance(doc, dict):
        return ["top level is not an object"]
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        errors.append('missing or empty "bench" name')
    rows = doc.get("rows")
    if not isinstance(rows, list) or not rows:
        errors.append('"rows" is missing or empty')
        return errors

    row_check = BENCH_ROW_CHECKS.get(doc.get("bench"))
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            errors.append(f"row {i} is not an object")
            continue
        if row_check is not None:
            row_check(i, row, errors)
        for key in REQUIRED_ROW_KEYS:
            if key not in row:
                errors.append(f'row {i} lacks required key "{key}"')
        if "schema_version" in row and row["schema_version"] != EXPECTED_SCHEMA_VERSION:
            errors.append(
                f"row {i} schema_version {row['schema_version']!r} != "
                f"expected {EXPECTED_SCHEMA_VERSION}"
            )
        for key, value in row.items():
            if isinstance(value, bool):
                errors.append(f"row {i} key {key!r}: booleans not expected")
            elif isinstance(value, (int, float)) and not math.isfinite(value):
                errors.append(f"row {i} key {key!r}: non-finite value {value}")
            elif value is None:
                errors.append(f"row {i} key {key!r}: null value")
    file_check = BENCH_FILE_CHECKS.get(doc.get("bench"))
    if file_check is not None:
        file_check(rows, errors)
    if doc.get("bench") in PHASE_BREAKDOWN_REQUIRED and not any(
        isinstance(row, dict) and row.get("section") == "phase_breakdown"
        for row in rows
    ):
        errors.append("no phase_breakdown rows — traced bench run missing")
    return errors


def main(argv):
    if len(argv) < 2:
        print("usage: check_bench_json.py BENCH_*.json", file=sys.stderr)
        return 2
    failed = False
    for path in argv[1:]:
        errors = check_file(path)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
