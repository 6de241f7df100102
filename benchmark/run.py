#!/usr/bin/env python3
"""CoIC benchmark: build, run, check and report every workload.

    python3 benchmark/run.py                     # all workloads, 10 reps, seed 7
    python3 benchmark/run.py --seed 11           # the holdout seed for claims
    python3 benchmark/run.py --workload churn_closed --reps 5
    python3 benchmark/run.py --smoke             # 1/20 size, 1 rep, all oracles
    python3 benchmark/run.py --workload mixed_open --seed 3 --seconds 12 --trace 0

The last form is one timed measurement of one workload: it repeats the
workload for at least --seconds and prints, as the last line of standard
output, one JSON object with the end-to-end metrics (--trace 0) or the
per-layer metrics (--trace 1).

Every run builds benchmark/coic_bench into build-bench/ first (a no-op when
up to date). Repetitions run one process at a time; the full run interleaves
them round-robin across workloads so host drift hits every workload alike.

A measurement at seed S replays SUBSEEDS inputs: repetition i runs sub-seed
i mod SUBSEEDS, whose seed is S + 1000 * (i mod SUBSEEDS), so sub-seed 0 is
S itself and every SUBSEEDS consecutive repetitions form a round over the
same inputs. Simulated metrics and counters are deterministic per input;
they are averaged over the sub-seeds, which keeps a metric's spread across
seeds small. A host-time metric takes each input's fastest repetition
(interference on a shared host only ever adds time) and averages those over
the inputs. See benchmark/README.md for every metric, workload and oracle.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / "build-bench"
BINARY = BUILD_DIR / "coic_bench"
WORKLOADS = ["mixed_open", "mixed_open_4w", "churn_closed", "lossy_open"]
SHARD_PAIR = ("mixed_open", "mixed_open_4w")
# The traced pass runs on one worker, so mixed_open_4w's would repeat
# mixed_open's exactly (the digest oracle checks that the outcomes match).
TRACE_SOURCE = {"mixed_open_4w": "mixed_open"}
SUBSEEDS = 5
SUBSEED_STRIDE = 1000
SMOKE_SCALE = 0.05
REP_TIMEOUT_S = 60
BUILD_JOBS = 4

# End-to-end metrics averaged over sub-seeds (deterministic per input),
# host times aggregated by fastest_per_input, and peak RSS (nearly
# deterministic per input) as a mean over repetitions.
SIM_METRICS = ["sim_mean_ms", "sim_p99_ms", "hit_rate", "success_rate",
               "deadline_met_rate"]
HOST_TIME_METRICS = ["ns_per_op", "setup_s"]
RSS_METRIC = "peak_rss_mb"


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build():
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no program sources at {ROOT / 'src'}")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(BUILD_JOBS)])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        output = proc.stdout + proc.stderr
        warnings = [l for l in output.splitlines() if "warning:" in l]
        for line in warnings:
            log(line)
        if proc.returncode != 0:
            log(output[-4000:])
            raise BenchError("build failed: " + " ".join(cmd))


def subseed(seed, k):
    return (seed + SUBSEED_STRIDE * k) % 2**64


def run_rep(workload, base_seed, k, scale, trace=False):
    """Repetition of sub-seed `k` in its own process; returns its JSON line."""
    seed = subseed(base_seed, k)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale)]
    if trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: timed out after {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"{workload} seed {seed}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{workload} seed {seed}: no output")
    rep = json.loads(lines[-1])
    rep["sub"] = k
    return rep


def with_partner(workload):
    """The workload plus its shard-pair partner, which the shard speedup,
    the 4w-vs-1w digest oracle and mixed_open_4w's traced pass need."""
    return list(SHARD_PAIR) if workload in SHARD_PAIR else [workload]


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def by_sub(reps):
    """First repetition of each sub-seed, in sub-seed order."""
    first = {}
    for r in reps:
        first.setdefault(r["sub"], r)
    return [first[k] for k in sorted(first)]


def mean_over_subs(reps, pick):
    return statistics.fmean(pick(r) for r in by_sub(reps))


def fastest_per_input(reps, name):
    """Mean over sub-seeds of each sub-seed's fastest repetition."""
    best = {}
    for r in reps:
        best[r["sub"]] = min(best.get(r["sub"], r[name]), r[name])
    return statistics.fmean(best.values())


def rounds(reps):
    """The complete rounds, in run order. Every round replays the same
    inputs once each, so rounds differ only by host noise."""
    return [reps[i:i + SUBSEEDS] for i in range(0, len(reps) - SUBSEEDS + 1, SUBSEEDS)]


def end_to_end(reps):
    """{name: (value, [value of each round])} for one workload's untraced
    reps. A round's value is its mean over the sub-seeds, so a simulated
    metric reads identical in every round."""
    out = {}
    for name in SIM_METRICS + HOST_TIME_METRICS + [RSS_METRIC]:
        if name in SIM_METRICS:
            pick = lambda r, name=name: r["sim"][name]
            value = mean_over_subs(reps, pick)
        else:
            pick = lambda r, name=name: r[name]
            value = (fastest_per_input(reps, name) if name in HOST_TIME_METRICS
                     else statistics.fmean(map(pick, reps)))
        out[name] = (value, [mean_over_subs(rd, pick) for rd in rounds(reps)])
    return out


def per_layer(reps, traced, e2e, untraced_ns, speedup):
    """Every per-layer metric for one workload. `untraced_ns` is the fastest
    untraced ns_per_op of the traced pass's own input and engine."""
    layer = {}
    for name in reps[0]["counters"]:
        layer[name] = mean_over_subs(reps, lambda r: r["counters"][name])
    layer["render.register_model_ms"] = fastest_per_input(reps, "register_model_ms")
    replay = traced["replay"]
    layer.update(replay)
    layer.update(traced["phases"])
    layer["obs.trace_overhead_pct"] = (traced["ns_per_op"] / untraced_ns - 1) * 100
    layer["netsim.shard_speedup"] = speedup
    replayed_us = (layer["vision.extract_per_op"] * replay["vision.extract_us"]
                   + layer["cache.lookups_per_op"] * replay["cache.lookup_us"]
                   + layer["cache.inserts_per_op"] * replay["cache.insert_us"]
                   + replay["proto.codec_us_per_op"]
                   + layer["netsim.events_per_op"] * replay["netsim.event_ns"] / 1e3)
    layer["core.unattributed_us_per_op"] = e2e["ns_per_op"][0] / 1e3 - replayed_us
    return layer


def check_oracles(workload, reps, traced, partner_reps, smoke):
    """Returns the list of failed oracle descriptions (empty = correct)."""
    failures = []
    passes = reps + ([traced] if traced else [])
    for r in passes:
        if r["drained"] != r["issued"]:
            failures.append(f"{workload}: drained {r['drained']} of {r['issued']}")
        if r["counters"]["common.frame_copies_per_op"] != 0:
            failures.append(f"{workload}: frame copies "
                            f"{r['counters']['common.frame_copies_per_op']} per op")
    digests = {}
    for r in reps:
        digests.setdefault(r["sub"], set()).add(r["digest"])
    for sub, found in digests.items():
        if len(found) != 1:
            failures.append(f"{workload}: sub-seed {sub} digests differ across "
                            f"repetitions: {sorted(found)}")
    if traced:
        if traced["digest"] not in digests.get(traced["sub"], {traced["digest"]}):
            failures.append(f"{workload}: traced digest differs from untraced")
        check = traced["trace_check"]
        if check["spans_evicted"] or check["spans_open"]:
            failures.append(f"{workload}: {check['spans_evicted']} spans evicted, "
                            f"{check['spans_open']} still open")
        if check["span_sum_us"] != check["latency_sum_us"]:
            failures.append(f"{workload}: phase spans sum to {check['span_sum_us']} us "
                            f"but outcome latencies to {check['latency_sum_us']} us")
        phases = traced["phases"]
        for phase, constant in (("edge_lookup", check["edge_lookup_ms"]),
                                ("cache_insert", check["cache_insert_ms"])):
            if phases[f"phase.{phase}.spans_per_op"] == 0:
                continue
            for q in ("p50_ms", "p99_ms"):
                got = phases[f"phase.{phase}.{q}"]
                if got != constant:
                    failures.append(f"{workload}: phase.{phase}.{q} = {got}, "
                                    f"cost model says {constant}")
    for r in partner_reps:
        mine = digests.get(r["sub"])
        if mine and r["digest"] not in mine:
            failures.append(f"{workload}: outcome digest differs from "
                            f"{r['workload']} on sub-seed {r['sub']}")
    if not smoke:
        for r in by_sub(reps):
            if r["sim"]["beyond_p99"] < 10:
                log(f"note: {workload} sub-seed {r['sub']}: only "
                    f"{r['sim']['beyond_p99']} samples beyond p99")
    return failures


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def print_workload(workload, e2e, layer, spec, info):
    print(f"\n== {workload} ==")
    print(f"  {info}")
    print("  end to end" + " " * 30 + "value          rounds: min .. max")
    for m in spec["end_to_end"]:
        value, per_round = e2e[m["name"]]
        span = (f"{fmt(min(per_round))} .. {fmt(max(per_round))}"
                if per_round else "-")
        print(f"    {m['name']:34s} {fmt(value):>12s} {m['unit']:9s}"
              f" {span}  (n={len(per_round)})")
    print("  per layer")
    for m in spec["per_layer"]:
        print(f"    {m['name']:34s} {fmt(layer[m['name']]):>12s} {m['unit']}")


def shard_speedup(all_reps):
    one, four = all_reps.get("mixed_open"), all_reps.get("mixed_open_4w")
    if not one or not four:
        return None
    return fastest_per_input(one, "ns_per_op") / fastest_per_input(four, "ns_per_op")


def summarize(workloads, all_reps, traced, smoke):
    """Aggregates every workload; returns (results, failures). `traced`
    maps each traced workload to its traced repetition; a workload gets
    per-layer metrics when its TRACE_SOURCE was traced."""
    speedup = shard_speedup(all_reps)
    results, failures = {}, []
    for w in workloads:
        reps = all_reps[w]
        source = TRACE_SOURCE.get(w, w)
        trace = traced.get(source)
        partner = []
        if w in SHARD_PAIR:
            partner = all_reps.get(SHARD_PAIR[1] if w == SHARD_PAIR[0] else SHARD_PAIR[0], [])
        failures += check_oracles(w, reps, trace, partner, smoke)
        e2e = end_to_end(reps)
        layer = None
        if trace:
            untraced_ns = min(r["ns_per_op"] for r in all_reps[source]
                              if r["sub"] == trace["sub"])
            layer = per_layer(reps, trace, e2e, untraced_ns,
                              speedup if w in SHARD_PAIR else 1.0)
        results[w] = {"e2e": e2e, "layer": layer, "reps": reps}
    return results, failures


def trace_passes(workloads, seed, scale):
    """One traced repetition (sub-seed 0) per distinct TRACE_SOURCE."""
    traced = {}
    for w in workloads:
        source = TRACE_SOURCE.get(w, w)
        if source not in traced:
            traced[source] = run_rep(source, seed, 0, scale, trace=True)
    return traced


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def timed_measurement(args, spec):
    """One workload for at least --seconds: the benchmark contract's run."""
    workloads = with_partner(args.workload) if args.trace else [args.workload]
    all_reps = {w: [] for w in workloads}
    start = time.monotonic()
    k = 0
    while k < SUBSEEDS or time.monotonic() - start < args.seconds:
        for w in workloads:
            all_reps[w].append(run_rep(w, args.seed, k % SUBSEEDS, 1.0))
        k += 1
    traced = trace_passes([args.workload], args.seed, 1.0) if args.trace else {}
    results, failures = summarize([args.workload], all_reps, traced, smoke=False)
    res = results[args.workload]
    for f in failures:
        log("ORACLE FAILED: " + f)
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": res["layer"][m["name"]], "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": res["e2e"][m["name"]][0], "unit": m["unit"]}
    for name, v in metrics.items():
        print(f"{args.workload} {name} {fmt(v['value'])} {v['unit']}")
    reps = all_reps[args.workload]
    line = {
        "correct": not failures,
        "attempted": sum(r["issued"] for r in reps),
        "failed": sum(r["issued"] - r["drained"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if not failures else 1


def full_run(args, spec):
    workloads = with_partner(args.workload) if args.workload else WORKLOADS
    scale = SMOKE_SCALE if args.smoke else 1.0
    reps = 1 if args.smoke else args.reps
    all_reps = {w: [] for w in workloads}
    start = time.monotonic()
    for i in range(reps):
        for w in workloads:
            all_reps[w].append(run_rep(w, args.seed, i % SUBSEEDS, scale))
        log(f"repetition {i + 1}/{reps} done ({time.monotonic() - start:.0f} s)")
    traced = trace_passes(workloads, args.seed, scale)
    log(f"trace and replay passes done ({time.monotonic() - start:.0f} s)")
    results, failures = summarize(workloads, all_reps, traced, args.smoke)

    subs = sorted({r["sub"] for w in workloads for r in all_reps[w]})
    for w in workloads:
        res = results[w]
        print_workload(w, res["e2e"], res["layer"], spec,
                       f"seed {args.seed}, sub-seeds {[subseed(args.seed, k) for k in subs]}, "
                       f"{len(res['reps'])} reps, scale {scale}, "
                       f"sim_p50_ms {fmt(mean_over_subs(res['reps'], lambda r: r['sim']['sim_p50_ms']))}")
    out = Path(args.out) if args.out else BUILD_DIR / f"results-seed{args.seed}.json"
    doc = {
        "seed": args.seed,
        "scale": scale,
        "reps": reps,
        "cpus": os.cpu_count(),
        "wall_seconds": time.monotonic() - start,
        "correct": not failures,
        "oracle_failures": failures,
        "workloads": {
            w: {
                "end_to_end": {n: {"value": v, "rounds": r}
                               for n, (v, r) in results[w]["e2e"].items()},
                "per_layer": results[w]["layer"],
                "digests": sorted({r["digest"] for r in results[w]["reps"]}),
            } for w in workloads
        },
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nresults: {out}")
    if failures:
        for f in failures:
            print("ORACLE FAILED: " + f)
        return 1
    print(f"all oracles passed ({time.monotonic() - start:.0f} s)")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=7,
                   help="input seed (default 7; 11 is held out for checking claims)")
    p.add_argument("--reps", type=int, default=10, help="repetitions per workload")
    p.add_argument("--smoke", action="store_true",
                   help="every workload at 1/20 size, 1 repetition, all oracles")
    p.add_argument("--seconds", type=float,
                   help="timed measurement of one --workload for at least this long")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="with --seconds: report per-layer (1) or end-to-end (0) metrics")
    p.add_argument("--out", help="results JSON path (full runs)")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if args.seconds is not None and not args.workload:
        p.error("--seconds needs --workload")
    if args.reps < 1:
        p.error("--reps must be at least 1")
    try:
        spec = load_spec()
        build()
        if args.seconds is not None:
            return timed_measurement(args, spec)
        return full_run(args, spec)
    except BenchError as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
