#!/usr/bin/env python3
"""Compare benchmark results of a base commit and a change.

    python3 benchmark/compare.py --base A1.json A2.json --change B1.json B2.json

Each file is a results JSON written by a full run of
`python3 benchmark/run.py` (not --smoke). Produce them alternately from the
two checkouts (A, B, A, B, ...) with identical settings, so host drift hits
both sides alike. Every file must have the same seed and scale, so every
file measures the same inputs.

The samples are rounds: a full run's repetitions cycle through the seed's
sub-seeds, and each complete cycle is one round, valued at its mean over the
sub-seeds (see run.py). Every round measures the same inputs, so rounds
differ only by host noise and a simulated metric reads the same in every
round. Round j of base file i is paired with round j of change file i.

For every (workload, end-to-end metric) it prints each side's median and
quartiles, the change/base ratio with its base, the pair record, and a
verdict:

  identical     every round equal on both sides (simulated metrics of code
                that does not change outcomes)
  better        >= 10 pairs, the change wins >= 9/10 of them (ties count for
                neither) and the medians differ by more than the base's
                interquartile range
  worse         the change's median is worse than the base's by more than the
                metric's BENCHMARK.json bound (a share of the base median)
  unresolved    either side's spread (IQR / median) exceeds the bound, unless
                every change round reads better than every base round
  within-bound  none of the above: no worse than the bound allows (read the
                ratio for how far it moved)

Per-layer metrics have no bound; they are listed with their ratios only.
Exits 1 when any verdict is "worse", 2 when the files are not comparable.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import fmt, load_spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths):
    docs = [json.loads(Path(p).read_text()) for p in paths]
    for p, d in zip(paths, docs):
        if not d.get("correct", False):
            print(f"warning: {p} failed its oracles: {d.get('oracle_failures')}")
    return docs


def samples(docs, workload, metric):
    """Every round of every file, in file order."""
    out = []
    for d in docs:
        w = d["workloads"].get(workload)
        if w:
            out += w["end_to_end"][metric]["rounds"]
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    q1, q3 = quartiles(values)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, change, better, bound):
    """Returns (verdict, wins, losses, pairs) for one metric."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) < 0)
    losses = sum(1 for b, c in pairs if sign * (c - b) > 0)
    if len(set(base + change)) == 1:
        return "identical", wins, losses, len(pairs)
    b_med, c_med = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    improved = sign * (c_med - b_med) < 0
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and improved and abs(c_med - b_med) > q3 - q1):
        return "better", wins, losses, len(pairs)
    worse_share = sign * (c_med - b_med) / abs(b_med) if b_med else 0.0
    if worse_share > bound:
        return "worse", wins, losses, len(pairs)
    all_better = all(sign * (c - b) < 0 for c in change for b in base)
    if max(spread(base), spread(change)) > bound and not all_better:
        return "unresolved", wins, losses, len(pairs)
    return "within-bound", wins, losses, len(pairs)


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--base", nargs="+", required=True, help="base results JSONs")
    p.add_argument("--change", nargs="+", required=True, help="change results JSONs")
    args = p.parse_args()
    spec = load_spec()
    base, change = load(args.base), load(args.change)
    inputs = {(d["seed"], d["scale"]) for d in base + change}
    if len(inputs) != 1:
        print(f"error: the files measure different inputs (seed, scale): {sorted(inputs)}")
        return 2

    workloads = [w["name"] for w in spec["workloads"]
                 if any(w["name"] in d["workloads"] for d in base)
                 and any(w["name"] in d["workloads"] for d in change)]
    worse = 0
    for w in workloads:
        print(f"\n== {w} ==")
        print(f"  {'metric':20s} {'base median':>12s} {'[q1 .. q3]':>25s}"
              f" {'change median':>14s} {'[q1 .. q3]':>25s} {'ratio':>9s}"
              f" {'w/l/pairs':>10s}  verdict")
        for m in spec["end_to_end"]:
            b = samples(base, w, m["name"])
            c = samples(change, w, m["name"])
            if not b or not c:
                print(f"  {m['name']:20s} no complete rounds")
                continue
            v, wins, losses, pairs = verdict(b, c, m["better"], m["bound"])
            worse += v == "worse"
            b_med, c_med = statistics.median(b), statistics.median(c)
            bq, cq = quartiles(b), quartiles(c)
            ratio = f"{c_med / b_med:.4f}" if b_med else "n/a"
            print(f"  {m['name']:20s} {fmt(b_med):>12s} "
                  f"{'[' + fmt(bq[0]) + ' .. ' + fmt(bq[1]) + ']':>25s} "
                  f"{fmt(c_med):>14s} "
                  f"{'[' + fmt(cq[0]) + ' .. ' + fmt(cq[1]) + ']':>25s} "
                  f"{ratio:>9s} {f'{wins}/{losses}/{pairs}':>10s}  {v}"
                  f"  (base {fmt(b_med)} {m['unit']}, bound {m['bound']:.0%})")
        print("  per layer (no bound): base -> change, ratio of base")
        for m in spec["per_layer"]:
            bv = [d["workloads"][w]["per_layer"][m["name"]] for d in base
                  if d["workloads"].get(w, {}).get("per_layer")]
            cv = [d["workloads"][w]["per_layer"][m["name"]] for d in change
                  if d["workloads"].get(w, {}).get("per_layer")]
            if not bv or not cv:
                continue
            b_med, c_med = statistics.median(bv), statistics.median(cv)
            ratio = f"x{c_med / b_med:.4f}" if b_med else "n/a"
            print(f"    {m['name']:34s} {fmt(b_med):>12s} -> {fmt(c_med):<12s}"
                  f" {ratio} of base {fmt(b_med)} {m['unit']}")
    print(f"\n{worse} metric(s) worse beyond their bound")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
