#!/usr/bin/env python3
"""Field-by-field diff of two directories of BENCH_*.json files.

The simulator is deterministic: two builds that model the same system
must print the same simulated numbers, whatever their wall-clock cost.
This tool is the bit-identity check for a refactor — run every bench's
`--quick` path (`ctest -L bench-smoke`; each bench writes its JSON to
the directory it runs in) for the base and the change, then diff:

    python3 tools/diff_bench_sim.py BASE_DIR CHANGE_DIR

Every BENCH_*.json in either directory is compared, except
BENCH_micro.json (wall-clock microbenchmarks only). Rows are compared
in order: a file missing on one side, a differing row count, a
differing key set, or any differing value is reported — except under
the keys in WALL_CLOCK_KEYS, which vary run to run on one build.

Exit status: 0 = identical simulated output, 1 = differences, 2 = usage.

WALL_CLOCK_KEYS is measured, not guessed: it is exactly the set of keys
that differed between two bench-smoke runs of one commit. Re-derive it
after adding a bench with `--no-skip RUN1_DIR RUN2_DIR` on two runs of
the same build.
"""

import json
import os
import sys

WALL_CLOCK_KEYS = frozenset({
    "wall_ms",
    "run_wall_ms",
    "ns_per_op",
    "events_per_sec",
    # Frame-arena recycling in sharded runs depends on which worker
    # thread drops a frame's last reference first.
    "arena_reuses",
})
SKIPPED_FILES = frozenset({"BENCH_micro.json"})


def bench_files(directory):
    return {
        name for name in os.listdir(directory)
        if name.startswith("BENCH_") and name.endswith(".json")
        and name not in SKIPPED_FILES
    }


def row_label(row, index):
    label = row.get("row", row.get("section", ""))
    return f"row {index}" + (f" ({label})" if label != "" else "")


def diff_file(name, a, b, skip):
    """Yields one message per difference between two parsed bench files."""
    for key in sorted(set(a) | set(b)):
        if key != "rows" and a.get(key) != b.get(key):
            yield f"{name}: top-level {key}: {a.get(key)!r} != {b.get(key)!r}"
    rows_a, rows_b = a.get("rows", []), b.get("rows", [])
    if len(rows_a) != len(rows_b):
        yield f"{name}: {len(rows_a)} rows != {len(rows_b)} rows"
        return
    for index, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        where = f"{name}: {row_label(ra, index)}"
        if set(ra) != set(rb):
            only_a = sorted(set(ra) - set(rb))
            only_b = sorted(set(rb) - set(ra))
            yield f"{where}: key sets differ (only A: {only_a}, only B: {only_b})"
            continue
        for key in sorted(ra):
            if key not in skip and ra[key] != rb[key]:
                yield f"{where}: {key}: {ra[key]!r} != {rb[key]!r}"


def main(argv):
    skip = WALL_CLOCK_KEYS
    if argv and argv[0] == "--no-skip":
        skip = frozenset()
        argv = argv[1:]
    if len(argv) != 2 or not all(os.path.isdir(d) for d in argv):
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: diff_bench_sim.py [--no-skip] A_DIR B_DIR",
              file=sys.stderr)
        return 2
    dir_a, dir_b = argv
    files_a, files_b = bench_files(dir_a), bench_files(dir_b)
    diffs = [f"{name}: only in {dir_a if name in files_a else dir_b}"
             for name in sorted(files_a ^ files_b)]
    common = sorted(files_a & files_b)
    for name in common:
        with open(os.path.join(dir_a, name)) as fa, \
                open(os.path.join(dir_b, name)) as fb:
            diffs.extend(diff_file(name, json.load(fa), json.load(fb), skip))
    for line in diffs:
        print(line)
    print(f"{len(common)} files compared, {len(diffs)} differences"
          + ("" if skip else " (no keys skipped)"))
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
