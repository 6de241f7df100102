#!/usr/bin/env python3
"""Self-test for check_bench_json.py's federation-scaling and
sharded-storm gates.

Feeds the checker synthetic BENCH_federation_scaling.json files: a
well-formed one must pass, and each file broken in one way the gate
exists to catch must fail with an error naming that fault. The
throughput replay's sharded_storm rows are checked one row at a time.

Usage: check_bench_json_test.py   (registered as CTest tools.check_bench_json)
"""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import check_bench_json  # noqa: E402


def scaling_row(venues, mode, gossip_bytes, ratio, hit_rate=0.93):
    ops = venues * 8
    return {
        "schema_version": 1,
        "wall_ms": 12.5,
        "section": "flat_scaling",
        "venues": venues,
        "mode": mode,
        "operations": ops,
        "hit_rate": hit_rate,
        "p50_ms": 40.0,
        "p99_ms": 310.5,
        "peer_probes": 150,
        "peer_hits": 120,
        "summary_frames": 4000,
        "gossip_bytes": gossip_bytes,
        "bytes_ratio_vs_full": ratio,
        "drained": ops,
        "events_per_sec": 1.5e6,
        "ns_per_op": 2.0e4,
    }


def well_formed_doc():
    return {
        "bench": "federation_scaling",
        "rows": [
            scaling_row(16, "full", 11_000_000, 1.0),
            scaling_row(16, "delta", 320_000, 34.4),
            scaling_row(64, "full", 180_000_000, 1.0),
            scaling_row(64, "delta", 5_300_000, 34.0),
            {
                "schema_version": 1,
                "wall_ms": 80.0,
                "section": "flat_determinism",
                "venues": 64,
                "mode": "delta",
                "workers_compared": 4,
                "outcomes_compared": 512,
                "outcome_mismatch": 0,
            },
        ],
    }


def find_row(doc, section, venues=None, mode=None):
    for row in doc["rows"]:
        if (
            row.get("section") == section
            and (venues is None or row.get("venues") == venues)
            and (mode is None or row.get("mode") == mode)
        ):
            return row
    raise KeyError((section, venues, mode))


class FederationScalingGateTest(unittest.TestCase):
    def setUp(self):
        self.dir = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.dir.cleanup()

    def check(self, doc):
        path = os.path.join(self.dir.name, "BENCH_federation_scaling.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f)
        return check_bench_json.check_file(path)

    def assert_rejected(self, doc, needle):
        errors = self.check(doc)
        self.assertTrue(
            any(needle in e for e in errors),
            f"expected an error containing {needle!r}, got {errors!r}",
        )

    def test_well_formed_file_passes(self):
        self.assertEqual(self.check(well_formed_doc()), [])

    def test_undrained_delta_row_fails(self):
        doc = well_formed_doc()
        find_row(doc, "flat_scaling", 64, "delta")["drained"] -= 1
        self.assert_rejected(doc, "did not drain")

    def test_small_byte_ratio_at_64_venues_fails(self):
        doc = well_formed_doc()
        find_row(doc, "flat_scaling", 64, "delta")["bytes_ratio_vs_full"] = 9.5
        self.assert_rejected(doc, "saved only")

    def test_small_byte_ratio_below_64_venues_passes(self):
        doc = well_formed_doc()
        find_row(doc, "flat_scaling", 16, "delta")["bytes_ratio_vs_full"] = 2.0
        self.assertEqual(self.check(doc), [])

    def test_hit_rate_gap_at_64_venues_fails(self):
        doc = well_formed_doc()
        find_row(doc, "flat_scaling", 64, "delta")["hit_rate"] = 0.89
        self.assert_rejected(doc, "strayed")

    def test_nonzero_determinism_mismatch_fails(self):
        doc = well_formed_doc()
        find_row(doc, "flat_determinism")["outcome_mismatch"] = 3
        self.assert_rejected(doc, "diverged")

    def test_missing_determinism_row_fails(self):
        doc = well_formed_doc()
        doc["rows"] = [
            r for r in doc["rows"] if r["section"] != "flat_determinism"
        ]
        self.assert_rejected(doc, "missing flat_determinism row")

    def test_row_without_gossip_bytes_fails(self):
        doc = well_formed_doc()
        find_row(doc, "flat_scaling", 16, "full")["gossip_bytes"] = 0
        self.assert_rejected(doc, "records no gossip bytes")

    def test_missing_delta_partner_fails(self):
        doc = well_formed_doc()
        doc["rows"].remove(find_row(doc, "flat_scaling", 64, "delta"))
        self.assert_rejected(doc, "lack a full/delta pair")


def sharded_storm_row(mode):
    return {
        "schema_version": 1,
        "wall_ms": 30.0,
        "regime": "sharded_storm",
        "operations": 1500,
        "drained": 1500,
        "offered_hz": 1000.0,
        "workers": 4,
        "mode": mode,
        "sync_windows": 9000,
        "cross_shard_messages": 4200,
        "sim_events": 60000,
        "events_per_sec": 2.0e6,
        "ns_per_op": 4.0e4,
    }


class ShardedStormGateTest(unittest.TestCase):
    def errors(self, row):
        errors = []
        check_bench_json.check_sharded_storm_row(0, row, errors)
        return errors

    def test_deterministic_row_passes(self):
        self.assertEqual(self.errors(sharded_storm_row("deterministic")), [])

    def test_any_other_mode_fails(self):
        for mode in ("fast", None):
            errors = self.errors(sharded_storm_row(mode))
            self.assertTrue(
                any("unknown sharded mode" in e for e in errors),
                f"mode {mode!r}: got {errors!r}",
            )


if __name__ == "__main__":
    unittest.main()
