"""Self-tests of the benchmark (run from the repository root):

    python3 -B -m unittest discover -s perfbench

SeedTest builds krakperf and runs it four times (about a minute).
"""

import json
import math
import re
import subprocess
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def span(span_id, parent, name, start_us, end_us):
    return {"name": name, "ts": start_us, "dur": end_us - start_us,
            "args": {"id": span_id, "parent": parent}}


class LedgerTest(unittest.TestCase):
    # workload [0, 100] -> partition.multilevel [10, 40] -> core.store_save [15, 25]
    #                   -> simapp.run [50, 90]            (sibling of the first child)
    EVENTS = [
        span(0, -1, "workload", 0, 100e6),
        span(1, 0, "partition.multilevel", 10e6, 40e6),
        span(2, 1, "core.store_save", 15e6, 25e6),
        span(3, 0, "simapp.run", 50e6, 90e6),
    ]

    def test_self_time_subtracts_children_only(self):
        self.assertEqual(run.self_times(self.EVENTS), [
            ("workload", 30.0), ("partition.multilevel", 20.0),
            ("core.store_save", 10.0), ("simapp.run", 40.0)])

    def test_layers_and_other_add_up_to_the_wall(self):
        totals, walls = run.ledger(self.EVENTS)
        wall = walls["trace.wall_s"]
        self.assertEqual(wall, 100.0)
        self.assertEqual(totals["partition.multilevel_s"], 20.0)
        self.assertEqual(totals["core.store_save_s"], 10.0)
        self.assertEqual(totals["simapp.run_s"], 40.0)
        self.assertEqual(totals["other_s"], 30.0)  # the root's own time
        self.assertEqual(totals["partition.rcb_s"], 0.0)
        self.assertEqual(sum(totals.values()), wall)

    def test_spans_outside_the_layers_fall_into_other(self):
        events = self.EVENTS + [span(4, 3, "scenario", 60e6, 70e6)]
        totals, walls = run.ledger(events)
        self.assertEqual(totals["simapp.run_s"], 30.0)
        self.assertEqual(totals["other_s"], 40.0)
        self.assertEqual(sum(totals.values()), walls["trace.wall_s"])

    def test_phase_walls_are_the_root_children(self):
        events = [span(0, -1, "workload", 0, 100e6), span(1, 0, "setup", 0, 30e6),
                  span(2, 1, "core.calibrate", 5e6, 25e6), span(3, 0, "run", 30e6, 95e6),
                  span(4, 3, "simapp.run", 40e6, 90e6)]
        totals, walls = run.ledger(events)
        self.assertEqual(walls, {"trace.wall_s": 100.0, "trace.setup_s": 30.0, "trace.run_s": 65.0})
        self.assertEqual(totals["core.calibrate_s"], 20.0)
        self.assertEqual(totals["simapp.run_s"], 50.0)
        self.assertEqual(totals["other_s"], 30.0)

    def test_a_trace_needs_exactly_one_root(self):
        with self.assertRaises(run.BenchError):
            run.ledger(self.EVENTS + [span(4, -1, "workload", 100e6, 110e6)])


class ReferenceCheckTest(unittest.TestCase):
    def setUp(self):
        with open(run.HERE / "reference.json") as handle:
            self.reference = json.load(handle)

    def test_reference_values_pass(self):
        for label, values in self.reference["ops"].items():
            self.assertEqual(run.reference_mismatches(label, dict(values), self.reference), [])

    def test_one_ulp_change_is_rejected(self):
        label = "table6_general/large/512pe/general-homogeneous"
        for field in ("measured_s", "predicted_s"):
            values = dict(self.reference["ops"][label])
            values[field] = math.nextafter(values[field], math.inf)
            self.assertEqual(run.reference_mismatches(label, values, self.reference), [field])

    def test_one_ulp_change_inside_a_list_is_rejected(self):
        values = dict(self.reference["ops"]["large_100k"])
        phases = list(values["phase_mean_s"])
        phases[3] = math.nextafter(phases[3], -math.inf)
        values["phase_mean_s"] = phases
        self.assertEqual(run.reference_mismatches("large_100k", values, self.reference),
                         ["phase_mean_s"])

    def test_changed_count_missing_field_and_unknown_op_are_rejected(self):
        values = dict(self.reference["ops"]["large_100k"])
        values["events"] += 1
        del values["gathers"]
        self.assertEqual(run.reference_mismatches("large_100k", values, self.reference),
                         ["events", "gathers"])
        self.assertEqual(run.reference_mismatches("no/such/op", {}, self.reference),
                         ["no reference for this operation"])


class MetricNameTest(unittest.TestCase):
    def setUp(self):
        self.spec = run.benchmark_spec()

    def test_every_name_matches_the_pattern(self):
        spec_names = [w["name"] for w in self.spec["workloads"]]
        spec_names += [m["name"] for m in self.spec["end_to_end"] + self.spec["per_layer"]]
        self.assertEqual(len(spec_names), len(set(spec_names)))
        for name in spec_names + list(run.COUNTS.values()):
            self.assertRegex(name, METRIC_NAME)

    def test_every_per_layer_metric_has_a_source(self):
        per_layer = {m["name"] for m in self.spec["per_layer"]}
        self.assertEqual(set(run.LAYERS), per_layer)
        derived = {"sim.events_per_s", "other_s", "trace.wall_s", "trace.setup_s", "trace.run_s",
                   "trace.overhead_s"}
        self.assertEqual(set(run.SPAN_METRICS) | set(run.COUNTS) | derived, per_layer)

    def test_workloads_match(self):
        self.assertEqual(tuple(w["name"] for w in self.spec["workloads"]), run.WORKLOADS)


class SeedTest(unittest.TestCase):
    """Two workload seeds give different partitions and noise at equal scenario counts."""

    @classmethod
    def setUpClass(cls):
        directory = run.build_dir()
        cls.binary = run.build(directory)
        cls.out = directory / "selftest"
        cls.out.mkdir(parents=True, exist_ok=True)

    def ops(self, workload, seed):
        record_path = self.out / f"{workload}-{seed}.json"
        subprocess.run([str(self.binary), "--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--out", str(record_path),
                        "--tmp", str(self.out / "tmp")], check=True, stdout=subprocess.DEVNULL)
        with open(record_path) as handle:
            record = json.load(handle)
        self.assertEqual(record["failed"], 0)
        return {op["label"]: op["values"] for op in record["ops"]}

    def test_seeds_change_partitions_at_equal_scenario_counts(self):
        first, second = self.ops("validate_cold", 1), self.ops("validate_cold", 2)
        self.assertEqual(list(first), list(second))
        self.assertEqual(len(first), 15)
        # Mesh-specific predictions depend on the partition and not on noise.
        table5 = [label for label in first if label.startswith("table5_meshspecific/")]
        self.assertEqual(len(table5), 6)
        for label in table5:
            self.assertNotEqual(first[label]["predicted_s"], second[label]["predicted_s"], label)
        for label in first:
            self.assertNotEqual(first[label]["measured_s"], second[label]["measured_s"], label)

    def test_seeds_change_noise(self):
        # RCB ignores the seed, so only the noise seed can move the makespan.
        first, second = self.ops("replay_sharded", 1), self.ops("replay_sharded", 2)
        self.assertEqual(list(first), ["large_100k"])
        self.assertEqual(first["large_100k"]["events"], second["large_100k"]["events"])
        self.assertNotEqual(first["large_100k"]["makespan_s"], second["large_100k"]["makespan_s"])


if __name__ == "__main__":
    unittest.main()
