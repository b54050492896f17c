#!/usr/bin/env python3
"""The repository benchmark: build krakperf from this checkout and run one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 -B -m unittest discover -s perfbench   # the benchmark's self-tests

Workloads (one caller, closed loop, one fresh process per run):
  validate_cold   Table 5 + Table 6 + the 1024/2048/4096-PE strong-scaling
                  sweep (15 scenarios, 3 iterations) through
                  core::run_validation_campaign with an empty partition store.
  validate_warm   The same 15 scenarios against a store filled in set-up.
  replay_sharded  The 102,400-rank large_100k replay on the sharded engine
                  at 8 shards.

--trace 0 prints the end-to-end metrics (wall_s, setup_s, peak_rss_mb);
--trace 1 runs the operation twice untraced, then set-up and operation once
more with spans around every call into a library layer, and prints the
per-layer ledger, whose layers and `other_s` add up to the traced wall.
Every run checks its outputs: at the reference seed 1 every
measured/predicted/replay value must equal perfbench/reference.json (taken
from BENCH_PR10.json) bit for bit.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The line before it is the run's provenance
(nproc, git SHA and dirty flag, build type, compiler, seed, steal share),
which is not a metric. Build output, the per-run record, the Chrome trace
and the store's private directory all live under $CARGO_TARGET_DIR (default
.bench_build) of the checkout; nothing else in the checkout is written.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import struct
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

sys.dont_write_bytecode = True

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("validate_cold", "validate_warm", "replay_sharded")
RUN_TIMEOUT_S = 170

# Per-layer metrics: where each is measured, the end-to-end metric it
# should move, and the workloads it is large on. Time metrics come from
# the spans of the traced run (self time summed per span name); counts
# come from the record krakperf writes.
LAYERS = {
    "mesh.deck_s": ("span mesh.deck: deck generation", "setup_s, wall_s", "all, small share"),
    "partition.multilevel_s": ("span partition.multilevel: partition::partition_deck (multilevel)",
                               "wall_s", "validate_cold"),
    "partition.fm_moves": ("counter partition.fm.moves", "wall_s", "validate_cold"),
    "partition.fm_passes": ("counter partition.fm.passes", "wall_s", "validate_cold"),
    "partition.ladder_hits": ("counter partition.ladder.hits", "wall_s", "validate_cold"),
    "partition.rcb_s": ("span partition.rcb: partition::partition_deck (RCB)", "setup_s", "replay_sharded"),
    "partition.stats_s": ("span partition.stats: partition::PartitionStats",
                          "wall_s (validate_*), setup_s (replay_sharded)", "all, small share"),
    "core.calibrate_s": ("span core.calibrate: core::calibrate_from_input", "setup_s", "validate_*"),
    "core.store_fill_s": ("span core.store_fill: multilevel partitions saved in set-up",
                          "setup_s", "validate_warm"),
    "core.store_save_s": ("span core.store_save: core::PartitionStore::save", "wall_s", "validate_cold"),
    "core.store_bytes": ("file sizes of the entries saved in the timed phase", "wall_s", "validate_cold"),
    "core.store_load_s": ("span core.store_load: core::PartitionStore::load", "wall_s", "validate_warm"),
    "core.store_hits": ("PartitionStore::counters().hits", "wall_s", "validate_warm"),
    "core.store_rejects": ("PartitionStore::counters().rejects", "wall_s", "none (must be 0)"),
    "core.partition_cache_hits": ("PartitionCache::counters().hits, untraced campaign", "wall_s",
                                  "validate_*"),
    "core.predict_s": ("span core.predict: KrakModel::predict_*", "wall_s", "validate_*, small share"),
    "simapp.run_s": ("span simapp.run: simapp::SimKrak construction and run", "wall_s",
                     "validate_warm, replay_sharded; ~40% of validate_cold"),
    "sim.events": ("SimKrakResult::events_processed", "wall_s", "validate_*, replay_sharded"),
    "sim.events_per_s": ("sim.events / simapp.run_s", "wall_s", "validate_*, replay_sharded"),
    "sim.max_queue_depth": ("SimKrakResult::max_queue_depth", "peak_rss_mb", "replay_sharded"),
    "sim.parallel.epochs": ("counter sim.parallel.epochs", "wall_s", "replay_sharded"),
    "sim.parallel.cross_shard_messages": ("counter sim.parallel.cross_shard_messages", "wall_s",
                                          "replay_sharded"),
    "sim.parallel.barrier_wait_s": ("gauge sim.parallel.barrier_wait_s", "wall_s", "replay_sharded"),
    "sim.parallel.coordinator_s": ("SimKrakResult::coordinator_seconds", "wall_s", "replay_sharded"),
    "sim.parallel.speedup_vs_oracle": ("oracle SimKrak::run wall / sharded wall", "wall_s",
                                       "replay_sharded"),
    "other_s": ("self time of the benchmark's own spans (workload, setup, run, scenario)",
                "wall_s, setup_s", "all, small share"),
    "trace.wall_s": ("duration of the traced root span: set-up + timed operation; the layers and"
                     " other_s add up to it", "wall_s + setup_s", "all"),
    "trace.setup_s": ("duration of the traced set-up span", "setup_s", "all"),
    "trace.run_s": ("duration of the traced timed-operation span", "wall_s", "all"),
    "trace.overhead_s": ("trace.run_s minus the same operation untraced, run just before in the"
                         " same process", "none", "all, small"),
}

# Per-layer metrics that are span self times: span "X" feeds metric "X_s".
SPAN_METRICS = ("mesh.deck_s", "partition.multilevel_s", "partition.rcb_s", "partition.stats_s",
                "core.calibrate_s", "core.store_fill_s", "core.store_save_s", "core.store_load_s",
                "core.predict_s", "simapp.run_s")

# Counts krakperf records under a library name, by per-layer metric.
COUNTS = {
    "partition.fm_moves": "partition.fm.moves",
    "partition.fm_passes": "partition.fm.passes",
    "partition.ladder_hits": "partition.ladder.hits",
    "core.store_bytes": "core.store_bytes",
    "core.store_hits": "core.store_hits",
    "core.store_rejects": "core.store_rejects",
    "core.partition_cache_hits": "core.partition_cache_hits",
    "sim.events": "sim.events",
    "sim.max_queue_depth": "sim.max_queue_depth",
    "sim.parallel.epochs": "sim.parallel.epochs",
    "sim.parallel.cross_shard_messages": "sim.parallel.cross_shard_messages",
    "sim.parallel.barrier_wait_s": "sim.parallel.barrier_wait_s",
    "sim.parallel.coordinator_s": "sim.parallel.coordinator_s",
    "sim.parallel.speedup_vs_oracle": "sim.parallel.speedup_vs_oracle",
}


class BenchError(Exception):
    """The benchmark could not produce a result (no result line is printed)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def benchmark_spec():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(directory):
    """Configure once, then build krakperf; compiler output goes to stderr."""
    if not (ROOT / "src").is_dir():
        raise BenchError(f"no library sources at {ROOT / 'src'}")
    if not (directory / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(directory), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("configuring krakperf failed")
    command = ["cmake", "--build", str(directory), "--target", "krakperf",
               "-j", str(os.cpu_count() or 1)]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("building krakperf failed")
    return directory / "krakperf"


def cpu_jiffies():
    """Aggregate /proc/stat CPU counters (user .. steal)."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return [int(value) for value in fields[1:9]]


def tree_snapshot(skip):
    """(size, mtime) of every file in the checkout outside `skip` and .git."""
    files = {}
    for directory, subdirs, names in os.walk(ROOT):
        here = Path(directory)
        subdirs[:] = [d for d in subdirs if d != ".git" and (here / d) != skip]
        for name in names:
            path = here / name
            stat = path.lstat()
            files[str(path.relative_to(ROOT))] = (stat.st_size, stat.st_mtime_ns)
    return files


def git_provenance():
    """(sha, dirty) of the checkout, or ("unknown", None) outside a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown", None
    env = dict(os.environ, GIT_OPTIONAL_LOCKS="0")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                         text=True, env=env)
    status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                            capture_output=True, text=True, env=env)
    if sha.returncode != 0 or status.returncode != 0:
        return "unknown", None
    return sha.stdout.strip(), bool(status.stdout.strip())


# ------------------------------------------------------------------ checks

def same_bits(a, b):
    """Bit-identical numbers (a one-ULP change is a difference); other values by ==."""
    if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
            and not isinstance(a, bool) and not isinstance(b, bool):
        return struct.pack("<d", float(a)) == struct.pack("<d", float(b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same_bits(x, y) for x, y in zip(a, b))
    return type(a) is type(b) and a == b


def reference_mismatches(label, values, reference):
    """Fields of one operation's outputs that differ from the reference."""
    expected = reference["ops"].get(label)
    if expected is None:
        return ["no reference for this operation"]
    keys = sorted(set(expected) | set(values))
    return [key for key in keys
            if key not in expected or key not in values or not same_bits(values[key], expected[key])]


# ------------------------------------------------------------------ ledger

def self_times(events):
    """Self time of each span (seconds): its duration minus the durations of its children."""
    covered = defaultdict(float)
    for event in events:
        parent = event["args"]["parent"]
        if parent >= 0:
            covered[parent] += event["dur"]
    return [(event["name"], (event["dur"] - covered[event["args"]["id"]]) / 1e6) for event in events]


def ledger(events):
    """Per-layer self time plus the `other_s` residue, which together equal the root span's wall.

    Span "X" counts towards the layer metric "X_s" when that is one of
    SPAN_METRICS, and towards other_s otherwise. Also returns the walls of
    the root and of its "setup" and "run" children.
    """
    roots = [event for event in events if event["args"]["parent"] < 0]
    if len(roots) != 1:
        raise BenchError(f"trace has {len(roots)} root spans, expected 1")
    root = roots[0]["args"]["id"]
    totals = dict.fromkeys(SPAN_METRICS + ("other_s",), 0.0)
    for name, seconds in self_times(events):
        metric = name + "_s"
        totals[metric if metric in SPAN_METRICS else "other_s"] += seconds
    walls = {"trace.wall_s": roots[0]["dur"] / 1e6, "trace.setup_s": 0.0, "trace.run_s": 0.0}
    for event in events:
        if event["args"]["parent"] == root and event["name"] in ("setup", "run"):
            walls[f"trace.{event['name']}_s"] += event["dur"] / 1e6
    return totals, walls


# ------------------------------------------------------------------ run

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def run_workload(args):
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out_dir = build_dir()
    binary = build(out_dir)
    runs = out_dir / "runs"
    tmp = out_dir / "tmp"
    runs.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record_path = runs / f"{stem}.record.json"
    trace_path = runs / f"{args.workload}-seed{args.seed}.trace.json"
    for stale in (record_path, trace_path):
        stale.unlink(missing_ok=True)
    shutil.rmtree(tmp, ignore_errors=True)  # private directories a killed run left behind

    before_tree = tree_snapshot(out_dir.parent)
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--out", str(record_path), "--tmp", str(tmp)]
    if args.trace:
        command += ["--trace", str(trace_path)]
    jiffies_before = cpu_jiffies()
    try:
        completed = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as error:
        raise BenchError(f"krakperf did not finish within {RUN_TIMEOUT_S} s") from error
    jiffies = [after - before for before, after in zip(jiffies_before, cpu_jiffies())]
    if completed.returncode != 0:
        raise BenchError(f"krakperf exited with code {completed.returncode}")
    with open(record_path) as handle:
        record = json.load(handle)

    problems = []  # reasons the run is not correct beyond failed operations
    problems += [f"isolation: {what}" for what in record["isolation_violations"]]
    if tree_snapshot(out_dir.parent) != before_tree:
        problems.append("isolation: the run changed files in the checkout")
    if tmp.exists() and any(tmp.iterdir()):
        problems.append(f"isolation: the private store directory under {tmp} was not removed")

    reference_seed = False
    with open(HERE / "reference.json") as handle:
        reference = json.load(handle)
    failed_ops = 0
    failures = []
    for op in record["ops"]:
        reasons = list(op["failures"])
        if args.seed == reference["seed"]:
            reference_seed = True
            reasons += [f"{field} differs from the reference"
                        for field in reference_mismatches(op["label"], op["values"], reference)]
        if reasons:
            failed_ops += 1
            failures.append({"op": op["label"], "reasons": reasons})

    if args.trace:
        layer_names = [m["name"] for m in spec["per_layer"]]
        with open(trace_path) as handle:
            events = json.load(handle)["traceEvents"]
        values, walls = ledger(events)
        residue = walls["trace.wall_s"] - sum(values.values())
        if abs(residue) > 1e-6 * walls["trace.wall_s"] + 1e-6:
            problems.append(f"ledger: layers + other_s miss the traced wall by {residue} s")
        values.update(walls)
        for metric, name in COUNTS.items():
            values[metric] = record["layers"][name]
        run_s = values["simapp.run_s"]
        values["sim.events_per_s"] = values["sim.events"] / run_s if run_s > 0 else 0.0
        values["trace.overhead_s"] = values["trace.run_s"] - record["untraced_wall_s"]
        names = layer_names
    else:
        values = {"wall_s": statistics.median(record["wall_s"]),
                  "setup_s": statistics.median(record["setup_s"]),
                  "peak_rss_mb": record["peak_rss_mb"]}
        names = [m["name"] for m in spec["end_to_end"]]
    metrics = {}
    for name in names:
        value = values[name]
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite")
            value = 0.0
        metrics[name] = {"value": value, "unit": units[name]}

    sha, dirty = git_provenance()
    total_jiffies = sum(jiffies)
    provenance = {
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "git_dirty": dirty,
        "build_type": record["build_type"],
        "compiler": record["compiler"],
        "seed": args.seed,
        "partition_seed": record["partition_seed"],
        "noise_seed": record["noise_seed"],
        "steal_share": jiffies[7] / total_jiffies if total_jiffies else 0.0,
        "reps": record["reps"],
        "reference_checked": reference_seed,
    }
    result = {"correct": failed_ops == 0 and not problems, "attempted": record["attempted"],
              "failed": failed_ops, "metrics": metrics}
    details = {"provenance": provenance, "result": result, "problems": problems, "failures": failures,
               "record": record_path.name}
    if args.trace:
        details["trace"] = trace_path.name
        details["ledger"] = {name: {"value": values[name], "unit": units[name], "measured_at": LAYERS[name][0],
                                    "moves": LAYERS[name][1], "large_on": LAYERS[name][2]}
                             for name in names}
        for name in names:
            log(f"{name:36s} {values[name]:>16.6g} {units[name]:6s} moves {LAYERS[name][1]}")
    with open(runs / f"{stem}.json", "w") as handle:
        json.dump(details, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for problem in problems:
        log(problem)
    for failure in failures:
        log(f"FAILED {failure['op']}: {'; '.join(failure['reasons'])}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


def main(argv):
    args = parse_args(argv)
    try:
        run_workload(args)
    except (BenchError, OSError, KeyError, ValueError) as error:
        log(f"error: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
