#!/usr/bin/env python3
"""binsense benchmark: end-to-end and per-layer metrics of the Monte Carlo harness.

    python3 bench/run.py --workload sweep-paired --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30

Run from the repository root; binsense is imported from ``src/``.  With
``--trace 0`` the run repeats units of the workload (see workloads.py) on
``WORKERS`` workers for ``--seconds`` and reports the end-to-end metrics
as medians over units, plus the median cold-start set-up time.  Input
set j = i // 2 feeds units i, so every input set runs twice in a row and
its two outputs must be identical bytes.  With ``--trace 1`` each round
runs one input set three times -- untraced on ``WORKERS`` workers,
untraced on one worker, traced on one worker -- and reports the
per-layer metrics from the traced unit; all three outputs must be equal.
``--workload all`` runs every workload both ways and writes
``BENCHMARK.json`` from the tables below.

Every unit's output passes the workload's checks (checks.py).  The last
line of standard output is a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full report, with the
host block and every sample, goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import asdict
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DEFAULT_SEED = 2026
WORKLOAD_NAMES = ("sweep-paired", "m95-onebit", "mle-oracle")
RUN_SECONDS = 30
# Every workload is timed on 2 workers.  On a 2-vCPU virtual machine a
# single busy worker shares its physical core with whatever else the host
# runs there: serial units of the same input varied by 2x between runs,
# against about 5% with both vCPUs busy.  The traced run still times each
# workload on one worker as well (the serial baseline).
WORKERS = 2
COLD_STARTS = 15
POOL_STARTS = 5
SPAN_COST_CALLS = 20_000

# name: (unit, better, bound); every one of these is non-zero on every run
END_TO_END = {
    "run_s": ("s", "lower", 0.25),
    "trials_per_s": ("1/s", "higher", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "setup_s": ("s", "lower", 0.25),
}

# name: (unit, better, the end-to-end metrics it should move and where)
SAMPLER_MOVES = "run_s, trials_per_s, cpu_s on sweep-paired and m95-onebit; no change on mle-oracle"
PER_LAYER = {
    "numerics.sample_gaussian.ns_per_sample": ("ns", "lower", SAMPLER_MOVES),
    "numerics.sample_gaussian.samples": ("count", "lower", SAMPLER_MOVES),
    "numerics.sample_gaussian.trial_share": ("ratio", "lower", SAMPLER_MOVES),
    "numerics.philox_floor.ns_per_sample": (
        "ns", "lower", "none: raw Philox doubles at the sampler's call sizes, the floor it could reach"),
    "model.gen_sensing_matrix.rows": ("count", "lower", "run_s, peak_rss_mb on sweep-paired and m95-onebit"),
    "model.gen_sensing_matrix.self_ms": ("ms", "lower", "run_s, peak_rss_mb on sweep-paired and m95-onebit"),
    "model.measure.us_per_call": ("us", "lower", "run_s (a little) on all"),
    "decode.topk_correlation_decode.us_per_call": ("us", "lower", "run_s, cpu_s on sweep-paired"),
    "decode.quantize_then_decode.us_per_call": ("us", "lower", "run_s, cpu_s on sweep-paired"),
    "decode.mle_decode_linear.us_per_candidate": ("us", "lower", "run_s, trials_per_s on mle-oracle only"),
    "decode.mle_decode_linear.candidates": ("count", "lower", "run_s, trials_per_s on mle-oracle only"),
    "harness.run_trial.ms_p50": ("ms", "lower", "run_s on all"),
    "harness.run_trial.ms_p99": ("ms", "lower", "run_s on all"),
    "harness.run_trial.count": ("count", "lower", "run_s on all"),
    "harness.run_trial.self_frac": (
        "ratio", "lower", "none: trial time outside the traced children (trace quality)"),
    "harness.stage_share.signal": ("ratio", "lower", "none: which stage a trial waits on"),
    "harness.stage_share.matrix": ("ratio", "lower", "none: which stage a trial waits on"),
    "harness.stage_share.noise": ("ratio", "lower", "none: which stage a trial waits on"),
    "harness.stage_share.decode": ("ratio", "lower", "none: which stage a trial waits on"),
    "harness.count_successes.calls": ("count", "lower", "run_s on all, most on m95-onebit and sweep-paired"),
    "harness.pool_startup_ms": ("ms", "lower", "run_s on all, most on m95-onebit and sweep-paired"),
    "harness.parallel_efficiency": ("ratio", "higher", "run_s, cpu_s on sweep-paired and m95-onebit"),
    "cli.import_s": ("s", "lower", "setup_s on all"),
    "cli.import.scipy_s": ("s", "lower", "setup_s on all"),
    "trace.overhead_frac": ("ratio", "lower", "none: the tracer's own cost"),
}

# A fresh interpreter imports the command line and builds the workload's
# config, timing the scipy.special import (numpy excluded) on the way.
COLD_START = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import numpy
t1 = time.perf_counter()
import scipy.special
t2 = time.perf_counter()
import binsense.cli
from binsense import Linear, OneBit, TrialConfig
TrialConfig({model!r}, {n}, {k}, {m}, decoder={decoder!r})
print(time.perf_counter() - t0, t2 - t1)
"""


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _unit(workload, master_seed: int, workers: int) -> dict:
    """Run one unit, time it, and check its output; an exception fails the unit."""
    cpu0, t0 = _cpu_s(), perf_counter()
    try:
        output = workload.run(master_seed, workers)
    except Exception:  # noqa: BLE001 -- a failed unit is counted, not fatal
        return {"output": None, "problems": [traceback.format_exc()],
                "run_s": perf_counter() - t0, "cpu_s": _cpu_s() - cpu0, "trials": 0}
    run_s, cpu_s = perf_counter() - t0, _cpu_s() - cpu0
    return {"output": output, "problems": workload.check(output, master_seed),
            "run_s": run_s, "cpu_s": cpu_s, "trials": workload.trials_run(output)}


def cold_starts(workload, count: int) -> list:
    """(wall s, import s, scipy.special import s) of ``count`` fresh interpreters.

    One start runs first unmeasured, so compiled bytecode is cached as it
    is for any user after the first.
    """
    code = COLD_START.format(
        src=str(SRC), model=workload.model, n=workload.n, k=workload.k,
        m=(workload.bracket or workload.grid)[0], decoder=workload.decoders[0],
    )
    out = []
    for i in range(count + 1):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120, check=True)
        wall = perf_counter() - t0
        if i:
            out.append((wall, *map(float, done.stdout.split())))
    return out


def timed_run(workload, seed: int, seconds: float) -> dict:
    units = []
    start = perf_counter()
    while True:
        index = len(units)
        unit = _unit(workload, workload.master_seed(seed, index // 2), WORKERS)
        if index % 2 and unit["output"] is not None and units[-1]["output"] != unit["output"]:
            unit["problems"].append(f"unit {index} differs from unit {index - 1} on the same inputs")
        units.append(unit)
        if len(units) >= 2 and perf_counter() - start + unit["run_s"] > seconds:
            break
    peak = _peak_rss_mb()
    starts = cold_starts(workload, COLD_STARTS)
    good = [u for u in units if not u["problems"]] or units
    samples = {
        "run_s": [u["run_s"] for u in good],
        "trials_per_s": [u["trials"] / u["run_s"] for u in good],
        "cpu_s": [u["cpu_s"] for u in good],
        "peak_rss_mb": [peak],
        "setup_s": [s[0] for s in starts],
    }
    return {"units": units, "samples": samples}


def _philox_floor_ns(spans) -> float:
    """ns per raw Philox double, drawn at the sampler's own call sizes."""
    from binsense import RngStream

    counts = [s.work for s in spans if s.name == "numerics.sample_gaussian"]
    t0 = perf_counter()
    for i, count in enumerate(counts):
        RngStream(0, i).generator().random(count)
    return (perf_counter() - t0) * 1e9 / sum(counts) if counts else 0.0


def _pool_startup_ms() -> float:
    """Median wall time of starting and joining the harness's process pool."""
    from binsense import harness

    times = []
    for _ in range(POOL_STARTS):
        t0 = perf_counter()
        with harness.ProcessPoolExecutor(max_workers=WORKERS) as pool:
            list(pool.map(abs, range(WORKERS)))
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _span_cost_ns() -> float:
    """ns one traced call costs over a plain call, median of 5 batches of a no-op.

    Times the whole wrapper, including recording the span, with the same
    kind of ``work`` count and trial argument the real targets use.
    """
    from types import SimpleNamespace

    from spans import Target, Tracer

    module = SimpleNamespace(noop=lambda trial, count: None)
    plain = module.noop
    costs = []
    for _ in range(5):
        with Tracer().patched([Target(module, "noop", "noop", lambda _, c: c, 0)]):
            traced = module.noop
        t0 = perf_counter_ns()
        for i in range(SPAN_COST_CALLS):
            plain(i, i)
        t1 = perf_counter_ns()
        for i in range(SPAN_COST_CALLS):
            traced(i, i)
        t2 = perf_counter_ns()
        costs.append(((t2 - t1) - (t1 - t0)) / SPAN_COST_CALLS)
    return statistics.median(costs)


def traced_run(workload, seed: int, seconds: float) -> dict:
    from spans import Tracer, binsense_targets, layer_metrics

    span_cost_ns = _span_cost_ns()
    units, rounds, all_spans = [], [], []
    start = perf_counter()
    while not rounds or perf_counter() - start + sum(u["run_s"] for u in units[-3:]) <= seconds:
        master_seed = workload.master_seed(seed, len(rounds))
        parallel = _unit(workload, master_seed, WORKERS)
        serial = _unit(workload, master_seed, 1)
        tracer = Tracer()
        with tracer.patched(binsense_targets()):
            traced = _unit(workload, master_seed, 1)
        for label, unit in (("1 worker", serial), ("traced", traced)):
            if unit["output"] is not None and unit["output"] != parallel["output"]:
                unit["problems"].append(f"{label} output differs from {WORKERS} workers")
        units += [parallel, serial, traced]
        metrics = layer_metrics(tracer.spans)
        metrics["harness.parallel_efficiency"] = serial["run_s"] / (WORKERS * parallel["run_s"])
        metrics["trace.overhead_frac"] = span_cost_ns * len(tracer.spans) / 1e9 / traced["run_s"]
        rounds.append(metrics)
        all_spans.append(tracer.spans)
    samples = {name: [r[name] for r in rounds] for name in rounds[0]}
    samples["numerics.philox_floor.ns_per_sample"] = [_philox_floor_ns(all_spans[0])]
    samples["harness.pool_startup_ms"] = [_pool_startup_ms()]
    starts = cold_starts(workload, COLD_STARTS)
    samples["cli.import_s"] = [s[1] for s in starts]
    samples["cli.import.scipy_s"] = [s[2] for s in starts]
    return {"units": units, "samples": samples, "spans": all_spans}


def _report(workload, args, argv, result: dict) -> dict:
    from host import host_block

    table = PER_LAYER if args.trace else END_TO_END
    units = result["units"]
    failed = sum(1 for u in units if u["problems"])
    metrics = {
        name: {"value": statistics.median(result["samples"][name]), "unit": table[name][0]}
        for name in table
    }
    return {
        "workload": workload.name,
        "trace": args.trace,
        "host": host_block(ROOT, args.seed, DEFAULT_SEED, argv),
        "samples": result["samples"],
        "problems": [p for u in units for p in u["problems"]],
        "summary": {"correct": failed == 0, "attempted": len(units), "failed": failed,
                    "metrics": metrics},
    }


def _print(report: dict) -> None:
    summary = report["summary"]
    print(f"# {report['workload']} trace={report['trace']}: {summary['attempted']} units, "
          f"{summary['failed']} failed")
    for problem in report["problems"]:
        print("# problem: " + problem.strip().replace("\n", "\n# "))
    for name, metric in summary["metrics"].items():
        samples = report["samples"][name]
        print(f"{report['workload']:>13} {name:<44} {metric['value']:>14.6g} "
              f"{metric['unit']:<6} median of {len(samples)}")


def run_one(args, argv) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    run = traced_run if args.trace else timed_run
    result = run(workload, args.seed, args.seconds)
    report = _report(workload, args, argv, result)
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    if "spans" in result:
        with open(f"{stem}-spans.json", "w") as fh:
            json.dump([[asdict(s) for s in r] for r in result["spans"]], fh)
    _print(report)
    print(json.dumps(report["summary"]))
    return 0


def manifest() -> dict:
    """The contents of BENCHMARK.json, from the tables in this file and workloads.py."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in WORKLOAD_NAMES],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, (unit, better, _) in PER_LAYER.items()
        ],
    }


def run_all(args) -> int:
    """Write BENCHMARK.json, then run every workload untraced and traced, each in its own process."""
    with open(ROOT / "BENCHMARK.json", "w") as fh:
        json.dump(manifest(), fh, indent=2)
        fh.write("\n")
    summaries = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            if done.returncode:
                return done.returncode
            summaries[f"{name}/trace{trace}"] = json.loads(done.stdout.splitlines()[-1])
    RESULTS.mkdir(exist_ok=True)
    moves = {name: entry[2] for name, entry in PER_LAYER.items()}
    with open(RESULTS / f"all-seed{args.seed}.json", "w") as fh:
        json.dump({"layer_to_end_to_end": moves, "summaries": summaries}, fh, indent=1)
    summary = {
        "correct": all(s["correct"] for s in summaries.values()),
        "attempted": sum(s["attempted"] for s in summaries.values()),
        "failed": sum(s["failed"] for s in summaries.values()),
        "metrics": {f"{key}/{name}": m for key, s in summaries.items()
                    for name, m in s["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "binsense" / "__init__.py").is_file():
        print(f"error: binsense sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        parser.error("need --seed >= 0 and --seconds > 0")
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, argv)


if __name__ == "__main__":
    sys.exit(main())
