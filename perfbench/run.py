"""cdtleak benchmark: time the README's simulate, profile and attack commands.

    python3 perfbench/run.py --workload simulate-20k --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run sets up its inputs in fresh
processes, then runs one workload's ops in another fresh process, checks
every op's output and prints the metrics; the last stdout line is one
JSON object. With ``--trace 1`` it prints per-layer metrics instead of
the end-to-end ones. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 3, 9, 3.0
TIME_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def op_tail(walls: list[float]) -> tuple[float, float]:
    """(seconds, percentile) of the slowest op with at least 10 ops beyond it.

    With fewer than 21 ops that op would sit below the median, and the
    run resolves no tail: the median op (the upper one of an even count)
    is reported instead.
    """
    ordered = sorted(walls)
    n = len(ordered)
    i = max(n - 11, n // 2)
    return ordered[i], 100.0 * (i + 1) / n


def _per(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(workload, setups: list[float], ops: dict) -> tuple[dict, list[str]]:
    slowdown = ops["slowdown"]
    walls = [wall / slowdown for wall in ops["walls"]["plain"]]
    tail_s, tail_pct = op_tail(walls)
    outcome = ops["outcome"]
    if workload.command == "attack":
        coef_ratio = outcome["coefficients_correct"] / outcome["coefficients_total"]
    else:
        coef_ratio = 1.0  # no coefficients are recovered by this workload
    attempted = ops["attempted"]
    metrics = {
        "op_p50_s": (statistics.median(walls), "s"),
        "op_tail_s": (tail_s, "s"),
        "traces_per_s": (workload.traces_per_op * len(walls) / sum(walls), "1/s"),
        "peak_rss_mb": (ops["peak_rss_kb"] / 1024.0, "MB"),
        "setup_s": (statistics.median(setups) / slowdown, "s"),
        "ok_ratio": ((attempted - len(ops["failures"])) / attempted, "ratio"),
        "coef_correct_ratio": (coef_ratio, "ratio"),
    }
    notes = [f"op_tail_s is p{tail_pct:.1f} of {len(walls)} ops",
             f"setup_s is the median of {len(setups)} set-ups",
             f"times are at the machine's usual speed: the reference kernel took {slowdown:.3f} "
             "times its usual time, "
             f"and as measured the median op took {statistics.median(ops['walls']['plain']):.6g} s "
             f"and set-up {statistics.median(setups):.6g} s"]
    return metrics, notes


def per_layer(ops: dict) -> tuple[dict, list[str]]:
    traced = ops["walls"]["traced"]
    n = len(traced)
    empty = {"spans": 0, "count": 0, "total_s": 0.0, "self_s": 0.0}

    def per_op(layer: str) -> dict:
        return {k: v / n for k, v in ops["layers"].get(layer, empty).items()}

    sampler, leakage, rec = per_op("sampler"), per_op("leakage"), per_op("recover")
    write, read, cpa = per_op("traceio.write"), per_op("traceio.read"), per_op("cpa")
    outcome = ops["outcome"]
    metrics = {
        "sampler.busy_s": (sampler["self_s"], "s"),
        "sampler.calls": (sampler["spans"], "count"),
        "sampler.coefficients": (sampler["count"], "count"),
        "sampler.ns_per_coefficient": (1e9 * _per(sampler["self_s"], sampler["count"]), "ns"),
        "leakage.busy_s": (leakage["self_s"], "s"),
        "leakage.samples": (leakage["count"], "count"),
        "leakage.ns_per_sample": (1e9 * _per(leakage["self_s"], leakage["count"]), "ns"),
        "traceio.write_s": (write["self_s"], "s"),
        "traceio.bytes_written": (write["count"], "B"),
        "traceio.write_mb_per_s": (_per(write["count"], write["self_s"]) / 1e6, "MB/s"),
        "traceio.read_s": (read["self_s"], "s"),
        "traceio.bytes_read": (read["count"], "B"),
        "traceio.read_mb_per_s": (_per(read["count"], read["self_s"]) / 1e6, "MB/s"),
        "cpa.busy_s": (cpa["self_s"], "s"),
        "cpa.cells": (cpa["count"], "count"),
        "cpa.ns_per_cell": (1e9 * _per(cpa["self_s"], cpa["count"]), "ns"),
        "template.fit_s": (per_op("template.fit")["self_s"], "s"),
        "template.overlap_s": (per_op("template.overlap")["self_s"], "s"),
        "template.io_s": (per_op("template.io")["self_s"], "s"),
        "recover.busy_s": (rec["self_s"], "s"),
        "recover.sites": (rec["count"], "count"),
        "recover.ns_per_site": (1e9 * _per(rec["self_s"], rec["count"]), "ns"),
        "recover.keys_recovered": (outcome["keys_recovered"], "count"),
        "cli.self_s": (per_op("cli")["self_s"], "s"),
        "trace.overhead_ratio": (statistics.median(traced)
                                 / statistics.median(ops["walls"]["plain"]), "ratio"),
    }
    op_s = ops["layers"]["cli"]["total_s"]
    shares = ", ".join(f"{name} {t['self_s'] / op_s:.1%}"
                       for name, t in ops["layers"].items() if name != "cli")
    notes = [f"per traced op, {n} traced ops",
             f"self time as a share of traced op time: {shares}"]
    notes += [f"absent: {name}" for name in ops["absent"]]
    return metrics, notes


def _worker(role: str, args, workdir: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, role, "--workload", args.workload, "--dir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{role} process exceeded the run's time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{role} process exited {proc.returncode}")
    return json.loads(lines[-1])


def run(args) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "cdtleak", "cli.py")):
        raise BenchError(f"no cdtleak sources under {ROOT}/src")
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + TIME_LIMIT_S
    workroot = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(workroot, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setups = [_worker("setup", args, workdir, deadline)["setup_s"]]
        # Cheap set-ups repeat more often, so their median is steadier.
        while not args.trace and (len(setups) < MIN_SETUPS or (
                len(setups) < MAX_SETUPS and sum(setups) < SETUP_BUDGET_S)):
            setups.append(_worker("setup", args, workdir, deadline)["setup_s"])
        ops = _worker("ops", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(workroot)  # only when no other run is using it
    walls = ops["walls"]
    if not walls["plain"] or (args.trace and not walls["traced"]):
        raise BenchError("too few ops succeeded: " + "; ".join(ops["failures"][:3]))
    if args.trace:
        metrics, notes = per_layer(ops)
    else:
        metrics, notes = end_to_end(workload, setups, ops)
    seed = "README" if args.seed is None else args.seed
    print(f"workload {workload.name}, seed {seed}: {ops['attempted']} ops, "
          f"{len(ops['failures'])} failed")
    for failure in ops["failures"]:
        print(f"  failed {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": not ops["failures"],
        "attempted": ops["attempted"],
        "failed": len(ops["failures"]),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; the README seeds when omitted")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the ops run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
