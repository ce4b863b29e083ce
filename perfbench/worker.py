"""Child process of the benchmark: one set-up, or one workload's ops.

    python3 perfbench/worker.py setup --workload W --seed N --dir D
    python3 perfbench/worker.py ops --workload W --seed N --dir D --seconds S --trace 0|1

Each role prints one JSON object as its last stdout line. Only the
standard library is imported before the timed import of cdtleak, so
``setup_s`` includes numpy's import as a user of the CLI pays it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

from workloads import ARGV, WORKLOADS, Paths, input_seeds

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# reference_kernel()'s time on the machine in perfbench/README.md at its
# usual speed. Times are reported at this speed; see run_ops().
REFERENCE_KERNEL_S = 0.016


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work.

    It calls no cdtleak code, so no change to the program moves it; only
    the machine's speed does.
    """
    import numpy as np

    data = np.arange(1 << 19, dtype=np.float64)
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x += i * i
    for _ in range(4):
        np.sqrt(data).sum()
    return time.perf_counter() - t0


def import_cli():
    """Import cdtleak.cli from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    from cdtleak import cli

    origin = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if origin != SRC:
        raise SystemExit(f"cdtleak imported from {origin}, expected {SRC}")
    return cli


def call_cli(cli, argv: list[str]) -> tuple[int, str, float]:
    """Run one command in-process; returns exit code, stdout and wall time."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    return rc, out.getvalue(), wall


def check_op(workload, rc: int, stdout: str, seeds, paths: Paths, op_index: int):
    import checks

    if workload.command == "simulate":
        return checks.check_simulate(rc, seeds.simulate, paths, op_index)
    if workload.command == "profile":
        return checks.check_profile(rc, stdout, paths)
    return checks.check_attack(rc, stdout, paths)


def run_setup(workload, seeds, paths: Paths) -> dict:
    t0 = time.perf_counter()
    cli = import_cli()
    results = [(cmd, *call_cli(cli, ARGV[cmd](seeds, paths))) for cmd in workload.setup_commands]
    setup_s = time.perf_counter() - t0
    import checks

    for cmd, rc, stdout, _wall in results:
        if cmd == "simulate":
            checks.check_simulate(rc, seeds.simulate, paths)
        else:
            checks.check_profile(rc, stdout, paths)
    return {"setup_s": setup_s}


def op_kind(op: int, trace: bool) -> str:
    if not trace:
        return "plain"
    if op == 0:
        return "warmup"
    return "traced" if op % 2 else "plain"


def run_ops(workload, seeds, paths: Paths, seconds: float, trace: bool) -> dict:
    """Repeat the workload's command for `seconds`, checking every op.

    With tracing, ops alternate untraced and traced so both see the same
    machine state; only traced ops record spans. The first op then only
    warms up, so its one-off costs do not bias the tracing overhead.

    The host is shared, and its speed drifts by tens of percent over
    minutes, for all code alike. The reference kernel runs before the
    first op and after every op; the median of its times, relative to
    REFERENCE_KERNEL_S, is the run's slowdown, which the caller divides
    its times by.
    """
    import tracing

    cli = import_cli()
    argv = ARGV[workload.command](seeds, paths)
    tracer = tracing.Tracer()
    walls = {"warmup": [], "plain": [], "traced": []}
    failures: list[str] = []
    absent: list[str] = []
    first = last = None
    started = time.perf_counter()
    kernels = [reference_kernel()]
    op = 0
    while op < (3 if trace else 1) or time.perf_counter() - started < seconds:
        kind = op_kind(op, trace)
        traced = kind == "traced"
        gc.collect()
        installed = tracing.Installed(tracer) if traced else None
        root = tracer.begin("cli") if traced else None
        try:
            try:
                rc, stdout, wall = call_cli(cli, argv)
            finally:
                if traced:
                    tracer.finish(root)
                    absent = installed.absent
                    installed.undo()
                kernels.append(reference_kernel())
            outcome = check_op(workload, rc, stdout, seeds, paths, op)
            if first is not None and outcome.fingerprint != first.fingerprint:
                raise ValueError("output differs from the run's first op")
        except Exception as exc:  # any failure of one op is counted, not fatal
            traceback.print_exc()
            failures.append(f"op {op}: {type(exc).__name__}: {exc}")
        else:
            first = first or outcome
            last = outcome
            walls[kind].append(wall)
        op += 1
    result = {
        "attempted": op,
        "failures": failures,
        "walls": walls,
        "slowdown": statistics.median(kernels) / REFERENCE_KERNEL_S,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "outcome": None if last is None else dataclasses.asdict(last),
    }
    if trace:
        result["layers"] = tracing.layer_totals(tracer.spans)
        result["absent"] = absent
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("setup", "ops"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seeds = input_seeds(args.seed)
    paths = Paths.under(args.dir)
    if args.role == "setup":
        result = run_setup(workload, seeds, paths)
    else:
        result = run_ops(workload, seeds, paths, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
