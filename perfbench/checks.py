"""Output checks for one op, run outside the timed region.

Each check raises CheckFailed on a wrong exit code or a wrong output and
otherwise returns a fingerprint of the op's output files, so that the
ops of one run (which repeat the same command) can be compared with each
other as well. Reads are kept small: the campaign check seeks to the
rows it verifies instead of loading the 35 MB trace file, so checking
adds little to the ops process's peak RSS.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass

import numpy as np

from workloads import CAMPAIGN_KEYS, COEFFS_PER_KEY, Paths

LOGN = 9  # the CLI default: FALCON-512
TRACE_MAGIC = b"SSNTRACE"
TRACE_HEADER = struct.Struct("<IIII")  # version, traces, samples, metadata bytes
# Leak sites of the README geometry: inner slot 1 and the sign mask of
# outer iteration 0 (README "Defaults").
EXPECTED_POIS = {"inner": 3, "neg": 211}
SPOT_ROWS = 6


class CheckFailed(Exception):
    """An op's exit code or output is wrong."""


@dataclass(frozen=True)
class Outcome:
    fingerprint: str
    coefficients_correct: int = 0
    coefficients_total: int = 0
    keys_recovered: int = 0
    n_keys: int = 0


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(hashlib.file_digest(fh, "sha256").digest())
    return h.hexdigest()


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def read_trace_rows(path: str, rows) -> tuple[int, int, dict[int, np.ndarray]]:
    """Header counts plus the requested rows of a .trc file, read by seeking."""
    with open(path, "rb") as fh:
        head = fh.read(len(TRACE_MAGIC) + TRACE_HEADER.size)
        _expect(head[: len(TRACE_MAGIC)] == TRACE_MAGIC, f"{path}: bad magic")
        _version, n_traces, n_samples, meta_len = TRACE_HEADER.unpack_from(
            head, len(TRACE_MAGIC)
        )
        data_off = len(head) + meta_len
        out = {}
        for r in rows:
            _expect(0 <= r < n_traces, f"{path}: row {r} outside {n_traces} traces")
            fh.seek(data_off + 4 * r * n_samples)
            raw = fh.read(4 * n_samples)
            _expect(len(raw) == 4 * n_samples, f"{path}: truncated at row {r}")
            out[r] = np.frombuffer(raw, dtype="<f4")
    return n_traces, n_samples, out


def spot_rows(seed: int, op_index: int, n_traces: int) -> list[int]:
    """First and last row plus a few rows that change from op to op."""
    rng = random.Random(f"{seed}:{op_index}")
    picks = rng.sample(range(1, n_traces - 1), min(SPOT_ROWS, n_traces - 2))
    return sorted({0, n_traces - 1, *picks})


def check_simulate(rc: int, seed: int, paths: Paths, op_index: int = 0,
                   keys: int = CAMPAIGN_KEYS) -> Outcome:
    """Compare spot rows of the .trc/.lbl pair with the scalar public API."""
    from cdtleak import leakage, sampler, traceio

    _expect(rc == 0, f"simulate exited {rc}")
    trc, lbl = paths.campaign + ".trc", paths.campaign + ".lbl"
    n_traces = keys * COEFFS_PER_KEY
    rows = spot_rows(seed, op_index, n_traces)
    got_traces, n_samples, got = read_trace_rows(trc, rows)
    _expect(got_traces == n_traces, f"{trc}: {got_traces} traces, want {n_traces}")

    params = sampler.SamplerParams(logn=LOGN)
    table = sampler.default_table()
    model = leakage.LeakModel()
    layout = leakage.TraceLayout.for_params(params, table)
    _expect(n_samples == layout.trace_length, f"{trc}: {n_samples} samples per trace")
    labels = traceio.read_label_set(lbl)
    _expect(labels.n_records == n_traces, f"{lbl}: {labels.n_records} records")
    words_per_coefficient = 2 * params.outer_count
    for r in rows:
        key, c = divmod(r, COEFFS_PER_KEY)
        source = sampler.WordSource(
            seed=sampler.derive_subseed(seed, key), counter=words_per_coefficient * c
        )
        coef = sampler.sample_coefficient(table, params, source)
        want = leakage.synthesize_trace(
            coef.leaks, model, layout, sampler.derive_subseed(seed, keys + r)
        )
        _expect(np.array_equal(got[r], want), f"{trc}: row {r} differs from the oracle")
        inner = [[m != 0 for m in rec.inner_masks] for rec in coef.leaks]
        neg = [rec.neg_mask != 0 for rec in coef.leaks]
        _expect(
            int(labels.values[r]) == coef.value
            and np.array_equal(labels.inner_bits[r], inner)
            and np.array_equal(labels.neg_bits[r], neg),
            f"{lbl}: row {r} differs from the oracle",
        )
    return Outcome(_digest(trc, lbl))


def _template_pois(path: str) -> list[int]:
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("pois="):
                return [int(p) for p in line[len("pois="):].split(",")]
    raise CheckFailed(f"{path}: no pois line")


def check_profile(rc: int, stdout: str, paths: Paths) -> Outcome:
    """The POIs found must be the leak sites the layout puts the masks at."""
    _expect(rc == 0, f"profile exited {rc}")
    files = []
    for name, site in EXPECTED_POIS.items():
        path = f"{paths.templates}.{name}.tpl"
        pois = _template_pois(path)
        _expect(pois == [site], f"{path}: pois {pois}, want [{site}]")
        _expect(f"{name} poi: {site}\n" in stdout, f"stdout lacks '{name} poi: {site}'")
        files.append(path)
    return Outcome(_digest(*files))


def check_attack(rc: int, stdout: str, paths: Paths) -> Outcome:
    """The report's counts must equal a direct comparison with the labels.

    Exit 1 (a key was not recovered) is a success when the report agrees.
    """
    from cdtleak import recover, traceio

    _expect(rc in (0, 1), f"attack exited {rc}")
    report_path = paths.campaign + ".report.txt"
    report = recover.load_report(report_path)
    labels = traceio.read_label_set(paths.campaign + ".lbl")
    _expect(report.has_labels, f"{report_path}: no labelled accuracy")
    recovered = np.concatenate(
        [np.array([f, g], dtype=np.int64) for f, g in zip(report.keys_f, report.keys_g)]
    ).reshape(-1)
    truth = np.asarray(labels.values, dtype=np.int64)
    _expect(recovered.shape == truth.shape,
            f"{report_path}: {recovered.size} coefficients for {truth.size} labels")
    correct = recovered == truth
    n_keys = report.n_keys
    keys = int(correct.reshape(n_keys, -1).all(axis=1).sum())
    counts = (int(correct.sum()), int(correct.size), keys, n_keys)
    reported = (report.coefficients_correct, report.coefficients_total,
                report.keys_recovered, report.n_keys)
    _expect(reported == counts, f"{report_path}: counts {reported}, labels give {counts}")
    _expect(rc == (1 if keys < n_keys else 0), f"attack exited {rc} with {keys}/{n_keys} keys")
    _expect(f"coefficients correct: {counts[0]}/{counts[1]}\n" in stdout,
            "stdout coefficient count disagrees with the report")
    return Outcome(_digest(report_path), *counts)
