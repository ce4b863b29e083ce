"""Acceptance suite: one test per headline capability, timed.

Each test carries its own runtime budget and checks results against
oracles that do not share code with the implementation: the normal CDF
from statistics.NormalDist, stdlib bisection on math.erfc, the naive
sampler interpreter from naive_sampler.py, and plain modular arithmetic.
Everything random is driven by the package's deterministic word source,
so every run reproduces these numbers bit for bit.
"""

import contextlib
import io
import math
import statistics
import time

import numpy as np
import pytest

from naive_sampler import interpret_listing, scaled_word_grid
from scripted import SequenceWordSource

from cdtleak.cli import main
from cdtleak.cpa import correlation_traces, find_poi
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    synthesize_campaign,
    synthesize_profiling_set,
)
from cdtleak.recover import recover_key
from cdtleak.sampler import (
    MASK32,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    WordSource,
    default_table,
    fold,
    sample_coefficient,
    word_block,
)
from cdtleak.template import (
    ClassStats,
    Template,
    gaussian_overlap,
    success_from_overlap,
)
from cdtleak.traceio import TraceSet, read_trace_set, write_trace_set


def _phi(x: float) -> float:
    return statistics.NormalDist().cdf(x)


def _separation_for_overlap(area: float) -> float:
    """Separation d (in sigma) with overlap erfc(d / (2 sqrt 2)) = area."""
    lo, hi = 0.0, 60.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.erfc(mid / (2.0 * math.sqrt(2.0))) > area:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def test_criterion_1_success_rate_arithmetic():
    started = time.perf_counter()
    rc, out = _cli(
        "analyze", "--p-inner", "0.99999999999", "--p-neg", "0.999999999999"
    )
    assert rc == 0
    # Per-coefficient: all twelve printed digits.
    assert "per-coefficient success: 99.9999999478%" in out
    # Full-key figures: the published ten-significant-digit values must
    # lead the printed numbers digit for digit.
    line512 = next(l for l in out.splitlines() if "(n=512)" in l)
    line1024 = next(l for l in out.splitlines() if "(n=1024)" in l)
    assert line512.split(": ")[1].startswith("99.99994654")
    assert line1024.split(": ")[1].startswith("99.99989309")
    assert time.perf_counter() - started < 1.0


def test_criterion_2_overlap_engine():
    started = time.perf_counter()
    # Overlap against the independent CDF oracle 2 * Phi(-d / 2), at unit
    # and non-unit sigma, for equal variances and for variances 1e-12
    # apart, which take the density-crossing path.
    for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
        expected = 2.0 * _phi(-d / 2.0)
        for mu0, var, mu1 in ((0.0, 1.0, d), (40.0, 16.0, 40.0 + 4.0 * d)):
            for var1 in (var, var * (1.0 + 1e-12)):
                area = gaussian_overlap(mu0, var, mu1, var1)
                assert abs(area - expected) <= 1e-12, f"d={d}"
    # Separation solving A/2 = 2.56e-11, found by bisection on erfc.
    d = _separation_for_overlap(5.12e-11)
    assert abs(d - 13.134808) < 1e-4
    area = gaussian_overlap(0.0, 1.0, d, 1.0)
    assert 0.5 * area == pytest.approx(2.56e-11, rel=1e-9, abs=0.0)
    success = success_from_overlap(area)
    assert success == pytest.approx(1.0 - 2.56e-11, abs=1e-13)
    assert success > 1.0 - 1e-10
    assert time.perf_counter() - started < 1.0


def test_criterion_3_sampler_oracle_equivalence():
    started = time.perf_counter()
    table = default_table()
    entries = table.entries
    params = SamplerParams(logn=9)
    rng = np.random.default_rng(0xACCE551)
    words_needed = 2 * params.outer_count
    mismatches = 0
    # Each iteration's magnitude and sign bit, and the interpreter's
    # signed value of it, which the attack's fold must reproduce.
    magnitudes, signs, signed = [], [], []
    for _ in range(10_000):
        words = [int(w) for w in rng.integers(0, 1 << 64, size=words_needed, dtype=np.uint64)]
        expected_value, expected_iters = interpret_listing(
            words, entries, params.outer_count
        )
        coeff = sample_coefficient(table, params, SequenceWordSource(words))
        ok = coeff.value == expected_value
        for rec, it in zip(coeff.leaks, expected_iters):
            ok &= [m == MASK64 for m in rec.inner_masks] == it.fired
            ok &= (rec.neg_mask == MASK64) == bool(it.neg)
            v = 0
            for k, m in enumerate(rec.inner_masks, start=1):
                v |= k & m
            ok &= v == it.v_before_sign
            magnitudes.append(v)
            signs.append(rec.neg_mask == MASK64)
            signed.append(it.v_signed)
        mismatches += not ok
    assert mismatches == 0
    assert fold(np.array(magnitudes)[:, None], np.array(signs)[:, None]).tolist() == signed

    # Exhaustive coarse grid with a 2-entry table: every pair of 8-bit
    # scaled words for the two draws of a single outer iteration.
    small = GaussCdtTable(entries=(3 << 61, 1 << 61))
    grid = scaled_word_grid()
    p1 = SamplerParams(logn=10)
    for w1 in grid:
        for w2 in grid:
            expected_value, _ = interpret_listing([w1, w2], small.entries, 1)
            coeff = sample_coefficient(small, p1, SequenceWordSource([w1, w2]))
            mismatches += coeff.value != expected_value
    assert mismatches == 0
    assert time.perf_counter() - started < 30.0


def test_criterion_4_end_to_end_recovery(tmp_path):
    started = time.perf_counter()
    camp = str(tmp_path / "camp")
    tpl = str(tmp_path / "tpl")
    # Per-site misclassification of the midpoint rule is Phi(-d/2) where
    # d is the class separation in noise sigmas. At 4 mV noise d = 7.5,
    # so Phi(-3.75) ~ 8.8e-5: the 1.1 million sites of a 20-key campaign
    # would average ~100 errors and a 20/20 clean run would be a fluke.
    # A clean-sweep demonstration needs the per-site error far below
    # 1e-8; 2.284 mV noise gives d = 13.13 (error ~2.6e-11), where the
    # expected error count over the whole campaign is ~3e-5.
    rc, _ = _cli(
        "simulate",
        "--seed", "20260819",
        "--keys", "20",
        "--noise-sigma", "2.284",
        "--out", camp,
    )
    assert rc == 0
    rc, out = _cli(
        "profile",
        "--seed", "714",
        "--noise-sigma", "2.284",
        "--traces", "10000",
        "--out", tpl,
    )
    assert rc == 0
    rc, out = _cli("attack", "--in", camp, "--templates", tpl)
    assert rc == 0
    assert "keys recovered: 20/20" in out
    assert "coefficients correct: 20480/20480" in out
    assert time.perf_counter() - started < 300.0


def test_criterion_5_cpa_localization():
    started = time.perf_counter()
    params = SamplerParams(logn=9)
    table = default_table()
    traces, labels = synthesize_profiling_set(
        seed=0x10CA7E, params=params, table=table, model=LeakModel(),
        n_traces=10_000,
    )
    # The first inner and sign sites of README "Defaults".
    for hypothesis, site in (
        (64.0 * labels.inner_bits[:, 0, 0], 3),
        (64.0 * labels.neg_bits[:, 0], 211),
    ):
        corr = correlation_traces(traces.samples, hypothesis[None])[0]
        assert find_poi(corr) == site
        assert abs(corr[site]) >= 0.95
    assert time.perf_counter() - started < 60.0


def test_criterion_6_error_rate_calibration():
    started = time.perf_counter()
    params = SamplerParams(logn=9)
    table = default_table()
    layout = TraceLayout.for_params(params, table)
    for target, seed in ((1e-2, 0xCA1A), (1e-3, 0xCA1B)):
        d = _separation_for_overlap(2.0 * target)
        sigma = 30.0 / d
        model = LeakModel(noise_sigma=sigma)
        traces, labels = synthesize_campaign(
            seed=seed, params=params, table=table, model=model, n_keys=3
        )
        stats0 = ClassStats(mu=40.0, var=sigma**2, count=10)
        stats1 = ClassStats(mu=70.0, var=sigma**2, count=10)
        tpl = Template(poi=0, class0=stats0, class1=stats1)
        report = recover_key(traces, tpl, tpl, layout, params, labels=labels)
        sites = report.inner_sites_total + report.neg_sites_total
        assert sites == 3 * 1024 * (2 * 26 + 2)
        assert sites >= 100_000
        observed = report.inner_site_errors + report.neg_site_errors
        predicted = 1.0 - success_from_overlap(
            gaussian_overlap(40.0, sigma**2, 70.0, sigma**2)
        )
        band = 3.0 * math.sqrt(sites * predicted * (1.0 - predicted))
        assert abs(observed - sites * predicted) < band, (
            f"target {target}: {observed} errors vs {sites * predicted:.1f} "
            f"+- {band:.1f}"
        )
    assert time.perf_counter() - started < 120.0


def test_criterion_7_property_suites(tmp_path):
    started = time.perf_counter()
    cases = 100_000

    # Mask domain and latch: every mask a coefficient leaks is all zeros
    # or all ones, and each outer iteration fires at most one inner mask.
    table = default_table()
    params = SamplerParams(logn=10)
    records = 0
    masks_seen = 0
    source = WordSource(seed=0x7E57)
    while records < cases:
        coeff = sample_coefficient(table, params, source)
        for rec in coeff.leaks:
            fired = 0
            for mask in rec.inner_masks:
                assert mask in (0, MASK64)
                fired += mask == MASK64
                masks_seen += 1
            assert rec.neg_mask in (0, MASK64)
            masks_seen += 1
            assert fired <= 1
            records += 1
    assert masks_seen >= cases

    # Conditional negation, as the attack's fold applies a sign bit:
    # matches modular arithmetic and undoes itself.
    rng = np.random.default_rng(0x7E58)
    v = rng.integers(0, 1 << 32, size=(cases, 1))
    ones, zeros = np.ones(v.shape, dtype=bool), np.zeros(v.shape, dtype=bool)
    negated = (-v) & MASK32
    expected = np.where(negated >> 31, negated - (1 << 32), negated)[:, 0]
    signed = fold(v, ones)
    assert np.array_equal(signed, expected)
    again = signed.astype(np.int64)[:, None] & MASK32
    assert np.array_equal(fold(again, ones), fold(v, zeros))

    # Pearson affine invariance: transformed columns against the raw
    # hypothesis, each column its own case with a fresh scale and shift.
    cols = cases // 2
    m = word_block(0x7E59, 0, 64 * cols).reshape(64, cols)
    m = (m >> np.uint64(40)).astype(np.float64)
    h = m[:, 0].copy()
    direct = correlation_traces(m, h[None])[0]
    rng = np.random.default_rng(0x7E5A)
    for _ in range(2):
        scales = rng.uniform(0.5, 10.0, size=cols)
        shifts = rng.uniform(-50.0, 50.0, size=cols)
        transformed = correlation_traces(m * scales + shifts, h[None])[0]
        assert np.abs(transformed - direct).max() <= 1e-9
    # Spot-check against numpy's corrcoef on a spread of the same columns.
    for j in range(0, cols, cols // 200):
        assert abs(np.corrcoef(2.5 * m[:, j] + 7.0, h)[0, 1] - direct[j]) <= 1e-9

    # Trace-format round trip: every write/read pair returns the bytes
    # it was given, across randomized shapes, values, and metadata.
    rng = np.random.default_rng(0x7E5B)
    path = tmp_path / "roundtrip.trc"
    for i in range(cases):
        n = int(rng.integers(1, 4))
        width = int(rng.integers(1, 8))
        samples = rng.normal(scale=100.0, size=(n, width)).astype(np.float32)
        metadata = {"case": str(i)} if i % 3 == 0 else {}
        write_trace_set(TraceSet(samples=samples, metadata=metadata), path)
        loaded = read_trace_set(path)
        assert np.array_equal(loaded.samples, samples)
        assert loaded.metadata == metadata

    assert time.perf_counter() - started < 120.0
