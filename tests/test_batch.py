"""Batch sampler, planting, render and margin paths against their oracles.

The campaign and profiling paths run on arrays: one words() call per key
or trace, one scan_words() over all coefficients, and a chunked in-place
render, and the attack computes margins with one row-blocked kernel.
Each test here runs the scalar or per-site path (WordSource,
sample_coefficient, plant_control_words, synthesize_trace,
_margin_columns) on the same inputs and requires equal results, bit for
bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak import leakage, recover, sampler, template, traceio
from cdtleak.cli import main
from cdtleak.errors import DomainError
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    plant_control_words,
    synthesize_campaign,
    synthesize_profiling_set,
    synthesize_trace,
)
from cdtleak.sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    SequenceWordSource,
    WordSource,
    default_table,
    derive_subseed,
    generate_polynomials,
    sample_coefficient,
    scan_words,
    words,
)
from cdtleak.template import ClassStats, Template

# Tied tail entries, a zero tail entry, and entries[0] == 0 (the zero
# branch can never be taken).
TIED_TABLE = GaussCdtTable(entries=(0, 7 << 59, 5 << 59, 5 << 59, 2 << 59, 2 << 59, 0))
TABLES = {"default": default_table(), "tied": TIED_TABLE}

seeds64 = st.integers(min_value=0, max_value=MASK64)


def _oracle_arrays(coeffs):
    """Label arrays read off scalar SecretCoefficient records."""
    values = np.array([c.value for c in coeffs], dtype=np.int32)
    inner = np.array(
        [[[m == MASK64 for m in rec.inner_masks] for rec in c.leaks] for c in coeffs]
    )
    neg = np.array([[rec.neg_mask == MASK64 for rec in c.leaks] for c in coeffs])
    return values, inner, neg


def _assert_scan_matches(table, draws, coeffs):
    values, inner, neg = scan_words(table, draws)
    want_values, want_inner, want_neg = _oracle_arrays(coeffs)
    assert values.dtype == np.int32
    assert np.array_equal(values, want_values)
    assert np.array_equal(inner, want_inner)
    assert np.array_equal(neg, want_neg)


class TestWords:
    @settings(max_examples=50, deadline=None)
    @given(
        seeds=st.lists(seeds64, min_size=1, max_size=4),
        start=st.integers(min_value=0, max_value=MASK64),
        count=st.integers(min_value=0, max_value=9),
    )
    def test_rows_equal_word_source(self, seeds, start, count):
        block = words(seeds, start, count)
        assert block.shape == (len(seeds), count)
        assert block.dtype == np.uint64
        for row, seed in zip(block, seeds):
            source = WordSource(seed=seed, counter=start)
            assert [int(w) for w in row] == [source.next_u64() for _ in range(count)]

    def test_subseed_of_any_python_int(self):
        # Seeds outside 64 bits wrap, as the scalar arithmetic does.
        for seed in (-1, -5, MASK64 + 3):
            source = WordSource(seed=seed & MASK64, counter=6)
            assert derive_subseed(seed, 6) == source.next_u64()


class TestScanWords:
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    @pytest.mark.parametrize("logn", [10, 8])
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds64)
    def test_equals_scalar_scan_on_random_streams(self, table_name, logn, seed):
        table = TABLES[table_name]
        params = SamplerParams(logn=logn)
        rows = 12
        draws = words([seed], 0, rows * 2 * params.outer_count)
        source = WordSource(seed=seed)
        coeffs = [sample_coefficient(table, params, source) for _ in range(rows)]
        _assert_scan_matches(table, draws.reshape(rows, params.outer_count, 2), coeffs)

    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_words_at_each_threshold(self, table_name):
        """Draws exactly at, one below and one above every entry."""
        table = TABLES[table_name]
        params = SamplerParams(logn=10)
        lows = {0, 1, MASK63 - 1, MASK63}
        for e in table.entries:
            lows.update(x for x in (e - 1, e, e + 1) if 0 <= x <= MASK63)
        pairs = [
            (sign1 | low1, sign2 | low2)
            for sign1 in (0, 1 << 63)
            for sign2 in (0, 1 << 63)
            for low1 in sorted(lows)
            for low2 in sorted(lows)
        ]
        coeffs = [
            sample_coefficient(table, params, SequenceWordSource(pair)) for pair in pairs
        ]
        draws = np.array(pairs, dtype=np.uint64).reshape(len(pairs), 1, 2)
        _assert_scan_matches(table, draws, coeffs)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            scan_words(default_table(), np.zeros((4, 2), dtype=np.uint64))

    def test_polynomial_view_records(self):
        params = SamplerParams(logn=7)
        f, g = generate_polynomials(0x5151, params)
        source = WordSource(seed=0x5151)
        want = tuple(sample_coefficient(default_table(), params, source) for _ in range(256))
        assert f.coefficients + g.coefficients == want
        assert f.values() + g.values() == [c.value for c in want]
        assert f == generate_polynomials(0x5151, params)[0]
        assert f != g


class TestPlantedProfiling:
    @pytest.mark.parametrize("fire_slot", [1, 3, 26])
    def test_rows_equal_plant_and_scan(self, fire_slot):
        seed, n_traces = 0xB0B + fire_slot, 14
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel()
        layout = TraceLayout.for_params(params, table)
        traces, labels = synthesize_profiling_set(
            seed=seed, params=params, table=table, model=model,
            n_traces=n_traces, fire_slot=fire_slot, threads=2,
        )
        coeffs = []
        for i in range(n_traces):
            plant = WordSource(seed=derive_subseed(seed, i))
            slot = fire_slot if i < n_traces // 2 else None
            w1, w2 = plant_control_words(table, neg_bit=i & 1, fire_slot=slot, source=plant)
            source = SequenceWordSource([w1, w2], fallback=plant)
            coeffs.append(sample_coefficient(table, params, source))
        want_values, want_inner, want_neg = _oracle_arrays(coeffs)
        assert np.array_equal(labels.values, want_values)
        assert np.array_equal(labels.inner_bits, want_inner)
        assert np.array_equal(labels.neg_bits, want_neg)
        for i, coeff in enumerate(coeffs):
            want = synthesize_trace(
                coeff.leaks, model, layout, derive_subseed(seed, n_traces + i)
            )
            assert np.array_equal(traces.samples[i], want)


class TestRender:
    def _case(self, rows, layout_kw, seed=0x7E57):
        params = SamplerParams(logn=9)
        table = default_table()
        layout = TraceLayout.for_params(params, table, **layout_kw)
        source = WordSource(seed=seed)
        coeffs = [sample_coefficient(table, params, source) for _ in range(rows)]
        draws = words([seed], 0, rows * 2 * params.outer_count)
        _, inner, neg = scan_words(table, draws.reshape(rows, params.outer_count, 2))
        subseeds = words([seed], 1, rows)[0]
        return coeffs, inner, neg, layout, subseeds

    @staticmethod
    def _render(inner, neg, model, layout, subseeds, threads):
        """Render many rows of leak bits into one matrix, as synthesize_profiling_set does."""
        out = np.empty((len(subseeds), layout.trace_length), dtype=np.float32)
        labels = traceio.LabelSet(np.zeros(len(subseeds), np.int32), inner, neg)
        for _ in leakage._render_blocks([(labels, subseeds)], model, layout, threads, out=out):
            pass
        return out

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize(
        "layout_kw", [{}, {"samples_per_outer_tail": 3, "leak_offset_neg": 2}]
    )
    def test_rows_equal_synthesize_trace(self, monkeypatch, threads, layout_kw):
        # Five rows per chunk: 23 rows make four full chunks and a partial one.
        coeffs, inner, neg, layout, subseeds = self._case(23, layout_kw)
        width = 2 * ((layout.trace_length + 1) // 2)
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", 5 * width)
        model = LeakModel(noise_sigma=2.284, beta=-3.25, alpha=0.7)
        out = self._render(inner, neg, model, layout, subseeds, threads)
        assert out.dtype == np.float32
        for r, coeff in enumerate(coeffs):
            want = synthesize_trace(coeff.leaks, model, layout, int(subseeds[r]))
            assert np.array_equal(out[r], want)

    def test_default_chunk_boundary(self):
        model = LeakModel()
        coeffs, inner, neg, layout, subseeds = self._case(700, {})
        chunk = leakage._CHUNK_SAMPLES // layout.trace_length
        assert chunk < 700
        out = self._render(inner, neg, model, layout, subseeds, threads=2)
        for r in (0, chunk - 1, chunk, 699):
            want = synthesize_trace(coeffs[r].leaks, model, layout, int(subseeds[r]))
            assert np.array_equal(out[r], want)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_negative_zero_baseline_equals_synthesize_trace(tmp_path, capsys, threads):
    """beta = -0.0 without noise: every sample keeps synthesize_trace's sign of zero."""
    seed, out = 3, str(tmp_path / "z")
    argv = ["simulate", "--seed", str(seed), "--beta", "-0.0", "--noise-sigma", "0"]
    assert main(argv + ["--threads", threads, "--out", out]) == 0
    capsys.readouterr()
    samples = traceio.read_trace_set(out + ".trc").samples
    params = SamplerParams(logn=9)
    table = default_table()
    layout = TraceLayout.for_params(params, table)
    model = LeakModel(beta=-0.0, noise_sigma=0.0)
    source = WordSource(seed=derive_subseed(seed, 0))
    for r in range(2 * params.n):
        coeff = sample_coefficient(table, params, source)
        want = synthesize_trace(coeff.leaks, model, layout, derive_subseed(seed, 1 + r))
        assert samples[r].tobytes() == want.tobytes(), r


def test_batch_paths_build_no_coefficient_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SecretCoefficient built on a batch path")

    monkeypatch.setattr(sampler, "SecretCoefficient", refuse)
    params = SamplerParams(logn=9)
    table = default_table()
    _, labels, keys = synthesize_campaign(
        seed=3, params=params, table=table, model=LeakModel(), n_keys=2
    )
    assert labels.n_records == 2048 and len(keys) == 2
    assert keys[1][1].values() == labels.values[1536:].tolist()
    synthesize_profiling_set(
        seed=4, params=params, table=table, model=LeakModel(), n_traces=8
    )


# SHA-256 of CLI outputs written by the scalar sampler and the earlier
# render, recorded with numpy 2.4.6. Other numpy builds may round the
# transcendental functions of the noise differently.
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    ("simulate", ".trc"): "055573eae52a6b58681fb318c98b1712737ec8f3bc26c100a72e609877a764c1",
    ("simulate", ".lbl"): "3e8ed5f5472f15a092c05c8fa677a92274bf58d365adfa67c90fe8c346852369",
    ("profile", ".inner.tpl"): "933c42572b0b566f3d949bd036388df07d750d4e9cea90c1fa94ddb9aa771fe0",
    ("profile", ".neg.tpl"): "ccc4b9d2f2489bb03794638b5742e141a2f939d9a8ba9cd9889b93efe2609129",
}


# SHA-256 of the report of `attack` on the GOLDEN simulate and profile
# outputs, recorded before the batch margin kernel.
GOLDEN_REPORT = "524e2886087191ffcf55f910598585e13d07bbe6ed47b128137c00f1f0a81883"


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
)
def test_golden_report_bytes(tmp_path, capsys):
    camp, tpl = str(tmp_path / "camp"), str(tmp_path / "tpl")
    assert main(["simulate", "--seed", "20260819", "--keys", "1", "--out", camp]) == 0
    assert main(["profile", "--seed", "714", "--traces", "1000", "--out", tpl]) == 0
    assert main(["attack", "--in", camp, "--templates", tpl]) == 1
    assert "coefficients correct: 1022/1024" in capsys.readouterr().out
    with open(camp + ".report.txt", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_REPORT


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
)
def test_golden_output_bytes(tmp_path, capsys):
    out = {"simulate": str(tmp_path / "camp"), "profile": str(tmp_path / "tpl")}
    assert main(["simulate", "--seed", "20260819", "--keys", "1", "--out", out["simulate"]]) == 0
    assert main(["profile", "--seed", "714", "--traces", "1000", "--out", out["profile"]]) == 0
    capsys.readouterr()
    for (command, suffix), digest in GOLDEN.items():
        with open(out[command] + suffix, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, command + suffix


class TestSiteMargins:
    """recover._column_margins against the per-site oracle _margin_columns."""

    @pytest.fixture(scope="class")
    def readme_templates(self, tmp_path_factory):
        prefix = str(tmp_path_factory.mktemp("tpl") / "tpl")
        argv = ["profile", "--seed", "714", "--noise-sigma", "2.284", "--traces", "10000"]
        assert main(argv + ["--out", prefix]) == 0
        return {
            name: template.load_template(f"{prefix}.{name}.tpl") for name in ("inner", "neg")
        }

    @staticmethod
    def _two_poi_template():
        return Template(
            pois=(3, 5),
            class0=(ClassStats(40.0, 5.1, 100), ClassStats(39.5, 6.3, 100)),
            class1=(ClassStats(56.2, 4.9, 100), ClassStats(41.0, 5.8, 100)),
        )

    @pytest.mark.parametrize("name", ["inner", "neg", "two_poi"])
    def test_equals_margin_columns(self, readme_templates, name):
        tpl = self._two_poi_template() if name == "two_poi" else readme_templates[name]
        layout = TraceLayout.for_params(SamplerParams(logn=9), default_table())
        sites = np.concatenate([layout.inner_site_matrix().reshape(-1), layout.neg_site_vector()])
        rows = 1027  # one full block of 1,024 rows and a partial one
        assert rows % recover._BLOCK_ROWS
        rng = np.random.default_rng(0x51735)
        samples = rng.normal(40.0, 4.0, (rows, layout.trace_length))
        samples[:, sites] += 16.0 * rng.integers(0, 2, (rows, len(sites)))
        samples = samples.astype(np.float32)
        cols = recover._site_columns(tpl, sites, layout.trace_length)
        got = recover._column_margins(samples, tpl, cols)
        want = np.stack([recover._margin_columns(samples, tpl, s) for s in sites], axis=1)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)
        assert (got > 0).any() and (got < 0).any()


@pytest.mark.parametrize(
    "args, area",
    [
        ((0, 1, 1, 2), "0.6543599148536925"),
        ((40, 16, 56, 20), "0.05884281210154568"),
        ((0, 1, 0, 4), "0.6773254311652315"),
    ],
)
def test_numeric_overlap_areas(args, area):
    assert repr(template.gaussian_overlap(*args, method="numeric").area) == area
