"""Leak model and trace synthesis tests.

The noiseless cases pin the signal placement exactly; the Monte Carlo
cases check class statistics at realistic noise. Every random quantity
comes from the package's own word source, so the "statistical" tests are
bit-reproducible and their tolerances were verified once at these seeds.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest

from cdtleak import leakage
from cdtleak.cpa import correlation_traces, find_poi
from cdtleak.errors import DomainError, LayoutMismatch, TraceFormatError
from cdtleak.leakage import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_NOISE_SIGMA,
    LeakModel,
    TraceLayout,
    campaign_from_metadata,
    campaign_metadata,
    campaign_parts,
    gaussian_block,
    hamming_weight,
    profiling_classes,
    profiling_parts,
    render_blocks,
    synthesize_campaign,
    synthesize_profiling_set,
    synthesize_trace,
)
from cdtleak.leakage import _box_muller
from cdtleak.sampler import (
    MASK64,
    GaussCdtTable,
    IterationLeakRecord,
    SamplerParams,
    WordSource,
    default_table,
    derive_subseed,
    sample_coefficient,
    words,
    words_at,
)
from cdtleak.traceio import LabelSet

from scripted import SequenceWordSource, plant_control_words


def _blank_record(inner_count, inner_masks=None, neg_mask=0):
    masks = [0] * inner_count
    for k, m in (inner_masks or {}).items():
        masks[k - 1] = m
    return IterationLeakRecord(inner_masks=tuple(masks), neg_mask=neg_mask)


class TestHammingWeight:
    def test_trivial_values(self):
        assert hamming_weight(0) == 0
        assert hamming_weight(MASK64) == 64
        assert hamming_weight(0xF0F0F0F0F0F0F0F0) == 32
        assert hamming_weight(1 << 63) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            hamming_weight(-1)
        with pytest.raises(DomainError):
            hamming_weight(MASK64 + 1)


class TestLeakModelValidation:
    def test_defaults(self):
        m = LeakModel()
        assert m.alpha == DEFAULT_ALPHA
        assert m.beta == DEFAULT_BETA
        assert m.noise_sigma == DEFAULT_NOISE_SIGMA

    def test_rejects_bad_fields(self):
        with pytest.raises(DomainError):
            LeakModel(alpha=float("nan"))
        with pytest.raises(DomainError):
            LeakModel(beta=float("inf"))
        with pytest.raises(DomainError):
            LeakModel(noise_sigma=-1.0)

    def test_zero_noise_allowed(self):
        assert LeakModel(noise_sigma=0.0).noise_sigma == 0.0


class TestTraceLayout:
    def test_site_indices_match_block_arithmetic(self):
        layout = TraceLayout(
            outer_count=3,
            inner_count=5,
            samples_per_inner=4,
            samples_per_outer_tail=2,
            leak_offset_inner=1,
            leak_offset_neg=0,
        )
        assert layout.outer_block == 5 * 4 + 2
        assert layout.trace_length == 3 * 22
        want = [[u * 22 + (k - 1) * 4 + 1 for k in range(1, 6)] + [u * 22 + 20]
                for u in range(3)]
        assert layout.site_matrix().tolist() == want

    def test_site_arrays_match_scalar_indices(self):
        # README "Defaults": inner step k of outer u writes its mask at
        # sample u*216 + (k-1)*8 + 3, and the sign mask at u*216 + 211.
        for logn, outer_count in ((9, 2), (10, 1)):
            layout = TraceLayout.for_params(SamplerParams(logn=logn), default_table())
            want = [[u * 216 + (k - 1) * 8 + 3 for k in range(1, 27)] + [u * 216 + 211]
                    for u in range(outer_count)]
            assert layout.site_matrix().tolist() == want, logn

    def test_default_falcon512_geometry(self):
        layout = TraceLayout.for_params(SamplerParams(logn=9), default_table())
        assert layout.outer_count == 2
        assert layout.inner_count == 26
        assert layout.trace_length == 432

    def test_trace_length_fits_the_header_field(self):
        widest = TraceLayout(outer_count=1, inner_count=1, samples_per_outer_tail=2**32 - 9)
        assert widest.trace_length == 2**32 - 1
        message = "^trace length 4294967296 does not fit the 32-bit header field$"
        with pytest.raises(DomainError, match=message):
            TraceLayout(outer_count=1, inner_count=1, samples_per_outer_tail=2**32 - 8)

    @pytest.mark.parametrize("name", ["outer_count", "inner_count", "samples_per_inner",
                                      "samples_per_outer_tail", "leak_offset_inner",
                                      "leak_offset_neg"])
    def test_non_integer_fields_refused(self, name):
        # Refused here, so that trace_length and site_matrix() stay integers.
        kw = {"outer_count": 2, "inner_count": 26, name: 2.5}
        with pytest.raises(DomainError, match=rf"^{name} must be an integer, got 2\.5$"):
            TraceLayout(**kw)

    def test_numpy_integer_fields_taken(self):
        layout = TraceLayout(np.int64(2), np.uint8(26), samples_per_inner=np.int32(8))
        assert layout.trace_length == 432
        assert layout.site_matrix().tolist() == TraceLayout(2, 26).site_matrix().tolist()

    def test_constructor_validation(self):
        with pytest.raises(DomainError):
            TraceLayout(outer_count=0, inner_count=3)
        with pytest.raises(DomainError):
            TraceLayout(outer_count=1, inner_count=0)
        with pytest.raises(DomainError):
            TraceLayout(outer_count=1, inner_count=3, samples_per_inner=0)
        with pytest.raises(DomainError):
            TraceLayout(outer_count=1, inner_count=3, leak_offset_inner=8)
        with pytest.raises(DomainError):
            TraceLayout(outer_count=1, inner_count=3, leak_offset_neg=-1)


class TestGaussianBlock:
    def test_non_integer_count_or_seed_refused(self):
        with pytest.raises(DomainError, match=r"^count must be an integer, got 2\.5$"):
            gaussian_block(7, 2.5)
        with pytest.raises(DomainError, match=r"^seed must be an integer, got 7\.0$"):
            gaussian_block(7.0, 2)
        assert np.array_equal(gaussian_block(np.uint64(7), np.int8(3)), gaussian_block(7, 3))

    def test_deterministic_and_seed_sensitive(self):
        a = gaussian_block(12345, 64)
        b = gaussian_block(12345, 64)
        c = gaussian_block(12346, 64)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_prefix_consistency(self):
        # Both counts round up to the same number of Box-Muller pairs.
        assert np.array_equal(gaussian_block(7, 5), gaussian_block(7, 6)[:5])

    def test_empty_and_negative(self):
        assert gaussian_block(1, 0).shape == (0,)
        with pytest.raises(DomainError):
            gaussian_block(1, -1)

    def test_moments(self):
        x = gaussian_block(0xC0FFEE, 1_000_000)
        assert abs(x.mean()) < 0.005
        assert abs(x.std() - 1.0) < 0.005
        # Fourth standardized moment of a Gaussian is 3.
        assert abs(np.mean(x**4) - 3.0) < 0.05

    def test_matrix_rows_equal_scalar_blocks(self):
        # The render fallback's Box–Muller step on a row's first 34 words.
        seeds = np.array([3, 99, 2**63, MASK64], dtype=np.uint64)
        matrix = _box_muller(words(seeds, 0, 34))[:, :33]
        for i, s in enumerate(seeds):
            assert np.array_equal(matrix[i], gaussian_block(int(s), 33))


class TestSynthesizeTrace:
    def test_noiseless_all_zero_masks(self):
        layout = TraceLayout(outer_count=2, inner_count=3)
        model = LeakModel(noise_sigma=0.0)
        leaks = [_blank_record(3), _blank_record(3)]
        trace = synthesize_trace(leaks, model, layout, noise_seed=0)
        assert trace.dtype == np.float32
        assert trace.shape == (layout.trace_length,)
        assert np.all(trace == np.float32(model.beta))

    def test_noiseless_single_sites(self):
        layout = TraceLayout(outer_count=2, inner_count=3)
        model = LeakModel(noise_sigma=0.0)
        leaks = [
            _blank_record(3, inner_masks={2: MASK64}),
            _blank_record(3, neg_mask=MASK64),
        ]
        trace = synthesize_trace(leaks, model, layout, noise_seed=9)
        bumped = np.float32(model.beta + 64 * model.alpha)
        expected = np.full(layout.trace_length, np.float32(model.beta))
        expected[layout.site_matrix()[0, 1]] = bumped
        expected[layout.site_matrix()[1, -1]] = bumped
        assert np.array_equal(trace, expected)

    def test_noise_seed_changes_everything_but_structure(self):
        layout = TraceLayout(outer_count=1, inner_count=3)
        model = LeakModel()
        leaks = [_blank_record(3)]
        a = synthesize_trace(leaks, model, layout, noise_seed=1)
        b = synthesize_trace(leaks, model, layout, noise_seed=2)
        assert a.shape == b.shape
        assert not np.array_equal(a, b)

    def test_layout_mismatch(self):
        layout = TraceLayout(outer_count=2, inner_count=3)
        model = LeakModel()
        with pytest.raises(LayoutMismatch):
            synthesize_trace([_blank_record(3)], model, layout, noise_seed=0)
        with pytest.raises(LayoutMismatch):
            synthesize_trace(
                [_blank_record(4), _blank_record(4)], model, layout, noise_seed=0
            )


class TestCampaign:
    def test_counts_and_metadata(self):
        params = SamplerParams(logn=9)
        table = default_table()
        traces, labels = synthesize_campaign(
            seed=11, params=params, table=table, model=LeakModel()
        )
        assert traces.samples.shape == (1024, 432)
        assert labels.n_records == 1024
        assert traces.metadata["kind"] == "campaign"
        assert traces.metadata["n_keys"] == "1"
        assert traces.metadata["logn"] == "9"

    def test_row_order_is_f_then_g(self):
        params = SamplerParams(logn=8)
        table = default_table()
        _, labels = synthesize_campaign(
            seed=5, params=params, table=table, model=LeakModel(), n_keys=2
        )
        # Key j samples f, then g, from child seed j's stream.
        expected = []
        for j in range(2):
            source = WordSource(seed=derive_subseed(5, j))
            expected += [
                sample_coefficient(table, params, source).value for _ in range(2 * params.n)
            ]
        assert labels.values.tolist() == expected

    def test_deterministic_and_thread_invariant(self, monkeypatch):
        params = SamplerParams(logn=8)
        table = default_table()
        kw = dict(seed=21, params=params, table=table, model=LeakModel())
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
        a, la = synthesize_campaign(**kw)
        b, lb = synthesize_campaign(**kw)
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 3)
        c, _ = synthesize_campaign(**kw)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.samples, c.samples)
        assert a.metadata == b.metadata == c.metadata
        assert np.array_equal(la.values, lb.values)

    def test_rows_match_scalar_synthesis(self, monkeypatch):
        params = SamplerParams(logn=7)
        table = default_table()
        model = LeakModel()
        layout = TraceLayout.for_params(params, table)
        seed = 31337
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        traces, _ = synthesize_campaign(seed=seed, params=params, table=table, model=model)
        source = WordSource(seed=derive_subseed(seed, 0))
        coefficients = [sample_coefficient(table, params, source) for _ in range(2 * params.n)]
        assert traces.samples.shape[0] == len(coefficients)
        for r in (0, 1, 127, 128, 255):
            expected = synthesize_trace(
                coefficients[r].leaks, model, layout, derive_subseed(seed, 1 + r)
            )
            assert np.array_equal(traces.samples[r], expected)

    def test_noiseless_threshold_recovers_labels(self):
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel(noise_sigma=0.0)
        layout = TraceLayout.for_params(params, table)
        traces, labels = synthesize_campaign(
            seed=99, params=params, table=table, model=model
        )
        threshold = model.beta + 32 * model.alpha
        bits = traces.samples[:, layout.site_matrix()] > threshold
        assert np.array_equal(bits, labels.bits)
        inner, neg = bits[:, :, :-1], bits[:, :, -1]
        assert np.array_equal(inner, labels.inner_bits)
        assert np.array_equal(neg, labels.neg_bits)
        # The bits encode the signed value: at most one latch per outer
        # iteration, position = magnitude, sign bit negates.
        k = np.arange(1, 27)
        magnitudes = (inner * k).sum(axis=2)
        assert inner.sum(axis=2).max() <= 1
        values = np.where(neg, -magnitudes, magnitudes).sum(axis=1)
        assert np.array_equal(values, labels.values)

    def test_rejects_bad_arguments(self):
        params = SamplerParams(logn=9)
        table = default_table()
        with pytest.raises(DomainError):
            synthesize_campaign(
                seed=1, params=params, table=table, model=LeakModel(), n_keys=0
            )
        with pytest.raises(LayoutMismatch):
            synthesize_campaign(
                seed=1,
                params=params,
                table=table,
                model=LeakModel(),
                layout=TraceLayout(outer_count=3, inner_count=26),
            )

    def test_metadata_round_trips_through_helpers(self):
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel(alpha=0.4375, beta=41.5, noise_sigma=2.25)
        layout = TraceLayout.for_params(
            params, table, samples_per_inner=6, leak_offset_inner=2
        )
        md = campaign_metadata(7, params, model, layout, n_keys=1)
        got_params, got_layout, got_model, n_keys = campaign_from_metadata(md)
        assert got_layout == layout
        assert got_model == model
        assert got_params == params
        assert n_keys == 1

    def test_metadata_float_round_trip_is_exact(self):
        # repr round-trips any float, including ones that are not short
        # decimals, so reading a file back gives the identical model.
        model = LeakModel(noise_sigma=30.0 / 13.134808)
        params = SamplerParams(logn=9)
        table = default_table()
        layout = TraceLayout.for_params(params, table)
        md = campaign_metadata(0, params, model, layout, n_keys=1)
        assert campaign_from_metadata(md)[2] == model

    def _metadata(self):
        params = SamplerParams(logn=9)
        layout = TraceLayout.for_params(params, default_table())
        return campaign_metadata(3, params, LeakModel(), layout, n_keys=2)

    def test_metadata_keys_are_the_setup_fields(self):
        assert set(self._metadata()) == {
            "kind", "seed", "logn", "q", "outer_count", "inner_count",
            "samples_per_inner", "samples_per_outer_tail", "leak_offset_inner",
            "leak_offset_neg", "alpha", "beta", "noise_sigma", "n_keys",
        }
        assert self._metadata()["kind"] == "campaign"

    def test_wrong_kind_rejected(self):
        message = "input traces are not a key-generation campaign (metadata kind 'profiling')"
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            campaign_from_metadata({**self._metadata(), "kind": "profiling"})

    @pytest.mark.parametrize(
        "key, value",
        [("logn", "11"), ("q", "0"), ("noise_sigma", "-1.0"), ("alpha", "nan"),
         ("leak_offset_inner", "8"), ("inner_count", "0")],
    )
    def test_field_its_dataclass_rejects_is_a_format_error(self, key, value):
        md = {**self._metadata(), key: value}
        with pytest.raises(TraceFormatError, match="campaign metadata"):
            campaign_from_metadata(md)

    def test_trace_length_beyond_32_bits_is_a_format_error(self):
        md = {**self._metadata(), "samples_per_inner": str(10**20)}
        length = 2 * (26 * 10**20 + 8)
        message = f"^campaign metadata: trace length {length} does not fit the 32-bit header field$"
        with pytest.raises(TraceFormatError, match=message):
            campaign_from_metadata(md)

    def test_outer_count_must_agree_with_logn(self):
        md = {**self._metadata(), "outer_count": "4"}
        with pytest.raises(TraceFormatError, match="outer_count 4 disagrees with logn 9"):
            campaign_from_metadata(md)

    def test_n_keys_is_read(self):
        assert campaign_from_metadata(self._metadata())[3] == 2

    @pytest.mark.parametrize(
        "value, message",
        [("banana", "field 'n_keys': invalid literal for int() with base 10: 'banana'"),
         ("0", "n_keys=0 is not positive"), ("-3", "n_keys=-3 is not positive")],
    )
    def test_bad_n_keys_is_a_format_error(self, value, message):
        md = {**self._metadata(), "n_keys": value}
        with pytest.raises(TraceFormatError, match=f"^campaign metadata: {re.escape(message)}$"):
            campaign_from_metadata(md)

    @pytest.mark.parametrize("key", ["seed", "logn", "noise_sigma", "n_keys"])
    def test_missing_field_is_named(self, key):
        md = self._metadata()
        del md[key]
        with pytest.raises(TraceFormatError, match=f"^campaign metadata: missing field '{key}'$"):
            campaign_from_metadata(md)

    @pytest.mark.parametrize(
        "value, message",
        [("not-a-seed", "field 'seed': invalid literal for int() with base 10: 'not-a-seed'"),
         ("007", "field 'seed': '007' is not in canonical int form"),
         (str(2**64), "seed must be a 64-bit value"), ("-1", "seed must be a 64-bit value")],
    )
    def test_bad_seed_is_a_format_error(self, value, message):
        md = {**self._metadata(), "seed": value}
        with pytest.raises(TraceFormatError, match=f"^campaign metadata: {re.escape(message)}$"):
            campaign_from_metadata(md)

    def test_unknown_keys_refused(self):
        md = {**self._metadata(), "foo": "bar", "note": ""}
        with pytest.raises(TraceFormatError, match="^campaign metadata: unknown keys: foo, note$"):
            campaign_from_metadata(md)

    def test_bad_value_names_its_field(self):
        md = {**self._metadata(), "beta": "forty"}
        message = "campaign metadata: field 'beta': could not convert string to float: 'forty'"
        with pytest.raises(TraceFormatError, match=f"^{re.escape(message)}$"):
            campaign_from_metadata(md)
        # The caller's dict is read, not consumed.
        assert md["beta"] == "forty" and len(md) == 14


class TestPlantControlWords:
    @pytest.mark.parametrize("neg_bit", [0, 1])
    def test_every_slot_fires_where_planted(self, neg_bit):
        table = default_table()
        params = SamplerParams(logn=10)
        rand = WordSource(seed=8)
        for slot in range(1, table.inner_count + 1):
            w1, w2 = plant_control_words(table, neg_bit, slot, rand)
            coeff = sample_coefficient(
                table, params, SequenceWordSource([w1, w2], fallback=rand)
            )
            rec = coeff.leaks[0]
            assert rec.inner_masks[slot - 1] == MASK64
            assert sum(m != 0 for m in rec.inner_masks) == 1
            assert rec.neg_mask == (MASK64 if neg_bit else 0)
            assert coeff.value == (-slot if neg_bit else slot)

    @pytest.mark.parametrize("neg_bit", [0, 1])
    def test_zero_branch_plant(self, neg_bit):
        table = default_table()
        params = SamplerParams(logn=10)
        rand = WordSource(seed=9)
        for _ in range(50):
            w1, w2 = plant_control_words(table, neg_bit, None, rand)
            coeff = sample_coefficient(
                table, params, SequenceWordSource([w1, w2], fallback=rand)
            )
            rec = coeff.leaks[0]
            assert all(m == 0 for m in rec.inner_masks)
            assert coeff.value == 0
            assert rec.neg_mask == (MASK64 if neg_bit else 0)

    def test_domain_errors(self):
        table = default_table()
        rand = WordSource(seed=1)
        with pytest.raises(DomainError):
            plant_control_words(table, 2, 1, rand)
        with pytest.raises(DomainError):
            plant_control_words(table, 0, 0, rand)
        with pytest.raises(DomainError):
            plant_control_words(table, 0, table.inner_count + 1, rand)

    def test_zero_probability_and_empty_slot_tables(self):
        rand = WordSource(seed=2)
        no_zero = GaussCdtTable(entries=(0, 0))
        with pytest.raises(DomainError):
            plant_control_words(no_zero, 0, None, rand)
        flat = GaussCdtTable(entries=(1 << 62, 5, 5, 0))
        with pytest.raises(DomainError):
            plant_control_words(flat, 0, 2, rand)
        # The neighbouring slots still have room.
        w1, w2 = plant_control_words(flat, 0, 1, rand)
        assert w2 >= 5
        w1, w2 = plant_control_words(flat, 0, 3, rand)
        assert w2 < 5


@pytest.fixture(scope="module")
def profiling_10k():
    params = SamplerParams(logn=10)
    table = default_table()
    model = LeakModel(alpha=0.030 / 64, beta=0.040, noise_sigma=0.004)
    traces, labels = synthesize_profiling_set(
        seed=0xAB12, params=params, table=table, model=model, n_traces=10_000
    )
    layout = TraceLayout.for_params(params, table)
    return traces, labels, layout, model


class TestProfilingSet:
    def test_planted_structure(self, profiling_10k):
        traces, labels, layout, _ = profiling_10k
        n = labels.n_records
        assert n == 10_000
        assert traces.samples.shape == (n, layout.trace_length)
        first, second = labels.inner_bits[: n // 2], labels.inner_bits[n // 2 :]
        # First half latches at slot 1 and nowhere else in outer 0.
        assert first[:, 0, 0].all()
        assert not first[:, 0, 1:].any()
        # Second half takes the zero branch in outer 0.
        assert not second[:, 0, :].any()
        # Sign alternates trace by trace.
        assert np.array_equal(labels.neg_bits[:, 0], np.arange(n) % 2 == 1)
        assert traces.metadata == {}

    def test_class_means_at_low_voltage_scale(self, profiling_10k):
        traces, labels, layout, model = profiling_10k
        n = labels.n_records
        site = layout.site_matrix()[0, 0]
        hi = traces.samples[: n // 2, site].mean()
        lo = traces.samples[n // 2 :, site].mean()
        # Standard error is sigma / sqrt(5000) ~ 5.7e-5; allow 4 of them.
        tol = 4 * model.noise_sigma / np.sqrt(n // 2)
        assert abs(hi - (model.beta + 64 * model.alpha)) < tol
        assert abs(lo - model.beta) < tol
        neg_site = layout.site_matrix()[0, -1]
        odd = traces.samples[1::2, neg_site].mean()
        even = traces.samples[0::2, neg_site].mean()
        assert abs(odd - (model.beta + 64 * model.alpha)) < tol
        assert abs(even - model.beta) < tol
        baseline = traces.samples[:, layout.site_matrix()[0, 0] - 1].mean()
        assert abs(baseline - model.beta) < tol

    def test_poi_is_planted_site_and_baseline_is_quiet(self, profiling_10k):
        traces, labels, layout, _ = profiling_10k
        hypothesis = 64.0 * labels.inner_bits[:, 0, 0]
        corr = correlation_traces(traces.samples, hypothesis[None])[0]
        assert find_poi(corr) == layout.site_matrix()[0, 0]
        assert abs(corr[layout.site_matrix()[0, 0]]) >= 0.95
        leak_sites = set(layout.site_matrix().reshape(-1).tolist())
        quiet = np.array(
            [i for i in range(layout.trace_length) if i not in leak_sites]
        )
        assert np.abs(corr[quiet]).max() < 0.05

    def test_rejects_tiny_and_mismatched(self):
        params = SamplerParams(logn=10)
        table = default_table()
        with pytest.raises(DomainError):
            synthesize_profiling_set(
                seed=1, params=params, table=table, model=LeakModel(), n_traces=3
            )
        with pytest.raises(LayoutMismatch):
            synthesize_profiling_set(
                seed=1,
                params=params,
                table=table,
                model=LeakModel(),
                layout=TraceLayout(outer_count=2, inner_count=26),
            )

    def test_deterministic(self):
        params = SamplerParams(logn=10)
        table = default_table()
        kw = dict(
            seed=4, params=params, table=table, model=LeakModel(), n_traces=40
        )
        a, _ = synthesize_profiling_set(**kw)
        b, _ = synthesize_profiling_set(**kw)
        assert np.array_equal(a.samples, b.samples)


class TestProfilingStream:
    """profiling_parts, rendered by render_blocks, against the gathered set."""

    @pytest.mark.parametrize("n_traces", [4, 7, 2048, 5000])
    def test_blocks_gather_to_the_set_and_classes_match_labels(self, monkeypatch, n_traces):
        params, table = SamplerParams(logn=9), default_table()
        model = LeakModel()
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        traces, labels = synthesize_profiling_set(
            seed=5, params=params, table=table, model=model, n_traces=n_traces
        )
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
        layout = TraceLayout.for_params(params, table)
        blocks = list(render_blocks(profiling_parts(5, params, table, n_traces), model, layout))
        assert np.array_equal(np.concatenate([b for _, b in blocks]), traces.samples)
        parts = list(profiling_parts(5, params, table, n_traces))
        assert [len(p.values) for p, _ in parts] == [len(s) for _, s in parts]
        assert np.array_equal(np.concatenate([p.bits for p, _ in parts]), labels.bits)
        classes = profiling_classes(n_traces)
        assert np.array_equal(classes, labels.bits[:, 0, [0, -1]].T)
        lo, hi = n_traces // 3, n_traces - 1
        assert np.array_equal(profiling_classes(n_traces, lo, hi), classes[:, lo:hi])

    def test_classes_equal_the_index_formula(self):
        rng = np.random.default_rng(23)
        cases = [(4, 0, None), (7, 0, 7), (7, 3, 4), (8, 4, 4), (9, 5, 9), (5, 2, 1)]
        for _ in range(200):
            n_traces = int(rng.integers(4, 300))
            start, stop = sorted(int(v) for v in rng.integers(0, n_traces + 1, size=2))
            cases.append((n_traces, start, stop))
        for n_traces, start, stop in cases:
            index = np.arange(start, n_traces if stop is None else stop)
            want = np.stack([index < n_traces // 2, index % 2 == 1])
            got = profiling_classes(n_traces, start, stop)
            assert got.dtype == bool and np.array_equal(got, want), (n_traces, start, stop)

    def test_arguments_checked_before_a_trace_is_planted(self, monkeypatch):
        params, table = SamplerParams(logn=9), default_table()
        with pytest.raises(DomainError):
            profiling_parts(1, params, table, n_traces=3)
        with pytest.raises(DomainError):
            profiling_parts(2**64, params, table)
        # The largest count whose 8-byte-a-trace POI columns numpy can index is taken.
        largest = np.iinfo(np.intp).max // 8
        profiling_parts(1, params, table, n_traces=largest)
        with pytest.raises(DomainError, match=f"^n_traces {largest + 1} is too large"):
            profiling_parts(1, params, table, n_traces=largest + 1)

        def no_render(*args):
            raise AssertionError("a chunk was rendered")

        monkeypatch.setattr(leakage, "words_at", no_render)
        blocks = render_blocks(profiling_parts(1, params, table), LeakModel(),
                               TraceLayout(outer_count=1, inner_count=26))
        with pytest.raises(LayoutMismatch, match="layout disagrees with sampler parameters"):
            next(blocks)


def _gather_columns(parts, model, layout, columns):
    """render_blocks' blocks of `columns` from `parts`, gathered into one matrix."""
    return np.concatenate([s for _, s in render_blocks(parts, model, layout, columns=columns)])


class TestRenderColumns:
    """render_blocks' blocks of chosen columns against the columns of the full render."""

    @pytest.mark.parametrize(
        "logn, tail", [(9, 8), (9, 7), (10, 9)], ids=["len432", "len430", "len217"]
    )
    @pytest.mark.parametrize("model", [LeakModel(), LeakModel(beta=-0.0, noise_sigma=0.0),
                                       LeakModel(alpha=-1.0, beta=-0.0, noise_sigma=1e-30)],
                             ids=["default", "beta_minus_zero", "minus_zero_gain"])
    def test_every_column_equals_the_full_render(self, logn, tail, model):
        params, table = SamplerParams(logn=logn), default_table()
        layout = TraceLayout.for_params(params, table, samples_per_outer_tail=tail)
        kw = dict(n_traces=300)
        traces, _ = synthesize_profiling_set(7, params, table, model, layout, **kw)
        length = layout.trace_length
        pairs = (length + 1) // 2
        columns = np.arange(length)
        got = _gather_columns(profiling_parts(7, params, table, **kw), model, layout, columns)
        assert got.dtype == np.float32 and got.shape == traces.samples.shape
        # Bytes, so that -0.0 and 0.0 differ.
        assert got.tobytes() == traces.samples.tobytes()
        # Each column on its own, in any order, with repeats: the cos half,
        # the sin half and both kinds of leak site.
        sites = layout.site_matrix()
        picks = [sites[0, 0], sites[0, -1], sites[-1, 0], 0, pairs - 1, pairs, length - 1,
                 sites[0, 0], 5]
        got = _gather_columns(profiling_parts(7, params, table, **kw), model, layout, picks)
        assert got.tobytes() == np.ascontiguousarray(traces.samples[:, picks]).tobytes()
        if math.copysign(1.0, model.beta) < 0 and model.noise_sigma == 0.0:
            # The render turns -0.0 into 0.0 at leak sites only.
            signs = np.signbit(traces.samples)
            assert not signs[:, sites.reshape(-1)].any() and signs.any()

    @pytest.mark.parametrize("model", [LeakModel(), LeakModel(beta=-0.0, noise_sigma=0.0)],
                             ids=["default", "beta_minus_zero"])
    def test_tiles_and_chunks_change_no_byte(self, monkeypatch, model):
        params, table = SamplerParams(logn=9), default_table()
        layout = TraceLayout.for_params(params, table)
        kw = dict(n_traces=300)
        traces, _ = synthesize_profiling_set(7, params, table, model, layout, **kw)
        labels, subseeds = zip(*profiling_parts(7, params, table, **kw))
        labels, subseeds = LabelSet.concatenate(labels), np.concatenate(subseeds)
        # Parts of 1, 137 and 162 rows.
        cuts = [0, 1, 138, 300]
        parts = [(labels.rows(lo, hi), subseeds[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        sites = layout.site_matrix()
        picks = [sites[0, 0], sites[0, -1], 0, 215, 216, 431, 7, sites[0, 0]]
        # Pairs 0, 3, 7, 211 and 215 are drawn: 10 words a row. Tiles of
        # 3 rows end inside chunks of 7, and chunks inside the parts.
        monkeypatch.setattr(leakage, "_TILE_SAMPLES", 3 * 10)
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", 7 * 10)
        # One render thread, so the tiles are drawn in row order.
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
        tiles = []

        def counted(seeds, counters):
            tiles.append(len(seeds))
            return words_at(seeds, counters)

        monkeypatch.setattr(leakage, "words_at", counted)
        got = _gather_columns(parts, model, layout, picks)
        assert got.tobytes() == np.ascontiguousarray(traces.samples[:, picks]).tobytes()
        assert max(tiles) == 3 and sum(tiles) == 300
        # Part 2's 137 rows: 19 chunks of 7 (tiles 3, 3, 1), then 4 (3, 1).
        assert tiles[1:58] == [3, 3, 1] * 19 and tiles[58:60] == [3, 1]

    def test_scratch_stays_small_on_long_traces(self):
        # logn 1: 110,592 samples and 13,824 leak sites a trace, so a
        # samples-by-sites table would take 1.5 GB.
        params, table = SamplerParams(logn=1), default_table()
        layout, model = TraceLayout.for_params(params, table), LeakModel(beta=-0.0)
        sites = layout.site_matrix()
        parts = list(profiling_parts(3, params, table, n_traces=4))
        tracemalloc.start()
        try:
            for _, samples in render_blocks(parts, model, layout):
                del samples
            got = _gather_columns(parts, model, layout, [sites[5, 1], 3, sites[-1, -1]])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.shape == (4, 3)
        assert peak < 16 << 20

    def test_rows_follow_the_parts(self):
        params, table = SamplerParams(logn=9), default_table()
        layout, model = TraceLayout.for_params(params, table), LeakModel()
        parts = list(profiling_parts(3, params, table, n_traces=5000))
        whole = _gather_columns(parts, model, layout, [3, 211])
        assert whole.shape == (5000, 2)
        assert np.array_equal(_gather_columns(parts[1:2], model, layout, [3, 211]),
                              whole[2048:4096])

    def test_rejects_columns_outside_the_trace(self):
        params, table = SamplerParams(logn=9), default_table()
        layout = TraceLayout.for_params(params, table)
        parts = profiling_parts(3, params, table, n_traces=8)
        for bad in ([432], [-1], [[3]]):
            with pytest.raises(DomainError, match="columns must be sample indices below 432"):
                render_blocks(parts, LeakModel(), layout, columns=bad)

    def test_rejects_columns_that_are_not_integers(self):
        # Floats are not truncated, and bools are not read as the indices 1 and 0.
        params, table = SamplerParams(logn=9), default_table()
        layout = TraceLayout.for_params(params, table)
        parts = list(profiling_parts(3, params, table, n_traces=8))
        for bad in (np.array([3.7, 211.2]), np.array([True, False]), [3.0], []):
            with pytest.raises(DomainError, match="^columns must be integer sample indices"):
                render_blocks(parts, LeakModel(), layout, columns=bad)
        want = _gather_columns(parts, LeakModel(), layout, [3, 211])
        for dtype in (np.uint8, np.int16, np.uint64):
            got = _gather_columns(parts, LeakModel(), layout, np.array([3, 211], dtype=dtype))
            assert got.tobytes() == want.tobytes(), dtype


class TestCampaignSiteColumns:
    """A campaign streams as its leak-site columns, block by block."""

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize("model", [LeakModel(), LeakModel(beta=-0.0, noise_sigma=0.0)],
                             ids=["default", "beta_minus_zero"])
    def test_site_blocks_equal_the_whole_render(self, monkeypatch, cores, model):
        params, table = SamplerParams(logn=9), default_table()
        layout = TraceLayout.for_params(params, table)
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
        traces, labels = synthesize_campaign(9, params, table, model, layout, n_keys=2)
        sites = layout.site_matrix().reshape(-1)
        # Two key blocks of 1,024 rows. The 54 sites use 27 pairs (outer
        # iteration 1's are the sin halves of outer 0's), 54 words a row, so
        # chunks of 18 rows end inside each block and tiles of 4 inside each chunk.
        monkeypatch.setattr(leakage, "_KEY_BLOCK_ROWS", 1024)
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", 1000)
        monkeypatch.setattr(leakage, "_TILE_SAMPLES", 250)
        monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
        tiles = []

        def counted(seeds, counters):
            tiles.append(len(seeds))
            return words_at(seeds, counters)

        monkeypatch.setattr(leakage, "words_at", counted)
        row, sizes = 0, []
        parts = campaign_parts(9, params, table, n_keys=2)
        for part, block in render_blocks(parts, model, layout, columns=sites):
            n = len(block)
            want = np.ascontiguousarray(traces.samples[row : row + n, sites])
            assert block.dtype == np.float32 and block.tobytes() == want.tobytes(), row
            assert part.values.tobytes() == labels.values[row : row + n].tobytes(), row
            assert part.bits.tobytes() == labels.bits[row : row + n].tobytes(), row
            row += n
            sizes.append(n)
        assert row == labels.n_records == 2048
        assert max(sizes) == 18 and 1024 % 18 != 0
        assert max(tiles) == 4 and sum(tiles) == 2048
