"""Leak model and trace synthesis tests.

The noiseless cases pin the signal placement exactly; the Monte Carlo
cases check class statistics at realistic noise. Every random quantity
comes from the package's own word source, so the "statistical" tests are
bit-reproducible and their tolerances were verified once at these seeds.
"""

import numpy as np
import pytest

from cdtleak.cpa import correlation_trace, find_poi
from cdtleak.errors import DomainError, LayoutMismatch, TraceFormatError
from cdtleak.leakage import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    DEFAULT_NOISE_SIGMA,
    LeakModel,
    TraceLayout,
    build_label_set,
    campaign_from_metadata,
    campaign_metadata,
    gaussian_block,
    hamming_weight,
    plant_control_words,
    synthesize_campaign,
    synthesize_profiling_set,
    synthesize_trace,
)
from cdtleak.leakage import _gaussian_matrix
from cdtleak.sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    IterationLeakRecord,
    SamplerParams,
    SequenceWordSource,
    WordSource,
    default_table,
    derive_subseed,
    sample_coefficient,
)


def _blank_record(inner_count, inner_masks=None, neg_mask=0):
    masks = [0] * inner_count
    for k, m in (inner_masks or {}).items():
        masks[k - 1] = m
    return IterationLeakRecord(
        inner_masks=tuple(masks), neg_mask=neg_mask, v_value=0, signed_v=0
    )


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
        for u in range(3):
            for k in range(1, 6):
                assert layout.inner_site_index(u, k) == u * 22 + (k - 1) * 4 + 1
            assert layout.neg_site_index(u) == u * 22 + 20

    def test_site_arrays_match_scalar_indices(self):
        layout = TraceLayout(outer_count=2, inner_count=26)
        matrix = layout.inner_site_matrix()
        assert matrix.shape == (2, 26)
        for u in range(2):
            for k in range(1, 27):
                assert matrix[u, k - 1] == layout.inner_site_index(u, k)
        vector = layout.neg_site_vector()
        assert vector.shape == (2,)
        for u in range(2):
            assert vector[u] == layout.neg_site_index(u)

    def test_default_falcon512_geometry(self):
        layout = TraceLayout.for_params(SamplerParams(logn=9), default_table())
        assert layout.outer_count == 2
        assert layout.inner_count == 26
        assert layout.trace_length == 432

    def test_index_range_checks(self):
        layout = TraceLayout(outer_count=2, inner_count=3)
        with pytest.raises(DomainError):
            layout.inner_site_index(2, 1)
        with pytest.raises(DomainError):
            layout.inner_site_index(0, 0)
        with pytest.raises(DomainError):
            layout.inner_site_index(0, 4)
        with pytest.raises(DomainError):
            layout.neg_site_index(-1)

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
        seeds = np.array([3, 99, 2**63, MASK64], dtype=np.uint64)
        matrix = _gaussian_matrix(seeds, 33)
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
        expected[layout.inner_site_index(0, 2)] = bumped
        expected[layout.neg_site_index(1)] = bumped
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


class TestBuildLabelSet:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            build_label_set([])

    def test_bits_follow_masks(self):
        table = default_table()
        params = SamplerParams(logn=9)
        coeff = sample_coefficient(table, params, WordSource(seed=77))
        labels = build_label_set([coeff])
        for u, rec in enumerate(coeff.leaks):
            for k, mask in enumerate(rec.inner_masks):
                assert labels.inner_bits[0, u, k] == (mask != 0)
            assert labels.neg_bits[0, u] == (rec.neg_mask != 0)
        assert labels.values[0] == coeff.value


class TestCampaign:
    def test_counts_and_metadata(self):
        params = SamplerParams(logn=9)
        table = default_table()
        traces, labels, keys = synthesize_campaign(
            seed=11, params=params, table=table, model=LeakModel()
        )
        assert traces.samples.shape == (1024, 432)
        assert labels.n_records == 1024
        assert len(keys) == 1
        f, g = keys[0]
        assert len(f) == 512 and len(g) == 512
        assert traces.metadata["kind"] == "campaign"
        assert traces.metadata["n_keys"] == "1"
        assert traces.metadata["logn"] == "9"

    def test_row_order_is_f_then_g(self):
        params = SamplerParams(logn=8)
        table = default_table()
        _, labels, keys = synthesize_campaign(
            seed=5, params=params, table=table, model=LeakModel(), n_keys=2
        )
        expected = []
        for f, g in keys:
            expected.extend(f.values())
            expected.extend(g.values())
        assert labels.values.tolist() == expected

    def test_deterministic_and_thread_invariant(self):
        params = SamplerParams(logn=8)
        table = default_table()
        kw = dict(seed=21, params=params, table=table, model=LeakModel())
        a, la, _ = synthesize_campaign(**kw)
        b, lb, _ = synthesize_campaign(**kw)
        c, _, _ = synthesize_campaign(**kw, threads=3)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.samples, c.samples)
        assert a.metadata == b.metadata == c.metadata
        assert np.array_equal(la.values, lb.values)

    def test_rows_match_scalar_synthesis(self):
        params = SamplerParams(logn=7)
        table = default_table()
        model = LeakModel()
        layout = TraceLayout.for_params(params, table)
        seed = 31337
        traces, _, keys = synthesize_campaign(
            seed=seed, params=params, table=table, model=model, threads=2
        )
        f, g = keys[0]
        coefficients = list(f.coefficients) + list(g.coefficients)
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
        traces, labels, _ = synthesize_campaign(
            seed=99, params=params, table=table, model=model
        )
        threshold = model.beta + 32 * model.alpha
        inner = traces.samples[:, layout.inner_site_matrix()] > threshold
        neg = traces.samples[:, layout.neg_site_vector()] > threshold
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
        md = campaign_metadata(7, params, model, layout, kind="campaign")
        got_params, got_layout, got_model = campaign_from_metadata(md, "campaign")
        assert got_layout == layout
        assert got_model == model
        assert got_params == params

    def test_metadata_float_round_trip_is_exact(self):
        # repr round-trips any float, including ones that are not short
        # decimals, so reading a file back gives the identical model.
        model = LeakModel(noise_sigma=30.0 / 13.134808)
        params = SamplerParams(logn=9)
        table = default_table()
        layout = TraceLayout.for_params(params, table)
        md = campaign_metadata(0, params, model, layout, kind="campaign")
        assert campaign_from_metadata(md, "campaign")[2] == model

    def _metadata(self, kind="campaign"):
        params = SamplerParams(logn=9)
        layout = TraceLayout.for_params(params, default_table())
        return campaign_metadata(3, params, LeakModel(), layout, kind=kind)

    def test_metadata_keys_are_the_setup_fields(self):
        assert set(self._metadata()) == {
            "kind", "seed", "logn", "q", "outer_count", "inner_count",
            "samples_per_inner", "samples_per_outer_tail", "leak_offset_inner",
            "leak_offset_neg", "alpha", "beta", "noise_sigma",
        }

    def test_wrong_kind_rejected(self):
        with pytest.raises(TraceFormatError, match="not a profiling campaign"):
            campaign_from_metadata(self._metadata("campaign"), "profiling")
        with pytest.raises(TraceFormatError, match="not a key-generation campaign"):
            campaign_from_metadata(self._metadata("profiling"), "campaign")

    @pytest.mark.parametrize(
        "key, value",
        [("logn", "11"), ("q", "0"), ("noise_sigma", "-1.0"), ("alpha", "nan"),
         ("leak_offset_inner", "8"), ("inner_count", "0")],
    )
    def test_field_its_dataclass_rejects_is_a_format_error(self, key, value):
        md = {**self._metadata(), key: value}
        with pytest.raises(TraceFormatError, match="campaign metadata"):
            campaign_from_metadata(md, "campaign")

    def test_outer_count_must_agree_with_logn(self):
        md = {**self._metadata(), "outer_count": "4"}
        with pytest.raises(TraceFormatError, match="outer_count 4 disagrees with logn 9"):
            campaign_from_metadata(md, "campaign")


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
            assert rec.v_value == slot

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
            assert rec.v_value == 0
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
        assert traces.metadata["kind"] == "profiling"
        assert traces.metadata["fire_slot"] == "1"

    def test_class_means_at_low_voltage_scale(self, profiling_10k):
        traces, labels, layout, model = profiling_10k
        n = labels.n_records
        site = layout.inner_site_index(0, 1)
        hi = traces.samples[: n // 2, site].mean()
        lo = traces.samples[n // 2 :, site].mean()
        # Standard error is sigma / sqrt(5000) ~ 5.7e-5; allow 4 of them.
        tol = 4 * model.noise_sigma / np.sqrt(n // 2)
        assert abs(hi - (model.beta + 64 * model.alpha)) < tol
        assert abs(lo - model.beta) < tol
        neg_site = layout.neg_site_index(0)
        odd = traces.samples[1::2, neg_site].mean()
        even = traces.samples[0::2, neg_site].mean()
        assert abs(odd - (model.beta + 64 * model.alpha)) < tol
        assert abs(even - model.beta) < tol
        baseline = traces.samples[:, layout.inner_site_index(0, 1) - 1].mean()
        assert abs(baseline - model.beta) < tol

    def test_poi_is_planted_site_and_baseline_is_quiet(self, profiling_10k):
        traces, labels, layout, _ = profiling_10k
        hypothesis = 64.0 * labels.inner_bits[:, 0, 0]
        corr = correlation_trace(traces.samples, hypothesis)
        assert find_poi(corr, count=1)[0] == layout.inner_site_index(0, 1)
        assert abs(corr[layout.inner_site_index(0, 1)]) >= 0.95
        leak_sites = set(layout.inner_site_matrix().reshape(-1).tolist())
        leak_sites |= set(layout.neg_site_vector().tolist())
        quiet = np.array(
            [i for i in range(layout.trace_length) if i not in leak_sites]
        )
        assert np.abs(corr[quiet]).max() < 0.05

    def test_fire_slot_two_moves_the_peak(self):
        params = SamplerParams(logn=10)
        table = default_table()
        model = LeakModel()
        traces, labels = synthesize_profiling_set(
            seed=0xF2, params=params, table=table, model=model,
            n_traces=2000, fire_slot=2,
        )
        layout = TraceLayout.for_params(params, table)
        assert labels.inner_bits[:1000, 0, 1].all()
        assert not labels.inner_bits[:, 0, 0].any()
        hypothesis = 64.0 * labels.inner_bits[:, 0, 1]
        corr = correlation_trace(traces.samples, hypothesis)
        assert find_poi(corr, count=1)[0] == layout.inner_site_index(0, 2)

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
