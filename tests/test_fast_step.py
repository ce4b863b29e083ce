"""The render's fast Box–Muller step against the exact one.

render_blocks takes cos and sin from a node table and short polynomials,
then keeps a row only when every float32 sample is settled: no value
within the settle margin of it casts to another float32. Any other row
is rendered again by the exact step. These tests bound the fast cos and
sin, check the settle test at float32 midpoints, force every row onto
the exact step, and compare random models and columns with
synthesize_trace, byte for byte.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_batch import GOLDEN, GOLDEN_NUMPY

from cdtleak import leakage
from cdtleak.cli import main
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    campaign_parts,
    profiling_parts,
    render_blocks,
    synthesize_trace,
)
from cdtleak.leakage import (
    _ANGLE_ERROR,
    _RADIUS_MAX,
    _box_muller,
    _fast_box_muller,
    _fast_cos_sin,
    _settle_margin,
    _unsettled_rows,
)
from cdtleak.sampler import (
    MASK64,
    SamplerParams,
    WordSource,
    default_table,
    sample_coefficient,
    scan_words,
    words,
)
from cdtleak.traceio import LabelSet

F32_MAX = float(np.finfo(np.float32).max)


def _exact_angle(k):
    """The angle the exact step takes for 53-bit angle words k."""
    return 2.0 * np.pi * ((k.astype(np.float64) + 1.0) * 2.0**-53)


class TestFastCosSin:
    def test_error_is_far_below_the_bound(self):
        # 2^22 angle words from four seeds, then both ends of the range
        # and every table node with its neighbours.
        node = np.arange(1 << leakage._NODE_BITS, dtype=np.uint64) << np.uint64(41)
        edges = np.concatenate([[0, (1 << 53) - 1], node, node + np.uint64(1), node[1:] - 1])
        batches = [words([seed], lo, 1 << 18)[0] >> np.uint64(11)
                   for seed in (1, 0xC0FFEE, 2**63, MASK64) for lo in range(0, 1 << 20, 1 << 18)]
        worst = 0.0
        for k in [*batches, edges.astype(np.uint64)]:
            angle = _exact_angle(k)
            cos, sin = _fast_cos_sin(k.copy(), np.empty((4, len(k))))
            worst = max(worst, np.abs(cos - np.cos(angle)).max(),
                        np.abs(sin - np.sin(angle)).max())
        assert worst <= _ANGLE_ERROR / 64

    def test_two_dimensional_words(self):
        k = words([5, 6, 7], 0, 10) >> np.uint64(11)
        cos, sin = _fast_cos_sin(k.copy(), np.empty((4, *k.shape)))
        assert cos.shape == sin.shape == k.shape
        assert np.abs(cos - np.cos(_exact_angle(k))).max() <= _ANGLE_ERROR
        assert np.abs(sin - np.sin(_exact_angle(k))).max() <= _ANGLE_ERROR

    def test_normals_are_within_radius_times_bound(self):
        seeds = np.array([3, 99, 2**63, MASK64], dtype=np.uint64)
        exact = _box_muller(words(seeds, 0, 34))
        fast = _fast_box_muller(words(seeds, 0, 34), np.empty((4, 34)))
        assert np.abs(fast - exact).max() <= _RADIUS_MAX * _ANGLE_ERROR


class TestSettleCheck:
    @staticmethod
    def _unsettled(values, margin):
        y = np.asarray(values, dtype=np.float64)[:, None]
        return _unsettled_rows(y, margin, np.empty(2 * y.size, dtype=np.float32)).tolist()

    @pytest.mark.parametrize("v", [40.0, 1.5, -3.25, 1e-30, -7e37, 2.0**-149])
    def test_midpoints_are_unsettled_and_interiors_settled(self, v):
        v32 = np.float32(v)
        up = float(np.nextafter(v32, np.float32(np.inf)))
        ulp = up - float(v32)
        mid = float(v32) + ulp / 2  # exact in float64
        tiny = ulp * 2.0**-20
        assert self._unsettled([mid, mid - tiny, mid + tiny], 2 * tiny) == [True] * 3
        # Off the midpoint by more than the margin, or on the float32 itself.
        assert self._unsettled([mid - 4 * tiny, mid + 4 * tiny, float(v32)], 2 * tiny) == [
            False, False, False]
        assert self._unsettled([float(v32) + ulp / 4], ulp / 8) == [False]

    def test_overflow_to_inf(self):
        ulp = F32_MAX - float(np.nextafter(np.float32(F32_MAX), np.float32(0)))
        edge = F32_MAX + ulp / 2  # the cast rounds from here on to inf
        tiny = ulp * 2.0**-20
        assert self._unsettled([edge, -edge, edge - tiny], 2 * tiny) == [True] * 3
        # Both casts give the same inf, or the same largest float32.
        assert self._unsettled([1e39, -1e300, F32_MAX, edge - 4 * tiny], 2 * tiny) == [
            False] * 4
        assert self._unsettled([40.0], math.inf) == [True]

    def test_a_zero_is_never_settled(self):
        # Its float32 sign would follow the sign of the fast cos or sin.
        model = LeakModel(alpha=0.0, beta=-0.0, noise_sigma=0.0)
        assert _settle_margin(model) == 2.0**-148
        assert self._unsettled([0.0, -0.0, 2.0**-151], _settle_margin(model)) == [True] * 3

    def test_rows_flag_any_unsettled_sample(self):
        y = np.array([[40.0, 40.0 + 2.0**-19], [1.0, 2.0]])
        scratch = np.empty(2 * y.size, dtype=np.float32)
        assert _unsettled_rows(y, 2.0**-30, scratch).tolist() == [True, False]

    def test_margin_formula(self):
        model = LeakModel(alpha=-1.0, beta=-40.0, noise_sigma=4.0)
        spread = _RADIUS_MAX * 4.0
        want = 2 * spread * _ANGLE_ERROR + 2.0**-48 * (40.0 + 64.0 + spread)
        assert _settle_margin(model) == want
        assert _RADIUS_MAX == math.sqrt(-2.0 * math.log(2.0**-53))


def _rows(seed, count):
    """count coefficients of WordSource(seed) with their labels, and noise sub-seeds."""
    params, table = SamplerParams(logn=9), default_table()
    source = WordSource(seed=seed)
    coeffs = [sample_coefficient(table, params, source) for _ in range(count)]
    draws = words([seed], 0, count * 2 * params.outer_count)
    values, bits = scan_words(table, draws.reshape(count, params.outer_count, 2))
    return coeffs, LabelSet(values, bits), words([seed ^ 0x5EED], 7, count)[0]


def _render(parts, model, layout, columns=None):
    blocks = render_blocks(parts, model, layout, columns)
    return np.concatenate([samples for _, samples in blocks])


class TestForcedFallback:
    """With an infinite margin no sample is settled, so every row takes the exact step."""

    def test_every_row_rendered_exactly(self, monkeypatch):
        params, table = SamplerParams(logn=9), default_table()
        layout, model = TraceLayout.for_params(params, table), LeakModel()
        fast = _render(campaign_parts(20260819, params, table, 1), model, layout)
        calls = []

        def counted(w):
            calls.append(len(w))
            return box_muller(w)

        box_muller = leakage._box_muller
        monkeypatch.setattr(leakage, "_box_muller", counted)
        monkeypatch.setattr(leakage, "_settle_margin", lambda model: math.inf)
        exact = _render(campaign_parts(20260819, params, table, 1), model, layout)
        assert sum(calls) == 1024
        assert exact.tobytes() == fast.tobytes()

    @pytest.mark.skipif(
        np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
    )
    def test_golden_output_bytes(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(leakage, "_settle_margin", lambda model: math.inf)
        out = {"simulate": str(tmp_path / "camp"), "profile": str(tmp_path / "tpl")}
        assert main(["simulate", "--seed", "20260819", "--keys", "1",
                     "--out", out["simulate"]]) == 0
        assert main(["profile", "--seed", "714", "--traces", "1000", "--out", out["profile"]]) == 0
        capsys.readouterr()
        for (command, suffix), digest in GOLDEN.items():
            with open(out[command] + suffix, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, command + suffix


class TestExactPass:
    """A chunk's unsettled rows take the exact step together, a tile of rows per call."""

    @pytest.mark.parametrize("sigma, rows", [(4.0, (291, 140)), (2.284, (169, 79))],
                             ids=["4mV", "2.284mV"])
    def test_readme_fallback_rows_take_one_call_per_chunk(self, monkeypatch, sigma, rows):
        # The README's campaign (20 keys) and profiling set (10,000 traces),
        # and the rows of each that the README says are rendered again.
        params, table = SamplerParams(logn=9), default_table()
        layout, model = TraceLayout.for_params(params, table), LeakModel(noise_sigma=sigma)
        calls = []

        def counted(w):
            calls.append(len(w))
            return box_muller(w)

        box_muller = leakage._box_muller
        monkeypatch.setattr(leakage, "_box_muller", counted)
        sets = [campaign_parts(20260819, params, table, 20),
                profiling_parts(714, params, table, 10000)]
        for parts, want, chunks in zip(sets, rows, (40, 19)):
            calls.clear()
            assert sum(1 for _ in render_blocks(parts, model, layout)) == chunks
            assert sum(calls) == want
            assert len(calls) <= chunks


class TestRenderEqualsSynthesizeTrace:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=MASK64),
        sigma=st.sampled_from([0.0, 1e-3, 4.0, 1e3]),
        beta=st.sampled_from([-0.0, 0.0, 40.0, -1e6, 1e30]),
        alpha=st.sampled_from([0.0, -0.0, 30.0 / 64.0, -1.0]),
        columns=st.lists(st.integers(min_value=0, max_value=431), min_size=1, max_size=12),
    )
    # Zero gains on zero samples: the sum's sign of zero must be synthesize_trace's.
    @example(seed=3, sigma=0.0, beta=-0.0, alpha=-0.0, columns=[3, 0, 211, 3])
    @example(seed=3, sigma=0.0, beta=-0.0, alpha=0.0, columns=[3, 0, 211, 3])
    def test_rows_and_columns(self, seed, sigma, beta, alpha, columns):
        params, table = SamplerParams(logn=9), default_table()
        layout = TraceLayout.for_params(params, table)
        model = LeakModel(alpha=alpha, beta=beta, noise_sigma=sigma)
        coeffs, labels, subseeds = _rows(seed, 5)
        want = np.array([synthesize_trace(c.leaks, model, layout, int(s))
                         for c, s in zip(coeffs, subseeds)])
        # Bytes, so that -0.0 and 0.0 differ.
        assert _render([(labels, subseeds)], model, layout).tobytes() == want.tobytes()
        got = _render([(labels, subseeds)], model, layout, columns)
        assert got.tobytes() == np.ascontiguousarray(want[:, columns]).tobytes()
