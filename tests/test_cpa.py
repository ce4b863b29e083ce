"""Pearson correlation and POI selection tests.

The frozen scalar oracle: for x = [1,2,3,4], y = [2,4,5,9] the centered
vectors are [-1.5,-0.5,0.5,1.5] and [-3,-1,0,4], giving covariance sum
11, sum of squares 5 and 26, so r = 11 / sqrt(130) = 0.9647638212377322.
Per-column values are otherwise checked against np.corrcoef.
"""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak import leakage
from cdtleak.cli import main
from cdtleak.cpa import correlation_traces, find_poi
from cdtleak.errors import DomainError, LayoutMismatch
from cdtleak.leakage import LeakModel, TraceLayout, synthesize_profiling_set
from cdtleak.sampler import SamplerParams, default_table


def _one(traces, hypothesis):
    """correlation_traces of a single hypothesis: one value per column."""
    return correlation_traces(traces, np.asarray(hypothesis, dtype=np.float64)[None])[0]


def _corrcoef(x, y) -> float:
    return float(np.corrcoef(x, y)[0, 1])


class TestPearson:
    """The correlation of one column with one hypothesis."""

    def test_frozen_hand_computed_value(self):
        r = _one(np.array([[1.0], [2.0], [3.0], [4.0]]), [2, 4, 5, 9])
        assert r.shape == (1,)
        assert r[0] == pytest.approx(11.0 / 130.0**0.5, abs=1e-12)
        assert r[0] == pytest.approx(0.9647638212377322, abs=1e-12)

    def test_perfect_correlation(self):
        x = np.array([3.0, -1.0, 4.0, 1.5, 9.0])
        r = correlation_traces(x[:, None], [x, -x, 2.0 * x + 7.0])[:, 0]
        assert r == pytest.approx([1.0, -1.0, 1.0], abs=1e-12)

    def test_error_paths(self):
        # Too few traces, a hypothesis with zero variance, and a length
        # mismatch. A zero-variance column is no error: it correlates 0.
        with pytest.raises(DomainError, match="at least two traces"):
            _one([[1.0]], [2.0])
        with pytest.raises(DomainError, match="zero variance"):
            _one([[1.0], [2.0]], [3.0, 3.0])
        with pytest.raises(LayoutMismatch, match="^2 traces but 3 hypothesis values$"):
            _one([[1.0], [2.0]], [1.0, 2.0, 3.0])
        assert _one([[1.0], [1.0]], [2.0, 3.0]).tolist() == [0.0]

    def test_bounded_on_random_inputs(self):
        rng = np.random.default_rng(51)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            r = _one(rng.normal(size=(n, 3)), rng.normal(size=n))
            assert np.abs(r).max() <= 1.0 + 1e-9

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        # Keep shift/scale moderate: extreme ratios lose the signal to
        # cancellation before the correlation is even computed.
        scale=st.floats(min_value=1e-2, max_value=1e2),
        shift=st.floats(min_value=-1e2, max_value=1e2),
    )
    def test_affine_invariance(self, seed, scale, shift):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=16)
        y = rng.normal(size=16)
        r = _one(x[:, None], y)[0]
        assert r == pytest.approx(_corrcoef(x, y), abs=1e-12)
        transformed = np.stack([scale * x + shift, -scale * x + shift], axis=1)
        assert _one(transformed, y) == pytest.approx([r, -r], abs=1e-9)


class TestCorrelationTrace:
    """correlation_traces with one hypothesis: a correlation per column."""

    def test_planted_column_matches_hypothesis(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=500)
        traces = rng.normal(size=(500, 12))
        traces[:, 5] = h
        corr = _one(traces, h)
        assert corr.shape == (12,)
        assert corr[5] == pytest.approx(1.0, abs=1e-12)
        assert np.abs(np.delete(corr, 5)).max() < 0.2

    def test_matches_scalar_pearson_per_column(self):
        rng = np.random.default_rng(8)
        traces = rng.normal(size=(50, 300))
        h = rng.normal(size=50)
        corr = _one(traces, h)
        for j in range(300):
            assert corr[j] == pytest.approx(_corrcoef(traces[:, j], h), abs=1e-12)

    def test_chunk_seams(self):
        # 8,193 columns make tiles of 7 rows, so the 10 rows take two;
        # columns across the whole width agree with the scalar value.
        rng = np.random.default_rng(9)
        traces = rng.normal(size=(10, 8193))
        h = rng.normal(size=10)
        corr = _one(traces, h)
        for j in (0, 4094, 4095, 4096, 4097, 8191, 8192):
            assert corr[j] == pytest.approx(_corrcoef(traces[:, j], h), abs=1e-12)

    def test_zero_variance_column_is_zero(self):
        rng = np.random.default_rng(10)
        traces = rng.normal(size=(30, 4))
        traces[:, 2] = 41.0
        corr = _one(traces, rng.normal(size=30))
        assert corr[2] == 0.0

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(11)
        traces = rng.normal(size=(20, 5000))
        h = rng.normal(size=20)
        perm = rng.permutation(5000)
        direct = _one(traces, h)
        permuted = _one(traces[:, perm], h)
        # A BLAS may sum a column in another order once it moves, so
        # the values need not keep their bits; they agree far below any
        # POI-ranking margin.
        assert np.abs(permuted - direct[perm]).max() < 1e-12

    def test_float32_input_accepted(self):
        rng = np.random.default_rng(12)
        traces = rng.normal(size=(40, 6)).astype(np.float32)
        h = traces[:, 3].astype(np.float64)
        corr = _one(traces, h)
        assert corr[3] == pytest.approx(1.0, abs=1e-6)

    def test_error_paths(self):
        rng = np.random.default_rng(13)
        traces = rng.normal(size=(10, 4))
        with pytest.raises(DomainError, match="^traces must be a 2-D matrix$"):
            _one(traces[0], rng.normal(size=4))
        with pytest.raises(DomainError, match="^hypotheses must be a non-empty 2-D matrix$"):
            correlation_traces(traces, np.ones((1, 10, 1)))
        with pytest.raises(LayoutMismatch, match="^10 traces but 9 hypothesis values$"):
            _one(traces, rng.normal(size=9))
        with pytest.raises(DomainError, match="^need at least two traces$"):
            _one(traces[:1], rng.normal(size=1))
        with pytest.raises(DomainError, match="^hypothesis has zero variance$"):
            _one(traces, np.full(10, 3.0))

    def test_noiseless_campaign_peak_is_exact(self):
        params = SamplerParams(logn=10)
        table = default_table()
        traces, labels = synthesize_profiling_set(
            seed=6,
            params=params,
            table=table,
            model=LeakModel(noise_sigma=0.0),
            n_traces=400,
        )
        layout = TraceLayout.for_params(params, table)
        corr = _one(traces.samples, 64.0 * labels.inner_bits[:, 0, 0])
        site = layout.site_matrix()[0, 0]
        assert find_poi(corr) == site
        assert corr[site] == pytest.approx(1.0, abs=1e-9)


def _cuts(rows, seed):
    """Row blocks of a matrix: the render's chunks and tiles, single rows, and random cuts."""
    rng = np.random.default_rng(seed)
    yield [606] * (rows // 606) + [rows % 606]
    yield [1] * min(rows, 40) + [max(0, rows - 40)]
    for _ in range(3):
        sizes = []
        while sum(sizes) < rows:
            sizes.append(int(rng.integers(0, 400)))
        yield sizes


def _blocks(traces, sizes):
    """An iterator over the row blocks of `traces` with the given sizes, in order."""
    starts = np.cumsum([0, *sizes])
    return iter([traces[lo:hi] for lo, hi in zip(starts[:-1], starts[1:]) if lo < len(traces)])


class TestCorrelationTraces:
    ROWS = 1000

    @staticmethod
    def _campaign(rows, columns, dtype, seed):
        rng = np.random.default_rng(seed)
        traces = (40.0 + 4.0 * rng.normal(size=(rows, columns))).astype(dtype)
        bits = rng.integers(0, 2, size=(3, rows))
        traces[:, columns // 2] += 30.0 * bits[0]
        if columns >= 3:
            traces[:, 0] = 41.0
        return traces, 64.0 * bits

    @pytest.mark.parametrize("columns", [1, 3, 31, 32, 33, 215, 432, 4097])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    def test_bit_identical_to_whole_chunks(self, columns, dtype):
        """The whole matrix in one chunk and any cut of its rows into blocks give the
        same bits; every value is Pearson's r to 1e-12, and a flat column gives 0.0."""
        traces, hyps = self._campaign(self.ROWS, columns, dtype, columns)
        want = correlation_traces(traces, hyps)
        assert want.shape == (3, columns) and want.dtype == np.float64
        for sizes in _cuts(self.ROWS, columns):
            got = correlation_traces(_blocks(traces, sizes), hyps)
            assert np.array_equal(got, want), sizes
        for j in range(1 if columns >= 3 else 0, columns, max(1, columns // 40)):
            for h, r in zip(hyps, want[:, j]):
                assert r == pytest.approx(_corrcoef(traces[:, j], h), abs=1e-12)
        if columns >= 3:
            assert (want[:, 0] == 0.0).all()
        assert abs(want[0, columns // 2]) > 0.5

    def test_tiles_span_blocks_and_rows_beyond_one_tile(self):
        # 100 columns make tiles of 655 rows, so 3,000 rows take five tiles
        # and the odd cuts below end blocks inside tiles.
        traces, hyps = self._campaign(3000, 100, np.float32, 7)
        want = correlation_traces(traces, hyps)
        for sizes in ([1000, 1000, 1000], [654, 2, 999, 1345], [3000]):
            assert np.array_equal(correlation_traces(_blocks(traces, sizes), hyps), want)
        for j in range(1, 100, 7):
            assert want[0, j] == pytest.approx(_corrcoef(traces[:, j], hyps[0]), abs=1e-12)

    @pytest.mark.parametrize("columns", [33, 432])
    def test_rows_equal_correlation_trace(self, columns):
        traces, hyps = self._campaign(self.ROWS, columns, np.float32, 5)
        got = correlation_traces(traces, list(hyps))
        for row, h in zip(got, hyps):
            assert np.array_equal(row, _one(traces, h))

    def test_hypothesis_scale_changes_no_bit(self):
        # profile correlates against the class bits, not 64 times them.
        traces, hyps = self._campaign(self.ROWS, 432, np.float32, 8)
        bits = (hyps > 0).astype(bool)
        assert np.array_equal(correlation_traces(traces, bits), correlation_traces(traces, hyps))

    def test_error_paths(self):
        rng = np.random.default_rng(16)
        traces = rng.normal(size=(10, 4))
        hyps = rng.normal(size=(2, 10))
        hyps_2d = "^hypotheses must be a non-empty 2-D matrix$"
        with pytest.raises(DomainError, match="^traces must be a 2-D matrix$"):
            correlation_traces(traces[0], hyps)
        with pytest.raises(DomainError, match=hyps_2d):
            correlation_traces(traces, hyps[0])
        with pytest.raises(DomainError, match=hyps_2d):
            correlation_traces(traces, np.ones((2, 10, 1)))
        with pytest.raises(DomainError, match=hyps_2d):
            correlation_traces(traces, np.empty((0, 10)))
        with pytest.raises(LayoutMismatch, match="^10 traces but 9 hypothesis values$"):
            correlation_traces(traces, hyps[:, :9])
        with pytest.raises(DomainError, match="^need at least two traces$"):
            correlation_traces(traces[:1], hyps[:, :1])
        with pytest.raises(DomainError, match="^hypothesis has zero variance$"):
            correlation_traces(traces, np.stack([hyps[0], np.full(10, 3.0)]))
        # A stream with too few or too many rows, or a block that does
        # not continue the rows before it.
        with pytest.raises(LayoutMismatch, match="^9 traces but 10 hypothesis values$"):
            correlation_traces(iter([traces[:9]]), hyps)
        with pytest.raises(LayoutMismatch, match="^more than 10 traces for 10 hypothesis"):
            correlation_traces(iter([traces, traces[:1]]), hyps)
        with pytest.raises(LayoutMismatch, match="^0 traces but 10 hypothesis values$"):
            correlation_traces(iter([]), hyps)
        with pytest.raises(LayoutMismatch, match=r"^trace block of shape \(5, 3\) does not continue"):
            correlation_traces(iter([traces[:5], traces[5:, :3]]), hyps)
        with pytest.raises(LayoutMismatch, match=r"^trace block of shape \(4,\) does not continue"):
            correlation_traces(iter([traces[0]]), hyps)

    def test_no_columns(self):
        rng = np.random.default_rng(17)
        got = correlation_traces(np.empty((5, 0)), rng.normal(size=(2, 5)))
        assert got.shape == (2, 0)
        got = correlation_traces(iter([np.empty((2, 0)), np.empty((3, 0))]),
                                 rng.normal(size=(2, 5)))
        assert got.shape == (2, 0)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_profile_peak_memory_does_not_grow_with_traces(self, monkeypatch, tmp_path, threads):
        # The samples stream through the correlation and only the POI
        # columns are rendered again, so 30,000 more traces add only
        # their planted classes, 2 bytes each, to the peak.
        monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)

        def peak(traces):
            argv = ["profile", "--traces", str(traces), "--out", str(tmp_path / "p")]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(10_000), peak(40_000)
        assert large - small < 2 * 2**20, (small, large)


class TestFindPoi:
    def test_unique_maximum(self):
        assert find_poi(np.array([0.1, -0.9, 0.5])) == 1

    def test_tie_resolves_to_lower_index(self):
        corr = np.zeros(12)
        corr[3] = 0.7
        corr[9] = -0.7
        assert find_poi(corr) == 3

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(14)
        corr = rng.uniform(-1, 1, size=200)
        corr[17] = corr[3]
        expected = sorted(range(200), key=lambda i: (-abs(corr[i]), i))
        assert find_poi(corr) == expected[0]
        # A tie at the maximum goes to the lower index.
        corr[199] = -corr[expected[0]]
        assert find_poi(corr) == expected[0]

    def test_input_validation(self):
        with pytest.raises(DomainError, match="^correlations must be a non-empty 1-D array$"):
            find_poi(np.ones((2, 2)))
        with pytest.raises(DomainError, match="^correlations must be a non-empty 1-D array$"):
            find_poi(np.array([]))
