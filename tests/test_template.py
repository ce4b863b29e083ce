"""Template estimation, classification, and the Gaussian success model.

Independent oracles used here:
  * overlap of two unit-variance Gaussians 4 sigma apart is
    2 * Phi(-2) = erfc(sqrt(2)) = 0.04550026389635842 (pinned to 1e-15);
  * unequal-variance overlap is cross-checked against piecewise CDF
    arithmetic built on statistics.NormalDist and numpy.roots, and
    against frozen 100-digit references at 1e-13 relative;
  * with equal class variances the ML rule must equal a midpoint
    threshold, so a big Monte Carlo run is verified two ways at once.

Classification runs through the attack's own kernel, recover's
_DecodeCore.margins, on one-row input; tests/decode_oracle.py's
log_likelihood gives the per-class values.
"""

import math
import statistics
import sys
import numpy as np
import pytest
from decode_oracle import log_likelihood as _log_likelihood
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak.errors import DomainError, TemplateFormatError
from cdtleak.leakage import TraceLayout, gaussian_block
from cdtleak.recover import _DecodeCore, recover_key
from cdtleak.sampler import SamplerParams, default_table
from cdtleak.template import (
    VAR_FLOOR,
    ClassStats,
    Template,
    build_template,
    encode_template,
    full_key_success,
    gaussian_overlap,
    load_template,
    per_coefficient_success,
    success_from_overlap,
)
from cdtleak.traceio import TraceSet


def _two_class_template(mu0=40.0, mu1=70.0, var=16.0, poi=0):
    return Template(
        poi=poi,
        class0=ClassStats(mu=mu0, var=var, count=100),
        class1=ClassStats(mu=mu1, var=var, count=100),
    )


# A template file that lists two POIs, with class fields for each.
TWO_POI_TPL = """\
version=1
pois=3,403
class0.mu.0=40.0
class0.var.0=16.0
class0.count.0=5000
class0.mu.1=40.0
class0.var.1=16.0
class0.count.1=5000
class1.mu.0=70.0
class1.var.0=16.0
class1.count.0=5000
class1.mu.1=40.0
class1.var.1=16.0
class1.count.1=5000
"""


class TestClassStats:
    def test_validation(self):
        with pytest.raises(DomainError):
            ClassStats(mu=float("nan"), var=1.0, count=1)
        with pytest.raises(DomainError):
            ClassStats(mu=0.0, var=0.0, count=1)
        with pytest.raises(DomainError):
            ClassStats(mu=0.0, var=-1.0, count=1)
        with pytest.raises(DomainError, match="at least 1e-12"):
            ClassStats(mu=0.0, var=VAR_FLOOR / 2.0, count=1)
        assert ClassStats(mu=0.0, var=VAR_FLOOR, count=1).var == VAR_FLOOR
        with pytest.raises(DomainError):
            ClassStats(mu=0.0, var=1.0, count=-1)


class TestBuildTemplate:
    def test_noiseless_class_hits_variance_floor(self):
        traces = np.array([[40.0], [40.0], [70.0], [70.0]])
        labels = np.array([0, 0, 1, 1], dtype=bool)
        t = build_template(traces, labels, 0)
        assert t.class0.mu == 40.0
        assert t.class1.mu == 70.0
        assert t.class0.var == VAR_FLOOR
        assert t.class1.var == VAR_FLOOR
        assert t.class0.count == 2
        assert t.class1.count == 2

    def test_estimates_converge(self):
        n = 10_000
        sigma = 0.004
        g0 = 0.040 + sigma * gaussian_block(101, n)
        g1 = 0.070 + sigma * gaussian_block(102, n)
        traces = np.concatenate([g0, g1])[:, None]
        labels = np.concatenate([np.zeros(n, bool), np.ones(n, bool)])
        t = build_template(traces, labels, 0)
        mu_tol = 4 * sigma / math.sqrt(n)
        assert abs(t.class0.mu - 0.040) < mu_tol
        assert abs(t.class1.mu - 0.070) < mu_tol
        # Variance of the sample variance is 2 sigma^4 / (n - 1).
        var_tol = 4 * sigma**2 * math.sqrt(2.0 / (n - 1))
        assert abs(t.class0.var - sigma**2) < var_tol
        assert abs(t.class1.var - sigma**2) < var_tol
        assert t.class0.count == n

    def test_poi_column_selection(self):
        rng = np.random.default_rng(44)
        traces = rng.normal(size=(64, 10))
        traces[:32, 7] += 5.0
        labels = np.arange(64) >= 32
        t = build_template(traces, labels, 7)
        assert t.poi == 7
        assert t.class0.mu - t.class1.mu == pytest.approx(5.0, abs=1.0)

    def test_error_paths(self):
        traces = np.zeros((4, 3))
        with pytest.raises(DomainError, match="^class 1 has 0 traces, need at least 2$"):
            build_template(traces, [0, 0, 0, 0], 0)
        with pytest.raises(DomainError, match="^class 1 has 1 traces, need at least 2$"):
            build_template(traces, [0, 0, 0, 1], 0)
        with pytest.raises(DomainError, match="^POI -1 outside trace of length 3$"):
            build_template(traces, [0, 0, 1, 1], -1)
        # A float POI is not fitted at its truncation.
        with pytest.raises(DomainError, match=r"^POI must be an integer, got 2\.9$"):
            build_template(traces, [0, 0, 1, 1], 2.9)
        assert build_template(traces, [0, 0, 1, 1], np.int64(2)).poi == 2
        with pytest.raises(DomainError):
            build_template(traces, [0, 0, 1, 1], 3)
        with pytest.raises(DomainError):
            build_template(np.zeros(4), [0, 0, 1, 1], 0)
        with pytest.raises(DomainError):
            build_template(traces, [[0, 0], [1, 1]], 0)


def _margins(rows, template):
    """Attack margins of each row at the inner site, sample 0: (rows,) float64.

    The rows go in front of a one-site layout whose inner site is sample 0.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    width = rows.shape[1]
    layout = TraceLayout(1, 1, samples_per_inner=1, samples_per_outer_tail=width,
                         leak_offset_inner=0, leak_offset_neg=0)
    samples = np.zeros((len(rows), layout.trace_length))
    samples[:, :width] = rows
    core = _DecodeCore(template, template, layout, len(rows))
    return core.margins([samples[:, c] for c in core.columns], 0)[:, 0]


def _decision(trace, template):
    """The attack's decision for one trace: all ones when the margin is positive."""
    return int(_margins(trace, template)[0] > 0.0)


class TestClassify:
    def test_obvious_cases(self):
        t = _two_class_template()
        assert _decision([10.0], t) == 0
        assert _decision([90.0], t) == 1
        assert _decision([54.0], t) == 0
        assert _decision([56.0], t) == 1

    def test_exact_tie_goes_to_class_zero(self):
        t = _two_class_template(mu0=40.0, mu1=70.0)
        x = np.array([55.0])
        assert _log_likelihood(x, t.class0) == _log_likelihood(x, t.class1)
        assert _margins([55.0], t)[0] == 0.0
        assert _decision([55.0], t) == 0
        # recover_key applies the same rule: every site at the midpoint is a 0.
        params = SamplerParams(logn=9)
        layout = TraceLayout.for_params(params, default_table())
        midpoint = TraceSet(np.full((2 * params.n, layout.trace_length), 55.0, np.float32))
        report = recover_key(midpoint, t, t, layout, params)
        assert report.inner_sites_ones == report.neg_sites_ones == 0

    def test_variance_scale_does_not_flip_decisions(self):
        base = _two_class_template(var=4.0)
        scaled = _two_class_template(var=400.0)
        for x in (10.0, 54.9, 55.1, 200.0, -30.0):
            assert _decision([x], base) == _decision([x], scaled)

    def test_loglikelihood_values(self):
        t = _two_class_template(mu0=0.0, mu1=1.0, var=1.0)
        x = np.array([0.0])
        ll0 = _log_likelihood(x, t.class0)[0]
        ll1 = _log_likelihood(x, t.class1)[0]
        assert ll0 == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)
        assert ll1 == pytest.approx(-0.5 * math.log(2 * math.pi) - 0.5, abs=1e-12)
        assert _margins([0.0], t)[0] == pytest.approx(-0.5, abs=1e-12)

    def test_ml_rule_equals_midpoint_threshold_in_bulk(self):
        # With equal variances the likelihood decision is a midpoint
        # threshold; run 50k classifications and verify both views agree
        # and the error rate sits at its predicted value.
        d = 3.2897072539029457  # separation with per-site error 0.05
        sigma = 30.0 / d
        t = _two_class_template(mu0=40.0, mu1=70.0, var=sigma**2)
        n = 25_000
        x0 = 40.0 + sigma * gaussian_block(7001, n)
        x1 = 70.0 + sigma * gaussian_block(7002, n)
        errors = 0
        for sample, truth in ((x0, 0), (x1, 1)):
            decisions = _margins(sample[:, None], t) > 0.0
            assert np.array_equal(decisions, sample > 55.0)
            errors += int((decisions != truth).sum())
        expected = 0.05 * 2 * n
        band = 3 * math.sqrt(2 * n * 0.05 * 0.95)
        assert abs(errors - expected) < band


# Class parameters of the sign (neg) and inner templates that
# `profile --seed 714 --traces 10000` writes at the default noise
# (4 mV) and at --noise-sigma 2.284, as (mu0, var0, mu1, var1).
README_TEMPLATES = {
    "inner-4mV": (40.12325946311951, 16.60793261714719, 69.99145834960937, 16.19086467487027),
    "neg-4mV": (39.904774209976196, 15.928142616930257, 70.02225195236205, 16.158248193619492),
    "inner-2.284mV": (40.070381143951415, 5.414866910440112, 69.99512267074584, 5.278885354063284),
    "neg-2.284mV": (39.94562604942322, 5.193227503293858, 70.01270586776734, 5.268251275142768),
}

# Overlap areas of README_TEMPLATES and of the unequal-variance grid,
# computed once at 400 significant digits (mpmath: the exact crossings,
# then the narrow class's tails plus the wide class's mass between them)
# and cross-checked there against quadrature of min(p0, p1).
OVERLAP_REFERENCES = [
    pytest.param(
        README_TEMPLATES["inner-4mV"],
        "2.26147442726632708252859574049876490253706543015236678683503066990135069031069335275293806838112612129355e-4",
        id="inner-4mV",
    ),
    pytest.param(
        README_TEMPLATES["neg-4mV"],
        "1.7015866092677953834246879514222235544237405018406113859584437906652350861504205719139498366336582720435e-4",
        id="neg-4mV",
    ),
    pytest.param(
        README_TEMPLATES["inner-2.284mV"],
        "9.7472304078957828657168170157761981342147503087283816655598264296067343787828033981233563863618104201139e-11",
        id="inner-2.284mV",
    ),
    pytest.param(
        README_TEMPLATES["neg-2.284mV"],
        "4.92165840223188751483440305450815453538828986268848153215402076014245678439099800888439266677506277932453e-11",
        id="neg-2.284mV",
    ),
    pytest.param(
        (0.0, 1.0, 1.0, 4.0),
        "0.609934339878944338947048631179188193933372063399679963498404511980484800422856090720042455601018293013162",
        id="0,1,1,4",
    ),
    pytest.param(
        (40.0, 16.0, 70.0, 25.0),
        "8.5241912624799374930711870658220825305019924612373750239283951235727825272300113024460864964727506060245e-4",
        id="40,16,70,25",
    ),
    pytest.param(
        (0.0, 1.0, 0.0, 9.0),
        "0.515672003468300567553249886383032810925227502740440107632432818850581810461836737857200021819823029180646",
        id="0,1,0,9",
    ),
    pytest.param(
        (-3.0, 0.25, 2.0, 2.0),
        "7.89827792356850078301705389573558335265057888062727075964247366289145047755448750121515671295937894173395e-3",
        id="-3,0.25,2,2",
    ),
]


def _log_density(x, mu, var):
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mu) ** 2 / var)


means = st.floats(-1e8, 1e8)
variances = st.floats(-12.0, 12.0).map(lambda e: 10.0**e)


class TestGaussianOverlap:
    def test_identical_densities(self):
        assert gaussian_overlap(3.0, 2.0, 3.0, 2.0) == 1.0
        nearly = gaussian_overlap(3.0, 2.0, 3.0, 2.0 * (1.0 + 1e-12))
        assert nearly == pytest.approx(1.0, abs=1e-9)

    def test_four_sigma_frozen_value(self):
        area = gaussian_overlap(0.0, 1.0, 4.0, 1.0)
        assert type(area) is float
        assert area == pytest.approx(0.04550026389635842, abs=1e-15)
        scaled = gaussian_overlap(40.0, 16.0, 56.0, 16.0)
        assert scaled == pytest.approx(area, abs=1e-15)

    def test_extreme_separation_underflows_to_zero(self):
        assert gaussian_overlap(0.0, 1.0, 100.0, 1.0) == 0.0
        assert gaussian_overlap(0.0, 1.0, 100.0, 1.0 + 1e-12) == 0.0

    def test_numeric_matches_closed_form(self):
        # Nearly equal variances take the crossing path; equal ones the
        # erfc expression.
        for d in (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 12.0):
            closed = gaussian_overlap(0.0, 1.0, d, 1.0)
            numeric = gaussian_overlap(0.0, 1.0, d, 1.0 + 1e-12)
            assert abs(numeric - closed) <= 1e-12
        wide = gaussian_overlap(40.0, 16.0, 70.0, 16.0)
        assert wide == pytest.approx(
            math.erfc(30.0 / (2.0 * math.sqrt(2.0) * 4.0)), abs=1e-9
        )

    @staticmethod
    def _cdf_oracle(mu0, var0, mu1, var1):
        """Overlap via piecewise CDF arithmetic, no quadrature involved.

        Each piece belongs to the class with the lower density at its
        midpoint, compared in logs: far from both means the densities
        underflow to 0 and a pdf comparison would tie.
        """
        a = 1.0 / var1 - 1.0 / var0
        b = -2.0 * (mu1 / var1 - mu0 / var0)
        c = mu1**2 / var1 - mu0**2 / var0 + math.log(var1 / var0)
        crossings = sorted(
            float(r) for r in np.roots([a, b, c]) if abs(r.imag) < 1e-12
        )
        n0 = statistics.NormalDist(mu0, math.sqrt(var0))
        n1 = statistics.NormalDist(mu1, math.sqrt(var1))
        edges = [-math.inf, *crossings, math.inf]
        area = 0.0
        for lo, hi in zip(edges, edges[1:]):
            mid = (
                (lo + hi) / 2
                if math.isfinite(lo) and math.isfinite(hi)
                else (hi - 1.0 if math.isfinite(hi) else lo + 1.0)
            )
            lower0 = _log_density(mid, mu0, var0) <= _log_density(mid, mu1, var1)
            dist = n0 if lower0 else n1
            area += dist.cdf(hi) - dist.cdf(lo) if math.isfinite(hi) else 1.0 - dist.cdf(lo)
        return area

    @pytest.mark.parametrize(
        "mu0,var0,mu1,var1",
        [
            (0.0, 1.0, 1.0, 4.0),
            (40.0, 16.0, 70.0, 25.0),
            (0.0, 1.0, 0.0, 9.0),
            (-3.0, 0.25, 2.0, 2.0),
            *README_TEMPLATES.values(),
        ],
    )
    def test_unequal_variances_match_cdf_oracle(self, mu0, var0, mu1, var1):
        got = gaussian_overlap(mu0, var0, mu1, var1)
        want = self._cdf_oracle(mu0, var0, mu1, var1)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("args, reference", OVERLAP_REFERENCES)
    def test_matches_high_precision_reference(self, args, reference):
        assert gaussian_overlap(*args) == pytest.approx(float(reference), rel=1e-13, abs=0.0)

    def test_extreme_variance_ratios(self):
        # Reference at 400 digits, as for OVERLAP_REFERENCES.
        tiny = gaussian_overlap(40.0, 1e-12, 70.0, 16.0)
        assert tiny == pytest.approx(1.14595861963327148222475143941758693e-18, rel=1e-9, abs=0.0)
        wide = gaussian_overlap(0.0, 1e-300, 0.0, 1e300)
        assert math.isfinite(wide) and 0.0 <= wide <= 1.0

    def test_no_nan_on_extreme_grid(self):
        means = (0.0, 1e8, -1e150, 1e300, 1.7e308)
        variances = (5e-324, 1e-300, 1e-12, 1.0, 1e12, 1e300, 1.7e308)
        classes = [(m, v) for m in means for v in variances]
        for mu0, var0 in classes:
            for mu1, var1 in classes:
                area = gaussian_overlap(mu0, var0, mu1, var1)
                assert 0.0 <= area <= 1.0, (mu0, var0, mu1, var1)
                assert gaussian_overlap(mu1, var1, mu0, var0) == area

    def test_subnormal_variances_rescale_exactly(self):
        # x -> x * 2**537 maps variances 5e-324 and 1e-323 to 1 and 2.
        want = gaussian_overlap(0.0, 1.0, 0.0, 2.0)
        assert gaussian_overlap(0.0, 5e-324, 0.0, 1e-323) == pytest.approx(want, abs=1e-15)
        assert gaussian_overlap(1e300, 5e-324, 1e300, 1e-323) == pytest.approx(
            want, abs=1e-15
        )

    def test_overflowing_intermediates(self):
        # The separation overflows, but not in units of the common sigma.
        assert gaussian_overlap(-1e154, 1.7e308, 1e154, 1.7e308) == pytest.approx(
            gaussian_overlap(-1.0, 1.7, 1.0, 1.7), rel=1e-12
        )
        assert gaussian_overlap(-1.7e308, 1.0, 1.7e308, 1.0) == 0.0
        # 2 * var_w overflows; the ratio of 17 does not.
        assert gaussian_overlap(0.0, 1e307, 0.0, 1.7e308) == pytest.approx(
            gaussian_overlap(0.0, 1.0, 0.0, 17.0), rel=1e-12
        )
        # log(var_w) - log(var_n) rounds to 0 for adjacent variances.
        assert gaussian_overlap(0.0, 1e-300, 0.0, math.nextafter(1e-300, 1.0)) == 1.0

    def test_symmetry(self):
        assert (
            gaussian_overlap(1.0, 2.0, 5.0, 2.0)
            == gaussian_overlap(5.0, 2.0, 1.0, 2.0)
        )
        assert (
            gaussian_overlap(1.0, 2.0, 5.0, 3.0)
            == gaussian_overlap(5.0, 3.0, 1.0, 2.0)
        )

    @settings(max_examples=300, deadline=None)
    @given(mu0=means, var0=variances, mu1=means, var1=variances)
    def test_property_bounded_and_swap_exact(self, mu0, var0, mu1, var1):
        area = gaussian_overlap(mu0, var0, mu1, var1)
        assert math.isfinite(area) and 0.0 <= area <= 1.0
        assert gaussian_overlap(mu1, var1, mu0, var0) == area

    @settings(max_examples=300, deadline=None)
    @given(mu0=means, var=variances, mu1=means)
    def test_property_equal_and_nearly_equal_variances(self, mu0, var, mu1):
        equal = gaussian_overlap(mu0, var, mu1, var)
        assert equal == math.erfc(abs(mu1 - mu0) / (2.0 * math.sqrt(2.0 * var)))
        nearly = gaussian_overlap(mu0, var, mu1, var * (1.0 + 1e-12))
        # Subnormal areas cannot carry 1e-9 relative precision.
        assert math.isclose(
            nearly, equal, rel_tol=1e-9, abs_tol=1e-9 * sys.float_info.min
        )

    def test_monotone_in_separation(self):
        areas = [gaussian_overlap(0.0, 1.0, d, 1.0) for d in (0.0, 1.0, 2.0, 3.0)]
        assert areas == sorted(areas, reverse=True)
        assert len(set(areas)) == 4

    def test_error_paths(self):
        with pytest.raises(DomainError):
            gaussian_overlap(0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            gaussian_overlap(0.0, 1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            gaussian_overlap(float("nan"), 1.0, 1.0, 1.0)


class TestSuccessModel:
    def test_success_from_overlap_trivials(self):
        assert success_from_overlap(1.0) == 0.5
        assert success_from_overlap(0.0) == 1.0
        assert success_from_overlap(5.12e-11) == 1.0 - 2.56e-11
        with pytest.raises(DomainError):
            success_from_overlap(-0.1)
        with pytest.raises(DomainError):
            success_from_overlap(1.1)

    def test_per_coefficient_product(self):
        p = per_coefficient_success(0.99999999999, 0.999999999999, 26, 2)
        assert p == pytest.approx(0.999999999478, abs=1e-15)
        # Same product through log1p, a different numeric route.
        log_route = math.exp(52 * math.log1p(-1e-11) + 2 * math.log1p(-1e-12))
        assert p == pytest.approx(log_route, abs=1e-15)

    def test_per_coefficient_trivials(self):
        assert per_coefficient_success(0.5, 1.0, 1, 1) == 0.5
        assert per_coefficient_success(1.0, 1.0, 26, 2) == 1.0

    def test_full_key_frozen_values(self):
        p = 0.99999999999**52 * 0.999999999999**2
        assert full_key_success(p, 512) == pytest.approx(0.999999465472144, abs=1e-15)
        assert full_key_success(p, 1024) == pytest.approx(0.9999989309445737, abs=1e-15)
        assert full_key_success(1.0, 512) == 1.0
        assert full_key_success(p, 1024) < full_key_success(p, 512)

    def test_validation(self):
        with pytest.raises(DomainError, match=r"^p_inner must lie in \[0, 1\]$"):
            per_coefficient_success(1.1, 1.0, 26, 2)
        with pytest.raises(DomainError, match=r"^p_neg must lie in \[0, 1\]$"):
            per_coefficient_success(1.0, -0.1, 26, 2)
        for counts in ((0, 2), (26, 0)):
            with pytest.raises(DomainError, match="^iteration counts must be positive$"):
                per_coefficient_success(1.0, 1.0, *counts)
        for n in (0, -1):
            with pytest.raises(DomainError, match="^n must be positive$"):
                full_key_success(0.5, n)
        with pytest.raises(DomainError, match=r"^p_coefficient must lie in \[0, 1\]$"):
            full_key_success(1.5, 512)


class TestTemplateFiles:
    def test_round_trip_is_exact(self, tmp_path):
        for t in (
            Template(poi=17, class0=ClassStats(mu=40.125, var=16.0, count=5000),
                     class1=ClassStats(mu=70.0 / 3.0, var=2.0 / 7.0, count=5000)),
            Template(poi=3, class0=ClassStats(mu=0.1, var=VAR_FLOOR, count=2),
                     class1=ClassStats(mu=-1.5e-8, var=0.0625, count=2)),
        ):
            path = tmp_path / "t.tpl"
            path.write_bytes(encode_template(t))
            assert load_template(path) == t

    def test_two_pois_refused(self, tmp_path):
        path = tmp_path / "t.tpl"
        path.write_text(TWO_POI_TPL)
        with pytest.raises(TemplateFormatError, match="^field 'pois': invalid literal for int"):
            load_template(path)

    def test_comment_refused_blank_lines_skipped(self, tmp_path):
        t = _two_class_template()
        path = tmp_path / "t.tpl"
        path.write_bytes(encode_template(t))
        text = path.read_text()
        path.write_text("\n" + text + "\n\n")
        assert load_template(path) == t
        path.write_text("# header comment\n\n" + text)
        with pytest.raises(TemplateFormatError, match="t.tpl: line 1: expected key=value$"):
            load_template(path)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_template(tmp_path / "absent.tpl")

    def test_format_errors(self, tmp_path):
        good = tmp_path / "good.tpl"
        good.write_bytes(encode_template(_two_class_template()))
        lines = good.read_text().splitlines()

        bad = tmp_path / "bad.tpl"

        bad.write_text("\n".join(["version=2"] + lines[1:]) + "\n")
        with pytest.raises(TemplateFormatError):
            load_template(bad)

        bad.write_text("\n".join(l for l in lines if not l.startswith("pois=")) + "\n")
        with pytest.raises(TemplateFormatError):
            load_template(bad)

        bad.write_text("\n".join("pois=-5" if l.startswith("pois=") else l for l in lines) + "\n")
        with pytest.raises(TemplateFormatError, match="^POI -5 is negative$"):
            load_template(bad)

        bad.write_text("\n".join(l for l in lines if "class0.mu.0" not in l) + "\n")
        with pytest.raises(TemplateFormatError):
            load_template(bad)

        bad.write_text("no equals sign here\n" + "\n".join(lines) + "\n")
        with pytest.raises(TemplateFormatError):
            load_template(bad)

        bad.write_text(
            "\n".join(
                l if "class1.var.0" not in l else "class1.var.0=banana" for l in lines
            )
            + "\n"
        )
        with pytest.raises(TemplateFormatError):
            load_template(bad)

        bad.write_text(
            "\n".join(
                l if "class1.var.0" not in l else "class1.var.0=-4.0" for l in lines
            )
            + "\n"
        )
        with pytest.raises(TemplateFormatError):
            load_template(bad)
