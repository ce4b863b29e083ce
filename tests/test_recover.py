"""Bit folding, single-trace classification, and full key recovery.

The 32-bit negation/accumulation oracle used here reinterprets through
plain Python modular arithmetic, independently of fold's int64 negation
and int32 cast. recover_key's fold runs on crafted noiseless traces
whose fired slots are chosen by hand, and on traces rendered from the
scalar sampler's records. Noiseless campaigns must recover every
coefficient of every key exactly; the noisy campaign checks that
empirical site errors match the Gaussian overlap prediction.
"""

import math

import numpy as np
import pytest

from cdtleak.errors import DomainError, LayoutMismatch, ReportFormatError
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    synthesize_campaign,
    synthesize_profiling_set,
)
from cdtleak.recover import (
    RecoveryReport,
    load_report,
    recover_key,
    save_report,
)
from cdtleak.sampler import (
    MASK32,
    GaussCdtTable,
    SamplerParams,
    WordSource,
    default_table,
    fold,
    sample_coefficient,
)
from cdtleak.template import ClassStats, Template, build_template
from cdtleak.traceio import TraceSet, encode_key_values, parse_key_values


def _text(report: RecoveryReport) -> str:
    """The report file's text."""
    return encode_key_values(report.to_pairs()).decode("utf-8")


def _report(text: str) -> RecoveryReport:
    """The report a file of this text holds."""
    return RecoveryReport.from_values(parse_key_values(text.encode("utf-8"), ReportFormatError))


SMALL_TABLE = GaussCdtTable(entries=(1 << 61, 3 << 61, 2 << 61, 0))


def _as_i32(x: int) -> int:
    x &= MASK32
    return x - (1 << 32) if x >= (1 << 31) else x


def _exact_templates(model: LeakModel, poi: int = 0):
    var = max(model.noise_sigma**2, 1e-12)
    lo = ClassStats(mu=model.beta, var=var, count=10)
    hi = ClassStats(mu=model.beta + 64 * model.alpha, var=var, count=10)
    t = Template(poi=poi, class0=lo, class1=hi)
    return t, t


# logn 9: two outer iterations per coefficient, 1,024 rows per key.
FOLD_PARAMS = SamplerParams(logn=9)
FOLD_LAYOUT = TraceLayout.for_params(FOLD_PARAMS, default_table())


def _fold(rows):
    """recover_key on one key of noiseless traces with the given fired sites.

    rows[r] lists, per outer iteration, (slots that fire, sign bit); rows
    not given fire nothing. Returns the report and the 1,024 values.
    """
    per_key = 2 * FOLD_PARAMS.n
    bits = np.zeros((per_key, FOLD_LAYOUT.outer_count, FOLD_LAYOUT.inner_count + 1), dtype=bool)
    for r, iterations in enumerate(rows):
        for u, (slots, sign) in enumerate(iterations):
            bits[r, u, [k - 1 for k in slots]] = True
            bits[r, u, -1] = sign
    return _fold_bits(bits)


def _fold_bits(bits):
    """recover_key on noiseless traces whose sites carry `bits`, in LabelSet.bits order."""
    model = LeakModel(noise_sigma=0.0)
    low, high = model.beta, model.beta + 64 * model.alpha
    samples = np.full((len(bits), FOLD_LAYOUT.trace_length), low, dtype=np.float32)
    rows = np.arange(len(bits))[:, None, None]
    samples[rows, FOLD_LAYOUT.site_matrix()] = np.where(bits, high, low)
    ti, tn = _exact_templates(model)
    report = recover_key(TraceSet(samples), ti, tn, FOLD_LAYOUT, FOLD_PARAMS)
    return report, report.keys_f[0] + report.keys_g[0]


class TestReconstructV:
    def test_trivial_values(self):
        # The magnitude is the OR of the fired slot numbers.
        _, values = _fold([
            [((), False), ((), False)],
            [((7,), False), ((), False)],
            [((1, 2), False), ((), False)],
            [(range(1, 27), False), ((), False)],
        ])
        assert values[:5] == [0, 7, 3, 31, 0]


class TestApplyNeg:
    """The sign bit's conditional negation, as the attack's fold applies it."""

    @staticmethod
    def _negate(v, neg_bit):
        v = np.asarray(v, dtype=np.int64).reshape(-1, 1)
        return fold(v, np.full(v.shape, neg_bit)).tolist()

    def test_trivial_values(self):
        vs = [5, 0, 1 << 31, MASK32]
        assert self._negate(vs, False) == [5, 0, -(1 << 31), -1]
        assert self._negate(vs, True) == [-5, 0, -(1 << 31), 1]

    def test_matches_modular_oracle(self):
        ranges = list(range(1 << 16))
        ranges += list(range((1 << 32) - (1 << 16), 1 << 32))
        rng = np.random.default_rng(77)
        ranges += [int(x) for x in rng.integers(0, 1 << 32, size=100_000)]
        assert self._negate(ranges, False) == [_as_i32(v) for v in ranges]
        assert self._negate(ranges, True) == [_as_i32((1 << 32) - v) for v in ranges]


class TestReconstructCoefficient:
    def test_two_outer_iterations(self):
        report, values = _fold([
            # Slots 3 and 5 with the sign set, then nothing: -(3 | 5).
            [((3, 5), True), ((), False)],
            # 1 | 2 = 3, then slot 2 negated: 3 - 2.
            [((1, 2), False), ((2,), True)],
        ])
        assert values[:3] == [-7, 1, 0]
        assert report.inner_sites_ones == 5
        assert report.neg_sites_ones == 2
        assert report.anomalous_outer_iterations == 2
        assert report.inner_sites_total == 1024 * 2 * 26
        assert report.neg_sites_total == 1024 * 2

    def test_wraps_like_int32(self):
        # Negation is (v ^ 0xffffffff) + 1 and the sum wraps at 32 bits;
        # a sign with no slot fired is -0, which is 0.
        _, values = _fold([
            [((26,), True), ((26,), True)],
            [((), True), ((), True)],
            [((1,), True), ((26,), False)],
            [((16, 8), True), ((1,), False)],
        ])
        want = [
            _as_i32(-26 - 26),
            0,
            _as_i32(-1 + 26),
            _as_i32(-(16 | 8) + 1),
        ]
        assert values[:4] == want == [-52, 0, 25, -23]

    def test_matches_sampler_records(self):
        # Traces rendered from the scalar sampler's mask words fold back
        # into its values.
        table = default_table()
        coeffs = [
            sample_coefficient(table, FOLD_PARAMS, WordSource(seed=seed)) for seed in range(1024)
        ]
        bits = np.array(
            [[[m != 0 for m in (*r.inner_masks, r.neg_mask)] for r in c.leaks] for c in coeffs]
        )
        report, values = _fold_bits(bits)
        assert values == [c.value for c in coeffs]
        assert report.anomalous_outer_iterations == 0


class TestNoiselessRecovery:
    @pytest.mark.parametrize("seed", range(30))
    def test_small_table_campaign(self, seed):
        params = SamplerParams(logn=9)
        model = LeakModel(noise_sigma=0.0)
        traces, labels = synthesize_campaign(
            seed=seed, params=params, table=SMALL_TABLE, model=model
        )
        layout = TraceLayout.for_params(params, SMALL_TABLE)
        ti, tn = _exact_templates(model)
        report = recover_key(traces, ti, tn, layout, params, labels=labels)
        assert report.fully_recovered()
        assert report.keys_recovered == 1
        assert report.coefficients_correct == report.coefficients_total == 1024
        assert report.inner_site_errors == 0
        assert report.neg_site_errors == 0
        assert report.anomalous_outer_iterations == 0
        assert report.keys_f[0] == labels.values[:512].tolist()
        assert report.keys_g[0] == labels.values[512:].tolist()
        assert report.correct_flags_f[0] == "1" * 512
        assert report.correct_flags_g[0] == "1" * 512

    @pytest.mark.parametrize("seed", [3, 1002, 444555])
    def test_default_table_campaign(self, seed):
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel(noise_sigma=0.0)
        traces, labels = synthesize_campaign(
            seed=seed, params=params, table=table, model=model
        )
        layout = TraceLayout.for_params(params, table)
        ti, tn = _exact_templates(model)
        report = recover_key(traces, ti, tn, layout, params, labels=labels)
        assert report.fully_recovered()
        assert report.keys_f[0] == labels.values[:512].tolist()
        assert report.keys_g[0] == labels.values[512:].tolist()

    def test_with_estimated_templates(self):
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel(noise_sigma=0.0)
        prof_traces, prof_labels = synthesize_profiling_set(
            seed=50, params=params, table=table, model=model, n_traces=40
        )
        layout = TraceLayout.for_params(params, table)
        site = layout.site_matrix()[0, 0]
        ti = build_template(
            prof_traces.samples, prof_labels.inner_bits[:, 0, 0], site
        )
        tn = build_template(
            prof_traces.samples, prof_labels.neg_bits[:, 0], layout.site_matrix()[0, -1]
        )
        traces, labels = synthesize_campaign(
            seed=51, params=params, table=table, model=model
        )
        report = recover_key(traces, ti, tn, layout, params, labels=labels)
        assert report.fully_recovered()

    def test_unlabeled_report_has_no_empirical_fields(self):
        params = SamplerParams(logn=9)
        model = LeakModel(noise_sigma=0.0)
        traces, _ = synthesize_campaign(
            seed=9, params=params, table=SMALL_TABLE, model=model
        )
        layout = TraceLayout.for_params(params, SMALL_TABLE)
        ti, tn = _exact_templates(model)
        report = recover_key(traces, ti, tn, layout, params)
        assert not report.has_labels
        assert not report.fully_recovered()
        assert report.keys_recovered == 0
        assert report.correct_flags_f == []


class TestNoisyCalibration:
    def test_site_errors_match_overlap_prediction(self):
        # At the default 4 mV noise the class separation is 7.5 sigma, so
        # each site errs with probability erfc(7.5 / (2 sqrt 2)) / 2, about
        # 8.8e-5. Two keys give 217,088 classified sites; the observed
        # error count must sit inside 3 binomial standard deviations.
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel()
        traces, labels = synthesize_campaign(
            seed=0xCA11B, params=params, table=table, model=model, n_keys=2
        )
        layout = TraceLayout.for_params(params, table)
        ti, tn = _exact_templates(model)
        report = recover_key(traces, ti, tn, layout, params, labels=labels)
        p_err = math.erfc(7.5 / (2.0 * math.sqrt(2.0))) / 2.0
        sites = report.inner_sites_total + report.neg_sites_total
        assert sites == 2048 * 2 * 26 + 2048 * 2
        expected = sites * p_err
        observed = report.inner_site_errors + report.neg_site_errors
        band = 3.0 * math.sqrt(sites * p_err * (1.0 - p_err))
        assert abs(observed - expected) < band
        # The report's own prediction fields must carry the same numbers.
        assert report.overlap_inner == pytest.approx(2 * p_err, rel=1e-12, abs=0.0)
        assert report.p_site_inner == pytest.approx(1 - p_err, abs=1e-15)
        assert report.p_coefficient == pytest.approx(
            report.p_site_inner**52 * report.p_site_neg**2, rel=1e-12
        )
        assert report.p_full_key == pytest.approx(
            report.p_coefficient**1024, rel=1e-9
        )


class TestRecoverKeyErrors:
    def _campaign(self):
        params = SamplerParams(logn=9)
        model = LeakModel(noise_sigma=0.0)
        traces, labels = synthesize_campaign(
            seed=2, params=params, table=SMALL_TABLE, model=model
        )
        layout = TraceLayout.for_params(params, SMALL_TABLE)
        ti, tn = _exact_templates(model)
        return params, traces, labels, layout, ti, tn

    def test_missing_template(self):
        params, traces, _, layout, ti, _ = self._campaign()
        with pytest.raises(DomainError, match="^both templates are required$"):
            recover_key(traces, None, None, layout, params)
        with pytest.raises(DomainError, match="^both templates are required$"):
            recover_key(traces, ti, None, layout, params)

    def test_layout_mismatches(self):
        params, traces, labels, layout, ti, tn = self._campaign()
        import cdtleak.traceio as traceio

        short = traceio.TraceSet(samples=traces.samples[:, :-1])
        with pytest.raises(LayoutMismatch):
            recover_key(short, ti, tn, layout, params)
        ragged = traceio.TraceSet(samples=traces.samples[:1000])
        with pytest.raises(LayoutMismatch):
            recover_key(ragged, ti, tn, layout, params)
        empty = traceio.TraceSet(samples=traces.samples[:0])
        with pytest.raises(LayoutMismatch):
            recover_key(empty, ti, tn, layout, params)
        with pytest.raises(LayoutMismatch):
            recover_key(traces, ti, tn, layout, SamplerParams(logn=8))

    def test_label_mismatches(self):
        params, traces, labels, layout, ti, tn = self._campaign()
        import cdtleak.traceio as traceio

        trimmed = traceio.LabelSet(values=labels.values[:-1], bits=labels.bits[:-1])
        message = f"^{trimmed.n_records} labels for {traces.n_traces} traces$"
        with pytest.raises(LayoutMismatch, match=message):
            recover_key(traces, ti, tn, layout, params, labels=trimmed)
        # One inner slot fewer, the sign still last.
        narrowed = traceio.LabelSet(values=labels.values, bits=labels.bits[:, :, 1:])
        with pytest.raises(LayoutMismatch):
            recover_key(traces, ti, tn, layout, params, labels=narrowed)


class TestReportSerialization:
    def _labeled_report(self):
        params = SamplerParams(logn=9)
        model = LeakModel(noise_sigma=0.0)
        traces, labels = synthesize_campaign(
            seed=4, params=params, table=SMALL_TABLE, model=model
        )
        layout = TraceLayout.for_params(params, SMALL_TABLE)
        ti, tn = _exact_templates(model)
        return recover_key(traces, ti, tn, layout, params, labels=labels)

    def test_round_trip_with_labels(self, tmp_path):
        report = self._labeled_report()
        path = tmp_path / "r.txt"
        save_report(report, path)
        assert load_report(path) == report

    def test_round_trip_without_labels(self):
        params = SamplerParams(logn=9)
        model = LeakModel(noise_sigma=0.0)
        traces, _ = synthesize_campaign(
            seed=4, params=params, table=SMALL_TABLE, model=model
        )
        layout = TraceLayout.for_params(params, SMALL_TABLE)
        ti, tn = _exact_templates(model)
        report = recover_key(traces, ti, tn, layout, params)
        assert _report(_text(report)) == report

    def test_text_contains_key_lines(self):
        report = self._labeled_report()
        text = _text(report)
        assert "key.0.f=" in text
        assert "key.0.g=" in text
        assert "key.0.f_correct=" in text
        assert f"keys_recovered={report.keys_recovered}" in text

    def test_format_errors(self):
        report = self._labeled_report()
        text = _text(report)
        with pytest.raises(ReportFormatError):
            _report(text.replace("report_version=1", "report_version=7"))
        with pytest.raises(ReportFormatError):
            _report(
                "\n".join(
                    l for l in text.splitlines() if not l.startswith("key.0.f=")
                )
            )
        with pytest.raises(ReportFormatError):
            _report("not a key value line\n" + text)
        with pytest.raises(ReportFormatError):
            _report(text.replace("n_keys=1", "n_keys=banana"))

    def test_comment_line_refused(self):
        report = self._labeled_report()
        assert _report("\n" + _text(report) + "\n\n") == report
        text = "# produced by a test\n\n" + _text(report)
        with pytest.raises(ReportFormatError, match="^line 1: expected key=value$"):
            _report(text)
