"""Single-trace key recovery from classified mask writes.

Each coefficient of the secret key is reconstructed from exactly one
trace: every leak site in the trace is classified independently with the
matching template (all-zeros vs all-ones mask), the inner-loop bits are
folded back into the magnitude the scan encoded, the sign bit applies a
two's-complement conditional negation, and the outer iterations are
summed with 32-bit wrap, mirroring the sampler's own arithmetic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, LayoutMismatch, ReportFormatError
from .leakage import TraceLayout
from .sampler import SamplerParams, fold
from .template import (
    ClassStats,
    Template,
    full_key_success,
    gaussian_overlap,
    per_coefficient_success,
    success_from_overlap,
)
from .traceio import CODECS, TraceSet, pop_field, read_key_values, write_key_values

REPORT_VERSION = 1

# Rows per block of the recovery loop: 1,024 rows of a few hundred
# float32 samples keep a block, and its gathered float64 columns, in cache.
_BLOCK_ROWS = 1024


def _log_likelihood(x: np.ndarray, stats: ClassStats) -> np.ndarray:
    """-0.5 * (log(2 pi var) + (x - mu)**2 / var), in a new array."""
    d = x - stats.mu
    d **= 2
    d /= stats.var
    d += np.log(2.0 * np.pi * stats.var)
    d *= -0.5
    return d


def _site_columns(template: Template, sites, trace_length: int) -> np.ndarray:
    """cols[i, j]: sample index of POI i translated to site j, (pois, sites).

    POIs are stored as absolute indices at the profiled site; the first
    POI is the leak sample itself (the strongest-correlation sample), so
    re-anchoring is a constant shift. The first POI off the trace, in
    (site, POI) order, raises.
    """
    shifts = np.asarray(template.pois, dtype=np.intp) - template.pois[0]
    cols = shifts[:, None] + np.asarray(sites, dtype=np.intp)
    off = cols.T[(cols.T < 0) | (cols.T >= trace_length)]
    if off.size:
        raise LayoutMismatch(
            f"translated POI {off[0]} falls outside trace of length {trace_length}"
        )
    return cols


def site_map(inner: Template, neg: Template, layout: TraceLayout) -> list[np.ndarray]:
    """_site_columns of each template at its point's sites; LayoutMismatch names the point."""
    sites = layout.site_matrix()
    cols = []
    for name, tpl, at in (("inner", inner, sites[:, :-1]), ("neg", neg, sites[:, -1])):
        try:
            cols.append(_site_columns(tpl, at.reshape(-1), layout.trace_length))
        except LayoutMismatch as exc:
            raise LayoutMismatch(f"{name} template: {exc}") from None
    return cols


def _column_margins(samples: np.ndarray, template: Template, cols: np.ndarray) -> np.ndarray:
    """Margins of every row at the sites of _site_columns: (rows, sites) float64.

    A margin is the log-likelihood of the all-ones class minus that of
    the all-zeros class, summed over POIs in POI order; a site decodes
    as all ones when its margin is positive, so a tie goes to all zeros.
    Each POI's columns at every site are gathered with a single index.
    """
    out = np.zeros((samples.shape[0], cols.shape[1]), dtype=np.float64)
    for poi_cols, s0, s1 in zip(cols, template.class0, template.class1):
        x = samples[:, poi_cols].astype(np.float64)
        ll1 = _log_likelihood(x, s1)
        ll1 -= _log_likelihood(x, s0)
        out += ll1
    return out


def _element(f) -> str:
    """Element type of a per-key field: the T of its list[T] annotation."""
    return f.type[len("list[") : -1]


@dataclass
class RecoveryReport:
    """Machine-readable outcome of a key-recovery run.

    Predicted rates come from the templates' class statistics through the
    overlap model; empirical fields are present only when ground-truth
    labels were supplied. Recovered coefficient values are kept per key,
    f and g separately, in sampling order.

    to_pairs gives the key=value fields of its file in declaration order:
    report_version, the scalar fields, then key by key one
    `key.{j}.{line}` field per field whose metadata names a line. Fields
    marked labeled are written and read only when has_labels, declared
    before them, is set. from_values pops the fields it reads and refuses
    a report whose fields contradict each other or that has a key it does
    not read.
    """

    n_keys: int
    n: int
    poly_count: int
    outer_count: int
    inner_count: int
    keys_f: list[list[int]] = field(metadata={"line": "f"})
    keys_g: list[list[int]] = field(metadata={"line": "g"})
    inner_sites_total: int
    inner_sites_ones: int
    neg_sites_total: int
    neg_sites_ones: int
    anomalous_outer_iterations: int
    mean_abs_margin_inner: float
    mean_abs_margin_neg: float
    overlap_inner: float
    overlap_neg: float
    p_site_inner: float
    p_site_neg: float
    p_coefficient: float
    p_full_key: float
    has_labels: bool = False
    inner_site_errors: int = field(default=0, metadata={"labeled": True})
    neg_site_errors: int = field(default=0, metadata={"labeled": True})
    coefficients_correct: int = field(default=0, metadata={"labeled": True})
    coefficients_total: int = field(default=0, metadata={"labeled": True})
    keys_recovered: int = field(default=0, metadata={"labeled": True})
    correct_flags_f: list[str] = field(
        default_factory=list, metadata={"line": "f_correct", "labeled": True}
    )
    correct_flags_g: list[str] = field(
        default_factory=list, metadata={"line": "g_correct", "labeled": True}
    )

    def fully_recovered(self) -> bool:
        return self.has_labels and self.keys_recovered == self.n_keys

    def _written_fields(self) -> list:
        return [f for f in fields(self) if self.has_labels or not f.metadata.get("labeled")]

    def to_pairs(self) -> list[tuple[str, str]]:
        written = self._written_fields()
        per_key = [(f, CODECS[_element(f)][0]) for f in written if "line" in f.metadata]
        pairs = [("report_version", str(REPORT_VERSION))]
        pairs += [(f.name, CODECS[f.type][0](getattr(self, f.name)))
                  for f in written if "line" not in f.metadata]
        for j in range(self.n_keys):
            for f, encode in per_key:
                pairs.append((f"key.{j}.{f.metadata['line']}", encode(getattr(self, f.name)[j])))
        return pairs

    @classmethod
    def from_values(cls, values: dict[str, str]) -> "RecoveryReport":
        # Each field read is popped, so what is left is unknown.
        version = pop_field(values, "report_version", "int", ReportFormatError)
        if version != REPORT_VERSION:
            raise ReportFormatError(f"unsupported report version {version}")
        kw: dict = {}
        for f in fields(cls):
            if f.metadata.get("labeled") and not kw["has_labels"]:
                continue  # not read, so refused as unknown if present
            line = f.metadata.get("line")
            # Lazy: a missing line ends the scan of a huge n_keys early.
            names = (f"key.{j}.{line}" for j in range(kw["n_keys"])) if line else [f.name]
            kind = _element(f) if line else f.type
            decoded = [pop_field(values, name, kind, ReportFormatError) for name in names]
            kw[f.name] = decoded if line else decoded[0]
        report = cls(**kw)
        report._check()
        if values:
            raise ReportFormatError(f"unknown keys: {', '.join(sorted(values))}")
        return report

    def _check(self) -> None:
        """Raise ReportFormatError unless the fields agree with each other."""

        def need(ok: bool, what: str) -> None:
            if not ok:
                raise ReportFormatError(f"inconsistent report: {what}")

        for name in ("n_keys", "n"):
            need(getattr(self, name) > 0, f"{name}={getattr(self, name)} is not positive")
        # Every report holds exactly the f and g lines of each key.
        need(self.poly_count == 2, f"poly_count={self.poly_count} is not 2")
        for f in self._written_fields():
            value = getattr(self, f.name)
            if f.type == "int":
                need(value >= 0, f"{f.name}={value} is negative")
            elif f.name.startswith(("p_", "overlap_")):
                need(0.0 <= value <= 1.0, f"{f.name}={value!r} is outside [0, 1]")
            elif "line" in f.metadata:
                for j, entry in enumerate(value):
                    line = f"key.{j}.{f.metadata['line']}"
                    need(len(entry) == self.n, f"{line} has {len(entry)} entries, not n={self.n}")
                    need(_element(f) != "str" or set(entry) <= {"0", "1"},
                         f"{line} has a flag other than 0 or 1")
        coefficients = self.n_keys * 2 * self.n
        outer = coefficients * self.outer_count
        totals = {"inner_sites_total": outer * self.inner_count, "neg_sites_total": outer}
        bounded = [
            ("inner_sites_ones", "inner_sites_total"),
            ("neg_sites_ones", "neg_sites_total"),
            ("anomalous_outer_iterations", "neg_sites_total"),
        ]
        if self.has_labels:
            # The counts are the ones the flag lines give.
            flags = [f + g for f, g in zip(self.correct_flags_f, self.correct_flags_g)]
            totals["coefficients_total"] = coefficients
            totals["coefficients_correct"] = sum(key.count("1") for key in flags)
            totals["keys_recovered"] = sum("0" not in key for key in flags)
            bounded += [
                ("inner_site_errors", "inner_sites_total"),
                ("neg_site_errors", "neg_sites_total"),
            ]
        for name, total in totals.items():
            need(getattr(self, name) == total, f"{name}={getattr(self, name)} is not {total}")
        for count, total in bounded:
            need(getattr(self, count) <= getattr(self, total), f"{count} exceeds {total}")


def save_report(report: RecoveryReport, path) -> None:
    write_key_values(path, report.to_pairs())


def load_report(path) -> RecoveryReport:
    return RecoveryReport.from_values(read_key_values(path, ReportFormatError))


def site_success(tpl: Template) -> tuple[float, float]:
    """Per-site success and overlap area of a template's first POI."""
    s0, s1 = tpl.class0[0], tpl.class1[0]
    area = gaussian_overlap(s0.mu, s0.var, s1.mu, s1.var)
    return success_from_overlap(area), area


def recover_key(
    traces,
    template_inner: Template,
    template_neg: Template,
    layout: TraceLayout,
    params: SamplerParams,
    labels=None,
) -> RecoveryReport:
    """Recover every key in a campaign, one trace per coefficient.

    `traces` is a TraceSet or a TraceReader, and `labels` a LabelSet, a
    LabelReader or None. Rows must be ordered the way synthesize_campaign
    writes them: key by key, f before g. Each row is classified in
    isolation; nothing is averaged across traces. With labels the report
    also carries empirical per-site and per-key accuracy, comparable
    against the predicted rates derived from the templates themselves.

    Every input is checked, and the predicted rates are computed, before
    the first block is read. Rows and labels are taken _BLOCK_ROWS at a
    time, and a block's margins and bits are dropped once its counts are
    added, so only the recovered value and, with labels, whether it is
    correct are held per row. A template whose margins on a block are
    not finite, say for means far outside the samples, raises DomainError.
    """
    if isinstance(traces, TraceSet) and np.ndim(traces.samples) != 2:
        raise LayoutMismatch("trace set does not match layout length")
    if template_inner is None or template_neg is None:
        raise DomainError("both templates are required")
    outer, inner = layout.outer_count, layout.inner_count
    p_site_inner, ov_inner = site_success(template_inner)
    p_site_neg, ov_neg = site_success(template_neg)
    p_coeff = per_coefficient_success(p_site_inner, p_site_neg, inner, outer)
    rows, n_samples = traces.n_traces, traces.n_samples
    if n_samples != layout.trace_length:
        raise LayoutMismatch("trace set does not match layout length")
    if layout.outer_count != params.outer_count:
        raise LayoutMismatch("layout outer count disagrees with parameters")
    per_key = 2 * params.n
    if rows == 0 or rows % per_key:
        raise LayoutMismatch(f"{rows} traces do not divide into keys of {per_key} coefficients")
    n_keys = rows // per_key

    # Inner sites in (u, k) order, so a block's margins reshape to (rows, outer, inner).
    inner_cols, neg_cols = site_map(template_inner, template_neg, layout)
    truths = itertools.repeat(None)
    if labels is not None:
        if labels.n_records != rows:
            raise LayoutMismatch(f"{labels.n_records} labels for {rows} traces")
        if labels.outer_count != outer or labels.inner_count != inner:
            raise LayoutMismatch("labels disagree with layout iteration counts")
        truths = labels.blocks(_BLOCK_ROWS)
        correct = np.empty(rows, dtype=bool)

    slots = np.arange(1, inner + 1, dtype=np.uint32)
    values = np.empty(rows, dtype=np.int32)
    # Per-block sums of |margin|; fsum adds them exactly, so the means
    # depend on the rows and _BLOCK_ROWS alone.
    abs_inner_sums, abs_neg_sums = [], []
    inner_ones = neg_ones = anomalous = inner_errors = neg_errors = 0
    lo = 0
    for block, truth in zip(traces.blocks(_BLOCK_ROWS), truths):
        hi = lo + block.shape[0]
        # A template far from the samples overflows its margins; the
        # |margin| sums, checked below, catch that without warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            inner_margins = _column_margins(block, template_inner, inner_cols)
            neg_margins = _column_margins(block, template_neg, neg_cols)
            # The block's sites decoded, in LabelSet.bits order.
            bits = np.empty((hi - lo, outer, inner + 1), dtype=bool)
            inner_bits, neg_bits = bits[:, :, :inner], bits[:, :, inner]
            np.greater(inner_margins.reshape(-1, outer, inner), 0.0, out=inner_bits)
            np.greater(neg_margins, 0.0, out=neg_bits)
            # |margin| in place: the bits are all the rest of the loop needs.
            for sums, margins in ((abs_inner_sums, inner_margins), (abs_neg_sums, neg_margins)):
                sums.append(np.add.reduce(np.abs(margins, out=margins).reshape(-1)))
        for name, sums in (("inner", abs_inner_sums), ("sign", abs_neg_sums)):
            if not math.isfinite(sums[-1]):
                raise DomainError(f"{name} template gives non-finite site margins")
        values[lo:hi] = fold(np.bitwise_or.reduce(inner_bits * slots, axis=2), neg_bits)

        inner_ones += np.count_nonzero(inner_bits)
        neg_ones += np.count_nonzero(neg_bits)
        anomalous += np.count_nonzero(inner_bits.sum(axis=2) > 1)
        if truth is not None:
            wrong = bits != np.asarray(truth.bits, dtype=bool)
            inner_errors += np.count_nonzero(wrong[:, :, :inner])
            neg_errors += np.count_nonzero(wrong[:, :, inner])
            correct[lo:hi] = values[lo:hi] == np.asarray(truth.values, dtype=np.int32)
        lo = hi

    per_poly = values.reshape(n_keys, 2, params.n)
    inner_sites, neg_sites = rows * outer * inner, rows * outer
    report = RecoveryReport(
        n_keys=n_keys,
        n=params.n,
        poly_count=2,
        outer_count=outer,
        inner_count=inner,
        keys_f=per_poly[:, 0].tolist(),
        keys_g=per_poly[:, 1].tolist(),
        inner_sites_total=inner_sites,
        inner_sites_ones=inner_ones,
        neg_sites_total=neg_sites,
        neg_sites_ones=neg_ones,
        anomalous_outer_iterations=anomalous,
        mean_abs_margin_inner=math.fsum(abs_inner_sums) / inner_sites,
        mean_abs_margin_neg=math.fsum(abs_neg_sums) / neg_sites,
        overlap_inner=ov_inner,
        overlap_neg=ov_neg,
        p_site_inner=p_site_inner,
        p_site_neg=p_site_neg,
        p_coefficient=p_coeff,
        p_full_key=full_key_success(p_coeff, params.n),
    )
    if labels is None:
        return report

    per_key_correct = correct.reshape(n_keys, 2, params.n)
    report.has_labels = True
    report.inner_site_errors = inner_errors
    report.neg_site_errors = neg_errors
    report.coefficients_correct = int(correct.sum())
    report.coefficients_total = int(correct.size)
    report.keys_recovered = int(per_key_correct.all(axis=(1, 2)).sum())
    flags = per_key_correct.astype(np.uint8) + ord("0")
    report.correct_flags_f = [flags[j, 0].tobytes().decode() for j in range(n_keys)]
    report.correct_flags_g = [flags[j, 1].tobytes().decode() for j in range(n_keys)]
    return report
