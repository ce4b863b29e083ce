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
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    DomainError,
    LayoutMismatch,
    LengthMismatch,
    MissingTemplate,
    ReportFormatError,
)
from .leakage import TraceLayout
from .sampler import MASK32, SamplerParams
from .template import (
    ClassStats,
    SuccessModel,
    Template,
    full_key_success,
    gaussian_overlap,
    per_coefficient_success,
    success_from_overlap,
)
from .traceio import CODECS, TraceSet, _atomic_write, parse_key_values, read_text

REPORT_VERSION = 1


def reconstruct_v(inner_bits) -> int:
    """Magnitude encoded by the inner mask bits: OR of the set positions.

    Positions are 1-based. A clean record has at most one bit set; if
    classification errors set several, the OR combines them, exactly as
    the mask-select accumulation in the sampler would.
    """
    v = 0
    for k, bit in enumerate(inner_bits, start=1):
        if bit:
            v |= k
    return v


def apply_neg(v: int, neg_bit: bool) -> int:
    """Conditionally negate a magnitude in 32-bit two's complement."""
    if not 0 <= v <= MASK32:
        raise DomainError("v must be a 32-bit value")
    mask = MASK32 if neg_bit else 0
    out = ((v ^ mask) + (1 if neg_bit else 0)) & MASK32
    return out - (1 << 32) if out >> 31 else out


@dataclass(frozen=True)
class OuterDecision:
    """Classified bits of one outer iteration, with confidence margins.

    Margins are signed log-likelihood differences (all-ones minus
    all-zeros); the decision is the margin's sign, ties to all-zeros.
    """

    inner_bits: tuple[bool, ...]
    neg_bit: bool
    inner_margins: tuple[float, ...]
    neg_margin: float


@dataclass(frozen=True)
class ClassifiedLeaks:
    """Per-outer-iteration classification results for one trace."""

    outer: tuple[OuterDecision, ...]


def reconstruct_coefficient(classified: ClassifiedLeaks) -> int:
    """Signed coefficient value from classified leak bits (32-bit wrap)."""
    total = 0
    for dec in classified.outer:
        signed = apply_neg(reconstruct_v(dec.inner_bits), dec.neg_bit)
        total = (total + signed) & MASK32
    return total - (1 << 32) if total >> 31 else total


def _site_pois(template: Template, site_index: int, trace_length: int) -> list[int]:
    """Translate a template's POIs from its profiled site to another site.

    POIs are stored as absolute indices at the profiled site; the first
    POI is the leak sample itself (the strongest-correlation sample), so
    re-anchoring is a constant shift.
    """
    anchor = template.pois[0]
    shifted = [site_index + (p - anchor) for p in template.pois]
    for p in shifted:
        if not 0 <= p < trace_length:
            raise LayoutMismatch(
                f"translated POI {p} falls outside trace of length {trace_length}"
            )
    return shifted


def _margin_columns(samples: np.ndarray, template: Template, site_index: int) -> np.ndarray:
    """Signed log-likelihood margin of every trace at one leak site.

    One column pass per POI. The attack uses _column_margins, which
    computes the same margins for many sites at once; the tests compare
    the two.
    """
    pois = _site_pois(template, site_index, samples.shape[1])
    margin = np.zeros(samples.shape[0], dtype=np.float64)
    for p, s0, s1 in zip(pois, template.class0, template.class1):
        x = samples[:, p].astype(np.float64)
        ll0 = -0.5 * (np.log(2.0 * np.pi * s0.var) + (x - s0.mu) ** 2 / s0.var)
        ll1 = -0.5 * (np.log(2.0 * np.pi * s1.var) + (x - s1.mu) ** 2 / s1.var)
        margin += ll1 - ll0
    return margin


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
    """cols[i, j]: sample index of POI i at site j; POIs off the trace raise."""
    return np.array(
        [_site_pois(template, s, trace_length) for s in sites], dtype=np.intp
    ).reshape(len(sites), len(template.pois)).T


def _column_margins(samples: np.ndarray, template: Template, cols: np.ndarray) -> np.ndarray:
    """Margins of every row at the sites of _site_columns: (rows, sites) float64.

    The arithmetic and its order are _margin_columns': per class, then
    summed over POIs in POI order. Each POI's columns at every site are
    gathered with a single index.
    """
    out = np.zeros((samples.shape[0], cols.shape[1]), dtype=np.float64)
    for poi_cols, s0, s1 in zip(cols, template.class0, template.class1):
        x = samples[:, poi_cols].astype(np.float64)
        ll1 = _log_likelihood(x, s1)
        ll1 -= _log_likelihood(x, s0)
        out += ll1
    return out


# Most values that _PairwiseSum passes to one np.add.reduce call.
_SUM_LEAF = 1 << 16


def _pairwise_halves(n: int) -> tuple[int, int]:
    """How numpy's pairwise summation splits a run of more than 128 values."""
    left = n // 2
    left -= left % 8
    return left, n - left


def _leaf_sizes(n: int) -> list[int]:
    """Sizes, in order, of the subtrees of at most _SUM_LEAF values of n's tree."""
    if n <= _SUM_LEAF:
        return [n]
    left, right = _pairwise_halves(n)
    return _leaf_sizes(left) + _leaf_sizes(right)


class _PairwiseSum:
    """np.add.reduce of n float64 values that arrive in pieces, bit for bit.

    numpy 2.4 sums a contiguous float64 array as one pairwise tree that
    splits runs by _pairwise_halves. Summing each subtree of at most
    _SUM_LEAF values with np.add.reduce, then adding the subtree sums up
    the same tree, gives np.add.reduce of all n values while holding one
    subtree's values. Fixed-size chunks would not: their bounds are not
    the tree's.
    """

    def __init__(self, n: int):
        self.n = n
        sizes = _leaf_sizes(n)
        self._leaves = iter(sizes)
        self._want = next(self._leaves)
        self._buf = np.empty(max(sizes), dtype=np.float64)
        self._fill = 0
        self._sums: list[np.float64] = []

    def add(self, values: np.ndarray) -> None:
        """Append the next values of the run (1-D float64)."""
        pos = 0
        while pos < values.size:
            if self._want == 0:
                raise DomainError(f"more than the {self.n} values declared")
            take = min(self._want - self._fill, values.size - pos)
            self._buf[self._fill : self._fill + take] = values[pos : pos + take]
            self._fill += take
            pos += take
            if self._fill == self._want:
                self._sums.append(np.add.reduce(self._buf[: self._want]))
                self._fill = 0
                self._want = next(self._leaves, 0)

    def total(self) -> np.float64:
        """The sum; every declared value must have been added."""
        if self.n == 0:
            return np.add.reduce(self._buf)
        if self._want:
            raise DomainError(f"fewer than the {self.n} values declared")
        sums = iter(self._sums)

        def up(n: int) -> np.float64:
            if n <= _SUM_LEAF:
                return next(sums)
            left, right = _pairwise_halves(n)
            return up(left) + up(right)

        return up(self.n)


def classify_trace(
    trace, template_inner: Template, template_neg: Template, layout: TraceLayout
) -> ClassifiedLeaks:
    """Classify every leak site of a single trace."""
    trace = np.asarray(trace)
    if trace.ndim != 1 or trace.shape[0] != layout.trace_length:
        raise LayoutMismatch("trace does not match layout length")
    row = trace[None, :]

    def margins(tpl: Template, sites) -> np.ndarray:
        return _column_margins(row, tpl, _site_columns(tpl, sites, layout.trace_length))

    inner_margins = margins(template_inner, layout.inner_site_matrix().reshape(-1))
    neg_margins = margins(template_neg, layout.neg_site_vector())
    decisions = []
    for margins, neg_margin in zip(
        inner_margins.reshape(layout.outer_count, layout.inner_count).tolist(),
        neg_margins[0].tolist(),
    ):
        decisions.append(
            OuterDecision(
                inner_bits=tuple(m > 0.0 for m in margins),
                neg_bit=neg_margin > 0.0,
                inner_margins=tuple(margins),
                neg_margin=neg_margin,
            )
        )
    return ClassifiedLeaks(outer=tuple(decisions))


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

    The text form follows the declaration order: report_version, the
    scalar fields, then key by key one `key.{j}.{line}` line per field
    whose metadata names a line. Fields marked labeled are written and
    read only when has_labels, declared before them, is set. from_text
    refuses a report whose fields contradict each other.
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

    def to_text(self) -> str:
        written = self._written_fields()
        per_key = [(f, CODECS[_element(f)][0]) for f in written if "line" in f.metadata]
        lines = [f"report_version={REPORT_VERSION}"]
        lines += [
            f"{f.name}={CODECS[f.type][0](getattr(self, f.name))}"
            for f in written
            if "line" not in f.metadata
        ]
        for j in range(self.n_keys):
            for f, encode in per_key:
                lines.append(f"key.{j}.{f.metadata['line']}={encode(getattr(self, f.name)[j])}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "RecoveryReport":
        values = parse_key_values(text, ReportFormatError)
        kw: dict = {}
        try:
            if int(values["report_version"]) != REPORT_VERSION:
                raise ReportFormatError(
                    f"unsupported report version {values['report_version']}"
                )
            for f in fields(cls):
                if f.metadata.get("labeled") and not kw["has_labels"]:
                    continue
                if "line" in f.metadata:
                    decode = CODECS[_element(f)][1]
                    kw[f.name] = [
                        decode(values[f"key.{j}.{f.metadata['line']}"])
                        for j in range(kw["n_keys"])
                    ]
                else:
                    kw[f.name] = CODECS[f.type][1](values[f.name])
        except KeyError as exc:
            raise ReportFormatError(f"missing field {exc.args[0]!r}") from None
        except ValueError as exc:
            raise ReportFormatError(str(exc)) from None
        report = cls(**kw)
        report._check()
        return report

    def _check(self) -> None:
        """Raise ReportFormatError unless the fields agree with each other."""

        def need(ok: bool, what: str) -> None:
            if not ok:
                raise ReportFormatError(f"inconsistent report: {what}")

        for name in ("n_keys", "n", "poly_count"):
            need(getattr(self, name) > 0, f"{name}={getattr(self, name)} is not positive")
        for f in self._written_fields():
            value = getattr(self, f.name)
            if f.type == "int":
                need(value >= 0, f"{f.name}={value} is negative")
            elif f.name.startswith(("p_", "overlap_")):
                need(0.0 <= value <= 1.0, f"{f.name}={value!r} is outside [0, 1]")
            elif "line" in f.metadata:
                for j, entry in enumerate(value):
                    need(len(entry) == self.n, f"key.{j}.{f.metadata['line']} has "
                         f"{len(entry)} entries, not n={self.n}")
        coefficients = self.n_keys * self.poly_count * self.n
        outer = coefficients * self.outer_count
        totals = {"inner_sites_total": outer * self.inner_count, "neg_sites_total": outer}
        bounded = [
            ("inner_sites_ones", "inner_sites_total"),
            ("neg_sites_ones", "neg_sites_total"),
            ("anomalous_outer_iterations", "neg_sites_total"),
        ]
        if self.has_labels:
            totals["coefficients_total"] = coefficients
            bounded += [
                ("coefficients_correct", "coefficients_total"),
                ("keys_recovered", "n_keys"),
                ("inner_site_errors", "inner_sites_total"),
                ("neg_site_errors", "neg_sites_total"),
            ]
        for name, total in totals.items():
            need(getattr(self, name) == total, f"{name}={getattr(self, name)} is not {total}")
        for count, total in bounded:
            need(getattr(self, count) <= getattr(self, total), f"{count} exceeds {total}")


def save_report(report: RecoveryReport, path) -> None:
    _atomic_write(path, report.to_text().encode("utf-8"))


def load_report(path) -> RecoveryReport:
    return RecoveryReport.from_text(read_text(path, ReportFormatError))


def site_success(tpl: Template) -> tuple[float, float]:
    """Per-site success and overlap area of a template's first POI."""
    s0, s1 = tpl.class0[0], tpl.class1[0]
    area = gaussian_overlap(s0.mu, s0.var, s1.mu, s1.var).area
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

    Every input is checked before the first block is read. Rows and
    labels are taken _BLOCK_ROWS at a time, and a block's margins and
    bits are dropped once its counts are added, so only the recovered
    value and, with labels, whether it is correct are held per row.
    """
    if isinstance(traces, TraceSet) and np.ndim(traces.samples) != 2:
        raise LayoutMismatch("trace set does not match layout length")
    if template_inner is None or template_neg is None:
        raise MissingTemplate("both templates are required")
    rows, n_samples = traces.n_traces, traces.n_samples
    if n_samples != layout.trace_length:
        raise LayoutMismatch("trace set does not match layout length")
    if layout.outer_count != params.outer_count:
        raise LayoutMismatch("layout outer count disagrees with parameters")
    per_key = 2 * params.n
    if rows == 0 or rows % per_key:
        raise LayoutMismatch(f"{rows} traces do not divide into keys of {per_key} coefficients")
    n_keys = rows // per_key

    outer, inner = layout.outer_count, layout.inner_count
    # Inner sites in (u, k) order, so a block's margins reshape to (rows, outer, inner).
    inner_cols = _site_columns(template_inner, layout.inner_site_matrix().reshape(-1), n_samples)
    neg_cols = _site_columns(template_neg, layout.neg_site_vector(), n_samples)
    truths = itertools.repeat(None)
    if labels is not None:
        if labels.n_records != rows:
            raise LengthMismatch(f"{labels.n_records} labels for {rows} traces")
        if labels.outer_count != outer or labels.inner_count != inner:
            raise LayoutMismatch("labels disagree with layout iteration counts")
        truths = labels.blocks(_BLOCK_ROWS)
        correct = np.empty(rows, dtype=bool)

    slots = np.arange(1, inner + 1, dtype=np.uint32)
    values = np.empty(rows, dtype=np.int32)
    abs_inner = _PairwiseSum(rows * outer * inner)
    abs_neg = _PairwiseSum(rows * outer)
    inner_ones = neg_ones = anomalous = inner_errors = neg_errors = 0
    lo = 0
    for block, truth in zip(traces.blocks(_BLOCK_ROWS), truths):
        hi = lo + block.shape[0]
        inner_margins = _column_margins(block, template_inner, inner_cols)
        neg_margins = _column_margins(block, template_neg, neg_cols)
        inner_bits = (inner_margins > 0.0).reshape(-1, outer, inner)
        neg_bits = neg_margins > 0.0
        # |margin| in place: the bits are all the rest of the loop needs.
        abs_inner.add(np.abs(inner_margins, out=inner_margins).reshape(-1))
        abs_neg.add(np.abs(neg_margins, out=neg_margins).reshape(-1))

        # Fold bits back into signed coefficients with the sampler's own
        # wrap-around arithmetic (vectorized over rows and outer iterations).
        v = np.bitwise_or.reduce(inner_bits * slots, axis=2)
        neg_mask32 = np.where(neg_bits, np.uint32(MASK32), np.uint32(0))
        signed32 = (v ^ neg_mask32) + neg_bits.astype(np.uint32)
        totals = np.zeros(hi - lo, dtype=np.uint32)
        for u in range(outer):
            totals += signed32[:, u]
        values[lo:hi] = totals.astype(np.int32)

        inner_ones += int(inner_bits.sum())
        neg_ones += int(neg_bits.sum())
        anomalous += int((inner_bits.sum(axis=2) > 1).sum())
        if truth is not None:
            inner_errors += int((inner_bits != np.asarray(truth.inner_bits, dtype=bool)).sum())
            neg_errors += int((neg_bits != np.asarray(truth.neg_bits, dtype=bool)).sum())
            correct[lo:hi] = values[lo:hi] == np.asarray(truth.values, dtype=np.int32)
        lo = hi

    per_poly = values.reshape(n_keys, 2, params.n)
    p_site_inner, ov_inner = site_success(template_inner)
    p_site_neg, ov_neg = site_success(template_neg)
    p_coeff = per_coefficient_success(
        SuccessModel(
            p_inner=p_site_inner,
            p_neg=p_site_neg,
            inner_count=inner,
            outer_count=outer,
        )
    )
    report = RecoveryReport(
        n_keys=n_keys,
        n=params.n,
        poly_count=2,
        outer_count=outer,
        inner_count=inner,
        keys_f=per_poly[:, 0].tolist(),
        keys_g=per_poly[:, 1].tolist(),
        inner_sites_total=abs_inner.n,
        inner_sites_ones=inner_ones,
        neg_sites_total=abs_neg.n,
        neg_sites_ones=neg_ones,
        anomalous_outer_iterations=anomalous,
        mean_abs_margin_inner=float(abs_inner.total() / abs_inner.n),
        mean_abs_margin_neg=float(abs_neg.total() / abs_neg.n),
        overlap_inner=ov_inner,
        overlap_neg=ov_neg,
        p_site_inner=p_site_inner,
        p_site_neg=p_site_neg,
        p_coefficient=p_coeff,
        p_full_key=full_key_success(p_coeff, params.n, 2),
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
