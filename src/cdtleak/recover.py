"""Single-trace key recovery from classified mask writes.

Each coefficient of the secret key is reconstructed from exactly one
trace: every leak site in the trace is classified independently with the
matching template (all-zeros vs all-ones mask), the inner-loop bits are
folded back into the magnitude the scan encoded, the sign bit applies a
two's-complement conditional negation, and the outer iterations are
summed with 32-bit wrap, mirroring the sampler's own arithmetic.
"""

from __future__ import annotations

import contextlib
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, LayoutMismatch, ReportFormatError
from .leakage import TraceLayout
from .sampler import SamplerParams, fold
from .template import (
    Template,
    full_key_success,
    gaussian_overlap,
    per_coefficient_success,
    success_from_overlap,
)
from .traceio import CODECS, TraceSet, pop_field, read_key_values, write_key_values

REPORT_VERSION = 1

# Rows per block of the recovery loop: the site columns of 1,024 rows, and
# their float64 margins, stay in cache while the next block is read.
_BLOCK_ROWS = 1024


class _DecodeCore:
    """core(sites, truth or None): a block's values, counts, |margin| sums and bits.

    `columns` holds the sample indices of the inner sites, in layout.site_matrix()
    order, then those of the sign sites: each template is applied at every site of its
    attack point, whatever sample its POI records. `sites` holds one C-order
    (rows, len(c)) array per entry c, for up to `rows` rows. The counts are
    inner_ones, neg_ones, anomalous, inner_errors and neg_errors, the sums are at the
    inner and the sign sites, and the bits are in LabelSet.bits order. An outer
    iteration ORs the slot numbers of its fired inner sites: a float64 product of the
    fired bits with each slot's binary digits and a 1 counts, exactly, the fired slots
    that set each digit, and all of them.
    """

    def __init__(self, template_inner: Template, template_neg: Template,
                 layout: TraceLayout, rows: int):
        outer, inner = self.outer, self.inner = layout.outer_count, layout.inner_count
        # Per template: (mu, var, log(2 pi var)) of class 1 and 0.
        self.stats = [np.array([(s.mu, s.var, np.log(2.0 * np.pi * s.var))
                                for s in (tpl.class1, tpl.class0)]).T[..., None, None]
                      for tpl in (template_inner, template_neg)]
        sites = layout.site_matrix()
        self.columns = [sites[:, :-1].reshape(-1), sites[:, -1]]
        digits = inner.bit_length()
        slots = np.arange(1, inner + 1)[:, None]
        self.slot_digits = np.hstack([(slots >> np.arange(digits)) & 1, slots**0]).astype(float)
        self.powers = np.append(2.0 ** np.arange(digits), 0.0)  # the count weighs nothing
        # Reused by every block: memory mapped afresh per block costs page faults.
        self.work = np.empty((2, rows * outer * inner))

    def margins(self, sites: list, t: int) -> np.ndarray:
        """Margins at the sites of template t (0 inner, 1 sign): (rows, sites) float64, in work[0].

        A margin is ll(class 1) - ll(class 0), ll = -0.5 * (log(2 pi var) + (x - mu)**2 / var);
        a site is all ones when its margin is positive.
        """
        x = sites[t]
        mu, var, log_term = self.stats[t]
        d = self.work[:, : x.size].reshape(2, *x.shape)
        np.subtract(x, mu, out=d, dtype=np.float64)
        d **= 2
        d /= var
        d += log_term
        d *= -0.5
        d[0] -= d[1]
        return d[0]

    def __call__(self, sites: list, truth):
        rows, outer, inner = len(sites[0]), self.outer, self.inner
        bits = np.empty((rows, outer, inner + 1), dtype=bool)
        # 1.0 where an inner site fired, in work[1], which the inner margins, taken last, leave.
        fired = self.work[1, : rows * outer * inner].reshape(rows * outer, inner)
        # A template far from the samples overflows its margins; the
        # |margin| sums, checked below, catch that without warnings.
        with np.errstate(over="ignore", invalid="ignore"):
            m = self.margins(sites, 1)
            np.greater(m, 0.0, out=bits[:, :, inner])
            neg_sum = np.add.reduce(np.abs(m, out=m).reshape(-1))
            m = self.margins(sites, 0)
            np.greater(m.reshape(rows, outer, inner), 0.0, out=bits[:, :, :inner])
            np.greater(m.reshape(fired.shape), 0.0, out=fired)
            abs_sums = [np.add.reduce(np.abs(m, out=m).reshape(-1)), neg_sum]
        for name, total in zip(("inner", "sign"), abs_sums):
            if not math.isfinite(total):
                raise DomainError(f"{name} template gives non-finite site margins")
        per_digit = fired @ self.slot_digits
        neg_bits = bits[:, :, inner]
        counts = np.array([per_digit[:, -1].sum(), np.count_nonzero(neg_bits),
                           np.count_nonzero(per_digit[:, -1] > 1.0), 0, 0], dtype=np.int64)
        magnitudes = np.minimum(per_digit, 1.0, out=per_digit) @ self.powers
        if truth is not None:
            wrong = bits != np.asarray(truth.bits, dtype=bool)
            counts[4] = np.count_nonzero(wrong[:, :, inner])
            counts[3] = np.count_nonzero(wrong) - counts[4]
        return fold(magnitudes.reshape(rows, outer), neg_bits), counts, abs_sums, bits


def _site_blocks(traces, labels, columns: list):
    """Yield (site block, label block or None) per _BLOCK_ROWS rows, as _DecodeCore takes them.

    One worker thread reads, checks and gathers the next block while the caller works on
    this one, into the reader's row buffer and a ring of two site buffers, all allocated
    here on the calling thread. A read error is raised when its block is due, so errors
    come in row order. Close the generator to stop and join the worker.
    """
    rows, cap = traces.n_traces, min(traces.n_traces, _BLOCK_ROWS)
    # A TraceReader's blocks are float32; a TraceSet's keep their own type.
    dtype = traces.samples.dtype if isinstance(traces, TraceSet) else np.float32
    ring = np.empty((2, cap * sum(map(len, columns))), dtype=dtype)
    starts = np.cumsum([0] + [cap * len(c) for c in columns])
    trace_blocks = traces.blocks(_BLOCK_ROWS)
    label_blocks = itertools.repeat(None) if labels is None else labels.blocks(_BLOCK_ROWS)

    def read(k):
        block = next(trace_blocks)
        n = len(block)
        # Clip, not raise, so that take writes into the ring without a buffer.
        return [np.take(block, c, axis=1, mode="clip",
                        out=ring[k % 2, lo : lo + n * len(c)].reshape(n, len(c)))
                for c, lo in zip(columns, starts)], next(label_blocks)

    n_blocks = -(-rows // _BLOCK_ROWS)
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(read, 0)
        for k in range(n_blocks):
            block = pending.result()
            if k + 1 < n_blocks:
                pending = pool.submit(read, k + 1)
            yield block


def _inconsistent(what: str) -> ReportFormatError:
    return ReportFormatError(f"inconsistent report: {what}")


def _element(f) -> str:
    """Element type of a per-key field: the T of its list[T] annotation."""
    return f.type[len("list[") : -1]


@dataclass(frozen=True)
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
    before them, is set, and a report without labels refuses a labeled
    value. A report is frozen, and fields that contradict each other
    raise ReportFormatError when it is made, read or counted.

    Six fields are init=False totals that __post_init__ computes from
    n_keys, n, outer_count, inner_count and the flag lines: poly_count,
    inner_sites_total, neg_sites_total and the labeled coefficients_correct,
    coefficients_total and keys_recovered (0 without labels). from_values
    pops the fields it reads, checks the file's copies of the six against
    the computed values in declaration order, and refuses a key it does
    not read.
    """

    n_keys: int
    n: int
    poly_count: int = field(init=False)
    outer_count: int
    inner_count: int
    keys_f: list[list[int]] = field(metadata={"line": "f"})
    keys_g: list[list[int]] = field(metadata={"line": "g"})
    inner_sites_total: int = field(init=False)
    inner_sites_ones: int
    neg_sites_total: int = field(init=False)
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
    coefficients_correct: int = field(init=False, metadata={"labeled": True})
    coefficients_total: int = field(init=False, metadata={"labeled": True})
    keys_recovered: int = field(init=False, metadata={"labeled": True})
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
        kw, copies = {}, {}  # the constructor's fields; the file's values of the totals
        for f in fields(cls):
            if f.metadata.get("labeled") and not kw["has_labels"]:
                continue  # not read, so refused as unknown if present
            line = f.metadata.get("line")
            # Lazy: a missing line ends the scan of a huge n_keys early.
            names = (f"key.{j}.{line}" for j in range(kw["n_keys"])) if line else [f.name]
            kind = _element(f) if line else f.type
            decoded = [pop_field(values, name, kind, ReportFormatError) for name in names]
            (kw if f.init else copies)[f.name] = decoded if line else decoded[0]
        report = cls(**kw)
        for name, value in copies.items():
            if value != getattr(report, name):
                raise _inconsistent(f"{name}={value} is not {getattr(report, name)}")
        if values:
            raise ReportFormatError(f"unknown keys: {', '.join(sorted(values))}")
        return report

    def __post_init__(self) -> None:
        """Compute the six totals, then raise ReportFormatError unless the fields agree."""
        coefficients = self.n_keys * 2 * self.n
        outer = coefficients * self.outer_count
        # The labeled counts are the ones the flag lines give.
        flags = [f + g for f, g in zip(self.correct_flags_f, self.correct_flags_g)]
        for name, total in {
            "poly_count": 2,  # every report holds exactly the f and g lines of each key
            "inner_sites_total": outer * self.inner_count,
            "neg_sites_total": outer,
            "coefficients_correct": sum(key.count("1") for key in flags),
            "coefficients_total": coefficients if self.has_labels else 0,
            "keys_recovered": sum("0" not in key for key in flags),
        }.items():
            object.__setattr__(self, name, total)
        # Each message is made only when its check fails.
        for name in ("n_keys", "n"):
            if getattr(self, name) <= 0:
                raise _inconsistent(f"{name}={getattr(self, name)} is not positive")
        if not self.has_labels:  # to_pairs would drop a labeled value
            for f in fields(self):
                if f.init and f.metadata.get("labeled") and getattr(self, f.name):
                    raise _inconsistent(f"{f.name} is set but has_labels is not")
        for f in self._written_fields():
            value = getattr(self, f.name)
            if f.type == "int":
                if value < 0:
                    raise _inconsistent(f"{f.name}={value} is negative")
            elif f.name.startswith(("p_", "overlap_")):
                if not 0.0 <= value <= 1.0:
                    raise _inconsistent(f"{f.name}={value!r} is outside [0, 1]")
            elif f.type == "float":  # a mean |margin|
                if not 0.0 <= value < math.inf:
                    raise _inconsistent(f"{f.name}={value!r} is not finite and non-negative")
            elif "line" in f.metadata:
                if len(value) != self.n_keys:  # to_pairs writes n_keys lines
                    raise _inconsistent(
                        f"{f.name} holds {len(value)} keys, not n_keys={self.n_keys}")
                is_flags = _element(f) == "str"
                for j, entry in enumerate(value):
                    if len(entry) != self.n:
                        raise _inconsistent(f"key.{j}.{f.metadata['line']} has {len(entry)} "
                                            f"entries, not n={self.n}")
                    if is_flags and entry.count("0") + entry.count("1") != self.n:
                        raise _inconsistent(
                            f"key.{j}.{f.metadata['line']} has a flag other than 0 or 1")
        bounded = [
            ("inner_sites_ones", "inner_sites_total"),
            ("neg_sites_ones", "neg_sites_total"),
            ("anomalous_outer_iterations", "neg_sites_total"),
        ]
        if self.has_labels:
            bounded += [
                ("inner_site_errors", "inner_sites_total"),
                ("neg_site_errors", "neg_sites_total"),
            ]
        for count, total in bounded:
            if getattr(self, count) > getattr(self, total):
                raise _inconsistent(f"{count} exceeds {total}")


def save_report(report: RecoveryReport, path) -> None:
    write_key_values(path, report.to_pairs())


def load_report(path) -> RecoveryReport:
    return RecoveryReport.from_values(read_key_values(path, ReportFormatError))


def site_success(tpl: Template) -> tuple[float, float]:
    """Per-site success and overlap area of a template."""
    s0, s1 = tpl.class0, tpl.class1
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
    LabelReader or None, each checked for shape when made. Rows must be
    ordered as synthesize_campaign writes them: key by key, f before g.
    Each row is classified in isolation; nothing is averaged across
    traces. With labels the report also carries empirical per-site and
    per-key accuracy, against the rates the templates predict.

    Every input is checked, and the predicted rates are computed, before
    the first block is read. One worker thread reads rows and labels
    _BLOCK_ROWS at a time, one block ahead of the decoding, so do not use
    `traces` or `labels` during the call. Per row, only the recovered
    value and, with labels, whether it is correct are held. The report
    does not depend on the timing of the two threads, and errors come in
    row order: a non-finite sample raises TraceFormatError, and a
    template whose margins on a block are not finite, say for means far
    outside the samples, raises DomainError. The report is made once,
    at the end, from the measured counts and flags; it computes its own
    totals, so the correct coefficients and recovered keys are counted
    there.
    """
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

    decode = _DecodeCore(template_inner, template_neg, layout, min(rows, _BLOCK_ROWS))
    if labels is not None:
        if labels.n_records != rows:
            raise LayoutMismatch(f"{labels.n_records} labels for {rows} traces")
        if labels.outer_count != outer or labels.inner_count != inner:
            raise LayoutMismatch("labels disagree with layout iteration counts")
        correct = np.empty(rows, dtype=bool)

    values = np.empty(rows, dtype=np.int32)
    # Per-block sums of |margin|; fsum adds them exactly, so the means
    # depend on the rows and _BLOCK_ROWS alone.
    abs_sums, counts, lo = [], np.zeros(5, dtype=np.int64), 0
    with contextlib.closing(_site_blocks(traces, labels, decode.columns)) as blocks:
        for sites, truth in blocks:
            block_values, block_counts, block_sums, _ = decode(sites, truth)
            hi = lo + len(block_values)
            values[lo:hi] = block_values
            counts += block_counts
            abs_sums.append(block_sums)
            if truth is not None:
                correct[lo:hi] = block_values == np.asarray(truth.values, dtype=np.int32)
            lo = hi
    inner_ones, neg_ones, anomalous, inner_errors, neg_errors = counts.tolist()

    per_poly = values.reshape(n_keys, 2, params.n)
    inner_sites, neg_sites = rows * outer * inner, rows * outer
    labeled = {}
    if labels is not None:
        flags = correct.reshape(n_keys, 2, params.n).astype(np.uint8) + ord("0")
        labeled = dict(
            has_labels=True,
            inner_site_errors=inner_errors,
            neg_site_errors=neg_errors,
            correct_flags_f=[flags[j, 0].tobytes().decode() for j in range(n_keys)],
            correct_flags_g=[flags[j, 1].tobytes().decode() for j in range(n_keys)],
        )
    return RecoveryReport(
        n_keys=n_keys,
        n=params.n,
        outer_count=outer,
        inner_count=inner,
        keys_f=per_poly[:, 0].tolist(),
        keys_g=per_poly[:, 1].tolist(),
        inner_sites_ones=inner_ones,
        neg_sites_ones=neg_ones,
        anomalous_outer_iterations=anomalous,
        mean_abs_margin_inner=math.fsum(s[0] for s in abs_sums) / inner_sites,
        mean_abs_margin_neg=math.fsum(s[1] for s in abs_sums) / neg_sites,
        overlap_inner=ov_inner,
        overlap_neg=ov_neg,
        p_site_inner=p_site_inner,
        p_site_neg=p_site_neg,
        p_coefficient=p_coeff,
        p_full_key=full_key_success(p_coeff, params.n),
        **labeled,
    )
