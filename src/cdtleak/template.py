"""Univariate Gaussian templates and the success model built on them.

A template captures, at one point of interest (POI), the sample
distribution for the two values a mask word can take: all zeros or all
ones. The model is univariate, as in Chari, Rao and Rohatgi's template
attack: one POI per attack point, the sample of its leak site. Because
both classes are Gaussian at a leaking sample, single-trace
classification quality is fully described by the overlap of the two
densities, and key recovery odds follow by raising the per-site success
to the number of independently classified sites.

The overlap is computed exactly, as erf/erfc masses between the density
crossings, with no quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TemplateFormatError, checked_index
from .traceio import (CODECS, decode_fields, encode_fields, encode_key_values, pop_field,
                      read_key_values)

VAR_FLOOR = 1e-12


@dataclass(frozen=True)
class ClassStats:
    """Sample mean and unbiased variance, at least VAR_FLOOR, of one class at one POI."""

    mu: float
    var: float
    count: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.mu):
            raise DomainError("mu must be finite")
        if not math.isfinite(self.var) or self.var < VAR_FLOOR:
            raise DomainError(f"var must be finite and at least {VAR_FLOOR}")
        if self.count < 0:
            raise DomainError("count must be non-negative")


@dataclass(frozen=True)
class Template:
    """Class statistics of the all-zeros and all-ones classes at one POI."""

    poi: int
    class0: ClassStats
    class1: ClassStats


def build_template(traces, labels, poi: int) -> Template:
    """Estimate a template at sample `poi` from labeled traces.

    labels holds the class bit per trace (0: mask was all zeros, 1: all
    ones). Variances are unbiased (ddof 1) and floored at VAR_FLOOR so a
    noiseless class cannot produce a degenerate density.
    """
    traces = np.asarray(traces)
    if traces.ndim != 2:
        raise DomainError("traces must be 2-D")
    labels = np.asarray(labels).astype(bool)
    if labels.ndim != 1 or labels.shape[0] != traces.shape[0]:
        raise DomainError("labels must be 1-D, one per trace")
    poi = checked_index(poi, "POI")
    if not 0 <= poi < traces.shape[1]:
        raise DomainError(f"POI {poi} outside trace of length {traces.shape[1]}")
    column = traces[:, poi].astype(np.float64)
    stats = []
    for cls in (0, 1):
        rows = column[labels] if cls else column[~labels]
        if rows.shape[0] < 2:
            raise DomainError(f"class {cls} has {rows.shape[0]} traces, need at least 2")
        var = np.maximum(rows.var(ddof=1), VAR_FLOOR)
        stats.append(ClassStats(mu=float(rows.mean()), var=float(var), count=rows.shape[0]))
    return Template(poi=poi, class0=stats[0], class1=stats[1])


def _crossing_area(d: float, var_n: float, var_w: float, log_w: float, log_n: float):
    """Unclamped overlap of N(0, var_n) and N(d, var_w), var_n <= var_w.

    log_w - log_n is log(var_w / var_n). None if an intermediate
    overflows, or underflows to a 0 that a root divides by.
    """
    if var_n == var_w:
        scale = 2.0 * math.sqrt(2.0 * var_n)
        return math.erfc(abs(d) / scale) if math.isfinite(d) and math.isfinite(scale) else None
    # Equal log densities at y: a*y^2 + b*y + c = 0 with a > 0 and c < 0,
    # so there are always two crossings, one on each side of the narrow
    # mean 0. q takes the sign of b, so neither root cancels.
    a = (var_w - var_n) / var_w / var_n
    b = 2.0 * d / var_w
    c = -(d * d / var_w + log_w - log_n)
    q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
    scale_n, scale_w = math.sqrt(2.0 * var_n), math.sqrt(2.0 * var_w)
    y_lo, y_hi = sorted((q / a, c / q)) if a and q else (math.nan, math.nan)
    if not all(map(math.isfinite, (y_lo, y_hi, scale_w))):
        return None
    tails = math.erfc(-y_lo / scale_n) + math.erfc(y_hi / scale_n)
    z_lo, z_hi = (y_lo - d) / scale_w, (y_hi - d) / scale_w
    if z_lo >= 0.0:
        between = math.erfc(z_lo) - math.erfc(z_hi)
    elif z_hi <= 0.0:
        between = math.erfc(-z_hi) - math.erfc(-z_lo)
    else:
        between = math.erf(z_hi) - math.erf(z_lo)
    return 0.5 * (tails + between)


def gaussian_overlap(mu0: float, var0: float, mu1: float, var1: float) -> float:
    """Overlap area A between two Gaussian densities, in closed form.

    A integrates min(p0, p1) over the real line, so it lies in [0, 1].
    With equal variances it is erfc(|mu1 - mu0| / (2 * sqrt(2) * sigma)).
    Otherwise the narrower class wins between the two density crossings
    and the wider one outside them, so A is the narrow class's two tails
    outside the crossings plus the wide class's mass between them. Each
    piece is an erfc tail away from its mean, or an erf interval across
    it, so no piece cancels. The classes are ordered by variance first,
    so swapping them gives the same bits.

    A is invariant under x -> x * s. When an intermediate overflows, a
    power of two s brings the narrow variance near 1; if the variance
    ratio or the squared separation still overflows, A < 1e-150 is 0.0.
    """
    for name, v in (("var0", var0), ("var1", var1)):
        if not math.isfinite(v) or v <= 0.0:
            raise DomainError(f"{name} must be finite and positive")
    if not math.isfinite(mu0) or not math.isfinite(mu1):
        raise DomainError("means must be finite")
    (mu_n, var_n), (mu_w, var_w) = sorted(((mu0, var0), (mu1, var1)), key=lambda c: c[1])
    area = _crossing_area(mu_w - mu_n, var_n, var_w, math.log(var_w), math.log(var_n))
    if area is None:
        s = 2.0 ** -(math.frexp(var_n)[1] // 2)
        d = (0.5 * mu_w - 0.5 * mu_n) * (2.0 * s)
        var_n, var_w = var_n * s * s, var_w * s * s
        # Near 1, log1p resolves a ratio that log(var_w) - log(var_n) rounds to 0.
        area = _crossing_area(d, var_n, var_w, math.log1p((var_w - var_n) / var_n), 0.0)
    return min(max(area or 0.0, 0.0), 1.0)


def success_from_overlap(area: float) -> float:
    """Single-trace success probability of the likelihood classifier.

    With equal priors the Bayes error of deciding between two densities
    is half their overlap area, so success is 1 - A/2.
    """
    if not 0.0 <= area <= 1.0:
        raise DomainError("overlap area must lie in [0, 1]")
    return 1.0 - 0.5 * area


def per_coefficient_success(
    p_inner: float, p_neg: float, inner_count: int, outer_count: int
) -> float:
    """All sites of one coefficient classified correctly: per outer iteration,
    inner_count inner sites each right with p_inner and one sign site with p_neg."""
    for name, p in (("p_inner", p_inner), ("p_neg", p_neg)):
        if not 0.0 <= p <= 1.0:
            raise DomainError(f"{name} must lie in [0, 1]")
    if inner_count < 1 or outer_count < 1:
        raise DomainError("iteration counts must be positive")
    try:
        return p_inner ** (inner_count * outer_count) * p_neg ** outer_count
    except OverflowError:
        raise DomainError("iteration counts too large for a float exponent") from None


def full_key_success(p_coefficient: float, n: int) -> float:
    """All 2 * n coefficients of one key, f and g, recovered."""
    if not 0.0 <= p_coefficient <= 1.0:
        raise DomainError("p_coefficient must lie in [0, 1]")
    if n < 1:
        raise DomainError("n must be positive")
    try:
        return p_coefficient ** (2 * n)
    except OverflowError:
        raise DomainError("n too large for a float exponent") from None


def encode_template(template: Template) -> bytes:
    """A template's file bytes: key=value text with full float precision.

    Version 1 names the POI `pois` and suffixes each class field with the
    POI's position, always 0; a file that lists more than one is refused.
    """
    pairs = [("version", "1"), ("pois", CODECS["int"][0](template.poi))]
    for c, stats in enumerate((template.class0, template.class1)):
        pairs += encode_fields(stats, f"class{c}.{{}}.0")
    return encode_key_values(pairs)


def load_template(path) -> Template:
    """Read a template file back, validating structure and invariants."""
    entries = read_key_values(path, TemplateFormatError)
    # Each field read is popped, so what is left is unknown.
    version = entries.pop("version", None)
    if version != "1":
        raise TemplateFormatError(f"unsupported version {version!r}")
    poi = pop_field(entries, "pois", "int", TemplateFormatError)
    if poi < 0:
        raise TemplateFormatError(f"POI {poi} is negative")
    class0, class1 = (decode_fields(ClassStats, entries, TemplateFormatError, f"class{c}.{{}}.0")
                      for c in (0, 1))
    if entries:
        raise TemplateFormatError(f"unknown keys: {', '.join(sorted(entries))}")
    return Template(poi=poi, class0=class0, class1=class1)
