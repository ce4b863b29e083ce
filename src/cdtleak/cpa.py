"""Correlation power analysis: column correlation, leak-site localization.

correlation_traces correlates every trace column against per-trace
hypotheses (the predicted Hamming weight of a targeted value) in one
pass over the rows, and find_poi takes the strongest column as the point
of interest. The pass keeps float64 moments per column and merges them
tile by tile with the pairwise update of Chan, Golub and LeVeque, the
one-pass form Schneider and Moradi use for leakage assessment ("Leakage
Assessment Methodology", CHES 2015). So the rows may arrive as a stream
of blocks that is never held, and the result does not depend on how the
stream is cut.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import DomainError, LayoutMismatch

# Rows per reduction tile come from this many samples (512 KiB as
# float64), so that no product in a tile is big enough for a BLAS to
# split it over its own threads.
_TILE_SAMPLES = 1 << 16


class _ColumnMoments:
    """Per column: the count, the mean, the centred sum of squares and
    the co-moment with each hypothesis; per hypothesis its mean and
    centred sum of squares."""

    def __init__(self, hypotheses: int, width: int):
        self.count = 0
        self.mean = np.zeros(width)
        self.m2 = np.zeros(width)
        self.co = np.zeros((hypotheses, width))
        self.h_mean = np.zeros(hypotheses)
        self.h_m2 = np.zeros(hypotheses)

    def add(self, x: np.ndarray, h: np.ndarray) -> None:
        """Merge a tile: x is (t, width) float64, centred in place; h is (k, t)."""
        t = len(x)
        mean = x.mean(axis=0)
        x -= mean
        hc = h.astype(np.float64)
        h_mean = hc.mean(axis=1)
        hc -= h_mean[:, None]
        n = self.count + t
        weight = self.count * t / n
        d, dh = mean - self.mean, h_mean - self.h_mean
        self.m2 += np.einsum("ij,ij->j", x, x) + d * d * weight
        self.h_m2 += np.einsum("ij,ij->i", hc, hc) + dh * dh * weight
        for co, row, step in zip(self.co, hc, dh):
            co += row @ x + step * d * weight
        self.mean += d * (t / n)
        self.h_mean += dh * (t / n)
        self.count = n

    def correlations(self) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            r = self.co / np.sqrt(self.m2 * self.h_m2[:, None])
        r[:, self.m2 == 0.0] = 0.0
        return r


def correlation_traces(traces, hypotheses) -> np.ndarray:
    """Correlate every sample column of `traces` against each hypothesis.

    `traces` is an (n, columns) matrix, or an iterator over the row
    blocks of one in order; `hypotheses` is (k, n). Returns (k, columns)
    float64. The rows are merged in tiles of _TILE_SAMPLES samples that
    start at fixed row offsets, whatever the blocks are, so a matrix and
    any cut of its rows into blocks give the same bits. Beyond the input
    and the hypotheses, one float64 tile is held. Columns with zero
    variance get correlation 0.0 rather than an error: flat columns are
    normal in real traces and simply carry no information.
    """
    if not isinstance(traces, Iterator):
        traces = np.asarray(traces)
        if traces.ndim != 2:
            raise DomainError("traces must be a 2-D matrix")
    h = np.asarray(hypotheses)
    if h.ndim != 2 or h.shape[0] == 0:
        raise DomainError("hypotheses must be a non-empty 2-D matrix")
    n = h.shape[1]
    if isinstance(traces, np.ndarray):
        if traces.shape[0] != n:
            raise LayoutMismatch(f"{traces.shape[0]} traces but {n} hypothesis values")
        traces = iter([traces])
    if n < 2:
        raise DomainError("need at least two traces")
    if not np.isfinite(h).all():
        raise DomainError("hypotheses must be finite")
    if (h == h[:, :1]).all(axis=1).any():
        raise DomainError("hypothesis has zero variance")
    moments = tile = None
    row = fill = 0
    for block in traces:
        block = np.asarray(block)
        if block.ndim != 2 or (tile is not None and block.shape[1] != tile.shape[1]):
            raise LayoutMismatch(f"trace block of shape {block.shape} does not continue "
                                 "the rows before it")
        if tile is None:
            width = block.shape[1]
            tile = np.empty((max(1, _TILE_SAMPLES // max(1, width)), width))
            moments = _ColumnMoments(len(h), width)
        if row + fill + len(block) > n:
            raise LayoutMismatch(f"more than {n} traces for {n} hypothesis values")
        lo = 0
        while lo < len(block):
            take = min(len(tile) - fill, len(block) - lo)
            tile[fill : fill + take] = block[lo : lo + take]
            fill += take
            lo += take
            if fill == len(tile):
                moments.add(tile, h[:, row : row + fill])
                row += fill
                fill = 0
    if fill:
        moments.add(tile[:fill], h[:, row : row + fill])
        row += fill
    if row != n:
        raise LayoutMismatch(f"{row} traces but {n} hypothesis values")
    return moments.correlations()


def find_poi(correlations) -> int:
    """Index of the largest |correlation|; exact ties resolve to the lower index.

    A NaN or infinite correlation raises DomainError rather than being picked.
    """
    corr = np.asarray(correlations, dtype=np.float64)
    if corr.ndim != 1 or not corr.size:
        raise DomainError("correlations must be a non-empty 1-D array")
    if not np.isfinite(corr).all():
        raise DomainError("correlations must be finite")
    return int(np.argmax(np.abs(corr)))
