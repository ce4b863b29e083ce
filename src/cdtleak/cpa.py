"""Correlation power analysis: column correlation, leak-site localization.

correlation_traces correlates every trace column against per-trace
hypotheses (the predicted Hamming weight of a targeted value), and
find_poi takes the strongest columns as points of interest. Accumulation
is done in float64 over two passes, which keeps column statistics exact
enough for trace counts far beyond anything this package simulates.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import DegenerateInput, DomainError, LengthMismatch

# Columns per float64 block: at 10,000 traces a block is 2.5 MB.
_COLUMN_BLOCK = 32
# Columns of the whole-chunk computation whose values the blocks keep.
_COLUMN_CHUNK = 4096


def correlation_traces(traces, hypotheses, threads: int = 1) -> np.ndarray:
    """Correlate every sample column of `traces` against each hypothesis.

    `hypotheses` is (k, n) for n traces; returns (k, columns) float64.
    Columns are cast to float64, centred and squared once per block of
    _COLUMN_BLOCK, on `threads` threads, so beyond the input only one
    float64 block per thread is held. Each hypothesis then takes one
    matrix-vector product per block; `threads` does not change a value.
    Columns with zero variance get correlation 0.0 rather than an error:
    flat columns are normal in real traces and simply carry no
    information.
    """
    traces = np.asarray(traces)
    if traces.ndim != 2:
        raise DegenerateInput("traces must be a 2-D matrix")
    h = np.asarray(hypotheses, dtype=np.float64)
    if h.ndim != 2 or h.shape[0] == 0:
        raise DegenerateInput("hypotheses must be a non-empty 2-D matrix")
    n = traces.shape[0]
    if h.shape[1] != n:
        raise LengthMismatch(f"{n} traces but {h.shape[1]} hypothesis values")
    if n < 2:
        raise DegenerateInput("need at least two traces")
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    centred = []
    for row in h:
        hc = row - row.mean()
        ssh = float(hc @ hc)
        if ssh == 0.0:
            raise DegenerateInput("hypothesis has zero variance")
        centred.append((hc, ssh))

    def block(lo, hi):
        cols = traces[:, lo:hi].astype(np.float64)
        cols -= cols.mean(axis=0)
        ssc = np.einsum("ij,ij->j", cols, cols)
        r = np.empty((len(centred), cols.shape[1]))
        with np.errstate(invalid="ignore", divide="ignore"):
            for i, (hc, ssh) in enumerate(centred):
                r[i] = (hc @ cols) / np.sqrt(ssc * ssh)
        r[:, ssc == 0.0] = 0.0
        return r

    width = traces.shape[1]
    starts = list(range(0, width, _COLUMN_BLOCK))
    # numpy sums a block of one to three columns in another order than a
    # wider one. So a last block that narrow joins the block before it,
    # unless it starts a chunk. Then each value is the one that correlating
    # whole chunks of _COLUMN_CHUNK columns gives, where BLAS computes a
    # chunk's product on one thread (tests/test_cpa.py keeps that kernel).
    if starts and starts[-1] % _COLUMN_CHUNK and width - starts[-1] < 4:
        del starts[-1]
    ends = starts[1:] + [width]
    out = np.empty((len(centred), width), dtype=np.float64)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for lo, hi, r in zip(starts, ends, pool.map(block, starts, ends)):
            out[:, lo:hi] = r
    return out


def find_poi(correlations, count: int = 1) -> np.ndarray:
    """Indices of the `count` largest |correlation| values.

    Sorted by descending magnitude; exact ties resolve to the lower
    index, so results are deterministic.
    """
    corr = np.asarray(correlations, dtype=np.float64)
    if corr.ndim != 1:
        raise DegenerateInput("correlations must be 1-D")
    if not 1 <= count <= corr.shape[0]:
        raise DomainError(f"count must be in [1, {corr.shape[0]}]")
    order = np.argsort(-np.abs(corr), kind="stable")
    return order[:count]
