"""The attack's site decoder as it was first written, kept as an oracle.

`column_margins` gathers the site columns from whole trace rows with one
fancy index and adds the classes' log-likelihood difference,
`log_likelihood` each, into a zeroed array. `decode_margins` thresholds
the margins, ORs the slot numbers of each outer iteration's fired inner
sites with a reduction along the slot axis, and counts anomalous
iterations as those with more than one fired slot. recover's decode core computes the same with other
kernels; tests/test_decode_core.py requires equal results.
"""

import numpy as np

from cdtleak.sampler import fold


def log_likelihood(x, stats):
    """-0.5 * (log(2 pi var) + (x - mu)**2 / var), in a new array."""
    d = x - stats.mu
    d **= 2
    d /= stats.var
    d += np.log(2.0 * np.pi * stats.var)
    d *= -0.5
    return d


def point_sites(layout):
    """Sample indices of the inner sites, in site_matrix order, and of the sign sites."""
    sites = layout.site_matrix()
    return sites[:, :-1].reshape(-1), sites[:, -1]


def column_margins(samples, template, sites):
    """Margins of every row at the sample columns `sites`: (rows, sites) float64."""
    out = np.zeros((samples.shape[0], len(sites)), dtype=np.float64)
    x = samples[:, sites].astype(np.float64)
    ll1 = log_likelihood(x, template.class1)
    ll1 -= log_likelihood(x, template.class0)
    out += ll1
    return out


def decode_margins(inner_margins, neg_margins, outer, inner, truth=None):
    """(bits, values, counts, |margin| sums) of one block's margins.

    counts are inner_ones, neg_ones, anomalous, inner_errors and
    neg_errors; the errors are 0 without `truth`.
    """
    rows = len(inner_margins)
    bits = np.empty((rows, outer, inner + 1), dtype=bool)
    inner_bits, neg_bits = bits[:, :, :inner], bits[:, :, inner]
    np.greater(inner_margins.reshape(-1, outer, inner), 0.0, out=inner_bits)
    np.greater(neg_margins, 0.0, out=neg_bits)
    sums = [np.add.reduce(np.abs(m).reshape(-1)) for m in (inner_margins, neg_margins)]
    slots = np.arange(1, inner + 1, dtype=np.uint32)
    values = fold(np.bitwise_or.reduce(inner_bits * slots, axis=2), neg_bits)
    counts = [
        np.count_nonzero(inner_bits),
        np.count_nonzero(neg_bits),
        np.count_nonzero(inner_bits.sum(axis=2) > 1),
        0,
        0,
    ]
    if truth is not None:
        wrong = bits != np.asarray(truth.bits, dtype=bool)
        counts[3:] = np.count_nonzero(wrong[:, :, :inner]), np.count_nonzero(wrong[:, :, inner])
    return bits, values, counts, sums
