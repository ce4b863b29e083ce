"""Hamming-weight power model and synthetic trace generation.

A trace covers one coefficient: for every outer iteration of the sampler,
one block of samples per inner-loop iteration followed by a short tail
block for the sign handling. Exactly one sample inside each block carries
signal, at the offset TraceLayout sets: the device writes the iteration's
mask word there, so the sample mean shifts by alpha times the mask's
Hamming weight (0 or 64). Everything else is baseline plus Gaussian noise.

Noise is generated from the same deterministic word-source family as the
sampler input, one derived sub-seed per trace, so whole campaigns are
reproducible from a single 64-bit seed.

One renderer, render_blocks, makes every sample: it renders the
(labels, noise sub-seeds) parts that campaign_parts or profiling_parts
draw into blocks of whole traces, or of chosen sample columns such as
the leak sites, on a thread per usable core. simulate and profile
stream its blocks, and synthesize_campaign and synthesize_profiling_set
gather them into one matrix. synthesize_trace renders one coefficient's
leak records and is its scalar reference.

The exact Box–Muller step is _box_muller: gaussian_block, and so
synthesize_trace, takes it. The render's step takes cos and sin from a
node table and short polynomials, not from libm, and keeps
_box_muller's bytes: once a chunk's fast pass is done, its rows with a
float32 sample that the fast values might have rounded differently are
rendered again by _box_muller.
"""

from __future__ import annotations

import math
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import traceio
from .errors import DomainError, LayoutMismatch, TraceFormatError, checked_index
from .sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    checked_seed,
    sample_keys,
    scan_words,
    word_block,
    words,
    words_at,
)

DEFAULT_ALPHA = 30.0 / 64.0
DEFAULT_BETA = 40.0
DEFAULT_NOISE_SIGMA = 4.0


def hamming_weight(word: int) -> int:
    """Number of set bits in a 64-bit word."""
    if not 0 <= word <= MASK64:
        raise DomainError("hamming_weight expects a 64-bit value")
    return word.bit_count()


@dataclass(frozen=True)
class LeakModel:
    """Affine Hamming-weight leakage: sample = beta + alpha * HW + noise.

    Units are millivolts throughout; alpha is the per-bit contribution,
    so a full 64-bit mask shifts the leaking sample by 64 * alpha.
    """

    alpha: float = field(default=DEFAULT_ALPHA, metadata={"help": "leak per mask bit, mV"})
    beta: float = field(default=DEFAULT_BETA, metadata={"help": "baseline level, mV"})
    noise_sigma: float = field(
        default=DEFAULT_NOISE_SIGMA, metadata={"help": "noise standard deviation, mV"}
    )

    def __post_init__(self) -> None:
        if not np.isfinite(self.alpha) or not np.isfinite(self.beta):
            raise DomainError("alpha and beta must be finite")
        if not np.isfinite(self.noise_sigma) or self.noise_sigma < 0:
            raise DomainError("noise_sigma must be finite and non-negative")


@dataclass(frozen=True)
class TraceLayout:
    """Sample bookkeeping for one trace.

    Per outer iteration: inner_count blocks of samples_per_inner samples,
    then samples_per_outer_tail tail samples. The mask write of inner
    iteration k lands at offset leak_offset_inner inside its block; the
    sign-mask write lands at leak_offset_neg inside the tail.
    """

    outer_count: int
    inner_count: int
    samples_per_inner: int = 8
    samples_per_outer_tail: int = 8
    leak_offset_inner: int = 3
    leak_offset_neg: int = 3

    def __post_init__(self) -> None:
        for f in fields(self):
            checked_index(getattr(self, f.name), f.name)
        if self.outer_count < 1 or self.inner_count < 1:
            raise DomainError("iteration counts must be positive")
        if self.samples_per_inner < 1 or self.samples_per_outer_tail < 1:
            raise DomainError("block sizes must be positive")
        if not 0 <= self.leak_offset_inner < self.samples_per_inner:
            raise DomainError("leak_offset_inner outside its block")
        if not 0 <= self.leak_offset_neg < self.samples_per_outer_tail:
            raise DomainError("leak_offset_neg outside its block")
        traceio.check_count(self.trace_length, "trace length")

    @classmethod
    def for_params(cls, params: SamplerParams, table: GaussCdtTable, **kwargs) -> "TraceLayout":
        return cls(outer_count=params.outer_count, inner_count=table.inner_count, **kwargs)

    @property
    def outer_block(self) -> int:
        return self.inner_count * self.samples_per_inner + self.samples_per_outer_tail

    @property
    def trace_length(self) -> int:
        return self.outer_count * self.outer_block

    def site_matrix(self) -> np.ndarray:
        """Sample index of every mask write, (outer_count, inner_count + 1).

        The sites are in the order of traceio.LabelSet.bits.
        """
        offsets = np.arange(self.inner_count + 1) * self.samples_per_inner
        offsets += self.leak_offset_inner
        offsets[-1] += self.leak_offset_neg - self.leak_offset_inner
        return np.arange(self.outer_count)[:, None] * self.outer_block + offsets


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Map uint64 words (even count along last axis) to standard normals."""
    m = words.shape[-1] // 2
    u1 = ((words[..., :m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = ((words[..., m : 2 * m] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    return np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)


def gaussian_block(seed: int, count: int) -> np.ndarray:
    """`count` standard normal deviates, fully determined by `seed`."""
    count = checked_index(count, "count")
    if count < 0:
        raise DomainError("count must be non-negative")
    pairs = (count + 1) // 2
    return _box_muller(word_block(seed, 0, 2 * pairs))[:count]


# The fast step's angle 2π(k + 1)·2^-53 of a 53-bit angle word k is a table
# node 2π·j/4096, j the top 12 bits of k, plus an offset d below 2π/4096
# from its low 41 bits, rotated by the node: cos and sin of d come from
# short Taylor polynomials, whose error at that size is below 2^-53.
_NODE_BITS = 12
_NODES = 2.0 * np.pi * np.arange(1 << _NODE_BITS) / (1 << _NODE_BITS)
_NODE_COS, _NODE_SIN = np.cos(_NODES), np.sin(_NODES)
# δ, a bound on |fast cos or sin - np.cos or np.sin of the exact step's angle|:
# measured below 2^-49, so the margin is 2^9-fold.
_ANGLE_ERROR = 2.0 ** -40
# R, the largest radius: that of the radius word k = 0.
_RADIUS_MAX = math.sqrt(-2.0 * math.log(2.0 ** -53))


def _fast_cos_sin(k: np.ndarray, scratch) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the angles 2π(k + 1)·2^-53 of 53-bit words k, within _ANGLE_ERROR.

    k is uint64 and scratch four float64 arrays of k's shape, all
    C-contiguous; both are spent. Returns (cos, sin): the cosines in k's
    memory and the sines in scratch[1].
    """
    a, node_sin, d, cos_d = scratch
    node = a.view(np.int64)
    np.right_shift(k, np.uint64(53 - _NODE_BITS), out=a.view(np.uint64))
    k &= np.uint64((1 << (53 - _NODE_BITS)) - 1)
    d[...] = k
    d += 1.0
    d *= 2.0 * np.pi * 2.0**-53
    # Clip, not raise, so that take writes into its output without a buffer.
    node_cos = k.view(np.float64)
    np.take(_NODE_COS, node, out=node_cos, mode="clip")
    np.take(_NODE_SIN, node, out=node_sin, mode="clip")
    d2 = a.view(np.float64)
    np.multiply(d, d, out=d2)
    np.multiply(d2, 1.0 / 24.0, out=cos_d)
    cos_d -= 0.5
    cos_d *= d2
    cos_d += 1.0
    d2 *= -1.0 / 6.0
    d2 += 1.0
    sin_d = d
    sin_d *= d2
    # The rotation: cos = cj cos d - sj sin d and sin = sj cos d + cj sin d.
    sj_sin_d = d2
    np.multiply(node_sin, sin_d, out=sj_sin_d)
    sin_d *= node_cos
    node_sin *= cos_d
    node_sin += sin_d
    node_cos *= cos_d
    node_cos -= sj_sin_d
    return node_cos, node_sin


def _fast_box_muller(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """_box_muller(w) into z, cos and sin from _fast_cos_sin: each normal within R·δ of it.

    w is uint64 (rows, 2m), m radius words and then m angle words, as
    _box_muller takes them, and z is float64 of the same shape; both are
    C-contiguous, and the words are spent. z receives radius * cos(angle)
    in its first half and radius * sin(angle) in its second, and is
    returned. The radius is _box_muller's, bit for bit, so only cos and
    sin move a normal. For the length of the call it takes one more
    float64 array of w's size, so that every step but the last two runs
    on whole arrays, not on half rows.
    """
    rows, pairs = len(w), w.shape[1] // 2
    w >>= np.uint64(11)
    held = np.empty((2, rows, pairs))
    radius, k = held[0], held[1].view(np.uint64)
    radius[...] = w[:, :pairs]
    k[...] = w[:, pairs:]
    radius += 1.0
    radius *= 2.0 ** -53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    scratch = [*w.reshape(2, rows, pairs).view(np.float64), *z.reshape(2, rows, pairs)]
    cos, sin = _fast_cos_sin(k, scratch)
    np.multiply(cos, radius, out=z[:, :pairs])
    np.multiply(sin, radius, out=z[:, pairs:])
    return z


def _settle_margin(model: LeakModel) -> float:
    """M: a float64 sample made from fast cos and sin is within M of the exact step's.

    M = 2·R·σ·δ + 2^-48·(|β| + 64|α| + R·σ): the first term bounds the
    noise's change, the second the roundings after it. It is at least
    2^-148, so that a sample near enough to zero for its float32 sign to
    be in doubt is never settled.
    """
    spread = _RADIUS_MAX * model.noise_sigma
    rounding = 2.0**-48 * (abs(model.beta) + 64.0 * abs(model.alpha) + spread)
    return max(2.0 * spread * _ANGLE_ERROR + rounding, 2.0**-148)


def _unsettled_rows(y: np.ndarray, margin: float, scratch: np.ndarray) -> np.ndarray:
    """Rows of float64 y holding a sample whose float32 cast a move of up to margin could change.

    A sample is settled when y - margin and y + margin cast to the same
    float32: every value between them then casts to it too, since the
    cast is monotone. scratch is float32 with at least 2 * y.size
    entries; it holds the two casts.
    """
    below, above = scratch[: 2 * y.size].reshape(2, *y.shape)
    # Past float32's range a cast gives inf. NaN, from inf - inf, is never equal.
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(y, margin, out=below)
        np.add(y, margin, out=above)
    return (below != above).any(axis=1)


def _check_leaks(leaks, layout: TraceLayout) -> None:
    if len(leaks) != layout.outer_count:
        raise LayoutMismatch(
            f"{len(leaks)} leak records for layout with {layout.outer_count} outer iterations"
        )
    for rec in leaks:
        if len(rec.inner_masks) != layout.inner_count:
            raise LayoutMismatch(
                f"record has {len(rec.inner_masks)} inner masks, layout wants {layout.inner_count}"
            )


def synthesize_trace(leaks, model: LeakModel, layout: TraceLayout, noise_seed: int) -> np.ndarray:
    """Render one coefficient's leak records into a float32 trace."""
    _check_leaks(leaks, layout)
    trace = model.beta + model.noise_sigma * gaussian_block(noise_seed, layout.trace_length)
    for sites, rec in zip(layout.site_matrix(), leaks):
        for site, mask in zip(sites, (*rec.inner_masks, rec.neg_mask)):
            trace[site] += model.alpha * hamming_weight(mask)
    return trace.astype(np.float32)


# Rows per render chunk, the unit of pool work and of yielded blocks, come
# from this many samples (1 MiB as float32), whatever the trace length.
_CHUNK_SAMPLES = 1 << 18
# Rows per render tile, the unit of noise generation inside a chunk, come
# from this many float64 samples (512 KiB), so that a tile's buffer and
# its uint64 words fit in a core's L2.
_TILE_SAMPLES = 1 << 16
# Chunks rendering or waiting per render thread, each with its block.
_CHUNKS_PER_THREAD = 2
# Rows per key block of a campaign, rounded down to whole keys (at least one).
_KEY_BLOCK_ROWS = 1 << 11


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity, else every core."""
    affinity = getattr(os, "sched_getaffinity", None)  # absent on some platforms
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def render_blocks(parts, model: LeakModel, layout: TraceLayout, columns=None):
    """Render traces chunk by chunk; yield (labels, samples) per chunk, in row order.

    `parts` is an iterable of (LabelSet, noise sub-seeds) pairs of
    consecutive rows, as campaign_parts and profiling_parts give them,
    drawn as the render needs them. A row's samples are its trace, or
    only its samples `columns` (a 1-D integer index array), in that order;
    a column outside the trace, or columns of another dtype (bool
    included, not read as a mask), raise DomainError here, and a part whose
    label records do not fit `layout` raises LayoutMismatch when it is
    drawn, before any of its chunks is rendered. Sample j is the cos (j <
    pairs) or sin half of Box–Muller pair j mod pairs, pairs =
    ceil(trace_length / 2), and pair p takes words p and pairs + p of the
    row's sub-seed, so only the used pairs are drawn. Each part is cut
    into chunks of _CHUNK_SAMPLES drawn words, rendered on one pool of a
    thread per usable core (_usable_cores) with at most _CHUNKS_PER_THREAD
    chunks per thread pending; a chunk's samples are a new float32 block.
    A chunk's render allocates a float64 buffer of _TILE_SAMPLES words and
    renders the chunk through it in row tiles. The tile's uint64 words are
    as big, and so is one array at a time beside them: the words' shift
    temp while words_at draws them, then the contiguous halves of
    _fast_box_muller. So a thread holds 3 * 512 KiB of scratch. At the
    README geometry (432 samples) a whole-trace render holds, per usable
    core, 1.5 MiB of scratch and at most 2 pending chunks of 606 rows, 2 MiB.

    The normals come from _fast_box_muller, within R·δ of those of
    _box_muller, the exact step, and every step after it is monotone in
    them. So a row whose float32 samples are all settled
    (_unsettled_rows, with the margin _settle_margin gives) has the
    bytes of the exact step. After its tiles, the chunk's other rows are
    rendered again by _box_muller on all of their words, the step
    synthesize_trace takes, up to a tile of rows per call and without
    another words_at call. A call holds five tiles' worth, 2.5 MiB beside
    the buffer: the rows' words, _box_muller's six half-width arrays and
    its result. Models whose samples come near 0, where float32 is finer,
    send most rows there.

    Bit-identical to calling synthesize_trace per coefficient with the
    matching sub-seed: the noise is scaled and shifted in the same order,
    alpha * HW is added at every leak site, and the float32 cast is the
    same. Chunks and tiles only bound memory, and threads only split
    chunks, so none of them changes the output.
    """
    length = layout.trace_length
    pairs = (length + 1) // 2
    # Whole rows: every pair, kept as a view; cols[i] is the sample of leak site sites[i].
    drawn, gather, n_out = np.arange(pairs), slice(length), length
    cols, sites = layout.site_matrix().reshape(-1), slice(None)
    if columns is not None:
        columns = np.asarray(columns)
        if columns.dtype.kind not in "iu":
            raise DomainError(f"columns must be integer sample indices, got dtype {columns.dtype}")
        if columns.ndim != 1 or not ((0 <= columns) & (columns < length)).all():
            raise DomainError(f"columns must be sample indices below {length}")
        columns = columns.astype(np.int64)
        drawn = np.flatnonzero(np.bincount(columns % pairs, minlength=pairs))
        # Column i of a tile's normals is the cos of drawn pair i, column len(drawn) + i its sin.
        gather = np.searchsorted(drawn, columns % pairs) + len(drawn) * (columns >= pairs)
        site_at = np.full(length, -1)
        site_at[cols] = np.arange(len(cols))
        at, n_out = site_at[columns], len(columns)
        cols, sites = np.flatnonzero(at >= 0), at[at >= 0]
    counters = np.concatenate([drawn, drawn + pairs])
    picked = slice(length) if columns is None else columns
    margin = _settle_margin(model)
    width = max(1, len(counters), n_out)
    chunk = max(1, _CHUNK_SAMPLES // width)
    tile = min(chunk, max(1, _TILE_SAMPLES // width))
    threads = _usable_cores()

    def leak(z, bits):
        """Scale and shift normals z, (rows, n_out) float64; add alpha * HW at every leak site."""
        z *= model.noise_sigma
        z += model.beta
        z[:, cols] += model.alpha * 64 * bits[:, sites]

    def render_tile(bits, seeds, buf, out):
        """The fast step on a tile into out, freeing its words; returns the unsettled-row mask."""
        w = words_at(seeds, counters)
        z = _fast_box_muller(w, buf[: len(seeds)])[:, gather]
        leak(z, bits)
        scratch = w.reshape(-1).view(np.float32)
        if len(scratch) < 2 * z.size:  # only columns with repeats
            scratch = np.empty(2 * z.size, dtype=np.float32)
        out[...] = z
        return _unsettled_rows(z, margin, scratch)

    def render(bits, subseeds, samples):
        buf = np.empty((tile, len(counters)))
        tiles = [slice(lo, lo + tile) for lo in range(0, len(subseeds), tile)]
        # Past float32's range the cast gives inf, which the trace writer rejects.
        with np.errstate(over="ignore"):
            unsettled = [render_tile(bits[t], subseeds[t], buf, samples[t]) for t in tiles]
            redo = np.flatnonzero(np.concatenate(unsettled))
            for lo in range(0, len(redo), tile):
                rows = redo[lo : lo + tile]
                # Row i's first `length` normals are gaussian_block(subseeds[i], length).
                exact = _box_muller(words(subseeds[rows], 0, 2 * pairs))[:, picked]
                leak(exact, bits[rows])
                samples[rows] = exact
        return samples

    def blocks():
        with ThreadPoolExecutor(max_workers=threads) as pool:
            pending: deque = deque()
            for labels, subseeds in parts:
                if labels.bits.shape[1:] != (layout.outer_count, layout.inner_count + 1):
                    raise LayoutMismatch("layout disagrees with sampler parameters or table")
                bits = labels.bits.reshape(len(subseeds), -1)
                for lo in range(0, len(subseeds), chunk):
                    hi = min(lo + chunk, len(subseeds))
                    # Blocks are allocated on the thread that frees them, so
                    # malloc reuses their memory: allocated by the render
                    # threads, they raised the peak RSS of repeated
                    # simulate runs by 7 MB.
                    samples = np.empty((hi - lo, n_out), dtype=np.float32)
                    done = pool.submit(render, bits[lo:hi], subseeds[lo:hi], samples)
                    pending.append((labels.rows(lo, hi), done))
                    if len(pending) == _CHUNKS_PER_THREAD * threads:
                        part, done = pending.popleft()
                        yield part, done.result()
            for part, done in pending:
                yield part, done.result()

    return blocks()


def _gathered(parts, model: LeakModel, layout: TraceLayout, n_rows: int):
    """render_blocks' rows of `parts` in one (n_rows, trace_length) matrix, and their labels."""
    samples = np.empty((n_rows, layout.trace_length), dtype=np.float32)
    labels, row = [], 0
    for part, block in render_blocks(parts, model, layout):
        samples[row : row + len(block)] = block
        labels.append(part)
        row += len(block)
    return samples, traceio.LabelSet.concatenate(labels)


def campaign_metadata(
    seed: int,
    params: SamplerParams,
    model: LeakModel,
    layout: TraceLayout,
    n_keys: int,
) -> dict[str, str]:
    """Self-describing metadata so a campaign's trace file can be attacked standalone.

    Holds kind=campaign, seed, every field of params, layout and model by name, and n_keys.
    """
    md = {"kind": "campaign", "seed": str(checked_seed(seed))}
    for setup in (params, layout, model):
        md.update(traceio.encode_fields(setup))
    md["n_keys"] = str(n_keys)
    return md


def campaign_from_metadata(
    md: dict[str, str],
) -> tuple[SamplerParams, TraceLayout, LeakModel, int]:
    """The setup and n_keys campaign_metadata wrote, from a campaign's trace file.

    Another kind, a missing or malformed field, a seed that is not 64-bit,
    a value its dataclass rejects, an outer_count that logn does not give,
    an n_keys below 1, or a key campaign_metadata does not write raises
    TraceFormatError.
    """
    # Each field read is popped, so what is left is unknown.
    values = dict(md)
    kind = values.pop("kind", None)
    if kind != "campaign":
        raise TraceFormatError(
            f"input traces are not a key-generation campaign (metadata kind {kind!r})"
        )

    def error(message: str) -> TraceFormatError:
        return TraceFormatError(f"campaign metadata: {message}")

    try:
        checked_seed(traceio.pop_field(values, "seed", "int", error))
    except DomainError as exc:
        raise error(str(exc)) from None
    params, layout, model = (
        traceio.decode_fields(cls, values, error) for cls in (SamplerParams, TraceLayout, LeakModel)
    )
    if layout.outer_count != params.outer_count:
        raise error(f"outer_count {layout.outer_count} disagrees with logn {params.logn}")
    n_keys = traceio.pop_field(values, "n_keys", "int", error)
    if n_keys < 1:
        raise error(f"n_keys={n_keys} is not positive")
    if values:
        raise error(f"unknown keys: {', '.join(sorted(values))}")
    return params, layout, model, n_keys


def campaign_parts(seed: int, params: SamplerParams, table: GaussCdtTable, n_keys: int):
    """synthesize_campaign's labels and noise sub-seeds, as (labels, subseeds) blocks.

    Every argument is checked here, before a key is sampled; the rows of
    n_keys * 2n must fit a trace file. The returned iterator samples
    whole keys, about _KEY_BLOCK_ROWS rows at a time, as it is drawn, so
    a caller that renders and drops each block holds a few MB whatever
    n_keys is. The sampler stream of key j is child seed j of `seed`, and
    the noise sub-seed of row r is child seed n_keys + r.
    """
    if n_keys < 1:
        raise DomainError("n_keys must be positive")
    per_key = 2 * params.n
    traceio.check_count(n_keys * per_key, "trace count")
    root = [checked_seed(seed)]
    step = max(1, _KEY_BLOCK_ROWS // per_key)

    def parts():
        for k in range(0, n_keys, step):
            count = min(step, n_keys - k)
            labels = traceio.LabelSet(*sample_keys(words(root, k, count)[0], params, table))
            yield labels, words(root, n_keys + k * per_key, count * per_key)[0]

    return parts()


def synthesize_campaign(
    seed: int,
    params: SamplerParams,
    table: GaussCdtTable,
    model: LeakModel,
    layout: TraceLayout | None = None,
    n_keys: int = 1,
) -> tuple[traceio.TraceSet, traceio.LabelSet]:
    """Simulate full key generations, one trace per coefficient.

    Rows are ordered key by key, f before g, coefficients ascending.
    Returns the traces and their labels: render_blocks over
    campaign_parts, gathered into one matrix, with campaign_metadata.
    Key j's f is labels.values[2n*j : 2n*j + n] and its g the n values
    after it.
    """
    parts = campaign_parts(seed, params, table, n_keys)
    layout = TraceLayout.for_params(params, table) if layout is None else layout
    md = campaign_metadata(seed, params, model, layout, n_keys)
    samples, labels = _gathered(parts, model, layout, n_keys * 2 * params.n)
    return traceio.TraceSet(samples=samples, metadata=md), labels


def profiling_classes(n_traces: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """The classes a profiling campaign plants, (2, rows) bool, for traces start to stop - 1.

    Row 0 is the inner class: trace i latches at inner slot 1 in its
    first outer iteration when i < n_traces // 2, and takes the zero
    branch otherwise. Row 1 is the sign class, i & 1. The labels of the
    planted traces hold the same bits: bits[:, 0, 0] and bits[:, 0, -1].
    By default the rows cover all n_traces traces. Both rows are set by
    slices, so the result is all that is allocated.
    """
    classes = np.zeros((2, max(0, (n_traces if stop is None else stop) - start)), dtype=bool)
    classes[0, : max(0, n_traces // 2 - start)] = True
    classes[1, (start + 1) % 2 :: 2] = True
    return classes


def _plant_first_iteration(table: GaussCdtTable, stream: np.ndarray, classes: np.ndarray) -> None:
    """Plant the first outer iteration of each trace, in place.

    Row i of `stream` is the plant stream of the trace whose classes are
    column i of `classes`, as profiling_classes gives them. Its columns 0
    and 1 are replaced by the planted first-iteration words: a class-1
    trace latches at inner slot 1, whose second draws are [entries[1],
    2^63), a class-0 trace takes the zero branch, and the sign bit is the
    sign class: each drawn word is reduced into the range that takes that
    path. The columns after them feed the unscripted iterations
    unchanged. Its scalar oracle is in tests/scripted.py: it crafts one
    trace's pair from the same two words.
    """
    zero_top, lo = (np.uint64(v) for v in table.entries[:2])
    top = np.uint64(MASK63 + 1)
    latch, sign = classes
    first, second = stream[:, 0], stream[:, 1]
    first[...] = np.where(latch, zero_top + first % (top - zero_top), first % zero_top)
    first |= sign.astype(np.uint64) << np.uint64(63)
    second[...] = np.where(latch, lo + second % (top - lo), second & np.uint64(MASK63))


def profiling_parts(seed: int, params: SamplerParams, table: GaussCdtTable, n_traces: int = 10000):
    """synthesize_profiling_set's labels and noise sub-seeds, as (labels, subseeds) blocks.

    Every argument is checked here. The returned iterator draws the rows
    from the seed _KEY_BLOCK_ROWS at a time, so each call yields the same
    blocks, and a caller that drops each block holds about 135 KB of them
    at the README geometry, whatever n_traces is. Trace i's plant stream
    is child seed i of `seed`, and its noise sub-seed is child seed
    n_traces + i.
    """
    if n_traces < 4:
        raise DomainError("n_traces must be at least 4")
    # The largest per-trace arrays of a profile, its float32 POI columns, take 8 bytes a trace.
    if n_traces > np.iinfo(np.intp).max // 8:
        raise DomainError(f"n_traces {n_traces} is too large for numpy to address its arrays")
    seed = checked_seed(seed)
    if table.entries[0] == 0:
        raise DomainError("table gives zero probability to magnitude 0")

    def parts():
        for lo in range(0, n_traces, _KEY_BLOCK_ROWS):
            count = min(_KEY_BLOCK_ROWS, n_traces - lo)
            stream = words(words([seed], lo, count)[0], 0, 2 * params.outer_count)
            classes = profiling_classes(n_traces, lo, lo + count)
            _plant_first_iteration(table, stream, classes)
            draws = stream.reshape(count, params.outer_count, 2)
            yield traceio.LabelSet(*scan_words(table, draws)), words([seed], n_traces + lo, count)[0]

    return parts()


def synthesize_profiling_set(
    seed: int,
    params: SamplerParams,
    table: GaussCdtTable,
    model: LeakModel,
    layout: TraceLayout | None = None,
    n_traces: int = 10000,
) -> tuple[traceio.TraceSet, traceio.LabelSet]:
    """Simulate a profiling campaign with planted classes.

    The first outer iteration of every trace is steered through scripted
    input words: the first half of the traces latches at inner slot 1
    (mask all ones there), the second half takes the zero branch (no
    inner mask fires); the sign bit alternates trace by trace. The two
    plantings are exactly balanced and mutually orthogonal when n_traces
    is a multiple of 4. Remaining outer iterations run unscripted.

    Class labels are recoverable from the returned LabelSet: the inner
    class of trace i is bits[i, 0, 0], the sign class is bits[i, 0, -1].
    The returned TraceSet carries no metadata. It is render_blocks over
    profiling_parts, gathered into one matrix.
    """
    parts = profiling_parts(seed, params, table, n_traces)
    layout = TraceLayout.for_params(params, table) if layout is None else layout
    samples, labels = _gathered(parts, model, layout, n_traces)
    return traceio.TraceSet(samples), labels
