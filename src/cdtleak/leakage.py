"""Hamming-weight power model and synthetic trace generation.

A trace covers one coefficient: for every outer iteration of the sampler,
one block of samples per inner-loop iteration followed by a short tail
block for the sign handling. Exactly one sample inside each block carries
signal, at a configurable offset: the device writes the iteration's mask
word there, so the sample mean shifts by alpha times the mask's Hamming
weight (0 or 64). Everything else is baseline plus Gaussian noise.

Noise is generated from the same deterministic word-source family as the
sampler input, one derived sub-seed per trace, so whole campaigns are
reproducible from a single 64-bit seed.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from . import traceio
from .errors import DomainError, LayoutMismatch, TraceFormatError
from .sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    SecretPolynomial,
    key_pairs,
    sample_keys,
    scan_words,
    word_block,
    words,
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

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    noise_sigma: float = DEFAULT_NOISE_SIGMA

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
        if self.outer_count < 1 or self.inner_count < 1:
            raise DomainError("iteration counts must be positive")
        if self.samples_per_inner < 1 or self.samples_per_outer_tail < 1:
            raise DomainError("block sizes must be positive")
        if not 0 <= self.leak_offset_inner < self.samples_per_inner:
            raise DomainError("leak_offset_inner outside its block")
        if not 0 <= self.leak_offset_neg < self.samples_per_outer_tail:
            raise DomainError("leak_offset_neg outside its block")

    @classmethod
    def for_params(cls, params: SamplerParams, table: GaussCdtTable, **kwargs) -> "TraceLayout":
        return cls(outer_count=params.outer_count, inner_count=table.inner_count, **kwargs)

    @property
    def outer_block(self) -> int:
        return self.inner_count * self.samples_per_inner + self.samples_per_outer_tail

    @property
    def trace_length(self) -> int:
        return self.outer_count * self.outer_block

    def inner_site_index(self, outer: int, k: int) -> int:
        """Sample index of the mask write at inner iteration k (1-based)."""
        if not 0 <= outer < self.outer_count:
            raise DomainError("outer index out of range")
        if not 1 <= k <= self.inner_count:
            raise DomainError("inner index out of range")
        return outer * self.outer_block + (k - 1) * self.samples_per_inner + self.leak_offset_inner

    def neg_site_index(self, outer: int) -> int:
        """Sample index of the sign-mask write in outer iteration `outer`."""
        if not 0 <= outer < self.outer_count:
            raise DomainError("outer index out of range")
        return (
            outer * self.outer_block
            + self.inner_count * self.samples_per_inner
            + self.leak_offset_neg
        )

    def inner_site_matrix(self) -> np.ndarray:
        """All inner leak indices, shape (outer_count, inner_count)."""
        u = np.arange(self.outer_count)[:, None] * self.outer_block
        k = np.arange(self.inner_count)[None, :] * self.samples_per_inner
        return u + k + self.leak_offset_inner

    def neg_site_vector(self) -> np.ndarray:
        """All sign leak indices, shape (outer_count,)."""
        return (
            np.arange(self.outer_count) * self.outer_block
            + self.inner_count * self.samples_per_inner
            + self.leak_offset_neg
        )


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
    if count < 0:
        raise DomainError("count must be non-negative")
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    return _box_muller(word_block(seed, 0, 2 * pairs))[:count]


def _gaussian_matrix(subseeds: np.ndarray, count: int, out: np.ndarray | None = None) -> np.ndarray:
    """Row i holds gaussian_block(subseeds[i], count), computed in place.

    `out` is a float64 buffer of at least (rows, 2 * pairs) that the
    result is a view of; one is allocated when it is None. Each step is
    the one _box_muller takes, on the same values, so rows match it bit
    for bit.
    """
    pairs = (count + 1) // 2
    rows = len(subseeds)
    if out is None:
        out = np.empty((rows, 2 * pairs))
    z = out[:rows, : 2 * pairs]
    w = words(subseeds, 0, 2 * pairs)
    w >>= np.uint64(11)
    # The angle goes in the first half and the radius in the second, so
    # that cos and sin each land in their output half without a copy.
    angle, radius = z[:, :pairs], z[:, pairs:]
    angle[...] = w[:, pairs:]
    radius[...] = w[:, :pairs]
    z += 1.0
    z *= 2.0 ** -53
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle *= 2.0 * np.pi
    # The words are spent; their memory holds the sines.
    sine = w[:, :pairs].view(np.float64)
    np.sin(angle, out=sine)
    np.cos(angle, out=angle)
    angle *= radius
    radius *= sine
    return z[:, :count]


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
    for u, rec in enumerate(leaks):
        for k, mask in enumerate(rec.inner_masks, start=1):
            trace[layout.inner_site_index(u, k)] += model.alpha * hamming_weight(mask)
        trace[layout.neg_site_index(u)] += model.alpha * hamming_weight(rec.neg_mask)
    return trace.astype(np.float32)


def build_label_set(coefficients) -> traceio.LabelSet:
    """Ground-truth labels for a flat list of sampled coefficients."""
    coefficients = list(coefficients)
    if not coefficients:
        raise DomainError("no coefficients to label")
    return traceio.LabelSet(
        values=np.array([c.value for c in coefficients], dtype=np.int32),
        inner_bits=np.array(
            [[[m != 0 for m in rec.inner_masks] for rec in c.leaks] for c in coefficients],
            dtype=bool,
        ),
        neg_bits=np.array(
            [[rec.neg_mask != 0 for rec in c.leaks] for c in coefficients], dtype=bool
        ),
    )


# Rows per render chunk come from this many float64 samples (2 MiB), so
# a chunk's working set stays in cache whatever the trace length.
_CHUNK_SAMPLES = 1 << 18
# Chunks rendering or waiting per render thread, each with its block.
_CHUNKS_PER_THREAD = 2
# Rows per key block of a campaign, rounded down to whole keys (at least one).
_KEY_BLOCK_ROWS = 1 << 11


def _render_blocks(parts, model: LeakModel, layout: TraceLayout, threads: int = 1, out=None):
    """Render traces chunk by chunk; yield (labels, samples) per chunk, in row order.

    `parts` is an iterable of (LabelSet, noise sub-seeds) pairs of
    consecutive rows, drawn as the render needs them. Each part is cut
    into chunks that are rendered on one pool of `threads` threads, each
    thread with its own float64 buffer, with at most _CHUNKS_PER_THREAD
    chunks per thread pending. A chunk's samples are a new float32 block,
    or rows of `out` when that (rows, trace_length) array is given.

    Bit-identical to calling synthesize_trace per coefficient with the
    matching sub-seed: the noise is scaled and shifted in the same order,
    the gain is added where a mask bit is set, and the float32 cast is the
    same. synthesize_trace also adds alpha * 0 at the other leak sites.
    That changes a sample only if it is -0.0, which takes beta = -0.0, so
    only then are those zeros added here too (at every leak site, before
    the gain). Chunks only bound memory, and threads only split chunks, so
    neither changes the output.
    """
    length = layout.trace_length
    cols = np.concatenate([layout.inner_site_matrix().reshape(-1), layout.neg_site_vector()])
    gain = model.alpha * 64
    add_zeros = model.beta == 0.0 and math.copysign(1.0, model.beta) < 0
    width = 2 * ((length + 1) // 2)
    chunk = max(1, _CHUNK_SAMPLES // width)
    local = threading.local()

    def render(bits, subseeds, samples):
        if not hasattr(local, "buf"):
            local.buf = np.empty((chunk, width))
        z = _gaussian_matrix(subseeds, length, out=local.buf)
        z *= model.noise_sigma
        z += model.beta
        if add_zeros:
            z[:, cols] += model.alpha * 0
        rows, sites = np.nonzero(bits)
        z[rows, cols[sites]] += gain
        # Past float32's range the cast gives inf, which the trace writer rejects.
        with np.errstate(over="ignore"):
            samples[...] = z
        return samples

    def chunks():
        row = 0
        for labels, subseeds in parts:
            n = len(subseeds)
            bits = np.concatenate(
                [labels.inner_bits.reshape(n, -1), labels.neg_bits.reshape(n, -1)], axis=1
            )
            for lo in range(0, n, chunk):
                hi = min(lo + chunk, n)
                if out is None:
                    samples = np.empty((hi - lo, length), dtype=np.float32)
                else:
                    samples = out[row + lo : row + hi]
                yield labels.rows(lo, hi), (bits[lo:hi], subseeds[lo:hi], samples)
            row += n

    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        for part, job in chunks():
            pending.append((part, pool.submit(render, *job)))
            if len(pending) == _CHUNKS_PER_THREAD * threads:
                part, done = pending.popleft()
                yield part, done.result()
        for part, done in pending:
            yield part, done.result()


def campaign_metadata(
    seed: int,
    params: SamplerParams,
    model: LeakModel,
    layout: TraceLayout,
    kind: str,
    **extra: str,
) -> dict[str, str]:
    """Self-describing metadata so a trace file can be attacked standalone.

    Holds kind, seed, every field of params, layout and model by name, and extra.
    """
    md = {"kind": kind, "seed": str(seed)}
    for setup in (params, layout, model):
        md.update(
            (f.name, traceio.CODECS[f.type][0](getattr(setup, f.name))) for f in fields(setup)
        )
    md.update(extra)
    return md


def metadata_number(md: dict[str, str], key: str, decode=int):
    """Parse one metadata field; a missing or malformed one is a format error."""
    try:
        raw = md[key]
    except KeyError:
        raise TraceFormatError(f"trace file lacks campaign metadata field {key!r}") from None
    try:
        return decode(raw)
    except ValueError:
        raise TraceFormatError(f"metadata field {key!r} has bad value {raw!r}") from None


_KIND_NAMES = {"campaign": "key-generation campaign", "profiling": "profiling campaign"}


def campaign_from_metadata(
    md: dict[str, str], kind: str
) -> tuple[SamplerParams, TraceLayout, LeakModel]:
    """The setup campaign_metadata wrote, from a trace file of the given kind.

    Another kind, a missing or malformed field, a value its dataclass
    rejects, or an outer_count that logn does not give raises TraceFormatError.
    """
    if md.get("kind") != kind:
        raise TraceFormatError(
            f"input traces are not a {_KIND_NAMES[kind]} (metadata kind {md.get('kind')!r})"
        )
    setup = []
    for cls in (SamplerParams, TraceLayout, LeakModel):
        decoded = {
            f.name: metadata_number(md, f.name, traceio.CODECS[f.type][1]) for f in fields(cls)
        }
        try:
            setup.append(cls(**decoded))
        except DomainError as exc:
            raise TraceFormatError(f"campaign metadata: {exc}") from None
    params, layout, model = setup
    if layout.outer_count != params.outer_count:
        raise TraceFormatError(
            f"campaign metadata: outer_count {layout.outer_count} disagrees with logn {params.logn}"
        )
    return params, layout, model


def _checked_layout(params: SamplerParams, table: GaussCdtTable, layout) -> TraceLayout:
    if layout is None:
        return TraceLayout.for_params(params, table)
    if (layout.outer_count, layout.inner_count) != (params.outer_count, table.inner_count):
        raise LayoutMismatch("layout disagrees with sampler parameters or table")
    return layout


def _campaign_layout(params: SamplerParams, table: GaussCdtTable, layout, n_keys: int):
    if n_keys < 1:
        raise DomainError("n_keys must be positive")
    traceio.check_count(n_keys * 2 * params.n, "trace count")
    return _checked_layout(params, table, layout)


def _key_blocks(seed: int, params: SamplerParams, table: GaussCdtTable, n_keys: int):
    """The campaign's labels and noise sub-seeds, a block of whole keys at a time."""
    root = [seed & MASK64]
    per_key = 2 * params.n
    step = max(1, _KEY_BLOCK_ROWS // per_key)
    for k in range(0, n_keys, step):
        count = min(step, n_keys - k)
        values, inner_bits, neg_bits = sample_keys(words(root, k, count)[0], params, table)
        subseeds = words(root, n_keys + k * per_key, count * per_key)[0]
        yield traceio.LabelSet(values, inner_bits, neg_bits), subseeds


def campaign_blocks(
    seed: int,
    params: SamplerParams,
    table: GaussCdtTable,
    model: LeakModel,
    layout: TraceLayout | None = None,
    n_keys: int = 1,
    threads: int = 1,
    out: np.ndarray | None = None,
):
    """synthesize_campaign's metadata, and its rows as (labels, samples) blocks.

    Every argument is checked here, before a key is sampled; the rows of
    n_keys * 2n must fit a trace file. The returned iterator samples keys
    a block at a time as the render needs them, so a caller that writes
    and drops each block holds a few MB whatever n_keys is. Blocks are
    new arrays, or rows of `out` when that matrix is given.
    """
    layout = _campaign_layout(params, table, layout, n_keys)
    md = campaign_metadata(seed, params, model, layout, kind="campaign", n_keys=str(n_keys))
    parts = _key_blocks(seed, params, table, n_keys)
    return md, _render_blocks(parts, model, layout, threads, out=out)


def synthesize_campaign(
    seed: int,
    params: SamplerParams,
    table: GaussCdtTable,
    model: LeakModel,
    layout: TraceLayout | None = None,
    n_keys: int = 1,
    threads: int = 1,
) -> tuple[traceio.TraceSet, traceio.LabelSet, list[tuple[SecretPolynomial, SecretPolynomial]]]:
    """Simulate full key generations, one trace per coefficient.

    Rows are ordered key by key, f before g, coefficients ascending. The
    sampler stream for key j uses child seed j of `seed`; the noise stream
    for row r uses child seed n_keys + r. Returns the traces, their
    labels, and the sampled keys: campaign_blocks gathered into one matrix.
    """
    layout = _campaign_layout(params, table, layout, n_keys)
    samples = np.empty((n_keys * 2 * params.n, layout.trace_length), dtype=np.float32)
    md, blocks = campaign_blocks(seed, params, table, model, layout, n_keys, threads, out=samples)
    labels = traceio.LabelSet.concatenate([part for part, _ in blocks])
    keys = key_pairs(labels.values, labels.inner_bits, labels.neg_bits, params.n)
    return traceio.TraceSet(samples=samples, metadata=md), labels, keys


def plant_control_words(
    table: GaussCdtTable, neg_bit: int, fire_slot: int | None, source
) -> tuple[int, int]:
    """Craft the two input words of one outer iteration.

    The returned pair makes the scan take a chosen path: sign bit equal to
    neg_bit, and the inner latch firing exactly at fire_slot, or nowhere
    (magnitude zero) when fire_slot is None. Residual randomness inside
    the chosen ranges comes from `source`.
    """
    entries = table.entries
    if neg_bit not in (0, 1):
        raise DomainError("neg_bit must be 0 or 1")
    if fire_slot is None:
        if entries[0] == 0:
            raise DomainError("table gives zero probability to magnitude 0")
        low = source.next_u64() % entries[0]
        return (neg_bit << 63) | low, source.next_u64() & MASK63
    if not 1 <= fire_slot <= table.inner_count:
        raise DomainError("fire_slot out of range")
    span0 = MASK63 + 1 - entries[0]
    if span0 == 0:
        raise DomainError("table never leaves the zero branch")
    w1 = (neg_bit << 63) | (entries[0] + source.next_u64() % span0)
    hi = MASK63 + 1 if fire_slot == 1 else entries[fire_slot - 1]
    lo = entries[fire_slot]
    if hi <= lo:
        raise DomainError(f"slot {fire_slot} cannot fire: empty threshold range")
    w2 = lo + source.next_u64() % (hi - lo)
    return w1, w2


def _plant_first_iteration(table: GaussCdtTable, fire_slot: int, stream: np.ndarray) -> None:
    """plant_control_words for every trace at once, in place.

    Row i of `stream` is trace i's plant stream. Its columns 0 and 1 are
    the words plant_control_words draws; they are replaced by the planted
    first-iteration words: the first half of the rows latch at
    fire_slot, the rest take the zero branch, and the sign bit is i & 1.
    The columns after them feed the unscripted iterations unchanged.
    """
    entries = table.entries
    if not 1 <= fire_slot <= table.inner_count:
        raise DomainError("fire_slot out of range")
    hi = MASK63 + 1 if fire_slot == 1 else entries[fire_slot - 1]
    lo = entries[fire_slot]
    if hi <= lo:
        raise DomainError(f"slot {fire_slot} cannot fire: empty threshold range")
    if entries[0] == 0:
        raise DomainError("table gives zero probability to magnitude 0")
    n = len(stream)
    sign = (np.arange(n, dtype=np.uint64) & np.uint64(1)) << np.uint64(63)
    fire, zero = stream[: n // 2], stream[n // 2 :]
    fire[:, 0] = np.uint64(entries[0]) + fire[:, 0] % np.uint64(MASK63 + 1 - entries[0])
    fire[:, 1] = np.uint64(lo) + fire[:, 1] % np.uint64(hi - lo)
    zero[:, 0] %= np.uint64(entries[0])
    zero[:, 1] &= np.uint64(MASK63)
    stream[:, 0] |= sign


def synthesize_profiling_set(
    seed: int,
    params: SamplerParams,
    table: GaussCdtTable,
    model: LeakModel,
    layout: TraceLayout | None = None,
    n_traces: int = 10000,
    fire_slot: int = 1,
    threads: int = 1,
) -> tuple[traceio.TraceSet, traceio.LabelSet]:
    """Simulate a profiling campaign with planted classes.

    The first outer iteration of every trace is steered through scripted
    input words: the first half of the traces latches at `fire_slot`
    (mask all ones there), the second half takes the zero branch (no
    inner mask fires); the sign bit alternates trace by trace. The two
    plantings are exactly balanced and mutually orthogonal when n_traces
    is a multiple of 4. Remaining outer iterations run unscripted.

    Class labels are recoverable from the returned LabelSet: the inner
    class of trace i is inner_bits[i, 0, fire_slot - 1], the sign class
    is neg_bits[i, 0].
    """
    if n_traces < 4:
        raise DomainError("n_traces must be at least 4")
    layout = _checked_layout(params, table, layout)
    plant_seeds = words([seed & MASK64], 0, n_traces)[0]
    stream = words(plant_seeds, 0, 2 * params.outer_count)
    _plant_first_iteration(table, fire_slot, stream)
    values, inner_bits, neg_bits = scan_words(
        table, stream.reshape(n_traces, params.outer_count, 2)
    )
    labels = traceio.LabelSet(values=values, inner_bits=inner_bits, neg_bits=neg_bits)
    subseeds = words([seed & MASK64], n_traces, n_traces)[0]
    samples = np.empty((n_traces, layout.trace_length), dtype=np.float32)
    for _ in _render_blocks([(labels, subseeds)], model, layout, threads, out=samples):
        pass
    md = campaign_metadata(
        seed, params, model, layout, kind="profiling", fire_slot=str(fire_slot)
    )
    return traceio.TraceSet(samples=samples, metadata=md), labels
