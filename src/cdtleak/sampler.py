"""Constant-time CDT Gaussian sampler for lattice key generation.

This module reproduces, bit for bit, the branchless table-scan sampler
used to draw the small secret polynomials (f, g) during FALCON-style key
generation, and records the mask words the scan writes on every
iteration. Those masks are the whole point of the exercise: each one is
either all zeros or all ones, so a power trace of the store instruction
separates the two cases by 64 bits of Hamming weight. The rest of the
package simulates, profiles, and exploits exactly that.

WordSource and sample_coefficient are the scalar reference of one
coefficient's scan and its leak records; words, scan_words and
sample_keys compute the same on arrays and are what the commands run.

All arithmetic is unsigned two's-complement, 64-bit unless noted, with
explicit wrap masks where Python integers would otherwise grow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import DomainError, TableFormatError, checked_index
from .traceio import read_text

MASK64 = (1 << 64) - 1
MASK63 = (1 << 63) - 1
MASK32 = (1 << 32) - 1

# SplitMix64 constants (Steele, Lea, Flood; widely reproduced).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

DEFAULT_Q = 12289


def splitmix64(x: int) -> int:
    """Finalizing mix of SplitMix64: bijective scramble of a 64-bit word."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _MIX1) & MASK64
    x ^= x >> 27
    x = (x * _MIX2) & MASK64
    x ^= x >> 31
    return x


def _checked_u64(value, what: str) -> int:
    """value, if it is a 64-bit integer; DomainError otherwise, never a wrap mod 2**64."""
    value = checked_index(value, what)
    if not 0 <= value <= MASK64:
        raise DomainError(f"{what} must be a 64-bit value")
    return value


def checked_seed(seed: int) -> int:
    """seed, if it is a 64-bit integer; DomainError otherwise, never a wrap mod 2**64."""
    return _checked_u64(seed, "seed")


@dataclass
class WordSource:
    """Deterministic counter-mode 64-bit word generator.

    The word at counter c is splitmix64(seed + (c + 1) * GOLDEN), i.e. the
    (c + 1)-th output of a SplitMix64 stream seeded with `seed`. Equal
    (seed, counter) pairs always produce equal words, so a source can be
    copied, replayed, or advanced independently per task.
    """

    seed: int
    counter: int = 0

    def __post_init__(self) -> None:
        self.seed = checked_seed(self.seed)
        self.counter = _checked_u64(self.counter, "counter")

    def next_u64(self) -> int:
        self.counter = (self.counter + 1) & MASK64
        return splitmix64((self.seed + self.counter * _GOLDEN) & MASK64)


def words(seeds, start: int, count: int) -> np.ndarray:
    """Vectorized WordSource: `count` words per seed, shape (rows, count).

    Row i holds the words WordSource(seeds[i], start) returns next, that
    is splitmix64(seeds[i] + (start + c + 1) * GOLDEN) for c < count, all
    mod 2**64: the counter wraps as it advances. A seed or start that is
    not a 64-bit integer, or a count that is not an integer, raises
    DomainError, as WordSource does.
    """
    start, count = _checked_u64(start, "start"), checked_index(count, "count")
    if count < 0:
        raise DomainError("count must be non-negative")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    steps += np.uint64(start)
    return _splitmix_rows(seeds, steps)


def words_at(seeds, counters) -> np.ndarray:
    """[i, j] is WordSource(seeds[i], counters[j]).next_u64().

    Seeds and counters are checked as _u64_array checks them.
    """
    return _splitmix_rows(seeds, _u64_array(counters, "counter") + np.uint64(1))


def _u64_array(values, what: str) -> np.ndarray:
    """values, one-dimensional 64-bit integers, as uint64; DomainError otherwise.

    An array needs an integer dtype (bool is not one) and, if signed, no
    negative entry. Any other sequence is checked entry by entry, since
    numpy would read [0.5] as 0 and [-1] as an OverflowError.
    """
    if not isinstance(values, np.ndarray):
        try:
            values = [_checked_u64(v, what) for v in values]
        except TypeError:  # not a sequence
            raise DomainError(f"{what}s must be one-dimensional") from None
    elif values.dtype.kind not in "iu":
        raise DomainError(f"{what}s must be integers, got dtype {values.dtype}")
    elif values.dtype.kind == "i" and (values < 0).any():
        raise DomainError(f"{what} must be a 64-bit value")
    values = np.asarray(values, dtype=np.uint64)
    if values.ndim != 1:
        raise DomainError(f"{what}s must be one-dimensional")
    return values


def _splitmix_rows(seeds, steps: np.ndarray) -> np.ndarray:
    """splitmix64(seeds[i] + steps[j] * GOLDEN) at [i, j], seeds checked; steps is scaled in place."""
    seeds = _u64_array(seeds, "seed")
    steps *= np.uint64(_GOLDEN)
    x = seeds[:, None] + steps[None, :]
    t = np.empty_like(x)
    np.right_shift(x, np.uint64(30), out=t)
    x ^= t
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=t)
    x ^= t
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def word_block(seed: int, counter: int, count: int) -> np.ndarray:
    """The `count` words WordSource(seed, counter) returns next, as uint64."""
    return words([checked_seed(seed)], counter, count)[0]


def derive_subseed(seed: int, index: int) -> int:
    """Derive the index-th child seed of a master seed.

    Children are the master's own SplitMix64 outputs, so distinct indices
    yield distinct, statistically independent streams.
    """
    index = _checked_u64(index, "index")
    return int(words([checked_seed(seed)], index, 1)[0, 0])


@dataclass(frozen=True)
class GaussCdtTable:
    """Scaled cumulative-distribution table driving the sampler.

    entries[0] thresholds the first draw (probability of drawing zero
    magnitude); entries[1:] threshold the second draw and form a
    non-increasing tail, one entry per inner-loop iteration. Every entry
    keeps bit 63 clear since draws are reduced to 63 bits before the
    subtraction trick.
    """

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.entries) < 2:
            raise TableFormatError("table needs at least two entries")
        for i, e in enumerate(self.entries):
            if not 0 <= e <= MASK63:
                raise TableFormatError(
                    f"entry {i} must be a 63-bit value, got {e}"
                )
        tail = self.entries[1:]
        for i in range(len(tail) - 1):
            if tail[i] < tail[i + 1]:
                raise TableFormatError(
                    f"tail entries must be non-increasing, "
                    f"entry {i + 1} < entry {i + 2}"
                )

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def inner_count(self) -> int:
        """Number of inner-loop iterations a single scan performs."""
        return len(self.entries) - 1


def parse_cdt_table(text: str) -> GaussCdtTable:
    """Parse a table from text: one decimal entry per line, '#' comments."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            entries.append(int(line))
        except ValueError:
            raise TableFormatError(
                f"line {lineno}: expected a decimal integer, got {line!r}"
            ) from None
    return GaussCdtTable(entries=tuple(entries))


def load_cdt_table(path) -> GaussCdtTable:
    """Load and validate a CDT table file."""
    return parse_cdt_table(read_text(path, TableFormatError))


@functools.lru_cache(maxsize=1)
def default_table() -> GaussCdtTable:
    """The bundled key-generation table (q = 12289, 27 entries)."""
    text = resources.files("cdtleak").joinpath("data/gauss_1024_12289.txt").read_text()
    return parse_cdt_table(text)


@dataclass(frozen=True)
class SamplerParams:
    """Ring dimension and modulus for one key-generation run.

    logn selects n = 2**logn; the sampler accumulates 2**(10 - logn)
    table scans per coefficient so the coefficient variance scales with
    1/n while the table itself stays fixed.
    """

    logn: int
    q: int = DEFAULT_Q

    def __post_init__(self) -> None:
        checked_index(self.logn, "logn")
        checked_index(self.q, "q")
        if not 1 <= self.logn <= 10:
            raise DomainError("logn must be in [1, 10]")
        if self.q <= 0:
            raise DomainError("q must be positive")

    @property
    def n(self) -> int:
        return 1 << self.logn

    @property
    def outer_count(self) -> int:
        return 1 << (10 - self.logn)


@dataclass(frozen=True)
class IterationLeakRecord:
    """Everything one outer iteration writes that an attacker can see.

    inner_masks[k-1] is the 64-bit mask computed at inner iteration k: all
    ones exactly when the scan latched at position k, else zero. At most
    one mask per record is all ones. neg_mask spreads the sign draw the
    same way.
    """

    inner_masks: tuple[int, ...]
    neg_mask: int


@dataclass(frozen=True)
class SecretCoefficient:
    """One signed coefficient plus the leak records that produced it."""

    value: int
    leaks: tuple[IterationLeakRecord, ...]


def sample_coefficient(table: GaussCdtTable, params: SamplerParams, source) -> SecretCoefficient:
    """Run the branchless table scan and capture its leak records.

    Per outer iteration: the first draw's top bit chooses the sign and its
    low 63 bits decide, against entries[0], whether the magnitude is
    forced to zero; the second draw is scanned against entries[1:], and a
    one-shot flag turns exactly one comparison flip into an all-ones mask
    that selects the magnitude. The conditional negation and the final
    accumulation both wrap at 32 bits, mirroring the reference arithmetic.
    """
    entries = table.entries
    val = 0
    records = []
    for _ in range(params.outer_count):
        r = source.next_u64() & MASK64
        neg = r >> 63
        r &= MASK63
        f = ((r - entries[0]) & MASK64) >> 63
        v = 0
        r = source.next_u64() & MASK63
        inner_masks = []
        for k in range(1, len(entries)):
            t = (((r - entries[k]) & MASK64) >> 63) ^ 1
            mask = (-(t & (f ^ 1))) & MASK64
            inner_masks.append(mask)
            v |= k & mask
            f |= t
        records.append(IterationLeakRecord(tuple(inner_masks), (-neg) & MASK64))
        val = (val + (v ^ ((-neg) & MASK32)) + neg) & MASK32
    value = val - (1 << 32) if val >> 31 else val
    return SecretCoefficient(value=value, leaks=tuple(records))


def fold(magnitudes: np.ndarray, neg_bits: np.ndarray) -> np.ndarray:
    """Signed coefficients (rows,) int32 from per-outer magnitudes and sign bits.

    Both inputs have shape (rows, outer). Each outer iteration adds its
    magnitude, negated where its sign bit is set; the scan accumulates in
    32 bits, and the int64 sum wraps the same way when cast down.
    """
    m = np.asarray(magnitudes, dtype=np.int64)
    return np.where(neg_bits, -m, m).sum(axis=1).astype(np.int32)


def scan_words(table: GaussCdtTable, draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch sample_coefficient over words drawn in advance.

    draws has shape (rows, outer, 2): the two words each outer iteration
    of one coefficient's scan consumes, in stream order. Returns the
    signed values (rows,) int32 and the mask bits (rows, outer,
    inner_count + 1) in the order of traceio.LabelSet.bits, true where a
    mask was all ones; sample_coefficient on the same words gives the
    same.

    Unless the first draw takes the zero branch, the one-shot flag fires
    at the first k with r >= entries[k]. The tail is non-increasing, so
    those k form a suffix, whose length a search of the reversed tail
    counts; an empty suffix means no slot fires and the magnitude is 0.
    """
    draws = np.asarray(draws, dtype=np.uint64)
    if draws.ndim != 3 or draws.shape[2] != 2:
        raise DomainError(f"draws must have shape (rows, outer, 2), got {draws.shape}")
    entries = np.array(table.entries, dtype=np.uint64)
    inner_count = table.inner_count
    low63 = np.uint64(MASK63)
    first, second = draws[..., 0], draws[..., 1]
    bits = np.zeros((*first.shape, inner_count + 1), dtype=bool)
    bits[..., inner_count] = first >> np.uint64(63)
    zero = (first & low63) < entries[0]
    suffix = np.searchsorted(entries[:0:-1], second & low63, side="right")
    slot = np.where(zero | (suffix == 0), 0, inner_count + 1 - suffix)
    fired = np.nonzero(slot)
    bits[(*fired, slot[fired] - 1)] = True
    return fold(slot, bits[..., inner_count]), bits


def sample_keys(
    seeds, params: SamplerParams, table: GaussCdtTable
) -> tuple[np.ndarray, np.ndarray]:
    """scan_words over the 2n coefficients (f, then g) of each key seed.

    Every coefficient consumes exactly 2 * outer_count words, so key i is
    one words() row; the result's rows run key by key.
    """
    per_coefficient = 2 * params.outer_count
    draws = words(seeds, 0, 2 * params.n * per_coefficient)
    return scan_words(table, draws.reshape(-1, params.outer_count, 2))
