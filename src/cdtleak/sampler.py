"""Constant-time CDT Gaussian sampler for lattice key generation.

This module reproduces, bit for bit, the branchless table-scan sampler
used to draw the small secret polynomials (f, g) during FALCON-style key
generation, and records the mask words the scan writes on every
iteration. Those masks are the whole point of the exercise: each one is
either all zeros or all ones, so a power trace of the store instruction
separates the two cases by 64 bits of Hamming weight. The rest of the
package simulates, profiles, and exploits exactly that.

All arithmetic is unsigned two's-complement, 64-bit unless noted, with
explicit wrap masks where Python integers would otherwise grow.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DomainError, TableFormatError
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
        if not 0 <= self.seed <= MASK64:
            raise DomainError("seed must be a 64-bit value")
        if not 0 <= self.counter <= MASK64:
            raise DomainError("counter must be a 64-bit value")

    def next_u64(self) -> int:
        self.counter = (self.counter + 1) & MASK64
        return splitmix64((self.seed + self.counter * _GOLDEN) & MASK64)


class SequenceWordSource:
    """Word source that replays a scripted list, then an optional fallback.

    Used to drive the sampler through chosen control-flow corners: the
    scripted words stand in for the first random draws, and any further
    draws come from `fallback` (or fail loudly if none was given).
    """

    def __init__(self, words, fallback: WordSource | None = None):
        self._words = [int(w) & MASK64 for w in words]
        self._pos = 0
        self._fallback = fallback

    def next_u64(self) -> int:
        if self._pos < len(self._words):
            w = self._words[self._pos]
            self._pos += 1
            return w
        if self._fallback is None:
            raise DomainError("scripted word source exhausted")
        return self._fallback.next_u64()


def words(seeds, start: int, count: int) -> np.ndarray:
    """Vectorized WordSource: `count` words per seed, shape (rows, count).

    Row i holds the words WordSource(seeds[i], start) returns next, that
    is splitmix64(seeds[i] + (start + c + 1) * GOLDEN) for c < count, all
    mod 2**64. Seeds must already be 64-bit values.
    """
    if count < 0:
        raise DomainError("count must be non-negative")
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.ndim != 1:
        raise DomainError("seeds must be one-dimensional")
    steps = np.arange(1, count + 1, dtype=np.uint64)
    steps += np.uint64(start & MASK64)
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
    return words([seed & MASK64], counter, count)[0]


def derive_subseed(seed: int, index: int) -> int:
    """Derive the index-th child seed of a master seed.

    Children are the master's own SplitMix64 outputs, so distinct indices
    yield distinct, statistically independent streams.
    """
    if index < 0:
        raise DomainError("index must be non-negative")
    return int(words([seed & MASK64], index, 1)[0, 0])


def msb_mask(x: int) -> int:
    """Spread bit 63 of x into a full 64-bit word: 0 or 2**64 - 1."""
    if not 0 <= x <= MASK64:
        raise DomainError("msb_mask expects a 64-bit value")
    return (-(x >> 63)) & MASK64


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


def sigma_fg(q: int, n: int) -> float:
    """Per-coefficient standard deviation of the secret polynomials.

    sigma = 1.17 * sqrt(q) / sqrt(2n), so that the expected norm of the
    concatenated pair (f, g) lands at 1.17 * sqrt(q).
    """
    if q <= 0 or n <= 0:
        raise DomainError("q and n must be positive")
    return 1.17 * (q ** 0.5) / ((2 * n) ** 0.5)


@dataclass(frozen=True)
class IterationLeakRecord:
    """Everything one outer iteration writes that an attacker can see.

    inner_masks[k-1] is the 64-bit mask computed at inner iteration k: all
    ones exactly when the scan latched at position k, else zero. At most
    one mask per record is all ones. neg_mask spreads the sign draw the
    same way. v_value is the magnitude the masks encode and signed_v the
    32-bit signed result after conditional negation.
    """

    inner_masks: tuple[int, ...]
    neg_mask: int
    v_value: int
    signed_v: int


@dataclass(frozen=True)
class SecretCoefficient:
    """One signed coefficient plus the leak records that produced it."""

    value: int
    leaks: tuple[IterationLeakRecord, ...]


class SecretPolynomial:
    """A polynomial of sampled coefficients, viewed over batch scan rows.

    values (n,), inner_bits (n, outer, inner_count) and neg_bits
    (n, outer) are rows of scan_words' output. The SecretCoefficient
    records with their leaks are built only when .coefficients is read.
    """

    def __init__(self, values: np.ndarray, inner_bits: np.ndarray, neg_bits: np.ndarray):
        self._values = values
        self.inner_bits = inner_bits
        self.neg_bits = neg_bits

    @functools.cached_property
    def coefficients(self) -> tuple[SecretCoefficient, ...]:
        coeffs = []
        for value, inner, neg in zip(
            self._values.tolist(), self.inner_bits.tolist(), self.neg_bits.tolist()
        ):
            records = []
            for fired, sign in zip(inner, neg):
                v = fired.index(True) + 1 if True in fired else 0
                records.append(
                    IterationLeakRecord(
                        inner_masks=tuple(MASK64 if b else 0 for b in fired),
                        neg_mask=MASK64 if sign else 0,
                        v_value=v,
                        signed_v=-v if sign else v,
                    )
                )
            coeffs.append(SecretCoefficient(value=value, leaks=tuple(records)))
        return tuple(coeffs)

    def values(self) -> list[int]:
        return self._values.tolist()

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SecretPolynomial):
            return NotImplemented
        return (
            np.array_equal(self._values, other._values)
            and np.array_equal(self.inner_bits, other.inner_bits)
            and np.array_equal(self.neg_bits, other.neg_bits)
        )


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
        neg_mask = (-neg) & MASK64
        signed32 = ((v ^ ((-neg) & MASK32)) + neg) & MASK32
        signed_v = signed32 - (1 << 32) if signed32 >> 31 else signed32
        records.append(
            IterationLeakRecord(
                inner_masks=tuple(inner_masks),
                neg_mask=neg_mask,
                v_value=v,
                signed_v=signed_v,
            )
        )
        val = (val + signed32) & MASK32
    value = val - (1 << 32) if val >> 31 else val
    return SecretCoefficient(value=value, leaks=tuple(records))


def scan_words(
    table: GaussCdtTable, draws: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batch sample_coefficient over words drawn in advance.

    draws has shape (rows, outer, 2): the two words each outer iteration
    of one coefficient's scan consumes, in stream order. Returns the
    signed values (rows,) int32, inner_bits (rows, outer, inner_count),
    true where the inner mask was all ones, and neg_bits (rows, outer),
    the sign draws; sample_coefficient on the same words gives the same.

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
    neg_bits = (first >> np.uint64(63)).astype(bool)
    zero = (first & low63) < entries[0]
    suffix = np.searchsorted(entries[:0:-1], second & low63, side="right")
    slot = np.where(zero | (suffix == 0), 0, inner_count + 1 - suffix)
    inner_bits = slot[..., None] == np.arange(1, inner_count + 1)
    # The scan accumulates in 32 bits; the int64 sum wraps the same way
    # when cast down.
    values = np.where(neg_bits, -slot, slot).sum(axis=1).astype(np.int32)
    return values, inner_bits, neg_bits


def sample_keys(
    seeds, params: SamplerParams, table: GaussCdtTable
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """scan_words over the 2n coefficients (f, then g) of each key seed.

    Every coefficient consumes exactly 2 * outer_count words, so key i is
    one words() row; the result's rows run key by key.
    """
    per_coefficient = 2 * params.outer_count
    draws = words(seeds, 0, 2 * params.n * per_coefficient)
    return scan_words(table, draws.reshape(-1, params.outer_count, 2))


def key_pairs(
    values: np.ndarray, inner_bits: np.ndarray, neg_bits: np.ndarray, n: int
) -> list[tuple[SecretPolynomial, SecretPolynomial]]:
    """Split sample_keys rows into (f, g) polynomial views, key by key."""
    polys = [
        SecretPolynomial(values[a : a + n], inner_bits[a : a + n], neg_bits[a : a + n])
        for a in range(0, len(values), n)
    ]
    return list(zip(polys[::2], polys[1::2]))


def generate_polynomials(
    seed: int, params: SamplerParams, table: GaussCdtTable | None = None
) -> tuple[SecretPolynomial, SecretPolynomial]:
    """Sample the key pair (f, g): 2n coefficients off one seeded stream."""
    if table is None:
        table = default_table()
    batch = sample_keys([seed & MASK64], params, table)
    return key_pairs(*batch, params.n)[0]
