"""Scripted word streams: test drivers that steer the scalar sampler.

SequenceWordSource replays chosen words so that sample_coefficient runs
through chosen control-flow corners, and plant_control_words crafts the
two words of one outer iteration for a chosen sign and latch slot; it is
the per-trace oracle of leakage._plant_first_iteration, which plants
every profiling trace at once. Neither is part of the package: no
command runs them.
"""

from cdtleak.errors import DomainError
from cdtleak.sampler import MASK63, MASK64, GaussCdtTable, WordSource


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
