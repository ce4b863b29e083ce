"""Sampler unit tests: oracle equivalence, table handling, word source."""

import numpy as np
import pytest

from cdtleak.errors import DomainError, TableFormatError
from cdtleak.sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    WordSource,
    default_table,
    derive_subseed,
    fold,
    load_cdt_table,
    parse_cdt_table,
    sample_coefficient,
    sample_keys,
    splitmix64,
    word_block,
    words,
    words_at,
)

from naive_sampler import branchy_model, interpret_listing, scaled_word_grid
from scripted import SequenceWordSource

# FALCON-512's per-coefficient deviation of f and g, 1.17 * sqrt(12289) /
# sqrt(1024), evaluated with a 60-digit calculator and rounded to double
# precision.
SIGMA_FG_512 = 4.053163803303075


def _magnitude(rec):
    """The magnitude a leak record's masks encode: the OR of the fired slots."""
    v = 0
    for k, m in enumerate(rec.inner_masks, start=1):
        v |= k & m
    return v


def _run_both(words, table, params):
    coeff = sample_coefficient(table, params, SequenceWordSource(words))
    value, iterations = interpret_listing(words, table.entries, params.outer_count)
    return coeff, value, iterations


def _assert_equivalent(words, table, params):
    coeff, value, iterations = _run_both(words, table, params)
    assert coeff.value == value
    assert coeff.value == branchy_model(words, table.entries, params.outer_count)
    assert len(coeff.leaks) == len(iterations)
    for rec, ref in zip(coeff.leaks, iterations):
        assert [m != 0 for m in rec.inner_masks] == ref.fired
        assert (rec.neg_mask != 0) == bool(ref.neg)
        assert _magnitude(rec) == ref.v_before_sign
    # The attack's fold of each iteration's magnitude and sign bit gives
    # the interpreter's signed iteration value.
    magnitudes = [[_magnitude(rec)] for rec in coeff.leaks]
    signs = [[rec.neg_mask != 0] for rec in coeff.leaks]
    assert fold(magnitudes, signs).tolist() == [ref.v_signed for ref in iterations]


class TestOracleEquivalence:
    def test_random_streams_default_table(self):
        """10^4 random word streams against the naive interpreter."""
        table = default_table()
        params = SamplerParams(logn=9)
        rng = np.random.default_rng(0x5EED)
        draws = rng.integers(0, 1 << 64, size=(10000, 2 * params.outer_count), dtype=np.uint64)
        for row in draws:
            _assert_equivalent([int(w) for w in row], table, params)

    def test_random_streams_all_ring_dimensions(self):
        table = default_table()
        rng = np.random.default_rng(1234)
        for logn in range(1, 11):
            params = SamplerParams(logn=logn)
            for _ in range(40):
                words = [
                    int(w)
                    for w in rng.integers(0, 1 << 64, size=2 * params.outer_count, dtype=np.uint64)
                ]
                _assert_equivalent(words, table, params)

    def test_exhaustive_grid_two_entry_table(self):
        """Every pair of coarse 8-bit-scaled draws, 2-entry table."""
        table = GaussCdtTable(entries=(150 << 55, (77 << 55) + 12345))
        params = SamplerParams(logn=10)
        grid = scaled_word_grid()
        for w1 in grid:
            for w2 in grid:
                _assert_equivalent([w1, w2], table, params)

    def test_table_entry_boundary_words(self):
        """Draws exactly at, just below, and just above each threshold."""
        table = GaussCdtTable(entries=(3 << 61, 1 << 61))
        params = SamplerParams(logn=10)
        lows = []
        for e in table.entries:
            lows += [e - 1, e, e + 1]
        lows += [0, 1, MASK63 - 1, MASK63]
        for sign in (0, 1 << 63):
            for low1 in lows:
                for low2 in lows:
                    _assert_equivalent([sign | low1, low2], table, params)


class TestSampleCoefficient:
    def test_zero_forcing_stream(self):
        # Both draws zero: first draw is below entries[0], so the latch
        # never fires and the iteration contributes nothing.
        table = default_table()
        params = SamplerParams(logn=10)
        coeff = sample_coefficient(table, params, SequenceWordSource([0, 0]))
        rec = coeff.leaks[0]
        assert coeff.value == 0
        assert _magnitude(rec) == 0
        assert rec.neg_mask == 0
        assert all(m == 0 for m in rec.inner_masks)

    def test_forced_latch_at_slot_five(self):
        # First draw clears the zero branch, second lands in
        # [entries[5], entries[4]), so the scan must latch at k=5.
        table = default_table()
        params = SamplerParams(logn=10)
        words = [table.entries[0], table.entries[5]]
        coeff = sample_coefficient(table, params, SequenceWordSource(words))
        assert coeff.value == 5
        masks = coeff.leaks[0].inner_masks
        assert masks[4] == MASK64
        assert sum(m != 0 for m in masks) == 1

    def test_sign_bit_negates(self):
        table = default_table()
        params = SamplerParams(logn=10)
        words = [(1 << 63) | table.entries[0], table.entries[3]]
        coeff = sample_coefficient(table, params, SequenceWordSource(words))
        assert coeff.value == -3
        assert coeff.leaks[0].neg_mask == MASK64
        assert _magnitude(coeff.leaks[0]) == 3

    def test_leak_record_invariants_bulk(self):
        """Mask domain, latch, and reconstruction over random seeds."""
        table = default_table()
        params = SamplerParams(logn=9)
        for i in range(20000):
            source = WordSource(seed=derive_subseed(0xABCDEF, i))
            coeff = sample_coefficient(table, params, source)
            total = 0
            for rec in coeff.leaks:
                assert all(m in (0, MASK64) for m in rec.inner_masks)
                assert rec.neg_mask in (0, MASK64)
                assert sum(m != 0 for m in rec.inner_masks) <= 1
                v = _magnitude(rec)
                assert 0 <= v <= table.inner_count
                total += -v if rec.neg_mask else v
            assert coeff.value == total
            assert abs(coeff.value) <= params.outer_count * table.inner_count

    def test_monte_carlo_sigma_logn9(self):
        """Empirical deviation within 15% of the analytic target."""
        table = default_table()
        params = SamplerParams(logn=9)
        source = WordSource(seed=20240817)
        values = [
            sample_coefficient(table, params, source).value for _ in range(100000)
        ]
        arr = np.array(values, dtype=np.float64)
        assert abs(arr.mean()) < 0.2
        target = SIGMA_FG_512
        assert abs(arr.std() - target) / target < 0.15


class TestGeneratePolynomials:
    """sample_keys: the f and g rows of one key per seed."""

    def test_counts_logn9(self):
        values, bits = sample_keys([7], SamplerParams(logn=9), default_table())
        inner, neg = bits[..., :-1], bits[..., -1]
        assert values.shape == (1024,)
        assert inner.shape == (1024, 2, 26)
        assert neg.shape == (1024, 2)

    def test_determinism(self):
        params, table = SamplerParams(logn=8), default_table()
        a = sample_keys([99], params, table)
        b = sample_keys([99], params, table)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_distinct_seeds_differ(self):
        params, table = SamplerParams(logn=9), default_table()
        f1 = sample_keys([1], params, table)[0][:512]
        f2 = sample_keys([2], params, table)[0][:512]
        assert f1.tolist() != f2.tolist()


class TestWordSource:
    def test_deterministic(self):
        a = WordSource(seed=42)
        b = WordSource(seed=42)
        assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]

    def test_distinct_seeds_diverge_immediately(self):
        a = WordSource(seed=42)
        b = WordSource(seed=43)
        wa = [a.next_u64() for _ in range(4)]
        wb = [b.next_u64() for _ in range(4)]
        assert all(x != y for x, y in zip(wa, wb))

    def test_bit_frequencies_over_a_million_words(self):
        words = word_block(0xFEEDFACE, 0, 1_000_000)
        bits = np.unpackbits(words.view(np.uint8)).reshape(-1, 64)
        freq = bits.mean(axis=0)
        assert freq.min() > 0.49 and freq.max() < 0.51

    def test_word_block_matches_scalar_source(self):
        src = WordSource(seed=77, counter=5)
        scalar = [src.next_u64() for _ in range(100)]
        block = word_block(77, 5, 100)
        assert scalar == [int(w) for w in block]

    def test_counter_advances_by_one(self):
        src = WordSource(seed=5, counter=10)
        src.next_u64()
        assert src.counter == 11

    def test_seed_range_validated(self):
        with pytest.raises(DomainError):
            WordSource(seed=-1)
        with pytest.raises(DomainError):
            WordSource(seed=1 << 64)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_block_and_subseed_reject_seeds_outside_64_bits(self, seed):
        # Masking would alias -1 to 2**64 - 1 and 2**64 to 0.
        with pytest.raises(DomainError, match="seed must be a 64-bit value"):
            word_block(seed, 0, 2)
        with pytest.raises(DomainError, match="seed must be a 64-bit value"):
            derive_subseed(seed, 0)

    def test_non_integers_refused_not_truncated(self):
        # A non-integer is neither rounded toward zero nor left to raise a bare TypeError.
        calls = {
            "seed": [lambda: word_block(7.9, 0, 1), lambda: derive_subseed(7.9, 0),
                     lambda: WordSource(seed=7.9)],
            "start": [lambda: words([7], 0.9, 1)],
            "count": [lambda: words([7], 0, 1.5), lambda: word_block(7, 0, 2.0)],
            "counter": [lambda: WordSource(seed=7, counter=1.5), lambda: words_at([7], [1.5])],
            "counters": [lambda: words_at([7], np.array([1.0])),
                         lambda: words_at([7], np.array([True]))],
            "index": [lambda: derive_subseed(7, 0.5), lambda: derive_subseed(7, "1")],
        }
        for what, refused in calls.items():
            for call in refused:
                with pytest.raises(DomainError, match=f"^{what} must be (an )?integer"):
                    call()
        with pytest.raises(DomainError, match="^count must be non-negative$"):
            words([1], 0, -1)

    def test_word_rows_refuse_seeds_that_are_not_64_bit_integers(self):
        # Not truncated (7.9 as 7), not read as an integer (True as 1), and
        # neither wrapped nor left to numpy's OverflowError (-1, 2**64).
        refused = {
            "seeds must be integers, got dtype": [np.array([7.9]), np.array([True])],
            "seed must be an integer": [[7.9], [True], (5, 2.0)],
            "seed must be a 64-bit value": [[-1], [2**64], np.array([-1]),
                                            np.array([3, -2], dtype=np.int8)],
            "seeds must be one-dimensional": [7, np.array([[7]])],
        }
        for message, cases in refused.items():
            for seeds in cases:
                with pytest.raises(DomainError, match=f"^{message}"):
                    words(seeds, 0, 1)
                with pytest.raises(DomainError, match=f"^{message}"):
                    words_at(seeds, [0])
        with pytest.raises(DomainError, match="^counter must be a 64-bit value"):
            words_at([7], np.array([-1]))
        with pytest.raises(DomainError, match="^seed must be an integer"):
            WordSource(seed=True)
        # Integer arrays of any width and 64-bit sequences are taken.
        want = words([0, 7, MASK64], 0, 2)
        assert np.array_equal(words(np.array([0, 7, MASK64], dtype=np.uint64), 0, 2), want)
        assert np.array_equal(words(np.array([0, 7], dtype=np.int8), 0, 2), want[:2])
        assert np.array_equal(words_at((0, 7, MASK64), [0, 1]), want)

    def test_numpy_integers_taken(self):
        assert np.array_equal(word_block(np.uint64(7), np.int64(3), np.int32(4)),
                              word_block(7, 3, 4))
        assert derive_subseed(np.uint64(7), np.uint8(1)) == derive_subseed(7, 1)
        source = WordSource(seed=np.uint64(7), counter=np.int64(3))
        assert (type(source.seed), type(source.counter)) == (int, int)
        assert source.next_u64() == WordSource(seed=7, counter=3).next_u64()
        assert np.array_equal(words_at([7], np.array([3, 5], dtype=np.uint8)),
                              words_at([7], [3, 5]))

    def test_sequence_source_exhaustion(self):
        src = SequenceWordSource([1, 2])
        assert src.next_u64() == 1
        assert src.next_u64() == 2
        with pytest.raises(DomainError):
            src.next_u64()

    def test_sequence_source_fallback(self):
        fallback = WordSource(seed=9)
        expected = WordSource(seed=9).next_u64()
        src = SequenceWordSource([5], fallback=fallback)
        assert src.next_u64() == 5
        assert src.next_u64() == expected

    def test_splitmix_known_vector(self):
        # First outputs of the SplitMix64 reference stream for seed 0,
        # as published with the original algorithm.
        s = WordSource(seed=0)
        assert s.next_u64() == 0xE220A8397B1DCDAF
        assert s.next_u64() == 0x6E789E6AA1B965F4
        assert s.next_u64() == 0x06C45D188009454F

    def test_derive_subseed_is_stream_output(self):
        assert derive_subseed(0, 0) == 0xE220A8397B1DCDAF
        assert derive_subseed(0, 2) == 0x06C45D188009454F
        with pytest.raises(DomainError):
            derive_subseed(0, -1)

    def test_splitmix_is_bijective_on_samples(self):
        words = [splitmix64(x) for x in range(4096)]
        assert len(set(words)) == 4096


class TestTable:
    def test_default_table_shape(self):
        table = default_table()
        assert len(table) == 27
        assert table.inner_count == 26
        assert all(0 <= e <= MASK63 for e in table.entries)
        tail = table.entries[1:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))

    def test_default_table_head_values(self):
        # The first entry thresholds the zero branch and is smaller
        # than the head of the tail scan.
        table = default_table()
        assert table.entries[0] == 1283868770400643928
        assert table.entries[1] == 6416574995475331444
        assert table.entries[-1] == 0

    def test_parse_comments_and_blanks(self):
        table = parse_cdt_table("# c\n10\n\n 5 # inline\n3\n")
        assert table.entries == (10, 5, 3)

    def test_parse_garbage_line(self):
        with pytest.raises(TableFormatError):
            parse_cdt_table("10\nbanana\n")

    def test_too_short(self):
        with pytest.raises(TableFormatError):
            GaussCdtTable(entries=(5,))

    def test_tail_must_be_non_increasing(self):
        with pytest.raises(TableFormatError):
            GaussCdtTable(entries=(1, 2, 3))
        # entries[0] is a separate threshold and may sit below the tail.
        GaussCdtTable(entries=(1, 3, 2))

    def test_top_bit_must_be_clear(self):
        with pytest.raises(TableFormatError):
            GaussCdtTable(entries=(1 << 63, 5))

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_cdt_table(tmp_path / "nope.txt")

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("7\n6\n5\n")
        assert load_cdt_table(path).entries == (7, 6, 5)


class TestParams:
    def test_outer_count(self):
        assert SamplerParams(logn=9).outer_count == 2
        assert SamplerParams(logn=10).outer_count == 1
        assert SamplerParams(logn=1).outer_count == 512

    def test_n(self):
        assert SamplerParams(logn=9).n == 512
        assert SamplerParams(logn=10).n == 1024

    def test_validation(self):
        with pytest.raises(DomainError):
            SamplerParams(logn=0)
        with pytest.raises(DomainError):
            SamplerParams(logn=11)
        with pytest.raises(DomainError):
            SamplerParams(logn=9, q=0)

    def test_non_integer_fields_refused(self):
        # Refused here, so that .n never meets a float exponent.
        with pytest.raises(DomainError, match=r"^logn must be an integer, got 9\.5$"):
            SamplerParams(logn=9.5)
        with pytest.raises(DomainError, match="^q must be an integer"):
            SamplerParams(logn=9, q=12289.0)
        assert SamplerParams(logn=np.int64(9)).n == 512
