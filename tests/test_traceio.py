"""Trace and label container tests: round trips and strict rejection."""

import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak.errors import DomainError, LayoutMismatch, TraceFormatError
from cdtleak.traceio import (
    LABEL_MAGIC,
    TRACE_MAGIC,
    LabelSet,
    TraceSet,
    check_finite,
    read_label_set,
    read_trace_set,
    write_label_set,
    write_trace_set,
)

NON_FINITE = "^trace payload contains NaN or infinity$"
TRUNCATED = "too short for|extends past end of file|payload needs|bytes early"


def _write_read(tmp_path, trace_set, name="t.trc"):
    path = tmp_path / name
    write_trace_set(trace_set, path)
    return path, read_trace_set(path)


def _small_set():
    samples = np.arange(12, dtype=np.float32).reshape(3, 4)
    return TraceSet(samples=samples, metadata={"kind": "test", "seed": "1"})


class TestTraceRoundTrip:
    def test_basic(self, tmp_path):
        original = _small_set()
        _, loaded = _write_read(tmp_path, original)
        assert np.array_equal(loaded.samples, original.samples)
        assert loaded.samples.dtype == np.float32
        assert loaded.metadata == original.metadata

    def test_empty_set(self, tmp_path):
        original = TraceSet(samples=np.zeros((0, 7), dtype=np.float32))
        _, loaded = _write_read(tmp_path, original)
        assert loaded.n_traces == 0
        assert loaded.n_samples == 7
        assert loaded.metadata == {}

    def test_payload_size_arithmetic(self, tmp_path):
        original = TraceSet(samples=np.zeros((1024, 64), dtype=np.float32))
        path, _ = _write_read(tmp_path, original)
        size = path.stat().st_size
        assert size == len(TRACE_MAGIC) + 16 + 1024 * 64 * 4

    def test_float64_input_is_narrowed(self, tmp_path):
        original = TraceSet(samples=np.array([[0.1, 0.2]], dtype=np.float64))
        _, loaded = _write_read(tmp_path, original)
        assert loaded.samples.dtype == np.float32
        assert np.array_equal(loaded.samples, original.samples.astype(np.float32))

    def test_metadata_sorted_deterministic(self, tmp_path):
        a = TraceSet(np.ones((1, 1), np.float32), {"b": "2", "a": "1"})
        b = TraceSet(np.ones((1, 1), np.float32), {"a": "1", "b": "2"})
        pa = tmp_path / "a.trc"
        pb = tmp_path / "b.trc"
        write_trace_set(a, pa)
        write_trace_set(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_unicode_metadata_values(self, tmp_path):
        original = TraceSet(np.ones((1, 1), np.float32), {"note": "temp 23.5°C"})
        _, loaded = _write_read(tmp_path, original)
        assert loaded.metadata["note"] == "temp 23.5°C"

    def test_no_temp_files_left_behind(self, tmp_path):
        _write_read(tmp_path, _small_set())
        leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        m=st.integers(min_value=1, max_value=80),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_matrices(self, tmp_path_factory, n, m, seed):
        rng = np.random.default_rng(seed)
        samples = rng.normal(scale=1e3, size=(n, m)).astype(np.float32)
        tmp = tmp_path_factory.mktemp("rt")
        original = TraceSet(samples=samples, metadata={"seed": str(seed)})
        _, loaded = _write_read(tmp, original)
        assert np.array_equal(loaded.samples, samples)

    def test_large_dimensions(self, tmp_path):
        rng = np.random.default_rng(3)
        samples = rng.normal(size=(256, 4096)).astype(np.float32)
        _, loaded = _write_read(tmp_path, TraceSet(samples=samples))
        assert np.array_equal(loaded.samples, samples)


class TestTraceWriteValidation:
    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(LayoutMismatch, match=r"^samples must be 2-D, got shape \(5,\)$"):
            write_trace_set(TraceSet(np.zeros(5, np.float32)), tmp_path / "x")

    def test_rejects_nan(self, tmp_path):
        bad = np.array([[1.0, np.nan]], dtype=np.float32)
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            write_trace_set(TraceSet(bad), tmp_path / "x")

    def test_rejects_infinity(self, tmp_path):
        bad = np.array([[np.inf, 2.0]], dtype=np.float32)
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            write_trace_set(TraceSet(bad), tmp_path / "x")

    @pytest.mark.parametrize("at", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_check_finite_at_either_end_of_a_block(self, at, value):
        # One sample past 2**18, the block the check used to cut its payload into.
        samples = np.zeros((1 << 18) + 1, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            check_finite(samples)
            check_finite(samples[:0])
            samples[at] = value
            with pytest.raises(TraceFormatError, match=NON_FINITE):
                check_finite(samples)
            with pytest.raises(TraceFormatError, match=NON_FINITE):
                check_finite(samples.reshape(1, -1))

    def test_rejects_bad_metadata_key(self, tmp_path):
        s = np.ones((1, 1), np.float32)
        with pytest.raises(DomainError):
            write_trace_set(TraceSet(s, {"a=b": "1"}), tmp_path / "x")
        with pytest.raises(DomainError):
            write_trace_set(TraceSet(s, {"": "1"}), tmp_path / "x")
        with pytest.raises(DomainError):
            write_trace_set(TraceSet(s, {"k": "a\nb"}), tmp_path / "x")
        with pytest.raises(DomainError, match="^keys and values must be strings$"):
            write_trace_set(TraceSet(s, {1: "a", "b": "c"}), tmp_path / "x")

    def test_failed_write_leaves_no_file(self, tmp_path):
        bad = np.array([[np.nan]], dtype=np.float32)
        target = tmp_path / "out.trc"
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            write_trace_set(TraceSet(bad), target)
        assert not target.exists()


class TestTraceReadRejection:
    def test_every_single_byte_magic_corruption(self, tmp_path):
        path, _ = _write_read(tmp_path, _small_set())
        blob = bytearray(path.read_bytes())
        bad_path = tmp_path / "bad.trc"
        for pos in range(len(TRACE_MAGIC)):
            original_byte = blob[pos]
            for value in range(256):
                if value == original_byte:
                    continue
                blob[pos] = value
                bad_path.write_bytes(blob)
                with pytest.raises(TraceFormatError, match="^expected b'SSNTRACE'$"):
                    read_trace_set(bad_path)
            blob[pos] = original_byte

    def test_every_truncation_point(self, tmp_path):
        path, _ = _write_read(tmp_path, _small_set())
        blob = path.read_bytes()
        bad_path = tmp_path / "bad.trc"
        for cut in range(len(blob)):
            bad_path.write_bytes(blob[:cut])
            with pytest.raises(TraceFormatError, match=TRUNCATED):
                read_trace_set(bad_path)

    def test_unsupported_version(self, tmp_path):
        path, _ = _write_read(tmp_path, _small_set())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(TRACE_MAGIC), 2)
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="^version 2 not supported$"):
            read_trace_set(path)

    def test_nan_payload(self, tmp_path):
        path, _ = _write_read(tmp_path, _small_set())
        blob = bytearray(path.read_bytes())
        struct.pack_into("<f", blob, len(blob) - 4, float("nan"))
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            read_trace_set(path)

    def test_trailing_bytes(self, tmp_path):
        path, _ = _write_read(tmp_path, _small_set())
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(TraceFormatError):
            read_trace_set(path)

    def test_metadata_without_equals(self, tmp_path):
        meta = b"plainline\n"
        header = TRACE_MAGIC + struct.pack("<IIII", 1, 0, 0, len(meta))
        path = tmp_path / "bad.trc"
        path.write_bytes(header + meta)
        with pytest.raises(TraceFormatError):
            read_trace_set(path)

    @pytest.mark.parametrize(
        "meta, message",
        [
            (b"kind=a\nseed=1\nkind=b\n", "metadata: line 3: duplicate key 'kind'"),
            (b"kind=a\n=oops\n", "metadata: line 2: empty key"),
        ],
        ids=["repeated", "empty"],
    )
    def test_metadata_key_repeated_or_empty(self, tmp_path, meta, message):
        header = TRACE_MAGIC + struct.pack("<IIII", 1, 0, 0, len(meta))
        path = tmp_path / "bad.trc"
        path.write_bytes(header + meta)
        with pytest.raises(TraceFormatError, match=f"^{message}$"):
            read_trace_set(path)

    def test_metadata_invalid_utf8(self, tmp_path):
        meta = b"\xff\xfe\n"
        header = TRACE_MAGIC + struct.pack("<IIII", 1, 0, 0, len(meta))
        path = tmp_path / "bad.trc"
        path.write_bytes(header + meta)
        with pytest.raises(TraceFormatError):
            read_trace_set(path)

    def test_label_file_rejected_as_traces(self, tmp_path):
        labels = _label_set(2, 2, 3)
        path = tmp_path / "l.lbl"
        write_label_set(labels, path)
        with pytest.raises(TraceFormatError, match="^expected b'SSNTRACE'$"):
            read_trace_set(path)


def _label_set(n, outer, inner, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(-30, 30, size=n).astype(np.int32)
    inner_bits = rng.random((n, outer, inner)) < 0.1
    neg_bits = rng.random((n, outer)) < 0.5
    return LabelSet(values, np.concatenate([inner_bits, neg_bits[:, :, None]], axis=2))


class TestLabelRoundTrip:
    def test_basic(self, tmp_path):
        original = _label_set(17, 2, 26, seed=5)
        path = tmp_path / "l.lbl"
        write_label_set(original, path)
        loaded = read_label_set(path)
        assert np.array_equal(loaded.values, original.values)
        assert np.array_equal(loaded.inner_bits, original.inner_bits)
        assert np.array_equal(loaded.neg_bits, original.neg_bits)
        assert loaded.outer_count == 2
        assert loaded.inner_count == 26

    def test_empty(self, tmp_path):
        original = _label_set(0, 2, 26)
        path = tmp_path / "l.lbl"
        write_label_set(original, path)
        loaded = read_label_set(path)
        assert loaded.n_records == 0
        assert loaded.inner_bits.shape == (0, 2, 26)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=20),
        outer=st.integers(min_value=1, max_value=6),
        inner=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_random_shapes(self, tmp_path_factory, n, outer, inner, seed):
        original = _label_set(n, outer, inner, seed=seed)
        tmp = tmp_path_factory.mktemp("lbl")
        path = tmp / "l.lbl"
        write_label_set(original, path)
        loaded = read_label_set(path)
        assert np.array_equal(loaded.values, original.values)
        assert np.array_equal(loaded.inner_bits, original.inner_bits)
        assert np.array_equal(loaded.neg_bits, original.neg_bits)

    def test_write_is_deterministic(self, tmp_path):
        original = _label_set(9, 3, 7, seed=2)
        pa, pb = tmp_path / "a", tmp_path / "b"
        write_label_set(original, pa)
        write_label_set(original, pb)
        assert pa.read_bytes() == pb.read_bytes()


class TestLabelRejection:
    def test_shape_disagreement(self, tmp_path):
        labels = _label_set(4, 2, 5)
        with pytest.raises(LayoutMismatch, match="^label arrays disagree on record count$"):
            write_label_set(LabelSet(labels.values[:3], labels.bits), tmp_path / "x")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_label_set(_label_set(2, 1, 3), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="^expected b'SSNLABEL'$"):
            read_label_set(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_label_set(_label_set(2, 1, 3), path)
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(LABEL_MAGIC), 9)
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError, match="^version 9 not supported$"):
            read_label_set(path)

    def test_zero_counts_rejected(self, tmp_path):
        path = tmp_path / "l.lbl"
        path.write_bytes(LABEL_MAGIC + struct.pack("<IIII", 1, 0, 0, 5))
        with pytest.raises(TraceFormatError):
            read_label_set(path)

    @pytest.mark.parametrize("n", [0, 1])
    def test_oversized_record_counts_rejected(self, tmp_path, n):
        path = tmp_path / "l.lbl"
        path.write_bytes(LABEL_MAGIC + struct.pack("<IIII", 1, n, 0xFFFFFFFF, 0xFFFFFFFF))
        with pytest.raises(TraceFormatError, match="too large"):
            read_label_set(path)

    def test_truncated_records(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_label_set(_label_set(3, 2, 5), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-1])
        with pytest.raises(TraceFormatError, match=TRUNCATED):
            read_label_set(path)

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_label_set(_label_set(3, 2, 5), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(TraceFormatError):
            read_label_set(path)

    def test_out_of_order_indices(self, tmp_path):
        path = tmp_path / "l.lbl"
        write_label_set(_label_set(3, 2, 5), path)
        blob = bytearray(path.read_bytes())
        # Swap the idx fields of records 0 and 1.
        rec_size = 4 + 4 + ((2 * 6 + 7) // 8)
        base = len(LABEL_MAGIC) + 16
        idx0 = blob[base : base + 4]
        blob[base : base + 4] = blob[base + rec_size : base + rec_size + 4]
        blob[base + rec_size : base + rec_size + 4] = idx0
        path.write_bytes(blob)
        with pytest.raises(TraceFormatError):
            read_label_set(path)

    def test_trace_file_rejected_as_labels(self, tmp_path):
        path = tmp_path / "t.trc"
        write_trace_set(_small_set(), path)
        with pytest.raises(TraceFormatError, match="^expected b'SSNLABEL'$"):
            read_label_set(path)


class TestTraceReadMemory:
    def test_huge_header_on_short_file(self, tmp_path):
        # The payload size is checked against the file before anything
        # is allocated, so an absurd header cannot ask for ~64 EiB.
        path = tmp_path / "huge.trc"
        header = TRACE_MAGIC + struct.pack("<IIII", 1, 0xFFFFFFFF, 0xFFFFFFFF, 0)
        path.write_bytes(header + bytes(64 - len(header)))
        with pytest.raises(TraceFormatError, match=TRUNCATED):
            read_trace_set(path)

    def test_payload_is_held_once(self, tmp_path):
        samples = np.ones((1024, 1024), dtype=np.float32)
        path = tmp_path / "big.trc"
        write_trace_set(TraceSet(samples=samples, metadata={"kind": "test"}), path)
        tracemalloc.start()
        try:
            loaded = read_trace_set(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.samples, samples)
        assert peak < 1.25 * samples.nbytes
