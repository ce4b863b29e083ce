"""Binary containers for simulated power traces and their ground truth.

Trace files: magic "SSNTRACE", little-endian u32 version (1), u32 trace
count, u32 samples per trace, u32 metadata byte length, the metadata as
UTF-8 key=value lines, then the sample matrix as raw float32, row major.

Label files: magic "SSNLABEL", u32 version (1), u32 record count, u32
outer iteration count, u32 inner iteration count, then one fixed-width
record per trace: u32 record index, i32 signed coefficient value, and an
LSB-first packed bitfield of outer_count * (inner_count + 1) mask bits
(inner positions 1..inner_count, then the sign bit, per outer iteration).

Both are written and read a block of rows at a time. Writes go through
temp files in the target directory that are renamed into place only once
every file of a write is complete, and are byte-deterministic for
identical input; metadata keys are sorted on write. Readers are strict:
anything structurally off raises instead of guessing.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    DimensionError,
    DomainError,
    NonFiniteSample,
    TraceFormatError,
    TruncatedFile,
    UnsupportedVersion,
)

TRACE_MAGIC = b"SSNTRACE"
LABEL_MAGIC = b"SSNLABEL"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<IIII")
_LABEL_HEADER = struct.Struct("<IIII")
_U32_MAX = 0xFFFFFFFF
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)

# Samples per block of the finiteness check of reads and writes, so that
# its boolean temporary stays small next to the payload it checks.
_CHECK_SAMPLES = 1 << 18


@dataclass
class TraceSet:
    """A batch of equal-length traces plus free-form metadata strings."""

    samples: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    @property
    def n_traces(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[1])

    def blocks(self, rows: int):
        """Yield the samples in views of up to `rows` rows, in order."""
        for lo in range(0, self.n_traces, rows):
            yield self.samples[lo : lo + rows]


def _check_metadata(metadata: dict[str, str]) -> None:
    for k, v in metadata.items():
        if not isinstance(k, str) or not isinstance(v, str):
            raise DomainError("metadata keys and values must be strings")
        if not k or "=" in k or "\n" in k:
            raise DomainError(f"bad metadata key {k!r}")
        if "\n" in v:
            raise DomainError(f"metadata value for {k!r} contains newline")


def _encode_metadata(metadata: dict[str, str]) -> bytes:
    lines = [f"{k}={metadata[k]}" for k in sorted(metadata)]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def _decode_metadata(blob: bytes) -> dict[str, str]:
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"metadata is not valid UTF-8: {exc}") from None
    out: dict[str, str] = {}
    for line in text.split("\n"):
        if not line:
            continue
        if "=" not in line:
            raise TraceFormatError(f"metadata line without '=': {line!r}")
        k, v = line.split("=", 1)
        out[k] = v
    return out


# Text form of each dataclass field type, by its annotation: (encode, decode).
# Recovery reports and trace metadata are written and read through it.
CODECS = {
    "int": (str, int),
    "float": (repr, float),
    "bool": (lambda b: str(int(b)), lambda s: bool(int(s))),
    "str": (str, str),
    "list[int]": (
        lambda xs: ",".join(str(v) for v in xs),
        lambda s: [int(v) for v in s.split(",")],
    ),
}


def read_text(path, error) -> str:
    """The file's contents decoded as UTF-8; undecodable bytes raise `error`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{os.fspath(path)}: not valid UTF-8: {exc}") from None


def parse_key_values(text: str, error, key=None) -> dict[str, str]:
    """Parse the key=value text of templates, reports and config files.

    `#` starts a comment anywhere on a line, blank lines are skipped, and
    keys and values are stripped; `key`, when given, maps each stripped
    key to the one stored. A line without `=` or a key seen on an earlier
    line raises `error`.
    Trace metadata has its own decoder, which keeps every character.
    """
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected key=value")
        k, v = (part.strip() for part in line.split("=", 1))
        if key is not None:
            k = key(k)
        if k in out:
            raise error(f"line {lineno}: duplicate key {k!r}")
        out[k] = v
    return out


def check_count(count: int, what: str) -> None:
    """Raise DimensionError unless `count` fits a header's u32 field."""
    if not 0 <= count <= _U32_MAX:
        raise DimensionError(f"{what} {count} does not fit the 32-bit header field")


@contextlib.contextmanager
def staged_files(*paths):
    """Yield one open binary temp file per path, each in its path's directory.

    When the body returns, every file is closed and then each is renamed
    onto its path; when it raises, every temp file is removed and no path
    changes. Each file is created as open() creates one, with mode 0o666
    less the umask, and O_EXCL, so no existing file is taken over.
    """
    handles, tmps = [], []
    try:
        for path in paths:
            directory = os.path.dirname(os.fspath(path)) or "."
            tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}")
            fd = os.open(tmp, _CREATE_FLAGS, 0o666)
            tmps.append(tmp)
            handles.append(os.fdopen(fd, "wb"))
        yield handles
        for fh in handles:
            fh.close()
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _atomic_write(path, data: bytes) -> None:
    """Write data as the whole file at path, atomically."""
    with staged_files(path) as (fh,):
        fh.write(data)


class _RowWriter:
    """Rows written to an open file, against the count its header declares."""

    def __init__(self, fh, n_rows: int, header: bytes):
        self._fh = fh
        self.n_rows = n_rows
        self.rows = 0
        fh.write(header)

    def _take(self, rows: int) -> int:
        """Index of the first of the next `rows` rows; rows past the count raise."""
        start = self.rows
        if start + rows > self.n_rows:
            raise DimensionError(f"{start + rows} rows written, header declares {self.n_rows}")
        self.rows += rows
        return start

    def finish(self) -> None:
        """Raise unless exactly the declared rows were written."""
        if self.rows != self.n_rows:
            raise DimensionError(f"{self.rows} rows written, header declares {self.n_rows}")


def _check_finite(samples: np.ndarray) -> None:
    """Raise NonFiniteSample for any NaN or infinity, in blocks of samples."""
    flat = samples.reshape(-1)
    for lo in range(0, flat.size, _CHECK_SAMPLES):
        if not np.isfinite(flat[lo : lo + _CHECK_SAMPLES]).all():
            raise NonFiniteSample("trace payload contains NaN or infinity")


class TraceWriter(_RowWriter):
    """A trace file written to an open binary file, block of rows by block.

    The header and metadata go first, so the trace count is fixed up
    front; each block is checked for shape and finiteness before its
    bytes are written. Used inside staged_files, whose target stays
    untouched when any check raises.
    """

    def __init__(self, fh, n_traces: int, n_samples: int, metadata: dict[str, str]):
        check_count(n_traces, "trace count")
        check_count(n_samples, "trace length")
        _check_metadata(metadata)
        meta = _encode_metadata(metadata)
        header = TRACE_MAGIC + _HEADER.pack(FORMAT_VERSION, n_traces, n_samples, len(meta))
        super().__init__(fh, n_traces, header + meta)
        self.n_samples = n_samples

    def write(self, block) -> None:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.n_samples:
            raise DimensionError(f"block of shape {block.shape}, want (rows, {self.n_samples})")
        block = np.ascontiguousarray(block, dtype="<f4")
        _check_finite(block)
        self._take(len(block))
        self._fh.write(memoryview(block))


def write_trace_set(trace_set: TraceSet, path) -> None:
    """Serialize a TraceSet; the file appears atomically or not at all."""
    samples = np.asarray(trace_set.samples)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be 2-D, got shape {samples.shape}")
    with staged_files(path) as (fh,):
        TraceWriter(fh, *samples.shape, trace_set.metadata).write(samples)


class _RowReader:
    """Fixed-size rows after a checked header, read in file order.

    Made by _open_rows, which checks the magic, the version, the header
    and the payload size against the file size before anything is
    allocated. Each subclass names its magic and header, reads what
    follows the header in from_header, and checks and decodes a block of
    rows in _decode.
    """

    MAGIC: bytes
    HEADER: struct.Struct

    def __init__(self, fh, n_rows: int, row_shape: tuple, dtype):
        self._fh = fh
        self._n_rows = n_rows
        self._row_shape = row_shape
        self._dtype = np.dtype(dtype)
        self._row_bytes = math.prod(row_shape) * self._dtype.itemsize
        self._next_row = 0

    @classmethod
    def from_header(cls, fh, size: int, *fields: int):
        """The reader of an open file whose header fields are `fields`."""
        return cls(fh, *fields)

    def _fill(self, buf: np.ndarray):
        """Read the next len(buf) rows into buf and return them decoded."""
        if buf.size:
            got = self._fh.readinto(memoryview(buf).cast("B"))
            if got < buf.nbytes:
                raise TruncatedFile(f"payload ended {buf.nbytes - got} bytes early")
        lo = self._next_row
        self._next_row += len(buf)
        return self._decode(buf, lo)

    def read(self, rows: int):
        """The next `rows` rows, in new arrays."""
        return self._fill(np.empty((rows, *self._row_shape), self._dtype))

    def blocks(self, rows: int):
        """Yield every row in blocks of up to `rows` rows.

        The rows are read into one buffer that the next block overwrites.
        """
        buf = np.empty((min(rows, self._n_rows), *self._row_shape), self._dtype)
        for lo in range(0, self._n_rows, rows):
            yield self._fill(buf[: min(rows, self._n_rows - lo)])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _open_rows(path, cls):
    """Open a file of cls's kind; every check but those of the rows themselves runs here."""
    fh = open(path, "rb")
    try:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(cls.MAGIC) + cls.HEADER.size)
        if len(head) < len(cls.MAGIC):
            raise TruncatedFile("file too short for magic")
        if head[: len(cls.MAGIC)] != cls.MAGIC:
            raise BadMagic(f"expected {cls.MAGIC!r}")
        if len(head) < len(cls.MAGIC) + cls.HEADER.size:
            raise TruncatedFile("file too short for header")
        version, *fields = cls.HEADER.unpack_from(head, len(cls.MAGIC))
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"version {version} not supported")
        reader = cls.from_header(fh, size, *fields)
        need, left = reader._n_rows * reader._row_bytes, size - fh.tell()
        if left < need:
            raise TruncatedFile(f"payload needs {need} bytes, file has {left}")
        if left > need:
            raise TraceFormatError("trailing bytes after payload")
    except BaseException:
        fh.close()
        raise
    return reader


class TraceReader(_RowReader):
    """A trace file whose header, metadata and payload size are checked.

    Made by open_trace_set. Each block of samples is checked for
    finiteness as it is read, so a campaign can be processed without
    holding its sample matrix.
    """

    MAGIC, HEADER = TRACE_MAGIC, _HEADER

    def __init__(self, fh, n_traces: int, n_samples: int, metadata: dict[str, str]):
        super().__init__(fh, n_traces, (n_samples,), "<f4")
        self.n_traces = n_traces
        self.n_samples = n_samples
        self.metadata = metadata

    @classmethod
    def from_header(cls, fh, size: int, n_traces: int, n_samples: int, meta_len: int):
        if size < fh.tell() + meta_len:
            raise TruncatedFile("metadata extends past end of file")
        return cls(fh, n_traces, n_samples, _decode_metadata(fh.read(meta_len)))

    def _decode(self, samples: np.ndarray, lo: int) -> np.ndarray:
        _check_finite(samples)
        return samples


def open_trace_set(path) -> TraceReader:
    """Open a trace file and check everything but the samples themselves."""
    return _open_rows(path, TraceReader)


def read_trace_set(path) -> TraceSet:
    """Read a whole trace file into one array, verifying structure and finiteness."""
    with open_trace_set(path) as reader:
        return TraceSet(samples=reader.read(reader.n_traces), metadata=reader.metadata)


@dataclass
class LabelSet:
    """Ground truth for a trace set, one record per trace.

    values[i] is the signed coefficient; inner_bits[i, u, k-1] says
    whether inner iteration k of outer iteration u latched (mask all
    ones); neg_bits[i, u] is the sign draw.
    """

    values: np.ndarray
    inner_bits: np.ndarray
    neg_bits: np.ndarray

    @property
    def n_records(self) -> int:
        return int(self.values.shape[0])

    @property
    def outer_count(self) -> int:
        return int(self.inner_bits.shape[1])

    @property
    def inner_count(self) -> int:
        return int(self.inner_bits.shape[2])

    def rows(self, lo: int, hi: int) -> "LabelSet":
        """Records lo to hi, as views."""
        return LabelSet(self.values[lo:hi], self.inner_bits[lo:hi], self.neg_bits[lo:hi])

    def blocks(self, rows: int):
        """Yield the records in views of up to `rows` records, in order."""
        for lo in range(0, self.n_records, rows):
            yield self.rows(lo, lo + rows)

    @classmethod
    def concatenate(cls, parts) -> "LabelSet":
        """The records of `parts`, in order, as one LabelSet."""
        fields = zip(*((p.values, p.inner_bits, p.neg_bits) for p in parts))
        return cls(*(np.concatenate(arrays) for arrays in fields))


def _check_label_shapes(labels: LabelSet) -> tuple[int, int, int]:
    values = np.asarray(labels.values)
    inner = np.asarray(labels.inner_bits)
    neg = np.asarray(labels.neg_bits)
    if values.ndim != 1 or inner.ndim != 3 or neg.ndim != 2:
        raise DimensionError("labels have wrong rank")
    n = values.shape[0]
    if inner.shape[0] != n or neg.shape[0] != n:
        raise DimensionError("label arrays disagree on record count")
    if inner.shape[1] != neg.shape[1]:
        raise DimensionError("label arrays disagree on outer count")
    if inner.shape[1] < 1 or inner.shape[2] < 1:
        raise DimensionError("outer and inner counts must be positive")
    return n, inner.shape[1], inner.shape[2]


def _record_dtype(outer: int, inner: int) -> np.dtype:
    nbytes = (outer * (inner + 1) + 7) // 8
    return np.dtype([("idx", "<u4"), ("val", "<i4"), ("bits", "u1", (nbytes,))])


class LabelWriter(_RowWriter):
    """A label file written to an open binary file, block of records by block.

    Records are numbered across blocks; used inside staged_files, like
    TraceWriter.
    """

    def __init__(self, fh, n_records: int, outer_count: int, inner_count: int):
        check_count(n_records, "record count")
        if outer_count < 1 or inner_count < 1:
            raise DimensionError("outer and inner counts must be positive")
        header = _LABEL_HEADER.pack(FORMAT_VERSION, n_records, outer_count, inner_count)
        super().__init__(fh, n_records, LABEL_MAGIC + header)
        self.counts = (outer_count, inner_count)

    def write(self, labels: LabelSet) -> None:
        n, outer, inner = _check_label_shapes(labels)
        if (outer, inner) != self.counts:
            raise DimensionError(f"labels of {outer}x{inner} masks, header declares {self.counts}")
        start = self._take(n)
        bits = np.concatenate(
            [
                np.asarray(labels.inner_bits, dtype=np.uint8),
                np.asarray(labels.neg_bits, dtype=np.uint8).reshape(n, outer, 1),
            ],
            axis=2,
        ).reshape(n, outer * (inner + 1))
        record = np.zeros(n, dtype=_record_dtype(outer, inner))
        record["idx"] = np.arange(start, start + n, dtype="<u4")
        record["val"] = np.asarray(labels.values, dtype="<i4")
        record["bits"] = np.packbits(bits, axis=1, bitorder="little")
        self._fh.write(memoryview(record))


def write_label_set(labels: LabelSet, path) -> None:
    """Serialize a LabelSet with the same atomicity guarantees as traces."""
    n, outer, inner = _check_label_shapes(labels)
    with staged_files(path) as (fh,):
        LabelWriter(fh, n, outer, inner).write(labels)


class LabelReader(_RowReader):
    """A label file whose header and payload size are checked.

    Made by open_label_set. Each block's record indices are checked as it
    is read, and the block is decoded into a LabelSet.
    """

    MAGIC, HEADER = LABEL_MAGIC, _LABEL_HEADER

    def __init__(self, fh, n_records: int, outer_count: int, inner_count: int):
        if outer_count < 1 or inner_count < 1:
            raise TraceFormatError("outer and inner counts must be positive")
        try:
            record = _record_dtype(outer_count, inner_count)
        except ValueError:
            raise TraceFormatError(
                f"records of {outer_count}x{inner_count} mask bits are too large"
            ) from None
        super().__init__(fh, n_records, (), record)
        self.n_records = n_records
        self.outer_count = outer_count
        self.inner_count = inner_count

    def _decode(self, records: np.ndarray, lo: int) -> LabelSet:
        if not np.array_equal(records["idx"], np.arange(lo, lo + len(records), dtype=np.uint32)):
            raise TraceFormatError("record indices out of order")
        outer, inner = self.outer_count, self.inner_count
        bits = np.unpackbits(records["bits"], axis=1, count=outer * (inner + 1), bitorder="little")
        # Unpacked bits are 0 or 1, so they are valid bools as they are.
        bits = bits.view(bool).reshape(len(records), outer, inner + 1)
        return LabelSet(records["val"].astype(np.int32), bits[:, :, :inner], bits[:, :, inner])


def open_label_set(path) -> LabelReader:
    """Open a label file and check everything but the records themselves."""
    return _open_rows(path, LabelReader)


def read_label_set(path) -> LabelSet:
    """Read a whole label file, verifying counts and record indices."""
    with open_label_set(path) as reader:
        return reader.read(reader.n_records)
