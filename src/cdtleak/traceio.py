"""Binary containers for simulated power traces and their ground truth.

Trace files: magic "SSNTRACE", little-endian u32 version (1), u32 trace
count, u32 samples per trace, u32 metadata byte length, the metadata as
UTF-8 key=value lines, then the sample matrix as raw float32, row major.

Label files: magic "SSNLABEL", u32 version (1), u32 record count, u32
outer iteration count, u32 inner iteration count, then one fixed-width
record per trace: u32 record index, i32 signed coefficient value, and an
LSB-first packed bitfield of outer_count * (inner_count + 1) mask bits
(inner positions 1..inner_count, then the sign bit, per outer iteration).

Both are written a block of rows at a time, through temp files in the
target directory that are renamed into place only once every file of a
write is complete, and both are byte-deterministic for identical input;
metadata keys are sorted on write. Readers are strict: anything
structurally off raises instead of guessing.
"""

from __future__ import annotations

import contextlib
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


def write_trace_blocks(path, n_traces: int, n_samples: int, metadata: dict[str, str], blocks):
    """Write a trace file from an iterable of row blocks; it appears whole or not at all.

    The counts are checked before the first block is drawn, and the file
    is not renamed into place unless the blocks hold exactly n_traces rows.
    """
    with staged_files(path) as (fh,):
        writer = TraceWriter(fh, n_traces, n_samples, metadata)
        for block in blocks:
            writer.write(block)
        writer.finish()


def write_trace_set(trace_set: TraceSet, path) -> None:
    """Serialize a TraceSet; the file appears atomically or not at all."""
    samples = np.asarray(trace_set.samples)
    if samples.ndim != 2:
        raise DimensionError(f"samples must be 2-D, got shape {samples.shape}")
    write_trace_blocks(path, *samples.shape, trace_set.metadata, [samples])


class TraceReader:
    """A trace file whose header, metadata and payload size are checked.

    Made by open_trace_set. Rows are read in file order, each read
    straight into the caller's array and checked for finiteness, so a
    campaign can be processed without holding its sample matrix.
    """

    def __init__(self, fh, n_traces: int, n_samples: int, metadata: dict[str, str]):
        self._fh = fh
        self.n_traces = n_traces
        self.n_samples = n_samples
        self.metadata = metadata

    def read_rows(self, out: np.ndarray) -> np.ndarray:
        """Fill out, a C-contiguous (rows, n_samples) float32 array, with the next rows."""
        if out.size:
            got = self._fh.readinto(memoryview(out).cast("B"))
            if got < out.nbytes:
                raise TruncatedFile(f"payload ended {out.nbytes - got} bytes early")
        _check_finite(out)
        return out

    def blocks(self, rows: int):
        """Yield every row in blocks of up to `rows` rows.

        Each block is a view of one buffer that the next block overwrites.
        """
        buf = np.empty((min(rows, self.n_traces), self.n_samples), dtype="<f4")
        for lo in range(0, self.n_traces, rows):
            yield self.read_rows(buf[: min(rows, self.n_traces - lo)])

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_trace_set(path) -> TraceReader:
    """Open a trace file and check everything but the samples themselves.

    The payload size is checked against the file size before anything is
    allocated; the reader checks each block of samples as it reads it.
    """
    fh = open(path, "rb")
    try:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(TRACE_MAGIC) + _HEADER.size)
        if len(head) < len(TRACE_MAGIC):
            raise TruncatedFile("file too short for magic")
        if head[: len(TRACE_MAGIC)] != TRACE_MAGIC:
            raise BadMagic(f"expected {TRACE_MAGIC!r}")
        if len(head) < len(TRACE_MAGIC) + _HEADER.size:
            raise TruncatedFile("file too short for header")
        version, n_traces, n_samples, meta_len = _HEADER.unpack_from(head, len(TRACE_MAGIC))
        if version != FORMAT_VERSION:
            raise UnsupportedVersion(f"version {version} not supported")
        off = len(head) + meta_len
        if size < off:
            raise TruncatedFile("metadata extends past end of file")
        metadata = _decode_metadata(fh.read(meta_len))
        payload = n_traces * n_samples * 4
        if size < off + payload:
            raise TruncatedFile(f"payload needs {payload} bytes, file has {size - off}")
        if size > off + payload:
            raise TraceFormatError("trailing bytes after payload")
    except BaseException:
        fh.close()
        raise
    return TraceReader(fh, n_traces, n_samples, metadata)


def read_trace_set(path) -> TraceSet:
    """Read a whole trace file into one array, verifying structure and finiteness.

    The samples are read straight into their array, so the file's bytes
    are held once.
    """
    with open_trace_set(path) as reader:
        samples = np.empty((reader.n_traces, reader.n_samples), dtype="<f4")
        reader.read_rows(samples)
    return TraceSet(samples=samples, metadata=reader.metadata)


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
        writer = LabelWriter(fh, n, outer, inner)
        writer.write(labels)
        writer.finish()


def read_label_set(path) -> LabelSet:
    """Read a label file back, verifying counts and record indices."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(LABEL_MAGIC):
        raise TruncatedFile("file too short for magic")
    if blob[: len(LABEL_MAGIC)] != LABEL_MAGIC:
        raise BadMagic(f"expected {LABEL_MAGIC!r}")
    off = len(LABEL_MAGIC)
    if len(blob) < off + _LABEL_HEADER.size:
        raise TruncatedFile("file too short for header")
    version, n, outer, inner = _LABEL_HEADER.unpack_from(blob, off)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version {version} not supported")
    if outer < 1 or inner < 1:
        raise TraceFormatError("outer and inner counts must be positive")
    off += _LABEL_HEADER.size
    try:
        rec_dtype = _record_dtype(outer, inner)
    except ValueError:
        raise TraceFormatError(f"records of {outer}x{inner} mask bits are too large") from None
    need = n * rec_dtype.itemsize
    if len(blob) - off < need:
        raise TruncatedFile(f"records need {need} bytes, file has {len(blob) - off}")
    if len(blob) - off > need:
        raise TraceFormatError("trailing bytes after records")
    records = np.frombuffer(blob, dtype=rec_dtype, count=n, offset=off)
    if not np.array_equal(records["idx"], np.arange(n, dtype=np.uint32)):
        raise TraceFormatError("record indices out of order")
    bits = np.unpackbits(records["bits"], axis=1, bitorder="little")
    bits = bits[:, : outer * (inner + 1)].reshape(n, outer, inner + 1)
    return LabelSet(
        values=records["val"].astype(np.int32),
        inner_bits=bits[:, :, :inner].astype(bool),
        neg_bits=bits[:, :, inner].astype(bool),
    )
