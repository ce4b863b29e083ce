"""Binary containers for simulated power traces and their ground truth.

Trace files: magic "SSNTRACE", little-endian u32 version (1), u32 trace
count, u32 samples per trace, u32 metadata byte length, the metadata in
the key=value codec below, then the sample matrix as raw float32, row major.

Label files: magic "SSNLABEL", u32 version (1), u32 record count, u32
outer iteration count, u32 inner iteration count, then one fixed-width
record per trace: u32 record index, i32 signed coefficient value, and an
LSB-first packed bitfield of outer_count * (inner_count + 1) mask bits,
in the order LabelSet.bits holds them.

Both are written and read a block of rows at a time. Writes go through
temp files in the target directory that are renamed into place only once
every file of a write is complete, and are byte-deterministic for
identical input; metadata keys are sorted on write. Readers are strict:
anything structurally off raises TraceFormatError instead of guessing.

Trace metadata, templates and reports share one codec: UTF-8 `key=value`
lines, each key once, read back keeping every character, so the writer
refuses what the reader would. encode_fields and decode_fields map a
dataclass to such fields and back through CODECS, and a value reads back
only in the text its encoder writes.
"""

from __future__ import annotations

import contextlib
import errno
import math
import os
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, LayoutMismatch, TraceFormatError

TRACE_MAGIC = b"SSNTRACE"
LABEL_MAGIC = b"SSNLABEL"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<IIII")
_U32_MAX = 0xFFFFFFFF
_CREATE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


@dataclass(frozen=True)
class TraceSet:
    """A batch of equal-length traces plus free-form metadata strings; samples are 2-D."""

    samples: np.ndarray
    metadata: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if np.ndim(self.samples) != 2:
            raise LayoutMismatch(f"samples must be 2-D, got shape {np.shape(self.samples)}")

    @property
    def n_traces(self) -> int:
        return int(self.samples.shape[0])

    @property
    def n_samples(self) -> int:
        return int(self.samples.shape[1])

    def blocks(self, rows: int):
        """Yield the samples in views of up to `rows` rows, in order, checked as read ones are."""
        for lo in range(0, self.n_traces, rows):
            yield check_finite(self.samples[lo : lo + rows])


# Text form of each dataclass field type, by its annotation: (encode, decode).
# Trace metadata, templates and reports are written and read through it, and
# pop_field takes a value only in the form encode gives; flags take the plain decode.
CODECS = {
    "int": (str, int),
    "float": (repr, float),
    "bool": (lambda b: str(int(b)), lambda s: bool(int(s))),
    "str": (str, str),
    "list[int]": (
        lambda xs: ",".join([str(v) for v in xs]),
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


def encode_key_values(pairs) -> bytes:
    """One `key=value` line per (key, value) pair, in order, as UTF-8.

    Raises DomainError for what parse_key_values would refuse or read back otherwise: a
    non-string key or value, an empty or repeated key, `=` or a newline in a key, a
    newline in a value, or a lone surrogate that UTF-8 cannot encode.
    """
    lines: dict[str, bytes] = {}
    for k, v in pairs:
        if not isinstance(k, str) or not isinstance(v, str):
            raise DomainError("keys and values must be strings")
        if not k or "=" in k or "\n" in k or k in lines:
            raise DomainError(f"bad key {k!r}")
        if "\n" in v:
            raise DomainError(f"value for {k!r} contains a newline")
        try:
            lines[k] = f"{k}={v}\n".encode("utf-8")
        except UnicodeEncodeError:
            raise DomainError(f"key {k!r} or its value is not encodable as UTF-8") from None
    return b"".join(lines.values())


def parse_key_values(blob: bytes, error) -> dict[str, str]:
    """The pairs of encode_key_values' lines, in order, every character kept.

    Empty lines are skipped. Bytes that are not UTF-8, or a line with no `=`, an empty key or
    a key seen before raise `error`, naming the line.
    """
    try:
        text = blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not valid UTF-8: {exc}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        k, eq, v = line.partition("=")
        if not eq:
            raise error(f"line {lineno}: expected key=value")
        if not k:
            raise error(f"line {lineno}: empty key")
        if k in out:
            raise error(f"line {lineno}: duplicate key {k!r}")
        out[k] = v
    return out


def write_key_values(path, pairs) -> None:
    """encode_key_values(pairs) as the whole file at path, atomically."""
    with staged_files(path) as (fh,):
        fh.write(encode_key_values(pairs))


def read_key_values(path, error) -> dict[str, str]:
    """parse_key_values of the file at path; its errors name the path."""
    with open(path, "rb") as fh:
        return parse_key_values(fh.read(), lambda message: error(f"{os.fspath(path)}: {message}"))


def pop_field(values: dict[str, str], name: str, kind: str, error):
    """Pop `name` from a dict of text fields and decode its value by CODECS[kind].

    A missing key, a value that the decoder rejects with ValueError, or a
    value that does not encode back to its own text raises `error` with a
    message that names the key.
    """
    try:
        raw = values.pop(name)
    except KeyError:
        raise error(f"missing field {name!r}") from None
    encode, decode = CODECS[kind]
    try:
        value = decode(raw)
    except ValueError as exc:
        raise error(f"field {name!r}: {exc}") from None
    if encode(value) != raw:
        raise error(f"field {name!r}: {raw!r} is not in canonical {kind} form")
    return value


def encode_fields(obj, key: str = "{}") -> list[tuple[str, str]]:
    """(key.format(name), text) of each field of dataclass `obj`, in declaration order."""
    return [(key.format(f.name), CODECS[f.type][0](getattr(obj, f.name))) for f in fields(obj)]


def decode_fields(cls, values: dict[str, str], error, key: str = "{}"):
    """The `cls` that encode_fields wrote under `key`, its fields popped from `values`.

    A missing or malformed field, or a value `cls` refuses with DomainError, raises `error`.
    """
    kw = {f.name: pop_field(values, key.format(f.name), f.type, error) for f in fields(cls)}
    try:
        return cls(**kw)
    except DomainError as exc:
        raise error(str(exc)) from None


def check_count(count: int, what: str) -> None:
    """Raise DomainError unless `count` fits a header's u32 field."""
    if not 0 <= count <= _U32_MAX:
        raise DomainError(f"{what} {count} does not fit the 32-bit header field")


@contextlib.contextmanager
def staged_files(*paths):
    """Yield one open binary temp file per path, each in its path's directory.

    When the body returns, every file is closed and then each is renamed
    onto its path; when it raises, every temp file is removed and no path
    changes. A path that is an existing directory raises IsADirectoryError
    before the first rename, so then no path changes either. Each file is
    created as open() creates one, with mode 0o666 less the umask, and
    O_EXCL, so no existing file is taken over.
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
        for path in paths:
            # rename replaces a symlink itself, so only a real directory is refused.
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        for tmp, path in zip(tmps, paths):
            os.replace(tmp, path)
    except BaseException:
        for fh in handles:
            fh.close()
        for tmp in tmps:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


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
            raise LayoutMismatch(f"{start + rows} rows written, header declares {self.n_rows}")
        self.rows += rows
        return start

    def finish(self) -> None:
        """Raise unless exactly the declared rows were written."""
        if self.rows != self.n_rows:
            raise LayoutMismatch(f"{self.rows} rows written, header declares {self.n_rows}")


def check_finite(samples: np.ndarray) -> np.ndarray:
    """Return `samples`; raise TraceFormatError if any is NaN or infinite (so is min or max)."""
    if samples.size and not (math.isfinite(samples.min()) and math.isfinite(samples.max())):
        raise TraceFormatError("trace payload contains NaN or infinity")
    return samples


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
        # Keys sorted as text, so a key that is not a string reaches the codec's check.
        meta = encode_key_values((k, metadata[k]) for k in sorted(metadata, key=str))
        header = TRACE_MAGIC + _HEADER.pack(FORMAT_VERSION, n_traces, n_samples, len(meta))
        super().__init__(fh, n_traces, header + meta)
        self.n_samples = n_samples

    def write(self, block) -> None:
        block = np.asarray(block)
        if block.ndim != 2 or block.shape[1] != self.n_samples:
            raise LayoutMismatch(f"block of shape {block.shape}, want (rows, {self.n_samples})")
        block = np.ascontiguousarray(block, dtype="<f4")
        check_finite(block)
        self._take(len(block))
        self._fh.write(memoryview(block))


def write_trace_set(trace_set: TraceSet, path) -> None:
    """Serialize a TraceSet; the file appears atomically or not at all."""
    with staged_files(path) as (fh,):
        TraceWriter(fh, *np.shape(trace_set.samples), trace_set.metadata).write(trace_set.samples)


class _RowReader:
    """Fixed-size rows after a checked header, read in file order.

    Made by _open_rows, which checks the magic and the version, calls
    cls(fh, file size, *header fields) and then checks the payload size
    against the file size before any row is read. Each subclass names its
    magic and header, reads and checks what follows the header in its
    __init__, and checks and decodes a block of rows in _decode.
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

    def _fill(self, buf: np.ndarray):
        """Read the next len(buf) rows into buf and return them decoded."""
        if buf.size:
            got = self._fh.readinto(memoryview(buf).cast("B"))
            if got < buf.nbytes:
                raise TraceFormatError(f"payload ended {buf.nbytes - got} bytes early")
        lo = self._next_row
        self._next_row += len(buf)
        return self._decode(buf, lo)

    def read(self, rows: int):
        """The next `rows` rows, in new arrays."""
        return self._fill(np.empty((rows, *self._row_shape), self._dtype))

    def blocks(self, rows: int):
        """An iterator over every row in blocks of up to `rows` rows.

        The rows are read into one buffer that the next block overwrites.
        This call allocates it, so the thread that calls blocks, not the
        one that iterates, owns its memory.
        """
        buf = np.empty((min(rows, self._n_rows), *self._row_shape), self._dtype)
        return (self._fill(buf[: min(rows, self._n_rows - lo)])
                for lo in range(0, self._n_rows, rows))

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
            raise TraceFormatError("file too short for magic")
        if head[: len(cls.MAGIC)] != cls.MAGIC:
            raise TraceFormatError(f"expected {cls.MAGIC!r}")
        if len(head) < len(cls.MAGIC) + cls.HEADER.size:
            raise TraceFormatError("file too short for header")
        version, *fields = cls.HEADER.unpack_from(head, len(cls.MAGIC))
        if version != FORMAT_VERSION:
            raise TraceFormatError(f"version {version} not supported")
        reader = cls(fh, size, *fields)
        need, left = reader._n_rows * reader._row_bytes, size - fh.tell()
        if left < need:
            raise TraceFormatError(f"payload needs {need} bytes, file has {left}")
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

    def __init__(self, fh, size: int, n_traces: int, n_samples: int, meta_len: int):
        if size < fh.tell() + meta_len:
            raise TraceFormatError("metadata extends past end of file")
        self.metadata = parse_key_values(fh.read(meta_len),
                                         lambda m: TraceFormatError(f"metadata: {m}"))
        super().__init__(fh, n_traces, (n_samples,), "<f4")
        self.n_traces = n_traces
        self.n_samples = n_samples

    def _decode(self, samples: np.ndarray, lo: int) -> np.ndarray:
        return check_finite(samples)


def open_trace_set(path) -> TraceReader:
    """Open a trace file and check everything but the samples themselves."""
    return _open_rows(path, TraceReader)


def read_trace_set(path) -> TraceSet:
    """Read a whole trace file into one array, verifying structure and finiteness."""
    with open_trace_set(path) as reader:
        return TraceSet(samples=reader.read(reader.n_traces), metadata=reader.metadata)


@dataclass(frozen=True)
class LabelSet:
    """Ground truth for a trace set, one record per trace.

    values[i] is the signed coefficient. bits[i, u] holds outer iteration
    u's mask bits in the order of a .lbl record: bits[i, u, k-1] says
    whether inner iteration k latched (mask all ones), for k in
    1..inner_count, and bits[i, u, inner_count] is the sign draw. Arrays
    of another rank or record count raise LayoutMismatch, and counts
    below 1 DomainError.
    """

    values: np.ndarray
    bits: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.values) != 1 or np.ndim(self.bits) != 3:
            raise LayoutMismatch("labels have wrong rank")
        if self.n_records != len(self.bits):
            raise LayoutMismatch("label arrays disagree on record count")
        if self.outer_count < 1 or self.inner_count < 1:
            raise DomainError("outer and inner counts must be positive")

    @property
    def inner_bits(self) -> np.ndarray:
        """bits of the inner iterations, (records, outer, inner_count), as a view."""
        return self.bits[:, :, :-1]

    @property
    def neg_bits(self) -> np.ndarray:
        """The sign draws, (records, outer), as a view."""
        return self.bits[:, :, -1]

    @property
    def n_records(self) -> int:
        return len(self.values)

    @property
    def outer_count(self) -> int:
        return int(np.shape(self.bits)[1])

    @property
    def inner_count(self) -> int:
        return int(np.shape(self.bits)[2]) - 1

    def rows(self, lo: int, hi: int) -> "LabelSet":
        """Records lo to hi, as views."""
        return LabelSet(self.values[lo:hi], self.bits[lo:hi])

    def blocks(self, rows: int):
        """Yield the records in views of up to `rows` records, in order."""
        for lo in range(0, self.n_records, rows):
            yield self.rows(lo, lo + rows)

    @classmethod
    def concatenate(cls, parts) -> "LabelSet":
        """The records of `parts`, in order, as one LabelSet."""
        values, bits = zip(*((p.values, p.bits) for p in parts))
        return cls(np.concatenate(values), np.concatenate(bits))


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
            raise DomainError("outer and inner counts must be positive")
        header = _HEADER.pack(FORMAT_VERSION, n_records, outer_count, inner_count)
        super().__init__(fh, n_records, LABEL_MAGIC + header)
        self.counts = (outer_count, inner_count)

    def write(self, labels: LabelSet) -> None:
        n, outer, inner = labels.n_records, labels.outer_count, labels.inner_count
        if (outer, inner) != self.counts:
            raise LayoutMismatch(f"labels of {outer}x{inner} masks, header declares {self.counts}")
        start = self._take(n)
        bits = np.asarray(labels.bits, dtype=bool).reshape(n, outer * (inner + 1))
        record = np.zeros(n, dtype=_record_dtype(outer, inner))
        record["idx"] = np.arange(start, start + n, dtype="<u4")
        record["val"] = np.asarray(labels.values, dtype="<i4")
        record["bits"] = np.packbits(bits, axis=1, bitorder="little")
        self._fh.write(memoryview(record))


def write_label_set(labels: LabelSet, path) -> None:
    """Serialize a LabelSet with the same atomicity guarantees as traces."""
    with staged_files(path) as (fh,):
        LabelWriter(fh, labels.n_records, labels.outer_count, labels.inner_count).write(labels)


class LabelReader(_RowReader):
    """A label file whose header and payload size are checked.

    Made by open_label_set. Each block's record indices are checked as it
    is read, and the block is decoded into a LabelSet.
    """

    MAGIC, HEADER = LABEL_MAGIC, _HEADER

    def __init__(self, fh, size: int, n_records: int, outer_count: int, inner_count: int):
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
        return LabelSet(records["val"].astype(np.int32), bits)


def open_label_set(path) -> LabelReader:
    """Open a label file and check everything but the records themselves."""
    return _open_rows(path, LabelReader)


def read_label_set(path) -> LabelSet:
    """Read a whole label file, verifying counts and record indices."""
    with open_label_set(path) as reader:
        return reader.read(reader.n_records)
