"""Fuzzing of every reader of untrusted input.

Whatever it is given, each reader returns or raises a CdtLeakError, which
the CLI turns into exit 2; no other exception escapes. Inputs are raw
bytes, and valid files with a few lines, header fields or bytes changed,
so that the fuzzing gets past the first check. Example counts are
bounded to keep the suite fast.
"""

import io
import struct
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak import leakage, traceio
from cdtleak.errors import CdtLeakError
from cdtleak.recover import load_report, recover_key, save_report
from cdtleak.sampler import SamplerParams, default_table, load_cdt_table
from cdtleak.template import ClassStats, Template, encode_template, load_template

FUZZ = settings(max_examples=150, deadline=None)

VALUES = st.one_of(
    st.text(max_size=20),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", "-1", "0", "1e999", "nan", "1,1", ",", "9" * 5000]),
)

U32 = st.one_of(
    st.sampled_from([0, 1, 2, 0x7FFFFFFF, 0xFFFFFFFF]), st.integers(0, 0xFFFFFFFF)
)


@st.composite
def _edited_text(draw, text: str) -> bytes:
    """`text` with up to three lines given a new value, dropped or repeated."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        what = draw(st.sampled_from(["value", "drop", "repeat"]))
        if what == "value":
            key = lines[i].split("=", 1)[0] + "=" if "=" in lines[i] else ""
            lines[i] = key + draw(VALUES)
        elif what == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines).encode("utf-8")


def _text_file(text: str):
    return st.one_of(st.binary(max_size=64), _edited_text(text))


@st.composite
def _damaged(draw, blob: bytes) -> bytes:
    """`blob`, a magic and four u32 header fields first, with up to three edits."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(1, 3))):
        what = draw(st.sampled_from(["field", "byte", "cut"]))
        if what == "field" and len(out) >= 24:
            struct.pack_into("<I", out, 8 + 4 * draw(st.integers(0, 3)), draw(U32))
        elif what == "byte" and out:
            out[draw(st.integers(0, len(out) - 1))] = draw(st.integers(0, 255))
        elif what == "cut":
            del out[draw(st.integers(0, len(out))) :]
    return bytes(out)


def _binary_file(blob: bytes):
    return st.one_of(st.binary(max_size=64), _damaged(blob))


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """One small valid file of each kind, and a path to write fuzzed ones to."""
    root = tmp_path_factory.mktemp("fuzz")
    params, table = SamplerParams(logn=3), default_table()
    traces, labels = leakage.synthesize_campaign(3, params, table, leakage.LeakModel())
    stats = ClassStats(mu=40.0, var=16.0, count=50)
    inner = Template(poi=3, class0=stats, class1=ClassStats(mu=70.0, var=16.0, count=50))
    neg = Template(poi=211, class0=stats, class1=inner.class1)
    layout = leakage.TraceLayout.for_params(params, table)
    save_report(recover_key(traces, inner, neg, layout, params, labels), root / "r.txt")
    (root / "t.tpl").write_bytes(encode_template(inner))
    trc, lbl = io.BytesIO(), io.BytesIO()
    writer = traceio.TraceWriter(trc, 2, traces.n_samples, traces.metadata)
    writer.write(traces.samples[:2])
    traceio.LabelWriter(lbl, 2, layout.outer_count, layout.inner_count).write(labels.rows(0, 2))
    return SimpleNamespace(
        path=root / "fuzzed",
        metadata=traces.metadata,
        trc=trc.getvalue(),
        lbl=lbl.getvalue(),
        report=(root / "r.txt").read_text(),
        template=(root / "t.tpl").read_text(),
        table=resources.files("cdtleak").joinpath("data/gauss_1024_12289.txt").read_text(),
    )


def _read(path, blob: bytes, reader):
    path.write_bytes(blob)
    try:
        reader(path)
    except CdtLeakError:
        pass


def _read_all_rows(path):
    with traceio.open_trace_set(path) as reader:
        for block in reader.blocks(64):
            assert np.isfinite(block).all()


def _read_all_records(path):
    with traceio.open_label_set(path) as reader:
        records = 0
        for block in reader.blocks(1):
            assert block.inner_bits.shape == (1, reader.outer_count, reader.inner_count)
            records += block.n_records
        assert records == reader.n_records


@FUZZ
@given(data=st.data())
def test_campaign_from_metadata(valid, data):
    kind = data.draw(st.sampled_from(["campaign", "profiling"]))
    md = {**valid.metadata, "kind": kind}
    keys = st.one_of(st.sampled_from(sorted(md)), st.text(max_size=8))
    for key, value in data.draw(st.dictionaries(keys, st.none() | VALUES, max_size=4)).items():
        if value is None:
            md.pop(key, None)
        else:
            md[key] = value
    try:
        leakage.campaign_from_metadata(md)
    except CdtLeakError:
        pass


@FUZZ
@given(data=st.data())
def test_open_trace_set(valid, data):
    _read(valid.path, data.draw(_binary_file(valid.trc)), _read_all_rows)


@FUZZ
@given(data=st.data())
def test_read_label_set(valid, data):
    _read(valid.path, data.draw(_binary_file(valid.lbl)), traceio.read_label_set)


@FUZZ
@given(data=st.data())
def test_open_label_set(valid, data):
    _read(valid.path, data.draw(_binary_file(valid.lbl)), _read_all_records)


@FUZZ
@given(data=st.data())
def test_load_template(valid, data):
    _read(valid.path, data.draw(_text_file(valid.template)), load_template)


@FUZZ
@given(data=st.data())
def test_load_report(valid, data):
    _read(valid.path, data.draw(_text_file(valid.report)), load_report)


@FUZZ
@given(data=st.data())
def test_load_cdt_table(valid, data):
    _read(valid.path, data.draw(_text_file(valid.table)), load_cdt_table)
