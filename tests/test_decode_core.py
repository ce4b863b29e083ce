"""recover_key's decode core and the read-ahead that feeds it.

The decode core, recover._DecodeCore, turns a block of site columns into
bits, values, counts and |margin| sums. It is checked bit for bit
against the decoder as first written (tests/decode_oracle.py) on random
site blocks: margins that tie at exactly 0, a -0.0 margin, outer
iterations where more than one slot fires, and a partial last block.

The source, recover._site_blocks, reads the next block on one worker
thread while the core decodes this one. These tests require the same
report from a TraceSet and a TraceReader, and for any block timing;
errors in row order, whichever thread meets them; no thread left
behind; and memory that does not grow with the rows.
"""

import contextlib
import io
import math
import random
import struct
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from decode_oracle import column_margins, decode_margins, point_sites

from cdtleak import recover, traceio
from cdtleak.cli import main
from cdtleak.errors import DomainError, TraceFormatError
from cdtleak.leakage import TraceLayout, campaign_from_metadata
from cdtleak.sampler import SamplerParams, default_table
from cdtleak.template import ClassStats, Template, load_template
from cdtleak.traceio import LabelSet

LAYOUT = TraceLayout.for_params(SamplerParams(logn=9), default_table())
OUTER, INNER = LAYOUT.outer_count, LAYOUT.inner_count
NON_FINITE = "^trace payload contains NaN or infinity$"
MARGINS = recover._DecodeCore.margins


def _template(mu0=40.0, mu1=56.0, var=16.0):
    """Equal variances, so a sample at (mu0 + mu1) / 2 ties at exactly 0."""
    return Template(poi=5, class0=ClassStats(mu0, var, 100), class1=ClassStats(mu1, var, 100))


def _random_block(rng, rows):
    """Whole-trace samples whose sites fire with probability 0.1, some at the tie point."""
    samples = rng.normal(40.0, 4.0, (rows, LAYOUT.trace_length))
    sites = LAYOUT.site_matrix().reshape(-1)
    samples[:, sites] += 16.0 * (rng.random((rows, len(sites))) < 0.1)
    at_tie = rng.random((rows, len(sites))) < 0.02
    samples[:, sites] = np.where(at_tie, 48.0, samples[:, sites])
    return samples.astype(np.float32)


def _random_truth(rng, rows):
    bits = rng.random((rows, OUTER, INNER + 1)) < 0.1
    return LabelSet(rng.integers(-20, 21, rows).astype(np.int32), bits)


def _assert_same(got, want):
    """The decode core's (values, counts, sums, bits) against the oracle's (bits, values, counts, sums)."""
    got_values, got_counts, got_sums, got_bits = got
    bits, values, counts, sums = want
    assert np.array_equal(got_bits, bits)
    assert got_values.dtype == values.dtype and np.array_equal(got_values, values)
    assert got_counts.tolist() == [int(c) for c in counts]
    assert list(got_sums) == sums


class TestDecodeCoreAgainstOracle:
    @pytest.mark.parametrize("with_truth", [True, False], ids=["truth", "no_truth"])
    def test_random_blocks(self, with_truth):
        ti, tn = _template(), _template(mu0=38.0, mu1=60.0)
        cols = point_sites(LAYOUT)
        rng = np.random.default_rng(0xDEC0DE)
        rows = 1027  # one full block of 1,024 rows and a partial one
        samples = _random_block(rng, rows)
        truth = _random_truth(rng, rows)
        core = recover._DecodeCore(ti, tn, LAYOUT, 1024)
        ties = anomalous = 0
        for lo, hi in ((0, 1024), (1024, rows)):
            block_truth = truth.rows(lo, hi) if with_truth else None
            inner_m, neg_m = (column_margins(samples[lo:hi], t, c) for t, c in zip((ti, tn), cols))
            want = decode_margins(inner_m, neg_m, OUTER, INNER, block_truth)
            sites = [np.ascontiguousarray(samples[lo:hi, c]) for c in core.columns]
            _assert_same(core(sites, block_truth), want)
            ties += np.count_nonzero(inner_m == 0.0)
            anomalous += want[2][2]
        assert anomalous > 0
        assert ties > 0

    def test_zero_and_negative_zero_margins_decode_as_zeros(self, monkeypatch):
        # The margins of sample columns are never -0.0, so these are handed to the core.
        rng = np.random.default_rng(7)
        rows = 300
        inner_m = rng.choice([-1.5, -0.0, 0.0, 2.5], size=(rows, OUTER * INNER))
        neg_m = rng.choice([-0.0, 0.0, 3.0], size=(rows, OUTER))
        assert np.signbit(inner_m[inner_m == 0.0]).any() and np.signbit(neg_m[neg_m == 0.0]).any()

        def margins(self, sites, t):
            m = (inner_m, neg_m)[t]
            out = self.work[0, : m.size].reshape(m.shape)
            out[...] = m
            return out

        monkeypatch.setattr(recover._DecodeCore, "margins", margins)
        t = _template()
        truth = _random_truth(rng, rows)
        core = recover._DecodeCore(t, t, LAYOUT, rows)
        got = core([np.zeros((rows, len(c)), np.float32) for c in core.columns], truth)
        _assert_same(got, decode_margins(inner_m, neg_m, OUTER, INNER, truth))
        assert not got[3][:, :, :INNER][inner_m.reshape(rows, OUTER, INNER) == 0.0].any()


def _quiet(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(list(argv))


@pytest.fixture(scope="module")
def campaign(tmp_path_factory):
    """Two logn 7 keys, 512 rows, and templates for them, loaded and as a file prefix."""
    root = tmp_path_factory.mktemp("decode")
    camp, tpl = str(root / "camp"), str(root / "tpl")
    assert _quiet("simulate", "--seed", "11", "--logn", "7", "--keys", "2", "--out", camp) == 0
    assert _quiet("profile", "--seed", "12", "--logn", "7", "--traces", "2000", "--out", tpl) == 0
    return camp, [load_template(f"{tpl}.{point}.tpl") for point in ("inner", "neg")], tpl


@pytest.fixture(scope="module")
def readme_4mv(tmp_path_factory):
    """The README walkthrough's campaign and templates at the default 4 mV noise."""
    root = tmp_path_factory.mktemp("readme_4mv")
    camp, tpl = str(root / "camp"), str(root / "tpl")
    assert _quiet("simulate", "--seed", "20260819", "--keys", "20", "--out", camp) == 0
    assert _quiet("profile", "--seed", "714", "--traces", "10000", "--out", tpl) == 0
    return camp, [load_template(f"{tpl}.{point}.tpl") for point in ("inner", "neg")]


def _recover(camp, templates, labels=True, in_memory=False, trc=None):
    """recover_key on the campaign's files, streamed or read whole."""
    trc = trc or camp + ".trc"
    with contextlib.ExitStack() as stack:
        if in_memory:
            traces = traceio.read_trace_set(trc)
            truth = traceio.read_label_set(camp + ".lbl") if labels else None
        else:
            traces = stack.enter_context(traceio.open_trace_set(trc))
            truth = stack.enter_context(traceio.open_label_set(camp + ".lbl")) if labels else None
        params, layout, *_ = campaign_from_metadata(traces.metadata)
        return recover.recover_key(traces, *templates, layout, params, truth)


def _oracle_fields(camp, templates, block_rows):
    """Report fields by decode_oracle, block after block on one thread; "values" in row order."""
    traces, labels = traceio.read_trace_set(camp + ".trc"), traceio.read_label_set(camp + ".lbl")
    _, layout, *_ = campaign_from_metadata(traces.metadata)
    cols = point_sites(layout)
    outer, inner = layout.outer_count, layout.inner_count
    values, counts, sums = [], np.zeros(5, dtype=np.int64), []
    for lo in range(0, traces.n_traces, block_rows):
        rows = traces.samples[lo : lo + block_rows]
        margins = [column_margins(rows, t, c) for t, c in zip(templates, cols)]
        _, block_values, block_counts, block_sums = decode_margins(
            *margins, outer, inner, labels.rows(lo, lo + block_rows)
        )
        values.append(block_values)
        counts += block_counts
        sums.append(block_sums)
    names = ("inner_sites_ones neg_sites_ones anomalous_outer_iterations"
             " inner_site_errors neg_site_errors").split()
    fields = dict(zip(names, counts.tolist()))
    fields["mean_abs_margin_inner"] = math.fsum(s[0] for s in sums) / (len(labels.values) * outer * inner)
    fields["mean_abs_margin_neg"] = math.fsum(s[1] for s in sums) / (len(labels.values) * outer)
    fields["values"] = np.concatenate(values).tolist()
    return fields


def _report_values(report):
    """The recovered values in row order: key by key, f before g."""
    return np.stack([report.keys_f, report.keys_g], axis=1).reshape(-1).tolist()


def _with_nan(camp, tmp_path, row):
    """A copy of the campaign's .trc with a NaN at the first sample of `row`."""
    with traceio.open_trace_set(camp + ".trc") as reader:
        row_bytes, payload_bytes = 4 * reader.n_samples, 4 * reader.n_samples * reader.n_traces
    blob = bytearray(Path(camp + ".trc").read_bytes())
    struct.pack_into("<f", blob, len(blob) - payload_bytes + row_bytes * row, float("nan"))
    path = tmp_path / "nan.trc"
    path.write_bytes(blob)
    return str(path)


class TestReadAhead:
    @pytest.mark.parametrize("labels", [True, False], ids=["labels", "no_labels"])
    def test_trace_set_and_reader_agree_in_blocks_of_7(self, monkeypatch, campaign, labels):
        camp, templates, _ = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 7)
        streamed = _recover(camp, templates, labels)
        assert streamed.to_pairs() == _recover(camp, templates, labels, in_memory=True).to_pairs()
        assert streamed.has_labels == labels

    def test_report_equals_the_serial_oracle_for_any_block_timing(self, monkeypatch, campaign):
        camp, templates, _ = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 64)
        want = _oracle_fields(camp, templates, 64)
        rng = random.Random(3)
        fill, decode = traceio._RowReader._fill, recover._DecodeCore.__call__

        def slow_fill(self, buf):
            time.sleep(rng.choice([0.0, 0.002]))
            return fill(self, buf)

        def slow_decode(self, sites, truth):
            time.sleep(rng.choice([0.0, 0.002]))
            return decode(self, sites, truth)

        monkeypatch.setattr(traceio._RowReader, "_fill", slow_fill)
        monkeypatch.setattr(recover._DecodeCore, "__call__", slow_decode)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                report = _recover(camp, templates)
                got = {name: getattr(report, name) for name in want if name != "values"}
                assert {**got, "values": _report_values(report)} == want
        finally:
            sys.setswitchinterval(interval)

    def _overflow_in_block(self, monkeypatch, k):
        """Make the inner margins of block k overflow, after the worker has read ahead."""
        calls = iter(range(1 << 20))

        def overflowing(self, sites, t):
            out = MARGINS(self, sites, t)
            if next(calls) == 2 * k + 1:  # sign, then inner margins, block by block
                time.sleep(0.05)
                out[0, 0] = np.inf
            return out

        monkeypatch.setattr(recover._DecodeCore, "margins", overflowing)

    def test_a_decode_error_comes_before_a_read_error_of_the_next_block(
        self, monkeypatch, campaign, tmp_path
    ):
        camp, templates, _ = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 7)
        trc = _with_nan(camp, tmp_path, 4 * 7)  # block 4
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            _recover(camp, templates, trc=trc)
        self._overflow_in_block(monkeypatch, 3)
        with pytest.raises(DomainError, match="^inner template gives non-finite site margins$"):
            _recover(camp, templates, trc=trc)

    def test_a_read_error_comes_before_a_decode_error_of_its_block(
        self, monkeypatch, campaign, tmp_path
    ):
        camp, templates, _ = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 7)
        self._overflow_in_block(monkeypatch, 4)
        with pytest.raises(DomainError, match="^inner template gives non-finite site margins$"):
            _recover(camp, templates)
        self._overflow_in_block(monkeypatch, 4)
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            _recover(camp, templates, trc=_with_nan(camp, tmp_path, 4 * 7 + 6))

    @pytest.mark.parametrize("at_site", [False, True], ids=["no_site", "leak_site"])
    def test_a_trace_set_sample_is_checked_as_a_read_one_is(self, readme_4mv, at_site):
        # Not decoded silently, nor blamed on the template: the error a .trc with it gives.
        camp, templates = readme_4mv
        traces = traceio.read_trace_set(camp + ".trc")
        labels = traceio.read_label_set(camp + ".lbl")
        params, layout, *_ = campaign_from_metadata(traces.metadata)
        report = recover.recover_key(traces, *templates, layout, params, labels)
        assert report.coefficients_correct == 20393
        column = templates[0].poi if at_site else 0
        assert (column in layout.site_matrix()) == at_site
        traces.samples[-1, column] = np.nan
        with pytest.raises(TraceFormatError, match=NON_FINITE):
            recover.recover_key(traces, *templates, layout, params, labels)

    def test_mid_file_label_index_error_exits_2_without_a_report(
        self, monkeypatch, campaign, tmp_path, capsys
    ):
        camp, _, tpl = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 7)
        bad = str(tmp_path / "bad")
        Path(bad + ".trc").write_bytes(Path(camp + ".trc").read_bytes())
        blob = bytearray(Path(camp + ".lbl").read_bytes())
        record = (len(blob) - len(traceio.LABEL_MAGIC) - 16) // 512
        struct.pack_into("<I", blob, len(traceio.LABEL_MAGIC) + 16 + 200 * record, 7)
        (tmp_path / "bad.lbl").write_bytes(blob)
        capsys.readouterr()
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert "record indices out of order" in capsys.readouterr().err
        assert not (tmp_path / "bad.report.txt").exists()

    def test_no_thread_outlives_the_call(self, monkeypatch, campaign, tmp_path):
        camp, templates, _ = campaign
        monkeypatch.setattr(recover, "_BLOCK_ROWS", 7)
        before = threading.active_count()
        _recover(camp, templates)
        assert threading.active_count() == before
        # The caught errors, and so the frames of their tracebacks, stay alive.
        with pytest.raises(TraceFormatError) as read_error:
            _recover(camp, templates, trc=_with_nan(camp, tmp_path, 100))
        assert threading.active_count() == before
        self._overflow_in_block(monkeypatch, 2)
        with pytest.raises(DomainError) as decode_error:
            _recover(camp, templates)
        assert threading.active_count() == before
        assert read_error.traceback and decode_error.traceback


def test_memory_does_not_grow_with_the_rows(tmp_path):
    """recover_key's traced peak over a streamed campaign grows by a few bytes per row.

    What grows with the rows is the recovered value and its correctness
    flag, and the report's lists. A read-ahead deeper than one block
    would add blocks, each of 1,024 rows of 432 float32 samples and its
    site columns.
    """
    tpl = str(tmp_path / "tpl")
    assert _quiet("profile", "--seed", "5", "--traces", "2000", "--out", tpl) == 0
    templates = [load_template(f"{tpl}.{point}.tpl") for point in ("inner", "neg")]
    peaks, rows = [], []
    for keys in (2, 8):
        camp = str(tmp_path / f"camp{keys}")
        assert _quiet("simulate", "--seed", "6", "--keys", str(keys), "--out", camp) == 0
        with traceio.open_trace_set(camp + ".trc") as traces, \
                traceio.open_label_set(camp + ".lbl") as labels:
            params, layout, *_ = campaign_from_metadata(traces.metadata)
            rows.append(traces.n_traces)
            tracemalloc.start()
            try:
                report = recover.recover_key(traces, *templates, layout, params, labels)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert report.n_keys == keys
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 40 * (rows[1] - rows[0])
