"""The streamed attack: `.trc` row blocks in, the same report out.

`attack` opens the trace file with `traceio.open_trace_set` and the
label file with `traceio.open_label_set`, and `recover.recover_key`
reads both block by block, so neither the sample matrix, the labels nor
the per-site margins are held whole. These tests compare it with
`recover_key` on the fully read files, check the readers' blocks, the
rejection of bad inputs before a block is read and of bad payloads,
and that memory does not grow with the payload.
"""

import contextlib
import io
import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from cdtleak import leakage, recover, traceio
from cdtleak.cli import main
from cdtleak.errors import DomainError, LayoutMismatch, TraceFormatError
from cdtleak.recover import recover_key
from cdtleak.template import load_template

LOW_NOISE = "2.284"


def _quiet(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _pct(p):
    return "{:.12g}%".format(100.0 * p)


def _expected_stdout(report, out):
    """What `attack` prints for a report, by the README's walkthrough."""
    lines = [
        f"classified {report.inner_sites_total} inner and {report.neg_sites_total} sign sites",
        f"anomalous outer iterations: {report.anomalous_outer_iterations}",
        f"predicted per-coefficient success: {_pct(report.p_coefficient)}",
        f"predicted full-key success: {_pct(report.p_full_key)}",
    ]
    if report.has_labels:
        lines += [
            f"coefficients correct: {report.coefficients_correct}/{report.coefficients_total}",
            f"keys recovered: {report.keys_recovered}/{report.n_keys}",
        ]
    else:
        lines.append("no ground truth labels; empirical accuracy unavailable")
    lines.append(f"wrote {out}.report.txt")
    return "\n".join(lines) + "\n"


def _in_memory_report(camp, tpl, with_labels=True):
    trace_set = traceio.read_trace_set(camp + ".trc")
    labels = traceio.read_label_set(camp + ".lbl") if with_labels else None
    params, layout, *_ = leakage.campaign_from_metadata(trace_set.metadata)
    return recover_key(
        trace_set,
        load_template(tpl + ".inner.tpl"),
        load_template(tpl + ".neg.tpl"),
        layout,
        params,
        labels=labels,
    )


def _campaign(root, name, simulate, profile):
    camp, tpl = str(root / f"{name}-camp"), str(root / f"{name}-tpl")
    assert _quiet("simulate", *simulate, "--out", camp)[0] == 0
    assert _quiet("profile", *profile, "--out", tpl)[0] == 0
    return camp, tpl


class TestTraceReader:
    def test_blocks_equal_full_read(self, tmp_path):
        samples = np.random.default_rng(1).normal(size=(1030, 9)).astype(np.float32)
        path = tmp_path / "t.trc"
        traceio.write_trace_set(traceio.TraceSet(samples, {"kind": "test"}), path)
        with traceio.open_trace_set(path) as reader:
            assert (reader.n_traces, reader.n_samples) == samples.shape
            assert reader.metadata == {"kind": "test"}
            blocks = [block.copy() for block in reader.blocks(512)]
        assert [b.shape[0] for b in blocks] == [512, 512, 6]
        assert np.array_equal(np.concatenate(blocks), samples)
        assert np.array_equal(traceio.read_trace_set(path).samples, samples)

    def test_nan_in_a_later_block(self, tmp_path):
        samples = np.zeros((5, 3), dtype=np.float32)
        samples[4, 2] = np.inf
        path = tmp_path / "t.trc"
        path.write_bytes(
            traceio.TRACE_MAGIC + struct.pack("<IIII", 1, 5, 3, 0) + samples.tobytes()
        )
        with traceio.open_trace_set(path) as reader:
            blocks = reader.blocks(2)
            next(blocks)
            next(blocks)
            with pytest.raises(TraceFormatError, match="^trace payload contains NaN or infinity$"):
                next(blocks)


class TestLabelReader:
    @pytest.mark.parametrize("rows", [1, 7, 1024])
    def test_blocks_equal_full_read(self, logn7, rows):
        camp, _ = logn7
        whole = traceio.read_label_set(camp + ".lbl")
        with traceio.open_label_set(camp + ".lbl") as reader:
            counts = (reader.n_records, reader.outer_count, reader.inner_count)
            assert counts == (whole.n_records, whole.outer_count, whole.inner_count)
            blocks = list(reader.blocks(rows))
        sizes = [len(block.values) for block in blocks]
        assert sizes[:-1] == [rows] * (len(blocks) - 1) and 0 < sizes[-1] <= rows
        joined = traceio.LabelSet.concatenate(blocks)
        for name in ("values", "bits", "inner_bits", "neg_bits"):
            got, want = getattr(joined, name), getattr(whole, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name

    def test_in_memory_sets_yield_views(self, logn7):
        camp, _ = logn7
        labels = traceio.read_label_set(camp + ".lbl")
        trace_set = traceio.read_trace_set(camp + ".trc")
        label_blocks = list(labels.blocks(1024))
        trace_blocks = list(trace_set.blocks(1024))
        assert [len(b.values) for b in label_blocks] == [1024, 256]
        assert [len(b) for b in trace_blocks] == [1024, 256]
        assert all(np.shares_memory(b, trace_set.samples) for b in trace_blocks)
        assert all(np.shares_memory(b.values, labels.values) for b in label_blocks)
        assert np.array_equal(np.concatenate(trace_blocks), trace_set.samples)


@pytest.fixture(scope="module")
def logn7(tmp_path_factory):
    # 5 keys of 256 coefficients: 1,280 rows, not a multiple of _BLOCK_ROWS.
    return _campaign(
        tmp_path_factory.mktemp("logn7"),
        "logn7",
        ["--seed", "3", "--logn", "7", "--keys", "5"],
        ["--seed", "4", "--logn", "7", "--traces", "2000"],
    )


@pytest.fixture(scope="module")
def logn9(tmp_path_factory):
    # 3 keys of 512 coefficients: 3,072 rows, three whole blocks.
    return _campaign(
        tmp_path_factory.mktemp("logn9"),
        "logn9",
        ["--seed", "7", "--keys", "3", "--noise-sigma", LOW_NOISE],
        ["--seed", "9", "--noise-sigma", LOW_NOISE],
    )


class TestAttackMatchesRecoverKey:
    @pytest.mark.parametrize("case", ["logn7", "logn9"])
    @pytest.mark.parametrize("with_labels", [True, False], ids=["labels", "no_labels"])
    def test_report_and_stdout(self, request, tmp_path, case, with_labels):
        camp, tpl = request.getfixturevalue(case)
        rows = traceio.read_trace_set(camp + ".trc").n_traces
        assert bool(rows % recover._BLOCK_ROWS) == (case == "logn7")
        if not with_labels:
            # A copy of the .trc alone, so the attack finds no .lbl.
            bare = str(tmp_path / "bare")
            with open(camp + ".trc", "rb") as src, open(bare + ".trc", "wb") as dst:
                dst.write(src.read())
            camp = bare
        want = _in_memory_report(camp, tpl, with_labels)
        out = str(tmp_path / "out")
        rc, stdout = _quiet("attack", "--in", camp, "--templates", tpl, "--out", out)
        assert rc == (1 if want.has_labels and want.keys_recovered < want.n_keys else 0)
        with open(out + ".report.txt", "rb") as fh:
            assert fh.read() == traceio.encode_key_values(want.to_pairs())
        assert stdout == _expected_stdout(want, out)

    def test_bad_input_rejected_before_the_first_block(self, logn7):
        camp, tpl = logn7
        ti = load_template(tpl + ".inner.tpl")

        def untouched(rows):
            raise AssertionError("a block was read before the inputs were checked")
            yield

        with contextlib.ExitStack() as stack:
            reader = stack.enter_context(traceio.open_trace_set(camp + ".trc"))
            labels = stack.enter_context(traceio.open_label_set(camp + ".lbl"))
            params, layout, *_ = leakage.campaign_from_metadata(reader.metadata)
            reader.blocks = labels.blocks = untouched
            rows, n_samples = reader.n_traces, reader.n_samples
            with pytest.raises(DomainError, match="^both templates are required$"):
                recover_key(reader, ti, None, layout, params, labels)
            reader.n_samples = n_samples - 1
            with pytest.raises(LayoutMismatch):
                recover_key(reader, ti, ti, layout, params, labels)
            reader.n_traces, reader.n_samples = rows - 1, n_samples
            with pytest.raises(LayoutMismatch):
                recover_key(reader, ti, ti, layout, params, labels)
            reader.n_traces = rows
            labels.n_records = rows - 1
            with pytest.raises(LayoutMismatch, match=f"^{rows - 1} labels for {rows} traces$"):
                recover_key(reader, ti, ti, layout, params, labels)
            labels.n_records, labels.inner_count = rows, labels.inner_count + 1
            with pytest.raises(LayoutMismatch):
                recover_key(reader, ti, ti, layout, params, labels)

    def test_degenerate_template_exits_before_the_first_block(
        self, capsys, monkeypatch, logn7, tmp_path
    ):
        # A subnormal variance overflows the classifier's log-likelihoods;
        # the attack must refuse the templates before it classifies a single row.
        camp, tpl = logn7
        bad = str(tmp_path / "bad")
        with open(tpl + ".inner.tpl", encoding="utf-8") as fh:
            text = re.sub(r"(?m)^class0\.var\.0=.*$", "class0.var.0=5e-324", fh.read())
        with open(bad + ".inner.tpl", "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(tpl + ".neg.tpl", "rb") as src, open(bad + ".neg.tpl", "wb") as dst:
            dst.write(src.read())

        def untouched(self, buf):
            raise AssertionError("a block was read before the templates were checked")

        monkeypatch.setattr(traceio._RowReader, "_fill", untouched)
        out = str(tmp_path / "out")
        capsys.readouterr()
        assert main(["attack", "--in", camp, "--templates", bad, "--out", out]) == 2
        assert "error: var must be finite and at least 1e-12" in capsys.readouterr().err
        assert not (tmp_path / "out.report.txt").exists()

    @pytest.mark.parametrize("point, role", [("inner", "inner"), ("neg", "sign")])
    def test_template_whose_margins_overflow(self, capsys, logn7, tmp_path, point, role):
        # Class means far from every sample overflow the log-likelihoods:
        # the attack refuses the template instead of decoding NaN margins.
        camp, tpl = logn7
        bad = str(tmp_path / "bad")
        for name in ("inner", "neg"):
            with open(f"{tpl}.{name}.tpl", encoding="utf-8") as fh:
                text = fh.read()
            if name == point:
                text = re.sub(r"(?m)^(class[01]\.mu\.0)=.*$", r"\1=1e+300", text)
            with open(f"{bad}.{name}.tpl", "w", encoding="utf-8") as fh:
                fh.write(text)
        out = str(tmp_path / "out")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["attack", "--in", camp, "--templates", bad, "--out", out])
        assert rc == 2
        assert not caught
        assert f"error: {role} template gives non-finite site margins" in capsys.readouterr().err
        assert not (tmp_path / "out.report.txt").exists()

    def test_trace_set_that_is_not_2d(self, logn7):
        camp, tpl = logn7
        trace_set = traceio.read_trace_set(camp + ".trc")
        params, layout, *_ = leakage.campaign_from_metadata(trace_set.metadata)
        ti = load_template(tpl + ".inner.tpl")
        flat = traceio.TraceSet(trace_set.samples.reshape(-1), trace_set.metadata)
        with pytest.raises(LayoutMismatch):
            recover_key(flat, ti, ti, layout, params)


class TestAttackRejectsBadPayloads:
    @staticmethod
    def _copy(camp, tmp_path, edit, edited=".trc"):
        """A copy of the campaign with `edit` applied to the bytes of one of its files."""
        bad = str(tmp_path / "bad")
        for suffix in (".trc", ".lbl"):
            with open(camp + suffix, "rb") as fh:
                blob = bytearray(fh.read())
            with open(bad + suffix, "wb") as fh:
                fh.write(edit(blob) if suffix == edited else blob)
        return bad

    def test_nan_in_last_row(self, capsys, logn7, tmp_path):
        camp, tpl = logn7

        def last_sample_nan(blob):
            struct.pack_into("<f", blob, len(blob) - 4, float("nan"))
            return blob

        bad = self._copy(camp, tmp_path, last_sample_nan)
        capsys.readouterr()
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert "NaN or infinity" in capsys.readouterr().err
        assert not (tmp_path / "bad.report.txt").exists()

        kept = b"report_version=1\n# an earlier report\n"
        (tmp_path / "bad.report.txt").write_bytes(kept)
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert (tmp_path / "bad.report.txt").read_bytes() == kept

    def test_wrong_index_in_last_label_record(self, capsys, logn7, tmp_path):
        camp, tpl = logn7

        def last_index_off(blob):
            n_records = struct.unpack_from("<I", blob, len(traceio.LABEL_MAGIC) + 4)[0]
            record = (len(blob) - len(traceio.LABEL_MAGIC) - 16) // n_records
            struct.pack_into("<I", blob, len(blob) - record, 0)
            return blob

        bad = self._copy(camp, tmp_path, last_index_off, edited=".lbl")
        with pytest.raises(TraceFormatError):
            traceio.read_label_set(bad + ".lbl")
        capsys.readouterr()
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert "record indices out of order" in capsys.readouterr().err
        assert not (tmp_path / "bad.report.txt").exists()

        kept = b"report_version=1\n# an earlier report\n"
        (tmp_path / "bad.report.txt").write_bytes(kept)
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert (tmp_path / "bad.report.txt").read_bytes() == kept

    @pytest.mark.parametrize(
        "edit",
        [lambda blob: blob[:-1], lambda blob: blob + b"\0\0\0\0"],
        ids=["truncated", "trailing"],
    )
    def test_payload_size(self, capsys, logn7, tmp_path, edit):
        camp, tpl = logn7
        bad = self._copy(camp, tmp_path, edit)
        assert main(["attack", "--in", bad, "--templates", tpl]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "bad.report.txt").exists()


def test_memory_does_not_grow_with_the_payload(tmp_path):
    """The labelled attack's peak grows by far less than the sample matrix does.

    The .trc and the .lbl are both read in blocks. What grows with the
    rows is 4 bytes of recovered value and 1 byte of correctness per
    trace, and the report: its text, and the Python ints of the values
    while it is built.
    """
    tpl = str(tmp_path / "tpl")
    assert _quiet("profile", "--seed", "5", "--traces", "2000", "--out", tpl)[0] == 0
    peaks, payloads, rows = [], [], []
    for keys in (2, 8):
        camp = str(tmp_path / f"camp{keys}")
        assert _quiet("simulate", "--seed", "6", "--keys", str(keys), "--out", camp)[0] == 0
        with traceio.open_trace_set(camp + ".trc") as reader:
            rows.append(reader.n_traces)
            payloads.append(4 * reader.n_traces * reader.n_samples)
        tracemalloc.start()
        try:
            rc, stdout = _quiet("attack", "--in", camp, "--templates", tpl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc in (0, 1)
        assert "coefficients correct:" in stdout
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 0.1 * (payloads[1] - payloads[0])
    # Reading the .lbl whole grew the peak by ~75 bytes per trace.
    assert peaks[1] - peaks[0] < 40 * (rows[1] - rows[0])
