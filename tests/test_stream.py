"""The streamed attack: `.trc` row blocks in, the same report out.

`attack` reads the trace file through `traceio.open_trace_set` and
recovers keys block by block with `recover.recover_blocks`, so neither
the sample matrix nor the per-site margins are held whole. These tests
compare it with `recover_key` on the fully read file, check the exact
streamed sum behind `mean_abs_margin_*`, the rejection of bad payloads,
and that memory does not grow with the payload.
"""

import contextlib
import io
import struct
import tracemalloc

import numpy as np
import pytest

from cdtleak import leakage, recover, traceio
from cdtleak.cli import main
from cdtleak.errors import DomainError, LayoutMismatch, MissingTemplate, NonFiniteSample
from cdtleak.recover import _SUM_LEAF, _PairwiseSum, recover_blocks, recover_key
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
    params, layout, _ = leakage.campaign_from_metadata(trace_set.metadata, "campaign")
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


class TestPairwiseSum:
    LENGTHS = [0, 1, 7, 8, 9, 127, 128, 129, _SUM_LEAF - 1, _SUM_LEAF, _SUM_LEAF + 1, 1_064_960]

    @staticmethod
    def _fed(values, block):
        acc = _PairwiseSum(values.size)
        for lo in range(0, values.size, block):
            acc.add(values[lo : lo + block])
        return acc.total()

    @pytest.mark.parametrize("block", [1, 7, 52, 53_248])
    def test_equals_add_reduce(self, block):
        rng = np.random.default_rng(block)
        lengths = self.LENGTHS + [int(n) for n in rng.integers(130, 3 * _SUM_LEAF, 4)]
        lengths.append(int(rng.integers(3 * _SUM_LEAF, 40 * _SUM_LEAF)))
        for n in lengths:
            if n // block > 150_000:  # one add call per block: keep the run short
                continue
            values = np.abs(rng.standard_normal(n)) * 10.0 ** rng.uniform(-6, 6, n)
            want = np.add.reduce(values)
            got = self._fed(values, block)
            assert got.tobytes() == want.tobytes(), (n, block)

    def test_fixed_chunks_would_differ(self):
        # The reason for the helper: per-chunk sums added in order are not
        # numpy's result for this input.
        values = np.abs(np.random.default_rng(5).standard_normal(1_064_960)) * 1e3
        chunked = sum(np.add.reduce(values[lo : lo + 8192]) for lo in range(0, values.size, 8192))
        assert chunked != np.add.reduce(values)
        assert self._fed(values, 8192) == np.add.reduce(values)

    def test_count_is_enforced(self):
        acc = _PairwiseSum(3)
        acc.add(np.ones(2))
        with pytest.raises(DomainError, match="fewer than"):
            acc.total()
        with pytest.raises(DomainError, match="more than"):
            acc.add(np.ones(2))


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
            with pytest.raises(NonFiniteSample):
                next(blocks)


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
def two_poi(tmp_path_factory):
    return _campaign(
        tmp_path_factory.mktemp("two_poi"),
        "two_poi",
        ["--seed", "7", "--keys", "3", "--noise-sigma", LOW_NOISE],
        ["--seed", "9", "--noise-sigma", LOW_NOISE, "--poi-count", "2"],
    )


class TestAttackMatchesRecoverKey:
    @pytest.mark.parametrize("case", ["logn7", "two_poi"])
    @pytest.mark.parametrize("with_labels", [True, False], ids=["labels", "no_labels"])
    def test_report_and_stdout(self, request, tmp_path, case, with_labels):
        camp, tpl = request.getfixturevalue(case)
        rows = traceio.read_trace_set(camp + ".trc").n_traces
        if case == "logn7":
            assert rows % recover._BLOCK_ROWS
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
        with open(out + ".report.txt", encoding="utf-8") as fh:
            assert fh.read() == want.to_text()
        assert stdout == _expected_stdout(want, out)
        if case == "two_poi":
            assert len(load_template(tpl + ".inner.tpl").pois) == 2

    def test_bad_input_rejected_before_the_first_block(self, logn7):
        camp, tpl = logn7
        trace_set = traceio.read_trace_set(camp + ".trc")
        params, layout, _ = leakage.campaign_from_metadata(trace_set.metadata, "campaign")
        ti = load_template(tpl + ".inner.tpl")

        def untouched():
            raise AssertionError("a block was read before the inputs were checked")
            yield

        shape = trace_set.samples.shape
        with pytest.raises(MissingTemplate):
            recover_blocks(untouched(), shape, ti, None, layout, params, None)
        with pytest.raises(LayoutMismatch):
            recover_blocks(untouched(), (shape[0], shape[1] - 1), ti, ti, layout, params, None)
        with pytest.raises(LayoutMismatch):
            recover_blocks(untouched(), (shape[0] - 1, shape[1]), ti, ti, layout, params, None)


class TestAttackRejectsBadPayloads:
    @staticmethod
    def _copy(camp, tmp_path, edit):
        bad = str(tmp_path / "bad")
        with open(camp + ".trc", "rb") as fh:
            blob = bytearray(fh.read())
        with open(bad + ".trc", "wb") as fh:
            fh.write(edit(blob))
        with open(camp + ".lbl", "rb") as src, open(bad + ".lbl", "wb") as dst:
            dst.write(src.read())
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
    """The attack's peak grows by far less than the sample matrix does.

    What grows with the rows is the .lbl, still read whole, 4 bytes of
    recovered value per trace and the report text.
    """
    tpl = str(tmp_path / "tpl")
    assert _quiet("profile", "--seed", "5", "--traces", "2000", "--out", tpl)[0] == 0
    peaks, payloads = [], []
    for keys in (2, 8):
        camp = str(tmp_path / f"camp{keys}")
        assert _quiet("simulate", "--seed", "6", "--keys", str(keys), "--out", camp)[0] == 0
        with traceio.open_trace_set(camp + ".trc") as reader:
            payloads.append(4 * reader.n_traces * reader.n_samples)
        tracemalloc.start()
        try:
            rc, _ = _quiet("attack", "--in", camp, "--templates", tpl)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc in (0, 1)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 0.1 * (payloads[1] - payloads[0])
