"""`simulate` streams its campaign into the .trc/.lbl pair.

Keys are sampled a block at a time, rendered in chunks on one thread
pool and written block by block through staged temp files, so the
output equals the in-memory campaign byte for byte while the memory
held does not grow with --keys, and a failure leaves no file behind.
"""

import contextlib
import io
import os
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cdtleak import leakage, sampler, traceio
from cdtleak.cli import main
from cdtleak.errors import DimensionError, NonFiniteSample
from cdtleak.leakage import LeakModel, TraceLayout, campaign_blocks, synthesize_campaign
from cdtleak.sampler import SamplerParams, default_table


def _quiet(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _flag_values(argv):
    """The setup a simulate argv describes, defaults filled in."""
    opts = dict(zip(argv[::2], argv[1::2]))
    params = SamplerParams(logn=int(opts.get("--logn", 9)))
    model = LeakModel(
        beta=float(opts.get("--beta", leakage.DEFAULT_BETA)),
        noise_sigma=float(opts.get("--noise-sigma", leakage.DEFAULT_NOISE_SIGMA)),
    )
    layout = TraceLayout.for_params(
        params,
        default_table(),
        samples_per_outer_tail=int(opts.get("--samples-per-outer-tail", 8)),
    )
    return int(opts["--seed"]), int(opts.get("--keys", 1)), params, model, layout


def _in_memory_pair(argv, prefix):
    """synthesize_campaign with write_trace_set/write_label_set: the reference bytes."""
    seed, keys, params, model, layout = _flag_values(argv)
    traces, labels, _ = synthesize_campaign(
        seed=seed, params=params, table=default_table(), model=model, layout=layout, n_keys=keys
    )
    traceio.write_trace_set(traces, prefix + ".trc")
    traceio.write_label_set(labels, prefix + ".lbl")
    return [Path(prefix + s).read_bytes() for s in (".trc", ".lbl")]


def _simulate_pair(argv, prefix, threads):
    rc, _ = _quiet("simulate", *argv, "--threads", str(threads), "--out", prefix)
    assert rc == 0
    return [Path(prefix + s).read_bytes() for s in (".trc", ".lbl")]


CASES = {
    # 16 rows per key and 9 rows per chunk: 48 rows end in a partial chunk.
    "logn3": ["--seed", "11", "--logn", "3", "--keys", "3"],
    "logn7": ["--seed", "5", "--logn", "7", "--keys", "2"],
    # One outer iteration of 26 * 8 + 7 samples: an odd trace length.
    "odd_length": ["--seed", "12", "--logn", "10", "--samples-per-outer-tail", "7"],
    # Key blocks of 2,048 and 1,024 rows, neither a multiple of the chunk.
    "three_keys": ["--seed", "13", "--keys", "3"],
    "negative_zero": ["--seed", "3", "--beta", "-0.0", "--noise-sigma", "0"],
}


class TestBytesEqualInMemoryCampaign:
    @pytest.fixture(scope="class")
    def reference(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("ref")
        return {name: _in_memory_pair(argv, str(root / name)) for name, argv in CASES.items()}

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_simulate_equals_in_memory(self, reference, tmp_path, name, threads):
        got = _simulate_pair(CASES[name], str(tmp_path / "camp"), threads)
        assert got[0] == reference[name][0], ".trc"
        assert got[1] == reference[name][1], ".lbl"

    def test_odd_length_is_odd(self):
        assert _flag_values(CASES["odd_length"])[4].trace_length % 2 == 1

    @pytest.mark.parametrize("threads", [1, 3, 8])
    def test_small_chunks_and_key_blocks(self, monkeypatch, tmp_path, threads):
        """Hundreds of 7-row chunks over 2-key blocks still come out in row order.

        Eight threads on a short switch interval interleave the workers
        as finely as the interpreter allows.
        """
        argv = ["--seed", "21", "--logn", "7", "--keys", "5"]
        want = _in_memory_pair(argv, str(tmp_path / "ref"))
        layout = _flag_values(argv)[4]
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", 7 * layout.trace_length)
        monkeypatch.setattr(leakage, "_KEY_BLOCK_ROWS", 600)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = _simulate_pair(argv, str(tmp_path / "camp"), threads)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    def test_rows_equal_scalar_sampler(self, tmp_path):
        """First, last and key-block boundary rows against the scalar oracle."""
        seed, keys, params, model, layout = _flag_values(CASES["three_keys"])
        prefix = str(tmp_path / "camp")
        _simulate_pair(CASES["three_keys"], prefix, 2)
        samples = traceio.read_trace_set(prefix + ".trc").samples
        values = traceio.read_label_set(prefix + ".lbl").values
        per_key = 2 * params.n
        table = default_table()
        for row in (0, 2 * per_key - 1, 2 * per_key, keys * per_key - 1):
            key, c = divmod(row, per_key)
            source = sampler.WordSource(
                seed=sampler.derive_subseed(seed, key), counter=2 * params.outer_count * c
            )
            coeff = sampler.sample_coefficient(table, params, source)
            want = leakage.synthesize_trace(
                coeff.leaks, model, layout, sampler.derive_subseed(seed, keys + row)
            )
            assert samples[row].tobytes() == want.tobytes(), row
            assert values[row] == coeff.value, row


@pytest.mark.parametrize("threads", [1, 3])
def test_render_draws_at_most_two_chunks_per_thread_ahead(threads):
    """One-row parts make one chunk each, so parts drawn count chunks submitted."""
    params, table = SamplerParams(logn=9), default_table()
    layout = TraceLayout.for_params(params, table)
    model = LeakModel()
    values, inner, neg = sampler.sample_keys([7], params, table)
    subseeds = sampler.words([7], 1, 40)[0]
    drawn = []

    def parts():
        for r in range(40):
            drawn.append(r)
            rows = slice(r, r + 1)
            yield traceio.LabelSet(values[rows], inner[rows], neg[rows]), subseeds[rows]

    whole = traceio.LabelSet(values[:40], inner[:40], neg[:40])
    want = np.concatenate(
        [samples for _, samples in leakage._render_blocks([(whole, subseeds)], model, layout)]
    )
    depth = leakage._CHUNKS_PER_THREAD * threads
    for r, (labels, samples) in enumerate(leakage._render_blocks(parts(), model, layout, threads)):
        assert len(drawn) == min(40, r + depth)
        assert labels.values.tolist() == [values[r]]
        assert samples.tobytes() == want[r : r + 1].tobytes()


def _listing(path):
    return sorted(os.listdir(path))


def _write_blocks(path, n_traces, n_samples, blocks):
    """A trace file from row blocks, written the way `simulate` writes its .trc."""
    with traceio.staged_files(path) as (fh,):
        writer = traceio.TraceWriter(fh, n_traces, n_samples, {})
        for block in blocks:
            writer.write(block)
        writer.finish()


class TestFailureLeavesNothing:
    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_overflow_exits_2_and_writes_nothing(self, capsys, tmp_path, threads):
        rc = main(["simulate", "--beta", "1e39", "--threads", threads,
                   "--out", str(tmp_path / "camp")])
        assert rc == 2
        assert "NaN or infinity" in capsys.readouterr().err
        assert _listing(tmp_path) == []

    def test_overflow_keeps_an_existing_pair(self, capsys, tmp_path):
        old = {".trc": b"old traces", ".lbl": b"old labels"}
        for suffix, blob in old.items():
            (tmp_path / ("camp" + suffix)).write_bytes(blob)
        assert main(["simulate", "--beta", "1e39", "--out", str(tmp_path / "camp")]) == 2
        capsys.readouterr()
        assert _listing(tmp_path) == ["camp.lbl", "camp.trc"]
        for suffix, blob in old.items():
            assert (tmp_path / ("camp" + suffix)).read_bytes() == blob

    def test_nan_in_last_block(self, tmp_path):
        blocks = [np.ones((3, 4), np.float32), np.ones((2, 4), np.float32)]
        blocks[-1][-1, -1] = np.nan
        with pytest.raises(NonFiniteSample):
            _write_blocks(tmp_path / "x.trc", 5, 4, blocks)
        assert _listing(tmp_path) == []

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_differs_from_header(self, tmp_path, rows):
        blocks = [np.ones((3, 4), np.float32), np.ones((rows - 3, 4), np.float32)]
        with pytest.raises(DimensionError):
            _write_blocks(tmp_path / "x.trc", 5, 4, blocks)
        assert _listing(tmp_path) == []

    def test_label_count_differs_from_header(self, tmp_path):
        _, labels, _ = synthesize_campaign(
            1, SamplerParams(logn=2), default_table(), LeakModel(), n_keys=1
        )
        with pytest.raises(DimensionError):
            with traceio.staged_files(tmp_path / "x.lbl") as (fh,):
                writer = traceio.LabelWriter(fh, labels.n_records + 1, labels.outer_count,
                                             labels.inner_count)
                writer.write(labels)
                writer.finish()
        assert _listing(tmp_path) == []

    def test_staged_pair_renames_neither_on_failure(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old a")
        with pytest.raises(RuntimeError):
            with traceio.staged_files(a, b) as (fa, fb):
                fa.write(b"new a")
                fb.write(b"new b")
                raise RuntimeError("second file failed")
        assert _listing(tmp_path) == ["a"]
        assert a.read_bytes() == b"old a"

    def test_staged_pair_renames_both(self, tmp_path):
        with traceio.staged_files(tmp_path / "a", tmp_path / "b") as (fa, fb):
            fa.write(b"a")
            fb.write(b"b")
        assert _listing(tmp_path) == ["a", "b"]


def _refuse(*args, **kwargs):
    raise AssertionError("keys sampled before the trace count was checked")


class TestTraceCountFitsHeader:
    def test_writer_checks_before_drawing_a_block(self, tmp_path):
        def blocks():
            raise AssertionError("block drawn")
            yield

        for make in (lambda: iter(()), blocks):
            with pytest.raises(DimensionError, match="does not fit"):
                _write_blocks(tmp_path / "x.trc", 2**32, 4, make())
        assert _listing(tmp_path) == []

    def test_writer_with_no_blocks_refuses_to_rename(self, tmp_path):
        with pytest.raises(DimensionError, match="0 rows written"):
            _write_blocks(tmp_path / "x.trc", 2**32 - 1, 4, iter(()))
        assert _listing(tmp_path) == []

    def test_label_writer(self, tmp_path):
        with pytest.raises(DimensionError, match="does not fit"):
            with traceio.staged_files(tmp_path / "x.lbl") as (fh,):
                traceio.LabelWriter(fh, 2**32, 2, 26)
        assert _listing(tmp_path) == []

    def test_campaign_boundary(self, monkeypatch):
        monkeypatch.setattr(leakage, "sample_keys", _refuse)
        params, table, model = SamplerParams(logn=1), default_table(), LeakModel()
        with pytest.raises(DimensionError, match="does not fit"):
            campaign_blocks(1, params, table, model, n_keys=2**30)
        with pytest.raises(DimensionError, match="does not fit"):
            synthesize_campaign(1, params, table, model, n_keys=2**30)
        # 2**32 - 4 rows fit; nothing is sampled until a block is drawn.
        _, blocks = campaign_blocks(1, params, table, model, n_keys=2**30 - 1)
        blocks.close()

    def test_simulate_keys(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(leakage, "sample_keys", _refuse)
        rc = main(["simulate", "--keys", str(2**22), "--out", str(tmp_path / "camp")])
        assert rc == 2
        assert "trace count 4294967296 does not fit" in capsys.readouterr().err
        assert _listing(tmp_path) == []


def test_config_duplicate_after_dash_mapping(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("noise-sigma = 3\nnoise_sigma = 9\n")
    rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "camp")])
    assert rc == 2
    assert "line 2: duplicate key 'noise_sigma'" in capsys.readouterr().err
    assert _listing(tmp_path) == ["run.cfg"]


def test_memory_does_not_grow_with_keys(tmp_path):
    """simulate's peak grows by far less than the .trc payload does.

    With one render thread, at most three float32 chunks and one block
    of keys are alive at a time, whatever --keys is.
    """
    peaks, payloads = [], []
    for keys in (2, 8):
        camp = str(tmp_path / f"camp{keys}")
        tracemalloc.start()
        try:
            rc, _ = _quiet("simulate", "--seed", "6", "--keys", str(keys), "--threads", "1",
                           "--out", camp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        with traceio.open_trace_set(camp + ".trc") as reader:
            payloads.append(4 * reader.n_traces * reader.n_samples)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 0.1 * (payloads[1] - payloads[0])
