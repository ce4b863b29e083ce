"""`simulate` streams its campaign into the .trc/.lbl pair.

Keys are sampled a block at a time, rendered in chunks on a pool of a
thread per usable core and written block by block through staged temp
files, so the output equals the in-memory campaign byte for byte while
the memory held does not grow with --keys, and a failure leaves no file
behind.
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
from cdtleak.errors import DomainError, LayoutMismatch, TraceFormatError
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    campaign_parts,
    render_blocks,
    synthesize_campaign,
)
from cdtleak.sampler import SamplerParams, default_table

from scripted import SequenceWordSource, plant_control_words


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
    layout = TraceLayout.for_params(params, default_table())
    return int(opts["--seed"]), int(opts.get("--keys", 1)), params, model, layout


def _in_memory_pair(argv, prefix):
    """synthesize_campaign with write_trace_set/write_label_set: the reference bytes."""
    seed, keys, params, model, layout = _flag_values(argv)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(leakage, "_usable_cores", lambda: 1)
        traces, labels = synthesize_campaign(
            seed=seed, params=params, table=default_table(), model=model, layout=layout,
            n_keys=keys,
        )
    traceio.write_trace_set(traces, prefix + ".trc")
    traceio.write_label_set(labels, prefix + ".lbl")
    return [Path(prefix + s).read_bytes() for s in (".trc", ".lbl")]


def _simulate_pair(argv, prefix, cores):
    """simulate's .trc/.lbl bytes, rendered as on `cores` usable cores."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(leakage, "_usable_cores", lambda: cores)
        rc, _ = _quiet("simulate", *argv, "--out", prefix)
    assert rc == 0
    return [Path(prefix + s).read_bytes() for s in (".trc", ".lbl")]


CASES = {
    # 16 rows per key and 9 rows per chunk: 48 rows end in a partial chunk.
    "logn3": ["--seed", "11", "--logn", "3", "--keys", "3"],
    "logn7": ["--seed", "5", "--logn", "7", "--keys", "2"],
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

    # Geometries that only the library sets: seed, logn, and the campaign's
    # keys or the profiling set's traces, with a tail of 7 samples.
    ODD = {
        # One outer iteration of 26 * 8 + 7 samples: an odd trace length.
        "odd_length": (12, 10, "campaign", 1),
        # Two of them, 430 samples: an even length with an odd half.
        "len430": (714, 9, "profiling", 10000),
    }

    @staticmethod
    def _odd_setup(name):
        seed, logn, kind, rows = TestBytesEqualInMemoryCampaign.ODD[name]
        params, table = SamplerParams(logn=logn), default_table()
        layout = TraceLayout.for_params(params, table, samples_per_outer_tail=7)
        return seed, params, table, layout, kind, rows

    def test_odd_length_is_odd(self):
        assert self._odd_setup("odd_length")[3].trace_length == 215
        assert self._odd_setup("len430")[3].trace_length == 430

    @pytest.mark.parametrize("name", sorted(ODD))
    def test_render_equals_in_memory(self, monkeypatch, name):
        """render_blocks on 1, 2 and 3 cores gives the bytes of the one-core in-memory set."""
        seed, params, table, layout, kind, rows = self._odd_setup(name)
        model = LeakModel()
        gather, parts = {
            "campaign": (synthesize_campaign, leakage.campaign_parts),
            "profiling": (leakage.synthesize_profiling_set, leakage.profiling_parts),
        }[kind]
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
        want, want_labels = gather(seed, params, table, model, layout, rows)
        for cores in (1, 2, 3):
            monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
            blocks = list(render_blocks(parts(seed, params, table, rows), model, layout))
            samples = np.concatenate([s for _, s in blocks])
            labels = traceio.LabelSet.concatenate([part for part, _ in blocks])
            assert samples.tobytes() == want.samples.tobytes(), cores
            assert labels.bits.tobytes() == want_labels.bits.tobytes(), cores
            assert labels.values.tobytes() == want_labels.values.tobytes(), cores

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
        argv = CASES["three_keys"]
        prefix = str(tmp_path / "camp")
        _simulate_pair(argv, prefix, 2)
        per_key = 2 * _flag_values(argv)[2].n
        _assert_rows_equal_oracle(argv, prefix, (0, 2 * per_key - 1, 2 * per_key, 3 * per_key - 1))


def _assert_rows_equal_oracle(argv, prefix, rows):
    """Rows of the simulate output at `prefix` equal sample_coefficient + synthesize_trace."""
    seed, keys, params, model, layout = _flag_values(argv)
    samples = traceio.read_trace_set(prefix + ".trc").samples
    values = traceio.read_label_set(prefix + ".lbl").values
    per_key = 2 * params.n
    table = default_table()
    for row in rows:
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


class TestTilesOnlySplitRows:
    """Row tiles inside a chunk change no byte of simulate or profile.

    Tiles of 5 rows divide neither the 23-row chunks nor the 512-row key
    blocks, so tiles end inside chunks, and chunks inside key blocks.
    """

    TILE, CHUNK = 5, 23

    @staticmethod
    def _split(monkeypatch, width, tile, chunk):
        monkeypatch.setattr(leakage, "_TILE_SAMPLES", tile * width)
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", chunk * width)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_simulate(self, monkeypatch, tmp_path, threads):
        argv = ["--seed", "22", "--logn", "7", "--keys", "5"]
        width = _flag_values(argv)[4].trace_length
        assert width % 2 == 0
        monkeypatch.setattr(leakage, "_KEY_BLOCK_ROWS", 600)
        # One tile per chunk: the untiled render.
        self._split(monkeypatch, width, self.CHUNK, self.CHUNK)
        want = _in_memory_pair(argv, str(tmp_path / "ref"))
        self._split(monkeypatch, width, self.TILE, self.CHUNK)
        prefix = str(tmp_path / "camp")
        assert _simulate_pair(argv, prefix, threads) == want
        # Tile ends at 4|5 and 19|20, chunk ends at 22|23, a key block's at 511|512.
        _assert_rows_equal_oracle(argv, prefix, (0, 4, 5, 19, 20, 22, 23, 511, 512, 1279))

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_profiling_set(self, monkeypatch, threads):
        seed, n_traces = 0x7113, 52
        params, table = SamplerParams(logn=9), default_table()
        model = LeakModel(noise_sigma=2.284)
        layout = TraceLayout.for_params(params, table)
        width = layout.trace_length

        def profile(cores):
            monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
            return leakage.synthesize_profiling_set(seed, params, table, model, n_traces=n_traces)

        self._split(monkeypatch, width, self.CHUNK, self.CHUNK)
        want, want_labels = profile(1)
        self._split(monkeypatch, width, self.TILE, self.CHUNK)
        traces, labels = profile(threads)
        assert traces.samples.tobytes() == want.samples.tobytes()
        assert labels.values.tobytes() == want_labels.values.tobytes()
        assert labels.bits.tobytes() == want_labels.bits.tobytes()
        # Tile ends at 4|5 and 27|28, chunk ends at 22|23 and 45|46; the
        # planted halves meet at 25|26.
        for row in (0, 4, 5, 22, 23, 25, 26, 27, 28, 45, 46, 51):
            plant = sampler.WordSource(seed=sampler.derive_subseed(seed, row))
            slot = 1 if row < n_traces // 2 else None
            first = plant_control_words(table, row & 1, slot, plant)
            source = SequenceWordSource(list(first), fallback=plant)
            coeff = sampler.sample_coefficient(table, params, source)
            trace = leakage.synthesize_trace(
                coeff.leaks, model, layout, sampler.derive_subseed(seed, n_traces + row)
            )
            assert traces.samples[row].tobytes() == trace.tobytes(), row
            assert labels.values[row] == coeff.value, row


@pytest.mark.parametrize("threads", [1, 3])
def test_render_draws_at_most_two_chunks_per_thread_ahead(monkeypatch, threads):
    """One-row parts make one chunk each, so parts drawn count chunks submitted."""
    params, table = SamplerParams(logn=9), default_table()
    layout = TraceLayout.for_params(params, table)
    model = LeakModel()
    values, bits = sampler.sample_keys([7], params, table)
    subseeds = sampler.words([7], 1, 40)[0]
    drawn = []

    def parts():
        for r in range(40):
            drawn.append(r)
            rows = slice(r, r + 1)
            yield traceio.LabelSet(values[rows], bits[rows]), subseeds[rows]

    whole = traceio.LabelSet(values[:40], bits[:40])
    monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
    want = np.concatenate(
        [samples for _, samples in leakage.render_blocks([(whole, subseeds)], model, layout)]
    )
    depth = leakage._CHUNKS_PER_THREAD * threads
    monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)
    for r, (labels, samples) in enumerate(leakage.render_blocks(parts(), model, layout)):
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
    @pytest.mark.parametrize("cores", [1, 2])
    def test_overflow_exits_2_and_writes_nothing(self, monkeypatch, capsys, tmp_path, cores):
        monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
        rc = main(["simulate", "--beta", "1e39", "--out", str(tmp_path / "camp")])
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
        with pytest.raises(TraceFormatError, match="^trace payload contains NaN or infinity$"):
            _write_blocks(tmp_path / "x.trc", 5, 4, blocks)
        assert _listing(tmp_path) == []

    @pytest.mark.parametrize("rows", [4, 6])
    def test_row_count_differs_from_header(self, tmp_path, rows):
        blocks = [np.ones((3, 4), np.float32), np.ones((rows - 3, 4), np.float32)]
        with pytest.raises(LayoutMismatch, match=f"^{rows} rows written, header declares 5$"):
            _write_blocks(tmp_path / "x.trc", 5, 4, blocks)
        assert _listing(tmp_path) == []

    def test_label_count_differs_from_header(self, tmp_path):
        _, labels = synthesize_campaign(
            1, SamplerParams(logn=2), default_table(), LeakModel(), n_keys=1
        )
        message = f"^{labels.n_records} rows written, header declares {labels.n_records + 1}$"
        with pytest.raises(LayoutMismatch, match=message):
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

    def test_staged_pair_onto_a_directory_renames_neither(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"old a")
        b.mkdir()
        with pytest.raises(IsADirectoryError):
            with traceio.staged_files(a, b) as (fa, fb):
                fa.write(b"new a")
                fb.write(b"new b")
        assert _listing(tmp_path) == ["a", "b"]
        assert a.read_bytes() == b"old a"

    def test_staged_file_replaces_a_link_to_a_directory(self, tmp_path):
        (tmp_path / "d").mkdir()
        (tmp_path / "a").symlink_to("d")
        with traceio.staged_files(tmp_path / "a") as (fa,):
            fa.write(b"a")
        assert (tmp_path / "a").read_bytes() == b"a"
        assert _listing(tmp_path) == ["a", "d"]

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
            with pytest.raises(DomainError, match="does not fit the 32-bit header field"):
                _write_blocks(tmp_path / "x.trc", 2**32, 4, make())
        assert _listing(tmp_path) == []

    def test_writer_with_no_blocks_refuses_to_rename(self, tmp_path):
        with pytest.raises(LayoutMismatch, match="^0 rows written, header declares 4294967295$"):
            _write_blocks(tmp_path / "x.trc", 2**32 - 1, 4, iter(()))
        assert _listing(tmp_path) == []

    def test_label_writer(self, tmp_path):
        with pytest.raises(DomainError, match="does not fit the 32-bit header field"):
            with traceio.staged_files(tmp_path / "x.lbl") as (fh,):
                traceio.LabelWriter(fh, 2**32, 2, 26)
        assert _listing(tmp_path) == []

    def test_campaign_boundary(self, monkeypatch):
        monkeypatch.setattr(leakage, "sample_keys", _refuse)
        params, table, model = SamplerParams(logn=1), default_table(), LeakModel()
        with pytest.raises(DomainError, match="does not fit the 32-bit header field"):
            campaign_parts(1, params, table, n_keys=2**30)
        with pytest.raises(DomainError, match="does not fit the 32-bit header field"):
            synthesize_campaign(1, params, table, model, n_keys=2**30)
        for seed, n_keys in ((1, 0), (2**64, 1), (-1, 1)):
            with pytest.raises(DomainError):
                campaign_parts(seed, params, table, n_keys)
        # 2**32 - 4 rows fit; nothing is sampled until a block is drawn.
        parts = campaign_parts(1, params, table, n_keys=2**30 - 1)
        blocks = render_blocks(parts, model, TraceLayout.for_params(params, table))
        blocks.close()
        parts.close()

    def test_simulate_keys(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(leakage, "sample_keys", _refuse)
        rc = main(["simulate", "--keys", str(2**22), "--out", str(tmp_path / "camp")])
        assert rc == 2
        assert "trace count 4294967296 does not fit" in capsys.readouterr().err
        assert _listing(tmp_path) == []


def test_memory_does_not_grow_with_keys(monkeypatch, tmp_path):
    """simulate's peak grows by far less than the .trc payload does.

    With one render thread, at most three float32 chunks and one block
    of keys are alive at a time, whatever --keys is.
    """
    peaks, payloads = [], []
    monkeypatch.setattr(leakage, "_usable_cores", lambda: 1)
    for keys in (2, 8):
        camp = str(tmp_path / f"camp{keys}")
        tracemalloc.start()
        try:
            rc, _ = _quiet("simulate", "--seed", "6", "--keys", str(keys), "--out", camp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        with traceio.open_trace_set(camp + ".trc") as reader:
            payloads.append(4 * reader.n_traces * reader.n_samples)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 0.1 * (payloads[1] - payloads[0])


def test_render_scratch_is_tile_sized(monkeypatch):
    """Draining two threads' campaign over 4 keys stays under a bound set by the constants.

    The bound is each thread's tile scratch, the float32 chunks pending on
    the pool plus the one the caller holds, one key block, and 1 MiB of
    slack. On the fast step a thread's scratch is 3 tiles: a float64
    buffer, uint64 words and their shift temp. Scratch as big as a chunk
    would exceed that bound by more than 6 MiB. At beta = 0 most rows are
    rendered again, and the exact step on a tile of rows holds 5 tiles
    beside the buffer: the words, _box_muller's six half-width arrays and
    its result.
    """
    params, table, threads = SamplerParams(logn=9), default_table(), 2
    monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)
    layout = TraceLayout.for_params(params, table)
    width = layout.trace_length
    assert width % 2 == 0
    chunk_rows = leakage._CHUNK_SAMPLES // width
    tile_rows = leakage._TILE_SAMPLES // width
    chunks = (leakage._CHUNKS_PER_THREAD * threads + 1) * chunk_rows * width * 4
    # Per row: the value (int32), the mask bits, the noise sub-seed and the sampler's draws.
    sites = layout.outer_count * (layout.inner_count + 1)
    key_block = leakage._KEY_BLOCK_ROWS * (4 + sites + 8 + 2 * layout.outer_count * 8)
    for model, tiles in [(LeakModel(), 3), (LeakModel(beta=0.0), 1 + 5)]:
        scratch = threads * tiles * tile_rows * width * 8
        bound = scratch + chunks + key_block + (1 << 20)
        tracemalloc.start()
        try:
            parts = campaign_parts(5, params, table, n_keys=4)
            blocks = render_blocks(parts, model, layout)
            rows = sum(len(samples) for _, samples in blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == 4 * 2 * params.n
        assert peak < bound, (model, peak, bound)
