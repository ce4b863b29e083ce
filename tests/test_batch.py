"""Batch sampler, planting, render and margin paths against their oracles.

The campaign and profiling paths run on arrays: one words() call per key
or trace, one scan_words() over all coefficients, and a chunked in-place
render, and the attack computes margins with one row-blocked kernel.
Each test here runs the scalar or per-site path (WordSource,
sample_coefficient, scripted.plant_control_words, synthesize_trace, and
_margin_columns below) on the same inputs and requires equal results,
bit for bit.
"""

import ast
import builtins
import hashlib
import importlib
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak import leakage, recover, sampler, template, traceio
from cdtleak.cli import main
from cdtleak.errors import DomainError
from cdtleak.leakage import (
    LeakModel,
    TraceLayout,
    synthesize_campaign,
    synthesize_profiling_set,
    synthesize_trace,
)
from cdtleak.sampler import (
    MASK63,
    MASK64,
    GaussCdtTable,
    SamplerParams,
    WordSource,
    default_table,
    derive_subseed,
    sample_coefficient,
    sample_keys,
    scan_words,
    splitmix64,
    word_block,
    words,
    words_at,
)
from cdtleak.template import Template

from scripted import SequenceWordSource, plant_control_words

# Tied tail entries, a zero tail entry, and entries[0] == 0 (the zero
# branch can never be taken).
TIED_TABLE = GaussCdtTable(entries=(0, 7 << 59, 5 << 59, 5 << 59, 2 << 59, 2 << 59, 0))
TABLES = {"default": default_table(), "tied": TIED_TABLE}

seeds64 = st.integers(min_value=0, max_value=MASK64)


def _oracle_arrays(coeffs):
    """Label arrays read off scalar SecretCoefficient records."""
    values = np.array([c.value for c in coeffs], dtype=np.int32)
    inner = np.array(
        [[[m == MASK64 for m in rec.inner_masks] for rec in c.leaks] for c in coeffs]
    )
    neg = np.array([[rec.neg_mask == MASK64 for rec in c.leaks] for c in coeffs])
    return values, inner, neg


def _assert_scan_matches(table, draws, coeffs):
    values, bits = scan_words(table, draws)
    inner, neg = bits[..., :-1], bits[..., -1]
    want_values, want_inner, want_neg = _oracle_arrays(coeffs)
    assert values.dtype == np.int32
    assert np.array_equal(values, want_values)
    assert np.array_equal(inner, want_inner)
    assert np.array_equal(neg, want_neg)


class TestWords:
    @settings(max_examples=50, deadline=None)
    @given(
        seeds=st.lists(seeds64, min_size=1, max_size=4),
        start=st.integers(min_value=0, max_value=MASK64),
        count=st.integers(min_value=0, max_value=9),
        counters=st.lists(st.one_of(st.just(MASK64), seeds64), max_size=6),
    )
    def test_rows_equal_word_source(self, seeds, start, count, counters):
        block = words(seeds, start, count)
        assert block.shape == (len(seeds), count)
        assert block.dtype == np.uint64
        for row, seed in zip(block, seeds):
            source = WordSource(seed=seed, counter=start)
            assert [int(w) for w in row] == [source.next_u64() for _ in range(count)]
        # A counter list, in any order and with repeats: column j is the
        # word at counters[j]. The last counter, 2**64 - 1, wraps to 0, so
        # its word mixes the seed itself.
        counters = [*counters, MASK64]
        block = words_at(seeds, counters)
        assert block.shape == (len(seeds), len(counters))
        assert block.dtype == np.uint64
        for row, seed in zip(block, seeds):
            want = [WordSource(seed=seed, counter=c).next_u64() for c in counters]
            assert [int(w) for w in row] == want
            assert int(row[-1]) == splitmix64(seed)

    def test_start_of_64_bits_only(self):
        # As WordSource refuses such a counter, never a wrap mod 2**64.
        for start in (-1, -(2**64), MASK64 + 1, 2**64 + 5):
            with pytest.raises(DomainError, match="start must be a 64-bit value"):
                words([1], start, 1)
            with pytest.raises(DomainError, match="start must be a 64-bit value"):
                word_block(1, start, 2)
            with pytest.raises(DomainError, match="counter must be a 64-bit value"):
                WordSource(seed=1, counter=start)
        for index in (-1, MASK64 + 1):
            with pytest.raises(DomainError, match="index must be a 64-bit value"):
                derive_subseed(1, index)
        assert derive_subseed(1, MASK64) == WordSource(seed=1, counter=MASK64).next_u64()

    @pytest.mark.parametrize("seed", [0, 1, MASK64])
    def test_counter_wraps_while_advancing(self, seed):
        source = WordSource(seed=seed, counter=MASK64)
        assert word_block(seed, MASK64, 2).tolist() == [source.next_u64(), source.next_u64()]
        assert source.counter == 1

    def test_subseed_of_a_64_bit_seed_only(self):
        # Seeds outside 64 bits are refused, as WordSource refuses them.
        for seed in (0, MASK64):
            assert derive_subseed(seed, 6) == WordSource(seed=seed, counter=6).next_u64()
        for seed in (-1, -5, MASK64 + 3):
            with pytest.raises(DomainError, match="seed must be a 64-bit value"):
                derive_subseed(seed, 6)


class TestScanWords:
    @pytest.mark.parametrize("table_name", sorted(TABLES))
    @pytest.mark.parametrize("logn", [10, 8])
    @settings(max_examples=25, deadline=None)
    @given(seed=seeds64)
    def test_equals_scalar_scan_on_random_streams(self, table_name, logn, seed):
        table = TABLES[table_name]
        params = SamplerParams(logn=logn)
        rows = 12
        draws = words([seed], 0, rows * 2 * params.outer_count)
        source = WordSource(seed=seed)
        coeffs = [sample_coefficient(table, params, source) for _ in range(rows)]
        _assert_scan_matches(table, draws.reshape(rows, params.outer_count, 2), coeffs)

    @pytest.mark.parametrize("table_name", sorted(TABLES))
    def test_words_at_each_threshold(self, table_name):
        """Draws exactly at, one below and one above every entry."""
        table = TABLES[table_name]
        params = SamplerParams(logn=10)
        lows = {0, 1, MASK63 - 1, MASK63}
        for e in table.entries:
            lows.update(x for x in (e - 1, e, e + 1) if 0 <= x <= MASK63)
        pairs = [
            (sign1 | low1, sign2 | low2)
            for sign1 in (0, 1 << 63)
            for sign2 in (0, 1 << 63)
            for low1 in sorted(lows)
            for low2 in sorted(lows)
        ]
        coeffs = [
            sample_coefficient(table, params, SequenceWordSource(pair)) for pair in pairs
        ]
        draws = np.array(pairs, dtype=np.uint64).reshape(len(pairs), 1, 2)
        _assert_scan_matches(table, draws, coeffs)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            scan_words(default_table(), np.zeros((4, 2), dtype=np.uint64))

    def test_sample_keys_equals_scalar_stream(self):
        # The 2n coefficients of key seed s are the ones WordSource(s) gives, in order.
        params = SamplerParams(logn=7)
        table = default_table()
        want = []
        for seed in (0x5151, 0x5152):
            source = WordSource(seed=seed)
            want += [sample_coefficient(table, params, source) for _ in range(2 * params.n)]
        values, bits = sample_keys([0x5151, 0x5152], params, table)
        inner, neg = bits[..., :-1], bits[..., -1]
        want_values, want_inner, want_neg = _oracle_arrays(want)
        assert values.dtype == np.int32
        assert np.array_equal(values, want_values)
        assert np.array_equal(inner, want_inner)
        assert np.array_equal(neg, want_neg)


class TestPlantedProfiling:
    def test_rows_equal_plant_and_scan(self, monkeypatch):
        seed, n_traces = 0xB0B + 1, 14
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        params = SamplerParams(logn=9)
        table = default_table()
        model = LeakModel()
        layout = TraceLayout.for_params(params, table)
        traces, labels = synthesize_profiling_set(
            seed=seed, params=params, table=table, model=model,
            n_traces=n_traces,
        )
        coeffs = []
        for i in range(n_traces):
            plant = WordSource(seed=derive_subseed(seed, i))
            slot = 1 if i < n_traces // 2 else None
            w1, w2 = plant_control_words(table, neg_bit=i & 1, fire_slot=slot, source=plant)
            source = SequenceWordSource([w1, w2], fallback=plant)
            coeffs.append(sample_coefficient(table, params, source))
        want_values, want_inner, want_neg = _oracle_arrays(coeffs)
        assert np.array_equal(labels.values, want_values)
        assert np.array_equal(labels.inner_bits, want_inner)
        assert np.array_equal(labels.neg_bits, want_neg)
        for i, coeff in enumerate(coeffs):
            want = synthesize_trace(
                coeff.leaks, model, layout, derive_subseed(seed, n_traces + i)
            )
            assert np.array_equal(traces.samples[i], want)


class TestRender:
    def _case(self, rows, layout_kw, seed=0x7E57):
        params = SamplerParams(logn=9)
        table = default_table()
        layout = TraceLayout.for_params(params, table, **layout_kw)
        source = WordSource(seed=seed)
        coeffs = [sample_coefficient(table, params, source) for _ in range(rows)]
        draws = words([seed], 0, rows * 2 * params.outer_count)
        _, bits = scan_words(table, draws.reshape(rows, params.outer_count, 2))
        subseeds = words([seed], 1, rows)[0]
        return coeffs, bits, layout, subseeds

    @staticmethod
    def _render(bits, model, layout, subseeds):
        """Render many rows of leak bits into one matrix, as synthesize_profiling_set does."""
        labels = traceio.LabelSet(np.zeros(len(subseeds), np.int32), bits)
        blocks = leakage.render_blocks([(labels, subseeds)], model, layout)
        return np.concatenate([samples for _, samples in blocks])

    @pytest.mark.parametrize("cores", [1, 2, 3])
    @pytest.mark.parametrize(
        "layout_kw", [{}, {"samples_per_outer_tail": 3, "leak_offset_neg": 2}]
    )
    def test_rows_equal_synthesize_trace(self, monkeypatch, cores, layout_kw):
        # Five rows per chunk: 23 rows make four full chunks and a partial one.
        coeffs, bits, layout, subseeds = self._case(23, layout_kw)
        width = 2 * ((layout.trace_length + 1) // 2)
        monkeypatch.setattr(leakage, "_CHUNK_SAMPLES", 5 * width)
        monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
        model = LeakModel(noise_sigma=2.284, beta=-3.25, alpha=0.7)
        out = self._render(bits, model, layout, subseeds)
        assert out.dtype == np.float32
        for r, coeff in enumerate(coeffs):
            want = synthesize_trace(coeff.leaks, model, layout, int(subseeds[r]))
            assert np.array_equal(out[r], want)

    def test_default_chunk_boundary(self, monkeypatch):
        model = LeakModel()
        coeffs, bits, layout, subseeds = self._case(700, {})
        chunk = leakage._CHUNK_SAMPLES // layout.trace_length
        assert chunk < 700
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        out = self._render(bits, model, layout, subseeds)
        for r in (0, chunk - 1, chunk, 699):
            want = synthesize_trace(coeffs[r].leaks, model, layout, int(subseeds[r]))
            assert np.array_equal(out[r], want)


@pytest.mark.parametrize("cores", [1, 2])
def test_negative_zero_baseline_equals_synthesize_trace(monkeypatch, tmp_path, capsys, cores):
    """beta = -0.0 without noise: every sample keeps synthesize_trace's sign of zero."""
    seed, out = 3, str(tmp_path / "z")
    argv = ["simulate", "--seed", str(seed), "--beta", "-0.0", "--noise-sigma", "0"]
    monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
    assert main(argv + ["--out", out]) == 0
    capsys.readouterr()
    samples = traceio.read_trace_set(out + ".trc").samples
    params = SamplerParams(logn=9)
    table = default_table()
    layout = TraceLayout.for_params(params, table)
    model = LeakModel(beta=-0.0, noise_sigma=0.0)
    source = WordSource(seed=derive_subseed(seed, 0))
    for r in range(2 * params.n):
        coeff = sample_coefficient(table, params, source)
        want = synthesize_trace(coeff.leaks, model, layout, derive_subseed(seed, 1 + r))
        assert samples[r].tobytes() == want.tobytes(), r


def test_batch_paths_build_no_coefficient_records(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SecretCoefficient built on a batch path")

    monkeypatch.setattr(sampler, "SecretCoefficient", refuse)
    params = SamplerParams(logn=9)
    table = default_table()
    _, labels = synthesize_campaign(
        seed=3, params=params, table=table, model=LeakModel(), n_keys=2
    )
    assert labels.n_records == 2048
    synthesize_profiling_set(
        seed=4, params=params, table=table, model=LeakModel(), n_traces=8
    )


# SHA-256 of CLI outputs written by the scalar sampler and the earlier
# render, recorded with numpy 2.4.6. Other numpy builds may round the
# transcendental functions of the noise differently.
GOLDEN_NUMPY = "2.4.6"
GOLDEN = {
    ("simulate", ".trc"): "055573eae52a6b58681fb318c98b1712737ec8f3bc26c100a72e609877a764c1",
    ("simulate", ".lbl"): "3e8ed5f5472f15a092c05c8fa677a92274bf58d365adfa67c90fe8c346852369",
    ("profile", ".inner.tpl"): "933c42572b0b566f3d949bd036388df07d750d4e9cea90c1fa94ddb9aa771fe0",
    ("profile", ".neg.tpl"): "ccc4b9d2f2489bb03794638b5742e141a2f939d9a8ba9cd9889b93efe2609129",
}


# SHA-256 of the report of `attack` on the GOLDEN simulate and profile
# outputs, recorded with the exact (erf/erfc) overlap.
GOLDEN_REPORT = "afb436e8ad09b92675f931c69363589d877bf614900117765caee44c152bebad"


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
)
def test_golden_report_bytes(tmp_path, capsys):
    camp, tpl = str(tmp_path / "camp"), str(tmp_path / "tpl")
    assert main(["simulate", "--seed", "20260819", "--keys", "1", "--out", camp]) == 0
    assert main(["profile", "--seed", "714", "--traces", "1000", "--out", tpl]) == 0
    assert main(["attack", "--in", camp, "--templates", tpl]) == 1
    assert "coefficients correct: 1022/1024" in capsys.readouterr().out
    with open(camp + ".report.txt", "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == GOLDEN_REPORT


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
)
def test_golden_output_bytes(tmp_path, capsys):
    out = {"simulate": str(tmp_path / "camp"), "profile": str(tmp_path / "tpl")}
    assert main(["simulate", "--seed", "20260819", "--keys", "1", "--out", out["simulate"]]) == 0
    assert main(["profile", "--seed", "714", "--traces", "1000", "--out", out["profile"]]) == 0
    capsys.readouterr()
    for (command, suffix), digest in GOLDEN.items():
        with open(out[command] + suffix, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, command + suffix


def _margin_columns(samples: np.ndarray, tpl: Template, site_index: int) -> np.ndarray:
    """Signed log-likelihood margin of every trace at one leak site.

    The reference for recover._DecodeCore.margins: one column pass per class.
    """
    x = samples[:, site_index].astype(np.float64)
    s0, s1 = tpl.class0, tpl.class1
    ll0 = -0.5 * (np.log(2.0 * np.pi * s0.var) + (x - s0.mu) ** 2 / s0.var)
    ll1 = -0.5 * (np.log(2.0 * np.pi * s1.var) + (x - s1.mu) ** 2 / s1.var)
    return ll1 - ll0


class TestSiteMargins:
    """recover._DecodeCore.margins against the per-site reference _margin_columns."""

    @pytest.fixture(scope="class")
    def readme_templates(self, tmp_path_factory):
        prefix = str(tmp_path_factory.mktemp("tpl") / "tpl")
        argv = ["profile", "--seed", "714", "--noise-sigma", "2.284", "--traces", "10000"]
        assert main(argv + ["--out", prefix]) == 0
        return {
            name: template.load_template(f"{prefix}.{name}.tpl") for name in ("inner", "neg")
        }

    @pytest.mark.parametrize("name", ["inner", "neg"])
    def test_equals_margin_columns(self, readme_templates, name):
        tpl = readme_templates[name]
        layout = TraceLayout.for_params(SamplerParams(logn=9), default_table())
        sites = layout.site_matrix().reshape(-1)
        rows = 1027  # one full block of 1,024 rows and a partial one
        assert rows % recover._BLOCK_ROWS
        rng = np.random.default_rng(0x51735)
        samples = rng.normal(40.0, 4.0, (rows, layout.trace_length))
        samples[:, sites] += 16.0 * rng.integers(0, 2, (rows, len(sites)))
        samples = samples.astype(np.float32)
        core = recover._DecodeCore(tpl, tpl, layout, rows)
        site_blocks = [samples[:, c] for c in core.columns]
        point_sites = layout.site_matrix()[:, :-1].reshape(-1), layout.site_matrix()[:, -1]
        for t, at in enumerate(point_sites):
            got = core.margins(site_blocks, t)
            want = np.stack([_margin_columns(samples, tpl, s) for s in at], axis=1)
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
            assert (got > 0).any() and (got < 0).any()


# Overlap areas computed once at 400 significant digits.
@pytest.mark.parametrize(
    "args, area",
    [
        ((0, 1, 1, 2), 0.654359914853692444901290531925351664304964083405907616209328447122856639652273753162137112119049484485465),
        ((40, 16, 56, 20), 0.0588428121015456742198393289227500257980913003692585077938054183951915474501623553819051519917984105854101),
        ((0, 1, 0, 4), 0.677325431165231335247795148704899236917888239285933673833827609771635780884363527626575431187830311303442),
    ],
)
def test_numeric_overlap_areas(args, area):
    assert template.gaussian_overlap(*args) == pytest.approx(area, rel=1e-14, abs=0.0)


def test_benchmark_check_names_exist():
    """Every sampler, leakage, recover and traceio name perfbench/checks.py uses exists.

    The benchmark's output checks call the package as a library; a name
    removed from the package would only fail there, at benchmark time.
    """
    checks = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    tree = ast.parse(checks.read_text(encoding="utf-8"))
    modules = ("sampler", "leakage", "recover", "traceio")
    used = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    assert used
    missing = [
        f"{module}.{name}"
        for module, name in sorted(used)
        if not hasattr(importlib.import_module(f"cdtleak.{module}"), name)
    ]
    assert not missing


def test_benchmark_checks_accept_outputs(tmp_path, capsys, monkeypatch):
    """perfbench/checks.py passes a one-key simulate, a profile and an attack.

    Its checks read LabelSet.inner_bits and neg_bits and compare rows
    against the scalar sampler and render, which the name check above
    does not run. The benchmark modules are imported, not changed.
    """
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    for name in ("checks", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    checks = importlib.import_module("checks")
    paths = importlib.import_module("workloads").Paths.under(str(tmp_path))
    seed = 12
    rc = main(["simulate", "--seed", str(seed), "--keys", "1", "--out", paths.campaign])
    checks.check_simulate(rc, seed, paths, keys=1)
    rc = main(["profile", "--seed", str(seed), "--traces", "2000", "--out", paths.templates])
    checks.check_profile(rc, capsys.readouterr().out, paths)
    argv = ["attack", "--in", paths.campaign, "--templates", paths.templates]
    rc = main(argv + ["--out", paths.campaign])
    checks.check_attack(rc, capsys.readouterr().out, paths)


def test_no_unused_imports():
    """Every name an import binds in src/cdtleak/*.py and tests/*.py is referenced.

    `from __future__` imports bind no name that code refers to, so they
    are exempt.
    """
    root = Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*root.glob("src/cdtleak/*.py"), *root.glob("tests/*.py")]):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in referenced:
                        unused.append(f"{path.relative_to(root)}: {name}")
    assert unused == []


def _src_trees(root: Path) -> dict:
    return {path: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(root.glob("src/cdtleak/*.py"))}


def _references(node, skip):
    """The names and attribute names under node, outside the subtree skip."""
    if node is skip:
        return
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    for child in ast.iter_child_nodes(node):
        yield from _references(child, skip)


def _unreferenced(trees: dict, private: bool) -> list:
    """Module-level functions and classes, private or public, that no src module refers to.

    A reference is a name or an attribute outside the definition itself;
    a docstring or comment that names it is not one.
    """
    return [(path, node.name)
            for path, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and (node.name[0] == "_") == private
            and not any(node.name in _references(other, node) for other in trees.values())]


def test_no_unreferenced_public_names():
    """Every public module-level function and class in src/cdtleak/*.py is reached.

    A name counts as reached when some src module refers to it, as a name
    or an attribute, outside its own definition, or when
    perfbench/checks.py or README.md names it. Whatever else is public
    is code that no command, no benchmark check and no documented library
    use runs.
    """
    root = Path(__file__).resolve().parents[1]
    named = "".join((root / p).read_text(encoding="utf-8")
                    for p in ("perfbench/checks.py", "README.md"))
    unreached = [f"{path.relative_to(root)}: {name}"
                 for path, name in _unreferenced(_src_trees(root), private=False)
                 if not re.search(rf"\b{name}\b", named)]
    assert unreached == []


def test_no_test_only_private_names():
    """Every private module-level function and class in src/cdtleak/*.py is used by src.

    Some src module must refer to it, as a name or an attribute, outside
    its own definition. One that only tests call belongs under tests/.
    """
    root = Path(__file__).resolve().parents[1]
    unused = [f"{path.relative_to(root)}: {name}"
              for path, name in _unreferenced(_src_trees(root), private=True)]
    assert unused == []


def test_error_vocabulary():
    """The package's errors are the seven of cdtleak.errors, each of them used.

    errors.py defines exactly these classes, and no other module defines
    a subclass of one. A raise that names a class, not a builtin
    exception or a variable, names one of them other than the base
    CdtLeakError. Every class errors.py defines is raised or subclassed.
    """
    vocabulary = {"CdtLeakError", "DomainError", "LayoutMismatch", "TableFormatError",
                  "TemplateFormatError", "ReportFormatError", "TraceFormatError"}
    root = Path(__file__).resolve().parents[1]
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(root.glob("src/cdtleak/*.py"))}
    assert {n.name for n in trees["errors.py"].body if isinstance(n, ast.ClassDef)} == vocabulary
    used, wrong = set(), []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                used |= bases
                if bases & vocabulary and name != "errors.py":
                    wrong.append(f"{name}: class {node.name}")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", "")
                used.add(raised)
                if raised[:1].isupper() and not hasattr(builtins, raised) and (
                        raised not in vocabulary - {"CdtLeakError"}):
                    wrong.append(f"{name}: raise {raised}")
    assert wrong == []
    assert vocabulary <= used
