"""End-to-end command-line tests, run in-process through main().

The full pipeline fixture simulates one key at 2.284 mV noise (about a
13 sigma class separation, comfortably recoverable from single traces),
profiles templates, and attacks. Failure-path tests use 12 mV noise,
where per-site errors are frequent enough that a 1024-coefficient key
cannot survive, so the attack must report a miss via exit code 1.
"""

import argparse
import contextlib
import dataclasses
import io
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from cdtleak import leakage, recover, traceio
from cdtleak.cli import _build_parser, main
from cdtleak.recover import load_report
from cdtleak.sampler import SamplerParams, default_table
from cdtleak.template import encode_template, load_template
from test_template import TWO_POI_TPL

LOW_NOISE = "2.284"

# Flags for TraceLayout's geometry fields, which no command takes: the library
# and the .trc metadata set the geometry.
GEOMETRY_FLAGS = ["--samples-per-inner", "--samples-per-outer-tail", "--leak-offset-inner",
                  "--leak-offset-neg"]


# The --help text of each subcommand, at 80 columns.
HELP = {
    "simulate": """\
usage: cdtleak simulate [-h] [--seed SEED] [--logn LOGN] [--table TABLE]
                        [--alpha ALPHA] [--beta BETA]
                        [--noise-sigma NOISE_SIGMA] [--keys KEYS] --out OUT

options:
  -h, --help            show this help message and exit
  --seed SEED           master 64-bit seed
  --logn LOGN           ring dimension exponent
  --table TABLE         CDT table file
  --alpha ALPHA         leak per mask bit, mV
  --beta BETA           baseline level, mV
  --noise-sigma NOISE_SIGMA
                        noise standard deviation, mV
  --keys KEYS           number of keys to generate
  --out OUT             output prefix
""",
    "profile": """\
usage: cdtleak profile [-h] [--seed SEED] [--logn LOGN] [--table TABLE]
                       [--alpha ALPHA] [--beta BETA]
                       [--noise-sigma NOISE_SIGMA] [--traces TRACES] --out OUT

options:
  -h, --help            show this help message and exit
  --seed SEED           master 64-bit seed
  --logn LOGN           ring dimension exponent
  --table TABLE         CDT table file
  --alpha ALPHA         leak per mask bit, mV
  --beta BETA           baseline level, mV
  --noise-sigma NOISE_SIGMA
                        noise standard deviation, mV
  --traces TRACES       profiling traces
  --out OUT             template output prefix
""",
    "attack": """\
usage: cdtleak attack [-h] --in INP --templates TEMPLATES [--out OUT]

options:
  -h, --help            show this help message and exit
  --in INP              campaign prefix (.trc plus optional .lbl)
  --templates TEMPLATES
                        template prefix (expects .inner.tpl and .neg.tpl)
  --out OUT             report prefix
""",
    "analyze": """\
usage: cdtleak analyze [-h] [--p-inner P_INNER] [--p-neg P_NEG]
                       [--templates TEMPLATES] [--inner INNER] [--outer OUTER]
                       [--n N]

options:
  -h, --help            show this help message and exit
  --p-inner P_INNER     per-site success at inner mask sites
  --p-neg P_NEG         per-site success at sign mask sites
  --templates TEMPLATES
                        derive per-site success from template files (prefix)
  --inner INNER         inner iterations
  --outer OUTER         outer iterations
  --n N                 coefficients per polynomial
""",
    "report": """\
usage: cdtleak report [-h] path

positional arguments:
  path        report file

options:
  -h, --help  show this help message and exit
""",
}


def _subparsers():
    """Each subcommand's parser, by name."""
    (action,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


# The arguments each command needs to parse, and nothing more.
REQUIRED = {
    "simulate": ["--out", "x"],
    "profile": ["--out", "x"],
    "attack": ["--in", "x", "--templates", "x"],
    "analyze": [],
    "report": ["x"],
}

# Every long option of every subcommand, one character short. "--n" is
# left out: cut, it is "--", the end-of-options marker, not a flag.
ABBREVIATIONS = [
    (command, option[:-1])
    for command, sub in _subparsers().items()
    for action in sub._actions
    for option in action.option_strings
    if option.startswith("--") and len(option) > 3
]


def _run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def _quiet(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(list(argv))
    return rc, buf.getvalue()


def _line(out, prefix):
    matches = [l for l in out.splitlines() if l.startswith(prefix)]
    assert matches, f"no line starting with {prefix!r} in:\n{out}"
    return matches[0]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    camp = str(root / "camp")
    tpl = str(root / "tpl")
    rc, _ = _quiet(
        "simulate", "--seed", "11", "--noise-sigma", LOW_NOISE, "--out", camp
    )
    assert rc == 0
    rc, profile_out = _quiet(
        "profile",
        "--seed", "12",
        "--noise-sigma", LOW_NOISE,
        "--traces", "2000",
        "--out", tpl,
    )
    assert rc == 0
    rc, attack_out = _quiet("attack", "--in", camp, "--templates", tpl)
    return {
        "root": root,
        "camp": camp,
        "tpl": tpl,
        "attack_rc": rc,
        "attack_out": attack_out,
        "profile_out": profile_out,
        "report": camp + ".report.txt",
    }


class TestSimulate:
    def test_writes_campaign(self, capsys, tmp_path):
        out = str(tmp_path / "c")
        rc, stdout, _ = _run(capsys, "simulate", "--seed", "5", "--out", out)
        assert rc == 0
        assert "simulated 1024 traces of 432 samples" in stdout
        assert f"wrote {out}.trc" in stdout
        assert f"wrote {out}.lbl" in stdout
        traces = traceio.read_trace_set(out + ".trc")
        labels = traceio.read_label_set(out + ".lbl")
        assert traces.samples.shape == (1024, 432)
        assert labels.n_records == 1024
        assert traces.metadata["kind"] == "campaign"

    def test_byte_deterministic_across_directories(self, tmp_path):
        a = str(tmp_path / "a" / "c")
        b = str(tmp_path / "b" / "c")
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        for out in (a, b):
            rc, _ = _quiet("simulate", "--seed", "5", "--logn", "10", "--out", out)
            assert rc == 0
        assert (tmp_path / "a" / "c.trc").read_bytes() == (
            tmp_path / "b" / "c.trc"
        ).read_bytes()
        assert (tmp_path / "a" / "c.lbl").read_bytes() == (
            tmp_path / "b" / "c.lbl"
        ).read_bytes()

    def test_seed_changes_output(self, tmp_path):
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _quiet("simulate", "--seed", "5", "--logn", "10", "--out", a)
        _quiet("simulate", "--seed", "6", "--logn", "10", "--out", b)
        assert (tmp_path / "a.trc").read_bytes() != (tmp_path / "b.trc").read_bytes()

    def test_label_file_that_is_a_directory_changes_neither_file(self, capsys, tmp_path):
        (tmp_path / "x.trc").write_bytes(b"old traces")
        (tmp_path / "x.lbl").mkdir()
        rc, stdout, err = _run(capsys, "simulate", "--logn", "2", "--out", str(tmp_path / "x"))
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: [Errno 21]") and err.rstrip().endswith("x.lbl'")
        assert (tmp_path / "x.trc").read_bytes() == b"old traces"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.lbl", "x.trc"]

    def test_missing_table_file(self, capsys, tmp_path):
        missing = str(tmp_path / "nope.txt")
        rc, _, err = _run(
            capsys, "simulate", "--table", missing, "--out", str(tmp_path / "c")
        )
        assert rc == 2
        assert err.startswith("error:")
        assert "nope.txt" in err

    def test_bad_logn(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys, "simulate", "--logn", "11", "--out", str(tmp_path / "c")
        )
        assert rc == 2
        assert "error:" in err

    def test_non_utf8_table_file(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_bytes(b"\xff\xfe1\n")
        rc, _, err = _run(
            capsys, "simulate", "--table", str(table), "--out", str(tmp_path / "c")
        )
        assert rc == 2
        assert "not valid UTF-8" in err
        assert not (tmp_path / "c.trc").exists()


class TestProfile:
    def test_poi_lands_on_leak_site(self, capsys, tmp_path):
        out = str(tmp_path / "t")
        rc, stdout, _ = _run(
            capsys, "profile", "--seed", "3", "--traces", "1500", "--out", out
        )
        assert rc == 0
        # The first inner and sign sites of README "Defaults".
        inner_site, neg_site = 3, 211
        assert _line(stdout, "inner poi:") == f"inner poi: {inner_site}"
        assert _line(stdout, "inner expected leak site:").endswith(str(inner_site))
        assert _line(stdout, "neg poi:") == f"neg poi: {neg_site}"
        assert _line(stdout, "neg expected leak site:").endswith(str(neg_site))
        for name in ("inner", "neg"):
            peak = float(_line(stdout, f"{name} peak corr:").split(":")[1])
            assert peak >= 0.95
        for name, site in (("inner", inner_site), ("neg", neg_site)):
            tpl = load_template(f"{out}.{name}.tpl")
            assert tpl.poi == site
            assert tpl.class1.mu > tpl.class0.mu

    def test_fire_slot_is_not_a_flag(self, capsys, tmp_path):
        # The planted class-1 traces always latch at inner slot 1.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--fire-slot", "2", "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --fire-slot 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_template_that_is_a_directory_changes_neither_file(self, capsys, tmp_path):
        # Both templates are renamed into place together, or neither is.
        (tmp_path / "t.inner.tpl").write_bytes(b"old inner")
        (tmp_path / "t.neg.tpl").mkdir()
        rc, stdout, err = _run(capsys, "profile", "--traces", "40", "--out", str(tmp_path / "t"))
        assert (rc, stdout) == (2, "")
        assert err.startswith("error: [Errno 21]") and err.rstrip().endswith("t.neg.tpl'")
        assert (tmp_path / "t.inner.tpl").read_bytes() == b"old inner"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.inner.tpl", "t.neg.tpl"]

    @pytest.mark.parametrize("cores", [1, 2])
    def test_non_finite_samples_exit_2_before_any_statistics(
        self, capsys, monkeypatch, tmp_path, cores
    ):
        # 1e39 overflows float32. Each chunk is checked as simulate checks
        # it, before the correlation sees it, so no numpy warning comes
        # first (warnings are errors in this suite).
        monkeypatch.setattr(leakage, "_usable_cores", lambda: cores)
        rc, stdout, err = _run(
            capsys, "profile", "--beta", "1e39", "--traces", "2000", "--out", str(tmp_path / "t")
        )
        assert rc == 2
        assert stdout == ""
        assert err == "error: trace payload contains NaN or infinity\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["profiling_classes", "_fast_box_muller"])
    def test_out_of_memory_exits_2_and_writes_nothing(self, capsys, monkeypatch, tmp_path, name):
        # A stand-in for an allocation too large for the machine, such as
        # --traces 10000000000000, raised on the calling thread or in a
        # render thread.
        def too_large(*args):
            raise MemoryError("Unable to allocate 72.8 TiB for an array")

        monkeypatch.setattr(leakage, name, too_large)
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        rc, stdout, err = _run(capsys, "profile", "--traces", "40", "--out", str(tmp_path / "t"))
        assert rc == 2
        assert stdout == ""
        assert err == "error: out of memory: Unable to allocate 72.8 TiB for an array\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("traces", [2**62, 2**64, 10**29])
    def test_traces_past_numpy_sizes_exit_2_and_write_nothing(self, capsys, tmp_path, traces):
        # The POI columns, 8 bytes a trace, would have more bytes than numpy can index.
        rc, stdout, err = _run(capsys, "profile", "--traces", str(traces),
                               "--out", str(tmp_path / "t"))
        assert (rc, stdout) == (2, "")
        assert err == f"error: n_traces {traces} is too large for numpy to address its arrays\n"
        assert not list(tmp_path.iterdir())

    def test_in_is_not_a_flag(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--in", str(tmp_path / "prof"), "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --in" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_poi_count_is_not_a_flag(self, capsys, tmp_path):
        # A template holds one POI per attack point.
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--poi-count", "1", "--out", str(tmp_path / "t")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --poi-count 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestAttack:
    def test_recovers_key_at_low_noise(self, pipeline):
        assert pipeline["attack_rc"] == 0
        assert "keys recovered: 1/1" in pipeline["attack_out"]
        assert "coefficients correct: 1024/1024" in pipeline["attack_out"]
        report = load_report(pipeline["report"])
        assert report.fully_recovered()
        assert report.anomalous_outer_iterations == 0

    def test_without_labels_reports_no_ground_truth(self, capsys, pipeline, tmp_path):
        prefix = str(tmp_path / "blind")
        shutil.copy(pipeline["camp"] + ".trc", prefix + ".trc")
        rc, stdout, _ = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 0
        assert "no ground truth labels" in stdout
        report = load_report(prefix + ".report.txt")
        assert not report.has_labels
        # Values must equal the labeled run's: labels change bookkeeping,
        # never the classification itself.
        labeled = load_report(pipeline["report"])
        assert report.keys_f == labeled.keys_f
        assert report.keys_g == labeled.keys_g
        rc, stdout, _ = _run(capsys, "report", prefix + ".report.txt")
        assert rc == 0 and stdout.endswith("no ground truth labels recorded\n")

    def test_fails_with_exit_one_at_high_noise(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        tpl = str(tmp_path / "tpl")
        _quiet("simulate", "--seed", "13", "--noise-sigma", "12", "--out", camp)
        _quiet(
            "profile", "--seed", "14", "--noise-sigma", "12",
            "--traces", "400", "--out", tpl,
        )
        rc, stdout, _ = _run(capsys, "attack", "--in", camp, "--templates", tpl)
        assert rc == 1
        assert "keys recovered: 0/1" in stdout

    def test_attacks_a_geometry_no_flag_sets(self, capsys, tmp_path):
        # A 215-sample campaign from the library: attack takes its layout
        # from the .trc metadata, and templates profiled at the default
        # geometry fit, since the leak sites 3 and 211 are the same.
        params, table = SamplerParams(logn=10), default_table()
        layout = leakage.TraceLayout.for_params(params, table, samples_per_outer_tail=7)
        model = leakage.LeakModel(noise_sigma=float(LOW_NOISE))
        traces, labels = leakage.synthesize_campaign(5, params, table, model, layout, n_keys=1)
        assert traces.samples.shape == (2048, 215)
        camp, tpl = str(tmp_path / "odd"), str(tmp_path / "tpl")
        traceio.write_trace_set(traces, camp + ".trc")
        traceio.write_label_set(labels, camp + ".lbl")
        rc, _ = _quiet("profile", "--logn", "10", "--noise-sigma", LOW_NOISE,
                       "--traces", "2000", "--out", tpl)
        assert rc == 0
        rc, stdout, _ = _run(capsys, "attack", "--in", camp, "--templates", tpl)
        assert rc == 0
        assert _line(stdout, "coefficients correct") == "coefficients correct: 2048/2048"
        assert _line(stdout, "keys recovered") == "keys recovered: 1/1"

    def test_needs_template_arguments(self, capsys, pipeline):
        with pytest.raises(SystemExit) as exc:
            main(["attack", "--in", pipeline["camp"]])
        assert exc.value.code == 2
        assert "the following arguments are required: --templates" in capsys.readouterr().err

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_refuses_a_template_with_two_pois(self, capsys, pipeline, tmp_path, point):
        prefix = str(tmp_path / "tpl")
        for name in ("inner", "neg"):
            shutil.copy(f"{pipeline['tpl']}.{name}.tpl", f"{prefix}.{name}.tpl")
        Path(f"{prefix}.{point}.tpl").write_text(TWO_POI_TPL)
        out = str(tmp_path / "r")
        rc, stdout, err = _run(
            capsys, "attack", "--in", pipeline["camp"], "--templates", prefix, "--out", out
        )
        assert (rc, stdout) == (2, "")
        assert "field 'pois'" in err
        assert not os.path.exists(out + ".report.txt")
        rc, stdout, err = _run(capsys, "analyze", "--templates", prefix)
        assert (rc, stdout) == (2, "")
        assert "field 'pois'" in err

    @pytest.mark.parametrize("poi", [432, 5000])
    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_refuses_a_poi_outside_the_traces(self, capsys, monkeypatch, pipeline, tmp_path,
                                              point, poi):
        prefix = str(tmp_path / "tpl")
        for name in ("inner", "neg"):
            shutil.copy(f"{pipeline['tpl']}.{name}.tpl", f"{prefix}.{name}.tpl")
        path = f"{prefix}.{point}.tpl"
        Path(path).write_bytes(encode_template(dataclasses.replace(load_template(path), poi=poi)))

        def no_blocks(*args):
            raise AssertionError("a block was read")

        monkeypatch.setattr(recover, "_site_blocks", no_blocks)
        out = str(tmp_path / "r")
        rc, stdout, err = _run(
            capsys, "attack", "--in", pipeline["camp"], "--templates", prefix, "--out", out
        )
        assert (rc, stdout) == (2, "")
        assert err == f"error: {path}: POI {poi} lies outside the traces of 432 samples\n"
        assert not os.path.exists(out + ".report.txt")

    def test_accepts_a_poi_on_the_last_sample(self, capsys, pipeline, tmp_path):
        # Each template is applied at every site of its point, whatever its POI.
        prefix = str(tmp_path / "tpl")
        shutil.copy(f"{pipeline['tpl']}.neg.tpl", f"{prefix}.neg.tpl")
        inner = load_template(f"{pipeline['tpl']}.inner.tpl")
        Path(f"{prefix}.inner.tpl").write_bytes(
            encode_template(dataclasses.replace(inner, poi=431)))
        out = str(tmp_path / "r")
        rc, _, _ = _run(
            capsys, "attack", "--in", pipeline["camp"], "--templates", prefix, "--out", out
        )
        assert rc == 0
        assert Path(out + ".report.txt").read_bytes() == Path(pipeline["report"]).read_bytes()

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_template_point_is_not_a_flag(self, capsys, pipeline, tmp_path, point):
        out = str(tmp_path / "r")
        with pytest.raises(SystemExit) as exc:
            main([
                "attack", "--in", pipeline["camp"], "--templates", pipeline["tpl"],
                f"--template-{point}", str(tmp_path / "x.tpl"), "--out", out,
            ])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --template-{point}" in capsys.readouterr().err
        assert not os.path.exists(out + ".report.txt")

    def test_rejects_width_metadata_disagreement(self, capsys, pipeline, tmp_path):
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        doctored = traceio.TraceSet(
            samples=original.samples[:, :-1], metadata=original.metadata
        )
        prefix = str(tmp_path / "bad")
        traceio.write_trace_set(doctored, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "error:" in err

    def test_rejects_missing_metadata(self, capsys, pipeline, tmp_path):
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        stripped = traceio.TraceSet(
            samples=original.samples[:8], metadata={"kind": "campaign"}
        )
        prefix = str(tmp_path / "bare")
        traceio.write_trace_set(stripped, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "metadata" in err


class TestAnalyze:
    def test_reference_operating_point(self, capsys):
        rc, stdout, _ = _run(
            capsys,
            "analyze", "--p-inner", "0.99999999999", "--p-neg", "0.999999999999",
        )
        assert rc == 0
        assert "per-coefficient success: 99.9999999478%" in stdout
        assert "full-key success (n=512): 99.9999465472%" in stdout
        assert "full-key success (n=1024): 99.9998930945%" in stdout

    def test_single_dimension(self, capsys):
        rc, stdout, _ = _run(
            capsys,
            "analyze", "--p-inner", "0.99999999999",
            "--p-neg", "0.999999999999", "--n", "512",
        )
        assert rc == 0
        assert "(n=512)" in stdout
        assert "(n=1024)" not in stdout

    def test_perfect_sites(self, capsys):
        rc, stdout, _ = _run(capsys, "analyze", "--p-inner", "1", "--p-neg", "1")
        assert rc == 0
        assert "per-coefficient success: 100%" in stdout
        assert "full-key success (n=512): 100%" in stdout

    def test_from_templates(self, capsys, pipeline):
        rc, stdout, _ = _run(capsys, "analyze", "--templates", pipeline["tpl"])
        assert rc == 0
        inner_pct = _line(stdout, "per-site success inner:").split(":")[1].strip()
        assert inner_pct.endswith("%")
        assert float(inner_pct[:-1]) > 99.9999
        assert "full-key success (n=512):" in stdout

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_probability_takes_precedence_over_templates(self, capsys, pipeline, tmp_path, point):
        # The overridden point's template is absent: --p-POINT must not read it.
        tpl = tmp_path / "tpl"
        other = "neg" if point == "inner" else "inner"
        shutil.copy(f"{pipeline['tpl']}.{other}.tpl", f"{tpl}.{other}.tpl")
        rc, stdout, _ = _run(
            capsys, "analyze", f"--p-{point}", "0.999", "--templates", str(tpl),
        )
        assert rc == 0
        assert f"per-site success {point}: 99.9%" in stdout

    def test_requires_an_operating_point(self, capsys):
        rc, _, err = _run(capsys, "analyze")
        assert rc == 2
        assert "need --p-inner" in err
        rc, _, err = _run(capsys, "analyze", "--p-inner", "0.999")
        assert rc == 2
        assert "need --p-neg" in err

    # Success is 1 - A/2 with the overlap area A in [0, 1], so it lies in [0.5, 1].
    @pytest.mark.parametrize(
        "point, p", [("inner", "1.5"), ("inner", "0.3"), ("neg", "0.2"), ("neg", "nan")]
    )
    def test_rejects_out_of_range_probability(self, capsys, point, p):
        ps = {"inner": "1", "neg": "1", point: p}
        rc, stdout, err = _run(capsys, "analyze", "--p-inner", ps["inner"], "--p-neg", ps["neg"])
        assert (rc, stdout) == (2, "")
        assert err == f"error: --p-{point} must lie in [0.5, 1], got {float(p)!r}\n"

    @pytest.mark.parametrize(
        "flag, what", [("--n", "n"), ("--inner", "iteration counts"), ("--outer", "iteration counts")]
    )
    def test_count_too_large_for_a_float(self, capsys, flag, what):
        rc, stdout, err = _run(
            capsys, "analyze", "--p-inner", "0.99", "--p-neg", "0.99", flag, "1" + "0" * 400,
        )
        assert (rc, stdout, err) == (2, "", f"error: {what} too large for a float exponent\n")

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_rejects_non_positive_dimension(self, capsys, n):
        rc, stdout, err = _run(
            capsys, "analyze", "--p-inner", "0.99", "--p-neg", "0.99", "--n", n,
        )
        assert rc == 2
        assert "error: n must be positive" in err
        assert stdout == ""


# One case per invariant between report fields; the pipeline report
# has 1 key of n=512, so 2,048 outer iterations and 53,248 inner sites.
INCONSISTENT_REPORTS = [
    ({"outer_count": "-2"}, "outer_count=-2 is negative"),
    ({"anomalous_outer_iterations": "-1"}, "anomalous_outer_iterations=-1 is negative"),
    ({"n_keys": "-3"}, "n_keys=-3 is not positive"),
    ({"n": "0"}, "n=0 is not positive"),
    ({"poly_count": "0"}, "poly_count=0 is not 2"),
    # One polynomial per key with every total halved to match still
    # contradicts the f and g lines the report holds.
    ({"poly_count": "1", "inner_sites_total": "26624", "neg_sites_total": "1024",
      "coefficients_total": "512"}, "poly_count=1 is not 2"),
    ({"inner_sites_ones": "53249"}, "inner_sites_ones exceeds inner_sites_total"),
    ({"neg_sites_ones": "2049"}, "neg_sites_ones exceeds neg_sites_total"),
    ({"inner_sites_total": "53247"}, "inner_sites_total=53247 is not 53248"),
    ({"neg_sites_total": "4096"}, "neg_sites_total=4096 is not 2048"),
    ({"outer_count": "3"}, "inner_sites_total=53248 is not 79872"),
    ({"coefficients_total": "1023"}, "coefficients_total=1023 is not 1024"),
    ({"coefficients_correct": "999999"}, "coefficients_correct=999999 is not 1024"),
    ({"keys_recovered": "2"}, "keys_recovered=2 is not 1"),
    # The flag lines are all 1, so they give 1,024 correct and 1 key.
    ({"keys_recovered": "0", "coefficients_correct": "3"}, "coefficients_correct=3 is not 1024"),
    ({"inner_site_errors": "53249"}, "inner_site_errors exceeds inner_sites_total"),
    ({"neg_site_errors": "2049"}, "neg_site_errors exceeds neg_sites_total"),
    ({"anomalous_outer_iterations": "2049"}, "anomalous_outer_iterations exceeds"),
    ({"p_site_inner": "1.5"}, "p_site_inner=1.5 is outside [0, 1]"),
    ({"p_full_key": "nan"}, "p_full_key=nan is outside [0, 1]"),
    ({"overlap_neg": "-1e-300"}, "overlap_neg=-1e-300 is outside [0, 1]"),
    ({"key.0.f": "1,2,3"}, "key.0.f has 3 entries, not n=512"),
    ({"key.0.g_correct": "1"}, "key.0.g_correct has 1 entries, not n=512"),
    ({"key.0.f_correct": "2" + "1" * 511}, "key.0.f_correct has a flag other than 0 or 1"),
    # A mean of |margin| is finite and not negative.
    ({"mean_abs_margin_inner": "nan"}, "mean_abs_margin_inner=nan is not finite and non-negative"),
    ({"mean_abs_margin_inner": "inf"}, "mean_abs_margin_inner=inf is not finite and non-negative"),
    ({"mean_abs_margin_inner": "-1.0"}, "mean_abs_margin_inner=-1.0 is not finite and non-negative"),
    ({"mean_abs_margin_neg": "nan"}, "mean_abs_margin_neg=nan is not finite and non-negative"),
    ({"mean_abs_margin_neg": "inf"}, "mean_abs_margin_neg=inf is not finite and non-negative"),
    ({"mean_abs_margin_neg": "-1.0"}, "mean_abs_margin_neg=-1.0 is not finite and non-negative"),
]


class TestReportCommand:
    def test_prints_summary(self, capsys, pipeline):
        rc, stdout, _ = _run(capsys, "report", pipeline["report"])
        assert rc == 0
        assert "keys: 1 (n=512, 2 polynomials each)" in stdout
        assert "keys recovered: 1/1" in stdout
        assert "predicted full-key success:" in stdout

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = _run(capsys, "report", str(tmp_path / "absent.txt"))
        assert rc == 2
        assert "error:" in err

    def test_garbage_file(self, capsys, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("this is not a report\n")
        rc, _, err = _run(capsys, "report", str(path))
        assert rc == 2
        assert "error:" in err

    @pytest.mark.parametrize(
        "edits, message",
        INCONSISTENT_REPORTS,
        ids=["+".join(edits) for edits, _ in INCONSISTENT_REPORTS],
    )
    def test_inconsistent_report_rejected(self, capsys, pipeline, tmp_path, edits, message):
        lines = []
        for line in Path(pipeline["report"]).read_text(encoding="utf-8").splitlines():
            key = line.split("=", 1)[0]
            lines.append(f"{key}={edits.pop(key)}" if key in edits else line)
        assert not edits
        path = tmp_path / "edited.report.txt"
        path.write_text("\n".join(lines) + "\n")
        rc, stdout, err = _run(capsys, "report", str(path))
        assert rc == 2
        assert stdout == ""
        assert f"inconsistent report: {message}" in err


class TestSetupFlags:
    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_every_setup_field_is_a_flag(self, command):
        actions = {a.dest: a for a in _subparsers()[command]._actions}
        for f in dataclasses.fields(leakage.LeakModel):
            action = actions[f.name]
            assert action.option_strings == ["--" + f.name.replace("_", "-")]
            assert action.default == f.default
            assert action.type is traceio.CODECS[f.type][1]
        # The geometry is no flag, and every setup field is still a metadata key.
        params, table = SamplerParams(logn=9), default_table()
        layout = leakage.TraceLayout.for_params(params, table)
        md = leakage.campaign_metadata(1, params, leakage.LeakModel(), layout, 1)
        for f in dataclasses.fields(leakage.TraceLayout):
            assert f.name not in actions and f.name in md
        for cls in (SamplerParams, leakage.LeakModel):
            assert {f.name for f in dataclasses.fields(cls)} <= set(md)

    def test_flags_take_any_form_their_type_reads(self):
        # Files take only the written form ("1e+39", "4.0"); flags take the plain constructors.
        args = _build_parser().parse_args(
            ["simulate", "--beta", "1e39", "--noise-sigma", "4", "--out", "x"])
        assert (args.beta, args.noise_sigma) == (1e39, 4.0)

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_help_text(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == HELP[command]


class TestSeedRange:
    EXTRA = {"simulate": ["--logn", "3"], "profile": ["--traces", "8"]}

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_rejects_seed_outside_64_bits(self, capsys, tmp_path, command, seed):
        rc, stdout, err = _run(
            capsys, command, "--seed", str(seed), *self.EXTRA[command],
            "--out", str(tmp_path / "a"),
        )
        assert rc == 2
        assert stdout == ""
        assert "seed must be a 64-bit value" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_top_seed_runs(self, tmp_path, command):
        rc, _ = _quiet(
            command, "--seed", str((1 << 64) - 1), *self.EXTRA[command],
            "--out", str(tmp_path / "a"),
        )
        assert rc == 0


class TestParserBasics:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["explode"])
        assert exc.value.code == 2

    def test_handled_errors_return_int(self, capsys):
        rc = main(["analyze", "--p-inner", "2", "--p-neg", "1"])
        capsys.readouterr()
        assert rc == 2

    def test_one_parser_parses_each_call_afresh(self, capsys):
        # The parser is built once per process; no call sees another's flags.
        assert _build_parser() is _build_parser()
        assert main(["analyze", "--p-inner", "0.9", "--p-neg", "0.9", "--n", "8"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "--p-inner", "0.99", "--p-neg", "0.99"]) == 0
        second = capsys.readouterr().out
        assert "per-site success inner: 90%" in first and "(n=8)" in first
        assert "(n=512)" not in first
        assert "per-site success inner: 99%" in second and "(n=8)" not in second
        assert "(n=512)" in second and "(n=1024)" in second


class TestThreadsAndMetadataErrors:
    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_threads_is_not_a_flag(self, capsys, monkeypatch, tmp_path, command):
        # Render threads follow the process's CPU affinity; taskset caps them.
        monkeypatch.chdir(tmp_path)  # a command that ran would write here
        with pytest.raises(SystemExit) as exc:
            main([command, "--threads", "2", "--out", "x"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_outputs_do_not_depend_on_threads(self, monkeypatch, tmp_path):
        blobs = []
        for threads in (1, 3):
            monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)
            rc, _ = _quiet(
                "simulate", "--seed", "8", "--logn", "7", "--out", str(tmp_path / f"t{threads}")
            )
            assert rc == 0
            blobs.append([(tmp_path / f"t{threads}{s}").read_bytes() for s in (".trc", ".lbl")])
        assert blobs[0] == blobs[1]

    # An odd geometry, which no flag sets, is rendered on 1 to 3 cores in
    # test_simulate_stream.py::TestBytesEqualInMemoryCampaign::test_render_equals_in_memory.
    @pytest.mark.parametrize("extra", [["--seed", "714"]], ids=["readme"])
    def test_profile_outputs_do_not_depend_on_threads(self, monkeypatch, tmp_path, extra):
        runs = []
        for threads in (1, 2, 3):
            out = str(tmp_path / f"t{threads}")
            monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)
            rc, stdout = _quiet("profile", "--traces", "10000", *extra, "--out", out)
            assert rc == 0
            blobs = [(tmp_path / f"t{threads}.{name}.tpl").read_bytes() for name in ("inner", "neg")]
            runs.append((stdout.replace(out, "OUT"), blobs))
        assert runs[0] == runs[1] == runs[2]

    def test_profile_beyond_a_blas_split_does_not_depend_on_threads(self, monkeypatch, tmp_path):
        # At 20,000 traces the correlation products were once big enough
        # for OpenBLAS to split them over its own threads, which moved
        # their last bits with the core count. Now no product is, so the
        # render threads and a process held to one BLAS thread agree, on
        # the outputs and on every bit of the correlations. The digest
        # takes 430-sample traces: a split of a transposed product rounds
        # the last (width mod 4) columns of each thread's share apart.
        def outputs(out, stdout):
            blobs = [Path(f"{out}.{name}.tpl").read_bytes() for name in ("inner", "neg")]
            return stdout.replace(out, "OUT"), blobs

        runs = []
        for threads in (1, 2, 3):
            out = str(tmp_path / f"t{threads}")
            monkeypatch.setattr(leakage, "_usable_cores", lambda: threads)
            rc, stdout = _quiet("profile", "--traces", "20000", "--out", out)
            assert rc == 0
            runs.append(outputs(out, stdout))
        # The correlations' digest, in this process and in the other.
        digest = (
            "import hashlib\n"
            "from cdtleak import cpa, leakage, sampler\n"
            "params, table = sampler.SamplerParams(logn=9), sampler.default_table()\n"
            "layout = leakage.TraceLayout.for_params(params, table, samples_per_outer_tail=7)\n"
            "parts = leakage.profiling_parts(1, params, table, n_traces=20000)\n"
            "blocks = leakage.render_blocks(parts, leakage.LeakModel(), layout)\n"
            "corr = cpa.correlation_traces((s for _, s in blocks),\n"
            "                              leakage.profiling_classes(20000))\n"
            "print(hashlib.sha256(corr.tobytes()).hexdigest())\n"
        )
        monkeypatch.setattr(leakage, "_usable_cores", lambda: 2)
        with contextlib.redirect_stdout(io.StringIO()) as here:
            exec(digest, {})
        code = digest + "import sys\nfrom cdtleak import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        out = str(tmp_path / "blas1")
        proc = subprocess.run(
            [sys.executable, "-c", code, "profile", "--traces", "20000", "--out", out],
            env=env, capture_output=True, text=True, check=False,
        )
        assert proc.returncode == 0, proc.stderr
        first, rest = proc.stdout.split("\n", 1)
        assert first + "\n" == here.getvalue()
        runs.append(outputs(out, rest))
        assert runs[0] == runs[1] == runs[2] == runs[3]

    def test_attack_on_non_integer_outer_count(self, capsys, pipeline, tmp_path):
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        doctored = traceio.TraceSet(
            samples=original.samples[:8],
            metadata={**original.metadata, "outer_count": "x"},
        )
        prefix = str(tmp_path / "bad")
        traceio.write_trace_set(doctored, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "outer_count" in err

    def test_attack_on_outer_count_disagreeing_with_logn(self, capsys, pipeline, tmp_path):
        # One outer iteration of twice the samples keeps the trace width.
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        doctored = traceio.TraceSet(
            samples=original.samples[:8],
            metadata={
                **original.metadata,
                "outer_count": "1",
                "samples_per_inner": "16",
                "samples_per_outer_tail": "16",
            },
        )
        prefix = str(tmp_path / "bad")
        traceio.write_trace_set(doctored, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "metadata: outer_count 1 disagrees with logn 9" in err

    @pytest.mark.parametrize(
        "value, message",
        [("7", "n_keys=7 needs 7168 traces, the file has 1024"),
         ("banana", "field 'n_keys': invalid literal for int() with base 10: 'banana'"),
         ("0", "n_keys=0 is not positive")],
        ids=["mismatch", "not-a-number", "zero"],
    )
    def test_attack_on_bad_n_keys(self, capsys, pipeline, tmp_path, value, message):
        # A 1-key campaign, labels and all, whose metadata gives another n_keys.
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        doctored = traceio.TraceSet(
            samples=original.samples, metadata={**original.metadata, "n_keys": value}
        )
        prefix = str(tmp_path / "bad")
        traceio.write_trace_set(doctored, prefix + ".trc")
        shutil.copyfile(pipeline["camp"] + ".lbl", prefix + ".lbl")
        rc, stdout, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert (rc, stdout) == (2, "")
        assert err == f"error: campaign metadata: {message}\n"
        assert not os.path.exists(prefix + ".report.txt")

    @pytest.mark.parametrize(
        "extra, message",
        [({"seed": "not-a-seed"},
          "field 'seed': invalid literal for int() with base 10: 'not-a-seed'"),
         ({"foo": "bar"}, "unknown keys: foo")],
        ids=["bad-seed", "unknown-key"],
    )
    def test_attack_on_bad_metadata(self, capsys, pipeline, tmp_path, extra, message):
        # A 1-key campaign, labels and all, whose metadata campaign_metadata did not write.
        original = traceio.read_trace_set(pipeline["camp"] + ".trc")
        doctored = traceio.TraceSet(samples=original.samples,
                                    metadata={**original.metadata, **extra})
        prefix = str(tmp_path / "bad")
        traceio.write_trace_set(doctored, prefix + ".trc")
        shutil.copyfile(pipeline["camp"] + ".lbl", prefix + ".lbl")
        rc, stdout, err = _run(capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"])
        assert (rc, stdout) == (2, "")
        assert err == f"error: campaign metadata: {message}\n"
        assert not os.path.exists(prefix + ".report.txt")

    def test_attack_on_profiling_traces(self, capsys, pipeline, tmp_path):
        traces, _ = leakage.synthesize_profiling_set(
            seed=42, params=SamplerParams(logn=9), table=default_table(),
            model=leakage.LeakModel(), n_traces=1024,
        )
        # The profiling set carries no metadata; a file that names
        # another kind is refused for its kind, not for a missing one.
        traces = dataclasses.replace(traces, metadata={"kind": "profiling"})
        prefix = str(tmp_path / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "not a key-generation campaign (metadata kind 'profiling')" in err
        assert not (tmp_path / "prof.report.txt").exists()

    @pytest.mark.parametrize(
        "extra, message",
        [(b"logn=3\n", "metadata: line 15: duplicate key 'logn'"),
         (b"=oops\n", "metadata: line 15: empty key")],
        ids=["repeated", "empty"],
    )
    def test_attack_on_repeated_or_empty_metadata_key(
        self, capsys, pipeline, tmp_path, extra, message
    ):
        camp = tmp_path / "camp"
        argv = ["--seed", "5", "--logn", "3", "--noise-sigma", LOW_NOISE, "--out", str(camp)]
        assert _quiet("simulate", *argv)[0] == 0
        # The campaign attacks as written; the same file with one more
        # metadata line does not.
        rc, out, _ = _run(capsys, "attack", "--in", str(camp), "--templates", pipeline["tpl"])
        assert rc == 0 and "keys recovered: 1/1" in out
        (tmp_path / "camp.report.txt").unlink()
        trc = camp.with_suffix(".trc")
        blob = trc.read_bytes()
        start = len(traceio.TRACE_MAGIC)
        version, traces, samples, meta_len = traceio._HEADER.unpack_from(blob, start)
        meta_end = start + traceio._HEADER.size + meta_len
        header = traceio._HEADER.pack(version, traces, samples, meta_len + len(extra))
        trc.write_bytes(blob[:start] + header + blob[start + traceio._HEADER.size : meta_end]
                        + extra + blob[meta_end:])
        rc, _, err = _run(capsys, "attack", "--in", str(camp), "--templates", pipeline["tpl"])
        assert rc == 2
        assert message in err
        assert not (tmp_path / "camp.report.txt").exists()

    def test_attack_with_oversized_label_header(self, capsys, pipeline, tmp_path):
        prefix = str(tmp_path / "camp")
        shutil.copy(pipeline["camp"] + ".trc", prefix + ".trc")
        header = traceio._HEADER.pack(1, 1, 0xFFFFFFFF, 0xFFFFFFFF)
        (tmp_path / "camp.lbl").write_bytes(traceio.LABEL_MAGIC + header)
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "too large" in err


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["umask022", "umask077"]
)
def test_outputs_take_their_mode_from_the_umask(tmp_path, umask, mode):
    camp, tpl = str(tmp_path / "camp"), str(tmp_path / "tpl")
    old = os.umask(umask)
    try:
        assert _quiet("simulate", "--seed", "3", "--logn", "7", "--out", camp)[0] == 0
        assert _quiet("profile", "--logn", "7", "--traces", "400", "--out", tpl)[0] == 0
        assert _quiet("attack", "--in", camp, "--templates", tpl)[0] in (0, 1)
    finally:
        os.umask(old)
    outputs = sorted(p.name for p in tmp_path.iterdir())
    assert outputs == [
        "camp.lbl", "camp.report.txt", "camp.trc", "tpl.inner.tpl", "tpl.neg.tpl"
    ]
    for name in outputs:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


class TestAttackAndAnalyzeFlags:
    """attack and analyze take no sampling flags."""

    @pytest.mark.parametrize("flag", ["--seed", "--logn", "--table", "--threads"])
    @pytest.mark.parametrize(
        "argv",
        [["attack", "--in", "camp", "--templates", "tpl"],
         ["analyze", "--p-inner", "0.9", "--p-neg", "0.9"]],
        ids=["attack", "analyze"],
    )
    def test_sampling_flags_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestFlagsSpelledInFull:
    """Removed flags and abbreviations of the remaining ones exit 2."""

    @pytest.mark.parametrize("command", ["simulate", "profile", "attack", "analyze"])
    def test_config_is_not_a_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], "--config", "f"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config f" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--out", "x"), ("--poly-count", "2")])
    def test_removed_analyze_flags(self, capsys, flag, value):
        # Abbreviated, --out would have named --outer.
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--p-inner", "0.9", "--p-neg", "0.9", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", GEOMETRY_FLAGS)
    @pytest.mark.parametrize("command", ["simulate", "profile"])
    def test_geometry_is_not_a_flag(self, capsys, monkeypatch, tmp_path, command, flag):
        # The layout is TraceLayout's: the library and the .trc metadata set it.
        monkeypatch.chdir(tmp_path)  # a command that ran would write here
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], flag, "8"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 8" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "command, cut", ABBREVIATIONS, ids=[f"{c}{o}" for c, o in ABBREVIATIONS]
    )
    def test_abbreviation_refused(self, capsys, monkeypatch, tmp_path, command, cut):
        monkeypatch.chdir(tmp_path)  # a command that ran would write here
        with pytest.raises(SystemExit) as exc:
            main([command, *REQUIRED[command], cut, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {cut} 1" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
