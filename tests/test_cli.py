"""End-to-end command-line tests, run in-process through main().

The full pipeline fixture simulates one key at 2.284 mV noise (about a
13 sigma class separation, comfortably recoverable from single traces),
profiles templates, and attacks. Failure-path tests use 12 mV noise,
where per-site errors are frequent enough that a 1024-coefficient key
cannot survive, so the attack must report a miss via exit code 1.
"""

import contextlib
import io
import os
import shutil
import stat
from pathlib import Path

import numpy as np
import pytest

from cdtleak import leakage, traceio
from cdtleak.cli import main
from cdtleak.recover import load_report
from cdtleak.sampler import SamplerParams, default_table
from cdtleak.template import load_template

LOW_NOISE = "2.284"


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
        layout = leakage.TraceLayout.for_params(SamplerParams(logn=9), default_table())
        inner_site = layout.inner_site_index(0, 1)
        neg_site = layout.neg_site_index(0)
        assert _line(stdout, "inner poi:") == f"inner poi: {inner_site}"
        assert _line(stdout, "inner expected leak site:").endswith(str(inner_site))
        assert _line(stdout, "neg poi:") == f"neg poi: {neg_site}"
        assert _line(stdout, "neg expected leak site:").endswith(str(neg_site))
        for name in ("inner", "neg"):
            peak = float(_line(stdout, f"{name} peak corr:").split(":")[1])
            assert peak >= 0.95
        for name, site in (("inner", inner_site), ("neg", neg_site)):
            tpl = load_template(f"{out}.{name}.tpl")
            assert tpl.pois[0] == site
            assert tpl.class1[0].mu > tpl.class0[0].mu

    def test_fire_slot_moves_expected_site(self, capsys, tmp_path):
        out = str(tmp_path / "t")
        rc, stdout, _ = _run(
            capsys,
            "profile", "--seed", "3", "--traces", "800", "--fire-slot", "2",
            "--out", out,
        )
        assert rc == 0
        layout = leakage.TraceLayout.for_params(SamplerParams(logn=9), default_table())
        site = layout.inner_site_index(0, 2)
        assert _line(stdout, "inner poi:") == f"inner poi: {site}"

    def test_poi_count_flag(self, capsys, tmp_path):
        out = str(tmp_path / "t")
        rc, stdout, _ = _run(
            capsys,
            "profile", "--seed", "3", "--traces", "400", "--poi-count", "3",
            "--out", out,
        )
        assert rc == 0
        assert len(_line(stdout, "inner poi:").split(":")[1].split()) == 3
        assert len(load_template(out + ".inner.tpl").pois) == 3

    def test_reads_existing_profiling_campaign(self, capsys, tmp_path):
        params = SamplerParams(logn=9)
        table = default_table()
        traces, labels = leakage.synthesize_profiling_set(
            seed=40, params=params, table=table, model=leakage.LeakModel(),
            n_traces=600,
        )
        prefix = str(tmp_path / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        traceio.write_label_set(labels, prefix + ".lbl")
        out = str(tmp_path / "t")
        rc, stdout, _ = _run(capsys, "profile", "--in", prefix, "--out", out)
        assert rc == 0
        layout = leakage.TraceLayout.for_params(params, table)
        assert _line(stdout, "inner poi:") == f"inner poi: {layout.inner_site_index(0, 1)}"
        assert load_template(out + ".inner.tpl").pois

    @pytest.fixture(scope="class")
    def profiling_campaign(self, tmp_path_factory):
        traces, labels = leakage.synthesize_profiling_set(
            seed=43, params=SamplerParams(logn=9), table=default_table(),
            model=leakage.LeakModel(), n_traces=600,
        )
        prefix = str(tmp_path_factory.mktemp("prof") / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        traceio.write_label_set(labels, prefix + ".lbl")
        return prefix

    @staticmethod
    def _templates(prefix):
        return [Path(f"{prefix}.{name}.tpl").read_bytes() for name in ("inner", "neg")]

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "2"), ("--logn", "3"), ("--table", "no-such-table.txt"),
            ("--alpha", "9"), ("--beta", "1"), ("--noise-sigma", "100"),
            ("--samples-per-inner", "9"), ("--samples-per-outer-tail", "7"),
            ("--leak-offset-inner", "2"), ("--leak-offset-neg", "2"),
            ("--traces", "7"), ("--fire-slot", "5"),
        ],
    )
    def test_in_rejects_generation_flags(self, capsys, tmp_path, profiling_campaign, flag, value):
        rc, stdout, err = _run(
            capsys, "profile", "--in", profiling_campaign, flag, value,
            "--out", str(tmp_path / "t"),
        )
        assert rc == 2
        assert stdout == ""
        assert f"{flag} cannot apply" in err
        assert not list(tmp_path.iterdir())

    def test_in_names_every_generation_flag(self, capsys, tmp_path, profiling_campaign):
        rc, _, err = _run(
            capsys, "profile", "--in", profiling_campaign, "--logn", "3", "--alpha", "9",
            "--noise-sigma", "100", "--fire-slot", "5", "--traces", "7",
            "--out", str(tmp_path / "t"),
        )
        assert rc == 2
        assert "--logn, --alpha, --noise-sigma, --traces, --fire-slot cannot apply" in err

    def test_in_takes_config_defaults_and_its_own_flags(self, capsys, tmp_path, profiling_campaign):
        plain = str(tmp_path / "plain")
        assert _quiet("profile", "--in", profiling_campaign, "--out", plain)[0] == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nnoise-sigma = 100\ntraces = 7\ntable = no-such-table.txt\n")
        configured = str(tmp_path / "configured")
        rc, _, _ = _run(
            capsys, "profile", "--config", str(cfg), "--in", profiling_campaign,
            "--threads", "3", "--seed", "5", "--out", configured,
        )
        assert rc == 0
        assert self._templates(configured) == self._templates(plain)
        rc, stdout, _ = _run(
            capsys, "profile", "--in", profiling_campaign, "--poi-count", "2",
            "--threads", "1", "--out", str(tmp_path / "two"),
        )
        assert rc == 0
        assert len(_line(stdout, "inner poi:").split(":")[1].split()) == 2

    def test_in_rejects_threads_below_one(self, capsys, tmp_path, profiling_campaign):
        rc, _, err = _run(
            capsys, "profile", "--in", profiling_campaign, "--threads", "0",
            "--out", str(tmp_path / "t"),
        )
        assert rc == 2
        assert "--threads must be at least 1" in err

    def test_rejects_campaign_as_profiling_input(self, capsys, tmp_path):
        camp = str(tmp_path / "camp")
        _quiet("simulate", "--seed", "5", "--logn", "10", "--out", camp)
        rc, _, err = _run(
            capsys, "profile", "--in", camp, "--out", str(tmp_path / "t")
        )
        assert rc == 2
        assert "not a profiling campaign" in err

    def test_missing_label_file(self, capsys, tmp_path):
        params = SamplerParams(logn=9)
        table = default_table()
        traces, _ = leakage.synthesize_profiling_set(
            seed=41, params=params, table=table, model=leakage.LeakModel(),
            n_traces=40,
        )
        prefix = str(tmp_path / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        rc, _, err = _run(
            capsys, "profile", "--in", prefix, "--out", str(tmp_path / "t")
        )
        assert rc == 2
        assert "error:" in err


class TestAttack:
    def test_recovers_key_at_low_noise(self, pipeline):
        assert pipeline["attack_rc"] == 0
        assert "keys recovered: 1/1" in pipeline["attack_out"]
        assert "coefficients correct: 1024/1024" in pipeline["attack_out"]
        report = load_report(pipeline["report"])
        assert report.fully_recovered()
        assert report.anomalous_outer_iterations == 0

    def test_explicit_template_paths(self, capsys, pipeline, tmp_path):
        out = str(tmp_path / "r")
        rc, stdout, _ = _run(
            capsys,
            "attack",
            "--in", pipeline["camp"],
            "--template-inner", pipeline["tpl"] + ".inner.tpl",
            "--template-neg", pipeline["tpl"] + ".neg.tpl",
            "--out", out,
        )
        assert rc == 0
        assert "keys recovered: 1/1" in stdout
        assert load_report(out + ".report.txt").fully_recovered()

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

    def test_needs_template_arguments(self, capsys, pipeline):
        rc, _, err = _run(capsys, "attack", "--in", pipeline["camp"])
        assert rc == 2
        assert "need --templates" in err

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_templates_and_a_template_path_conflict(self, capsys, pipeline, tmp_path, point):
        out = str(tmp_path / "r")
        rc, stdout, err = _run(
            capsys,
            "attack", "--in", pipeline["camp"], "--templates", pipeline["tpl"],
            f"--template-{point}", str(tmp_path / "nonexistent.tpl"), "--out", out,
        )
        assert rc == 2
        assert f"--templates and --template-{point}" in err
        assert stdout == ""
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

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        path = tmp_path / "analysis.txt"
        rc, stdout, _ = _run(
            capsys,
            "analyze", "--p-inner", "0.999", "--p-neg", "0.999",
            "--out", str(path),
        )
        assert rc == 0
        assert path.read_text() == stdout

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_templates_and_a_template_path_conflict(self, capsys, pipeline, tmp_path, point):
        rc, stdout, err = _run(
            capsys,
            "analyze", "--templates", pipeline["tpl"],
            f"--template-{point}", str(tmp_path / "nonexistent.tpl"),
        )
        assert rc == 2
        assert f"--templates and --template-{point}" in err
        assert stdout == ""

    @pytest.mark.parametrize("point", ["inner", "neg"])
    def test_probability_takes_precedence_over_templates(self, capsys, pipeline, tmp_path, point):
        rc, stdout, _ = _run(
            capsys,
            "analyze", f"--p-{point}", "0.999", "--templates", pipeline["tpl"],
            f"--template-{point}", str(tmp_path / "nonexistent.tpl"),
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

    def test_rejects_out_of_range_probability(self, capsys):
        rc, _, err = _run(capsys, "analyze", "--p-inner", "1.5", "--p-neg", "1")
        assert rc == 2
        assert "error:" in err


# One case per invariant between report fields; the pipeline report
# has 1 key of n=512, so 2,048 outer iterations and 53,248 inner sites.
INCONSISTENT_REPORTS = [
    ({"outer_count": "-2"}, "outer_count=-2 is negative"),
    ({"anomalous_outer_iterations": "-1"}, "anomalous_outer_iterations=-1 is negative"),
    ({"n_keys": "-3"}, "n_keys=-3 is not positive"),
    ({"n": "0"}, "n=0 is not positive"),
    ({"poly_count": "0"}, "poly_count=0 is not positive"),
    ({"inner_sites_ones": "53249"}, "inner_sites_ones exceeds inner_sites_total"),
    ({"neg_sites_ones": "2049"}, "neg_sites_ones exceeds neg_sites_total"),
    ({"inner_sites_total": "53247"}, "inner_sites_total=53247 is not 53248"),
    ({"neg_sites_total": "4096"}, "neg_sites_total=4096 is not 2048"),
    ({"outer_count": "3"}, "inner_sites_total=53248 is not 79872"),
    ({"coefficients_total": "1023"}, "coefficients_total=1023 is not 1024"),
    ({"coefficients_correct": "999999"}, "coefficients_correct exceeds coefficients_total"),
    ({"keys_recovered": "2"}, "keys_recovered exceeds n_keys"),
    ({"inner_site_errors": "53249"}, "inner_site_errors exceeds inner_sites_total"),
    ({"neg_site_errors": "2049"}, "neg_site_errors exceeds neg_sites_total"),
    ({"anomalous_outer_iterations": "2049"}, "anomalous_outer_iterations exceeds"),
    ({"p_site_inner": "1.5"}, "p_site_inner=1.5 is outside [0, 1]"),
    ({"p_full_key": "nan"}, "p_full_key=nan is outside [0, 1]"),
    ({"overlap_neg": "-1e-300"}, "overlap_neg=-1e-300 is outside [0, 1]"),
    ({"key.0.f": "1,2,3"}, "key.0.f has 3 entries, not n=512"),
    ({"key.0.g_correct": "1"}, "key.0.g_correct has 1 entries, not n=512"),
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


class TestConfigFile:
    def test_values_become_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nlogn = 10  # short traces\n")
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        rc, _ = _quiet("simulate", "--config", str(cfg), "--out", a)
        assert rc == 0
        rc, _ = _quiet("simulate", "--seed", "5", "--logn", "10", "--out", b)
        assert rc == 0
        assert (tmp_path / "a.trc").read_bytes() == (tmp_path / "b.trc").read_bytes()

    def test_explicit_flag_wins(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nlogn = 10\n")
        a = str(tmp_path / "a")
        b = str(tmp_path / "b")
        _quiet("simulate", "--config", str(cfg), "--seed", "6", "--out", a)
        _quiet("simulate", "--seed", "6", "--logn", "10", "--out", b)
        assert (tmp_path / "a.trc").read_bytes() == (tmp_path / "b.trc").read_bytes()

    def test_dashed_keys_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("noise-sigma = 0.5\nlogn = 10\n")
        out = str(tmp_path / "a")
        rc, _, _ = _run(capsys, "simulate", "--config", str(cfg), "--out", out)
        assert rc == 0
        md = traceio.read_trace_set(out + ".trc").metadata
        assert md["noise_sigma"] == "0.5"

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("volume = 11\n")
        rc, _, err = _run(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a")
        )
        assert rc == 2
        assert "unknown config keys: volume" in err

    def test_bad_value(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = banana\n")
        rc, _, err = _run(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a")
        )
        assert rc == 2
        assert "invalid for seed" in err

    def test_config_without_path(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys, "simulate", "--out", str(tmp_path / "a"), "--config"
        )
        assert rc == 2
        assert "--config needs a path" in err

    def test_missing_config_file(self, capsys, tmp_path):
        rc, _, err = _run(
            capsys,
            "simulate", "--config", str(tmp_path / "absent.cfg"),
            "--out", str(tmp_path / "a"),
        )
        assert rc == 2
        assert "error:" in err

    def test_malformed_line(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        rc, _, err = _run(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "a")
        )
        assert rc == 2
        assert "expected key=value" in err


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


class TestThreadsAndMetadataErrors:
    @pytest.mark.parametrize("command", ["simulate", "profile"])
    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, capsys, tmp_path, command, threads):
        rc, _, err = _run(
            capsys, command, "--threads", threads, "--out", str(tmp_path / "x")
        )
        assert rc == 2
        assert "--threads must be at least 1" in err
        assert not list(tmp_path.iterdir())

    def test_outputs_do_not_depend_on_threads(self, tmp_path):
        blobs = []
        for threads in ("1", "3"):
            rc, _ = _quiet(
                "simulate", "--seed", "8", "--logn", "7", "--threads", threads,
                "--out", str(tmp_path / f"t{threads}"),
            )
            assert rc == 0
            blobs.append([(tmp_path / f"t{threads}{s}").read_bytes() for s in (".trc", ".lbl")])
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize(
        "extra",
        [[], ["--poi-count", "2"], ["--samples-per-outer-tail", "7"]],
        ids=["readme", "poi_count_2", "trace_length_430"],
    )
    def test_profile_outputs_do_not_depend_on_threads(self, tmp_path, extra):
        runs = []
        for threads in ("1", "2", "3"):
            out = str(tmp_path / f"t{threads}")
            rc, stdout = _quiet(
                "profile", "--seed", "714", "--traces", "10000", "--threads", threads,
                *extra, "--out", out,
            )
            assert rc == 0
            blobs = [(tmp_path / f"t{threads}.{name}.tpl").read_bytes() for name in ("inner", "neg")]
            runs.append((stdout.replace(out, "OUT"), blobs))
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("fire_slot", [None, "x", "0", "27"])
    def test_profiling_input_with_bad_fire_slot(self, capsys, tmp_path, fire_slot):
        traces, labels = leakage.synthesize_profiling_set(
            seed=42, params=SamplerParams(logn=9), table=default_table(),
            model=leakage.LeakModel(), n_traces=40,
        )
        if fire_slot is None:
            del traces.metadata["fire_slot"]
        else:
            traces.metadata["fire_slot"] = fire_slot
        prefix = str(tmp_path / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        traceio.write_label_set(labels, prefix + ".lbl")
        rc, _, err = _run(
            capsys, "profile", "--in", prefix, "--out", str(tmp_path / "t")
        )
        assert rc == 2
        assert "fire_slot" in err

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

    def test_attack_on_profiling_traces(self, capsys, pipeline, tmp_path):
        traces, _ = leakage.synthesize_profiling_set(
            seed=42, params=SamplerParams(logn=9), table=default_table(),
            model=leakage.LeakModel(), n_traces=1024,
        )
        prefix = str(tmp_path / "prof")
        traceio.write_trace_set(traces, prefix + ".trc")
        rc, _, err = _run(
            capsys, "attack", "--in", prefix, "--templates", pipeline["tpl"]
        )
        assert rc == 2
        assert "not a key-generation campaign" in err
        assert not (tmp_path / "prof.report.txt").exists()

    def test_attack_with_oversized_label_header(self, capsys, pipeline, tmp_path):
        prefix = str(tmp_path / "camp")
        shutil.copy(pipeline["camp"] + ".trc", prefix + ".trc")
        header = traceio._LABEL_HEADER.pack(1, 1, 0xFFFFFFFF, 0xFFFFFFFF)
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
        assert _quiet(
            "analyze", "--p-inner", "0.9", "--p-neg", "0.9", "--out", str(tmp_path / "a.txt")
        )[0] == 0
    finally:
        os.umask(old)
    outputs = sorted(p.name for p in tmp_path.iterdir())
    assert outputs == [
        "a.txt", "camp.lbl", "camp.report.txt", "camp.trc", "tpl.inner.tpl", "tpl.neg.tpl"
    ]
    for name in outputs:
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode, name


class TestAttackAndAnalyzeFlags:
    """attack and analyze take no sampling flags; a shared config still loads."""

    @pytest.mark.parametrize("flag", ["--seed", "--logn", "--table", "--threads"])
    @pytest.mark.parametrize(
        "argv",
        [["attack", "--in", "camp"], ["analyze", "--p-inner", "0.9", "--p-neg", "0.9"]],
        ids=["attack", "analyze"],
    )
    def test_sampling_flags_rejected(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_sampling_config_keys_load_for_attack(self, capsys, pipeline, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\nlogn = 9\nthreads = 1\nnoise-sigma = 2.284\n")
        rc, _, _ = _run(
            capsys, "attack", "--config", str(cfg), "--in", pipeline["camp"],
            "--templates", pipeline["tpl"], "--out", str(tmp_path / "r"),
        )
        assert rc == 0
        assert (tmp_path / "r.report.txt").exists()
