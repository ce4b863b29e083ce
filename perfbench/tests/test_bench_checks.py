import os

import numpy as np
import pytest

import checks
import worker
from cdtleak import cli
from workloads import (
    README_PROFILE_SEED,
    README_SIMULATE_SEED,
    WORKLOADS,
    Paths,
    input_seeds,
    simulate_argv,
)

SEEDS = input_seeds(None)


def _run(argv):
    return worker.call_cli(cli, argv)


@pytest.fixture(scope="module")
def one_key(tmp_path_factory):
    """A 1-key campaign and small templates at the CLI defaults (4 mV)."""
    paths = Paths.under(str(tmp_path_factory.mktemp("bench")))
    rc, _, _ = _run(["simulate", "--seed", str(SEEDS.simulate), "--keys", "1",
                     "--out", paths.campaign])
    assert rc == 0
    rc, stdout, _ = _run(["profile", "--seed", str(SEEDS.profile), "--traces", "2000",
                          "--out", paths.templates])
    assert rc == 0
    return paths, stdout


@pytest.fixture(scope="module")
def noisy_key(tmp_path_factory):
    """A 1-key campaign at 8 mV attacked with 4 mV templates: keys fail."""
    paths = Paths.under(str(tmp_path_factory.mktemp("noisy")))
    rc, _, _ = _run(["simulate", "--seed", str(SEEDS.simulate), "--keys", "1",
                     "--noise-sigma", "8", "--out", paths.campaign])
    assert rc == 0
    rc, _, _ = _run(["profile", "--seed", str(SEEDS.profile), "--traces", "2000",
                     "--out", paths.templates])
    assert rc == 0
    return paths


def _copy(paths: Paths, tmp_path) -> Paths:
    new = Paths.under(str(tmp_path))
    for suffix in (".trc", ".lbl"):
        with open(paths.campaign + suffix, "rb") as src, open(new.campaign + suffix, "wb") as dst:
            dst.write(src.read())
    for name in ("inner", "neg"):
        with open(f"{paths.templates}.{name}.tpl", "rb") as src, \
                open(f"{new.templates}.{name}.tpl", "wb") as dst:
            dst.write(src.read())
    return new


def test_simulate_output_matches_the_scalar_oracle(one_key):
    paths, _ = one_key
    for op in range(3):
        checks.check_simulate(0, SEEDS.simulate, paths, op_index=op, keys=1)


def test_corrupted_trace_row_fails(one_key, tmp_path):
    paths = _copy(one_key[0], tmp_path)
    _, n_samples, rows = checks.read_trace_rows(paths.campaign + ".trc", [0])
    with open(paths.campaign + ".trc", "r+b") as fh:
        fh.seek(-4 * n_samples, os.SEEK_END)  # last row, always spot-checked
        fh.write(np.full(n_samples, 40.0, dtype="<f4").tobytes())
    with pytest.raises(checks.CheckFailed, match="row 1023"):
        checks.check_simulate(0, SEEDS.simulate, paths, keys=1)


def test_wrong_seed_fails(one_key):
    with pytest.raises(checks.CheckFailed):
        checks.check_simulate(0, SEEDS.simulate + 1, one_key[0], keys=1)


def test_nonzero_simulate_exit_fails(one_key):
    with pytest.raises(checks.CheckFailed, match="exited 2"):
        checks.check_simulate(2, SEEDS.simulate, one_key[0], keys=1)


def test_profile_pois(one_key, tmp_path):
    paths, stdout = one_key
    checks.check_profile(0, stdout, paths)
    moved = _copy(paths, tmp_path)
    text = open(moved.templates + ".neg.tpl").read().replace("pois=211", "pois=212")
    open(moved.templates + ".neg.tpl", "w").write(text)
    with pytest.raises(checks.CheckFailed, match="pois"):
        checks.check_profile(0, stdout, moved)


def test_attack_exit_1_counts_as_success_and_a_bad_report_fails(noisy_key, monkeypatch):
    paths = noisy_key
    ops = worker.run_ops(WORKLOADS["attack-20k"], SEEDS, paths, seconds=0, trace=False)
    outcome = ops["outcome"]
    assert ops["failures"] == []
    assert outcome["keys_recovered"] == 0  # so the attack exited 1
    assert outcome["coefficients_total"] == 1024

    real_main = cli.main

    def main_then_corrupt(argv):
        rc = real_main(argv)
        report = paths.campaign + ".report.txt"
        text = open(report).read()
        correct = outcome["coefficients_correct"]
        open(report, "w").write(text.replace(f"coefficients_correct={correct}",
                                             f"coefficients_correct={correct + 1}"))
        return rc

    monkeypatch.setattr(cli, "main", main_then_corrupt)
    ops = worker.run_ops(WORKLOADS["attack-20k"], SEEDS, paths, seconds=0, trace=False)
    assert ops["attempted"] == 1 and len(ops["failures"]) == 1
    assert "counts" in ops["failures"][0]


def test_exit_2_counts_as_failed(noisy_key, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: 2)
    ops = worker.run_ops(WORKLOADS["attack-20k"], SEEDS, noisy_key, seconds=0, trace=False)
    assert ops["outcome"] is None and len(ops["failures"]) == 1


def test_seed_argument_changes_the_inputs():
    assert input_seeds(None) == input_seeds(None)
    assert (input_seeds(None).simulate, input_seeds(None).profile) == (
        README_SIMULATE_SEED, README_PROFILE_SEED)
    assert input_seeds(7) == input_seeds(7)
    seeds = {input_seeds(n) for n in range(20)} | {input_seeds(None)}
    assert len({s.simulate for s in seeds}) == len({s.profile for s in seeds}) == 21
    paths = Paths.under("w")
    assert simulate_argv(input_seeds(1), paths) != simulate_argv(input_seeds(2), paths)
