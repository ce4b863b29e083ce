"""The README walkthrough, run as written.

Every `cdtleak ...` line of the README's `sh` blocks runs through
`cli.main`, in order, in one temporary directory. It must exit 0, and
its stdout must equal the `# ` lines that follow it, byte for byte. The
files it writes must have the pinned SHA-256 digests. Every flag of
every command is named somewhere in the README.
"""

import argparse
import contextlib
import hashlib
import io
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from test_batch import GOLDEN_NUMPY

from cdtleak.cli import _build_parser, _fmt_pct, main
from cdtleak.recover import load_report

README = Path(__file__).resolve().parent.parent / "README.md"

# SHA-256 of each file the walkthrough writes, recorded with numpy
# GOLDEN_NUMPY, like test_batch's digests.
WALKTHROUGH_SHA256 = {
    "camp.trc": "ed66e3d7c23ca995ddbac7e325dcf39da0d7a0f17a3243f62353f7ba67198f40",
    "camp.lbl": "9ad960e9e4e248b02f92bdb778b3c5d9fb5efd4f20a74183cbb7398893e56c94",
    "tpl.inner.tpl": "058f2d8dcd56d17350b8514ae690ffbd4805545abe2ddb699d303bd33bff88de",
    "tpl.neg.tpl": "6248711b71b5eb68e428855a80ef24f588f6ac45057760713df794178e54f785",
    "camp.report.txt": "59784526f5dccb097d2bb4aa316a6965408839f185df4d466d57f33fa18c83dd",
}


def _steps():
    """(argv, expected stdout lines) of each README command, in order."""
    steps = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        expected = None
        for line in block.splitlines():
            if line.startswith("cdtleak "):
                expected = []
                steps.append((shlex.split(line)[1:], expected))
            elif line.startswith("# ") and expected is not None:
                expected.append(line[2:])
            else:
                expected = None
    return steps


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    """Each README command's argv, expected lines, exit code and stdout."""
    root = tmp_path_factory.mktemp("readme")
    before = os.getcwd()
    os.chdir(root)
    try:
        runs = []
        for argv, expected in _steps():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = main(argv)
            runs.append((argv, expected, rc, buf.getvalue()))
    finally:
        os.chdir(before)
    return root, runs


def test_commands_print_what_the_readme_shows(walkthrough):
    _, runs = walkthrough
    commands = [argv[0] for argv, *_ in runs]
    assert commands == ["simulate", "profile", "attack", "report", "analyze", "analyze"]
    for argv, expected, rc, out in runs:
        assert rc == 0, argv
        assert out == "".join(line + "\n" for line in expected), argv


def test_analyze_agrees_with_the_attack_report(walkthrough):
    # analyze and attack compute the success model apart; both must
    # give the same rates for the same templates.
    root, runs = walkthrough
    out = next(out for argv, *_, out in runs if argv == ["analyze", "--templates", "tpl"])
    report = load_report(root / "camp.report.txt")
    lines = out.splitlines()
    for point, area in (("inner", report.overlap_inner), ("neg", report.overlap_neg)):
        assert f"overlap {point} area: {area!r} (fraction of total: {0.5 * area!r})" in lines
    assert f"per-site success inner: {_fmt_pct(report.p_site_inner)}" in lines
    assert f"per-site success neg: {_fmt_pct(report.p_site_neg)}" in lines
    assert f"per-coefficient success: {_fmt_pct(report.p_coefficient)}" in lines
    assert f"full-key success (n=512): {_fmt_pct(report.p_full_key)}" in lines


@pytest.mark.skipif(
    np.__version__ != GOLDEN_NUMPY, reason=f"digests recorded with numpy {GOLDEN_NUMPY}"
)
def test_files_have_the_pinned_bytes(walkthrough):
    root, _ = walkthrough
    assert sorted(p.name for p in root.iterdir()) == sorted(WALKTHROUGH_SHA256)
    for name, digest in WALKTHROUGH_SHA256.items():
        assert hashlib.sha256((root / name).read_bytes()).hexdigest() == digest, name


def test_every_flag_is_documented():
    text = README.read_text()
    (subs,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = [
        (command, option)
        for command, sub in subs.choices.items()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
    ]
    # Whole flags only: --in must not count as named by --inner.
    missing = [f"{command} {option}" for command, option in flags
               if not re.search(re.escape(option) + r"(?![\w-])", text)]
    assert missing == []
