"""The one key=value codec of trace metadata, templates and reports.

`traceio.encode_key_values` writes and `traceio.parse_key_values` reads
every one of them: UTF-8 only, one `key=value` line per field, each key
once, empty lines skipped and every other character kept, so a `#` or a
space is part of its key or value. The writer refuses what the reader
would refuse, and whatever it writes reads back unchanged. A field's value
reads only in the form its encoder writes. Each reader refuses keys that
name none of its fields.
"""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdtleak import traceio
from cdtleak.cli import main
from cdtleak.errors import CdtLeakError, DomainError, ReportFormatError, TemplateFormatError
from cdtleak.recover import RecoveryReport, load_report, save_report
from cdtleak.template import ClassStats, Template, encode_template, load_template
from test_readme import walkthrough  # a fixture: the README flow's files

NOT_UTF8 = b"\xff\xfe=1\n"


def _text(report: RecoveryReport) -> str:
    """The report file's text."""
    return traceio.encode_key_values(report.to_pairs()).decode("utf-8")


def _report(text: str) -> RecoveryReport:
    """The report a file of this text holds."""
    values = traceio.parse_key_values(text.encode("utf-8"), ReportFormatError)
    return RecoveryReport.from_values(values)


UNLABELED = RecoveryReport(
    n_keys=2,
    n=2,
    poly_count=2,
    outer_count=2,
    inner_count=3,
    keys_f=[[1, -2], [0, 3]],
    keys_g=[[-1, 0], [2, 2]],
    inner_sites_total=48,
    inner_sites_ones=5,
    neg_sites_total=16,
    neg_sites_ones=4,
    anomalous_outer_iterations=1,
    mean_abs_margin_inner=12.5,
    mean_abs_margin_neg=0.1,
    overlap_inner=2.5e-05,
    overlap_neg=1.0 / 3.0,
    p_site_inner=0.9999875,
    p_site_neg=1.0,
    p_coefficient=0.99,
    p_full_key=0.9,
)

UNLABELED_TEXT = """\
report_version=1
n_keys=2
n=2
poly_count=2
outer_count=2
inner_count=3
inner_sites_total=48
inner_sites_ones=5
neg_sites_total=16
neg_sites_ones=4
anomalous_outer_iterations=1
mean_abs_margin_inner=12.5
mean_abs_margin_neg=0.1
overlap_inner=2.5e-05
overlap_neg=0.3333333333333333
p_site_inner=0.9999875
p_site_neg=1.0
p_coefficient=0.99
p_full_key=0.9
has_labels=0
key.0.f=1,-2
key.0.g=-1,0
key.1.f=0,3
key.1.g=2,2
"""

LABELED = dataclasses.replace(
    UNLABELED,
    has_labels=True,
    inner_site_errors=1,
    neg_site_errors=0,
    coefficients_correct=7,
    coefficients_total=8,
    keys_recovered=1,
    correct_flags_f=["11", "01"],
    correct_flags_g=["11", "11"],
)

LABELED_TEXT = UNLABELED_TEXT.split("has_labels=0\n")[0] + """\
has_labels=1
inner_site_errors=1
neg_site_errors=0
coefficients_correct=7
coefficients_total=8
keys_recovered=1
key.0.f=1,-2
key.0.g=-1,0
key.0.f_correct=11
key.0.g_correct=11
key.1.f=0,3
key.1.g=2,2
key.1.f_correct=01
key.1.g_correct=11
"""


def _template():
    return Template(poi=3, class0=ClassStats(40.0, 16.0, 100),
                    class1=ClassStats(70.0, 1.0 / 3.0, 90))


def _commented(text: str) -> str:
    """The same key=value text with spaces around `=` and `#` comments."""
    lines = ["# written by hand", ""]
    for line in text.splitlines():
        k, v = line.split("=", 1)
        lines.append(f"  {k} =  {v}   # {k}")
    return "\n".join(lines) + "\n"


class TestParseKeyValues:
    def test_rules(self):
        blob = b"a=1\n\n #k = v # c\nc==2\n"
        assert traceio.parse_key_values(blob, CdtLeakError) == {
            "a": "1",
            " #k ": " v # c",
            "c": "=2",
        }
        with pytest.raises(CdtLeakError, match="^line 1: expected key=value$"):
            traceio.parse_key_values(b"# comment\na=1\n", CdtLeakError)

    def test_line_number_in_error(self):
        # Skipped empty lines still count.
        with pytest.raises(ReportFormatError, match="^line 3: expected key=value$"):
            traceio.parse_key_values(b"a=1\n\nno equals\n", ReportFormatError)

    def test_empty_key(self):
        with pytest.raises(ReportFormatError, match="^line 2: empty key$"):
            traceio.parse_key_values(b"a=1\n=2\n", ReportFormatError)

    def test_read_text_names_the_path(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(TemplateFormatError, match="bad.txt"):
            traceio.read_text(path, TemplateFormatError)

    def test_trace_metadata_keeps_every_character(self, tmp_path):
        metadata = {"#k": " v ", "note": "a b # c", "eq": "x=y"}
        path = tmp_path / "m.trc"
        traceio.write_trace_set(
            traceio.TraceSet(np.zeros((1, 2), dtype=np.float32), metadata), path
        )
        assert traceio.read_trace_set(path).metadata == metadata


_PAIRS = st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=6)


class TestOneCodec:
    """What the writer accepts reads back unchanged; the rest it refuses with DomainError."""

    @settings(max_examples=300, deadline=None)
    @given(_PAIRS)
    def test_round_trip(self, pairs):
        try:
            blob = traceio.encode_key_values(pairs)
        except DomainError:
            return
        assert list(traceio.parse_key_values(blob, CdtLeakError).items()) == pairs

    @settings(max_examples=100, deadline=None)
    @given(_PAIRS)
    def test_trace_metadata_round_trip(self, tmp_path_factory, pairs):
        metadata = dict(pairs)
        path = tmp_path_factory.getbasetemp() / "meta.trc"
        trace_set = traceio.TraceSet(np.zeros((1, 2), dtype=np.float32), metadata)
        try:
            traceio.write_trace_set(trace_set, path)
        except DomainError:
            with pytest.raises(DomainError):
                traceio.encode_key_values(pairs)
            return
        assert traceio.read_trace_set(path).metadata == metadata

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([(1, "a")], "keys and values must be strings"),
            ([("a", 1.5)], "keys and values must be strings"),
            ([("", "v")], "bad key ''"),
            ([("a=b", "v")], "bad key 'a=b'"),
            ([("a\nb", "v")], "bad key 'a\\nb'"),
            ([("k", "1"), ("k", "2")], "bad key 'k'"),
            ([("k", "a\nb")], "value for 'k' contains a newline"),
        ],
    )
    def test_writer_refuses(self, pairs, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            traceio.encode_key_values(pairs)

    def test_field_codec(self):
        stats = ClassStats(40.5, 1.0 / 3.0, 7)
        pairs = traceio.encode_fields(stats, "class1.{}.4")
        assert pairs == [("class1.mu.4", "40.5"), ("class1.var.4", "0.3333333333333333"),
                         ("class1.count.4", "7")]
        values = dict(pairs, other="x")
        assert traceio.decode_fields(ClassStats, values, CdtLeakError, "class1.{}.4") == stats
        assert values == {"other": "x"}
        values = dict(pairs)
        values["class1.var.4"] = "0.0"
        with pytest.raises(TemplateFormatError, match="^var must be finite and at least"):
            traceio.decode_fields(ClassStats, values, TemplateFormatError, "class1.{}.4")


class TestNotUtf8:
    def test_load_template(self, tmp_path):
        path = tmp_path / "t.tpl"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(TemplateFormatError):
            load_template(path)

    def test_load_report(self, tmp_path):
        path = tmp_path / "r.report.txt"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ReportFormatError):
            load_report(path)

    def test_cli_report(self, capsys, tmp_path):
        path = tmp_path / "r.report.txt"
        path.write_bytes(NOT_UTF8)
        assert main(["report", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cli_analyze_templates(self, capsys, tmp_path):
        prefix = tmp_path / "tpl"
        Path(f"{prefix}.neg.tpl").write_bytes(encode_template(_template()))
        (tmp_path / "tpl.inner.tpl").write_bytes(NOT_UTF8)
        assert main(["analyze", "--templates", str(prefix)]) == 2
        assert "error:" in capsys.readouterr().err

class TestCommentsAndSpaces:
    """A `#` line or spaces around `=`, which no writer emits, are refused."""

    def test_template(self, tmp_path):
        plain = tmp_path / "plain.tpl"
        plain.write_bytes(encode_template(_template()))
        commented = tmp_path / "commented.tpl"
        commented.write_text(_commented(plain.read_text()))
        with pytest.raises(TemplateFormatError, match="commented.tpl: line 1: expected key=value$"):
            load_template(commented)

    @pytest.mark.parametrize("report", [UNLABELED, LABELED], ids=["unlabeled", "labeled"])
    def test_report(self, tmp_path, report):
        path = tmp_path / "r.report.txt"
        path.write_text(_commented(_text(report)))
        with pytest.raises(ReportFormatError, match="r.report.txt: line 1: expected key=value$"):
            load_report(path)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda text: "# by hand\n" + text, "line 1: expected key=value"),
         (lambda text: text.replace("=", " = ", 1), "unsupported version None")],
        ids=["comment", "spaces"],
    )
    def test_cli_analyze_templates(self, capsys, tmp_path, edit, message):
        prefix = tmp_path / "tpl"
        for name in ("inner", "neg"):
            Path(f"{prefix}.{name}.tpl").write_bytes(encode_template(_template()))
        path = tmp_path / "tpl.inner.tpl"
        path.write_text(edit(path.read_text()))
        assert main(["analyze", "--templates", str(prefix)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda text: "# by hand\n" + text, "line 1: expected key=value"),
         (lambda text: text.replace("n_keys=", "n_keys = "), "missing field 'n_keys'")],
        ids=["comment", "spaces"],
    )
    def test_cli_report(self, capsys, tmp_path, edit, message):
        path = tmp_path / "r.report.txt"
        path.write_text(edit(LABELED_TEXT))
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err


class TestReportText:
    """Exact report text, so the field order is pinned whatever numpy runs."""

    @pytest.mark.parametrize(
        "report, text",
        [(UNLABELED, UNLABELED_TEXT), (LABELED, LABELED_TEXT)],
        ids=["unlabeled", "labeled"],
    )
    def test_literal_and_round_trip(self, tmp_path, report, text):
        assert _text(report) == text
        assert _report(text) == report
        path = tmp_path / "r.report.txt"
        save_report(report, path)
        assert path.read_bytes() == text.encode("utf-8")
        assert load_report(path) == report

    def test_labeled_fields_refused_without_labels(self):
        # A ground-truth claim that `report` would never show is refused.
        text = UNLABELED_TEXT + "keys_recovered=2\nkey.0.f_correct=11\n"
        message = "^unknown keys: key.0.f_correct, keys_recovered$"
        with pytest.raises(ReportFormatError, match=message):
            _report(text)

    @pytest.mark.parametrize("value", ["2", "-1", "true"])
    def test_has_labels_is_0_or_1(self, value):
        text = LABELED_TEXT.replace("has_labels=1\n", f"has_labels={value}\n")
        reason = ("invalid literal for int() with base 10: 'true'" if value == "true"
                  else f"'{value}' is not in canonical bool form")
        message = f"^field 'has_labels': {re.escape(reason)}$"
        with pytest.raises(ReportFormatError, match=message):
            _report(text)

    def test_missing_labeled_field(self):
        text = LABELED_TEXT.replace("keys_recovered=1\n", "")
        with pytest.raises(ReportFormatError, match="keys_recovered"):
            _report(text)


class TestDuplicateKeys:
    """A key given twice is an error, not a silent last-one-wins."""

    def test_parse_key_values(self):
        with pytest.raises(ReportFormatError, match="^line 3: duplicate key 'n_keys'$"):
            traceio.parse_key_values(b"n_keys=1\n\nn_keys=5\n", ReportFormatError)
        # A space is part of the key, so " n_keys" is another key.
        values = traceio.parse_key_values(b"n_keys=1\n n_keys=5\n", ReportFormatError)
        assert values == {"n_keys": "1", " n_keys": "5"}

    def test_cli_analyze_templates(self, capsys, tmp_path):
        prefix = tmp_path / "tpl"
        for name in ("inner", "neg"):
            Path(f"{prefix}.{name}.tpl").write_bytes(encode_template(_template()))
        path = tmp_path / "tpl.inner.tpl"
        path.write_text(path.read_text() + "class0.mu.0=41.0\n")
        assert main(["analyze", "--templates", str(prefix)]) == 2
        assert "duplicate key 'class0.mu.0'" in capsys.readouterr().err

    def test_cli_report(self, capsys, tmp_path):
        path = tmp_path / "r.report.txt"
        path.write_text(UNLABELED_TEXT + "n_keys=5\n")
        assert main(["report", str(path)]) == 2
        assert "duplicate key 'n_keys'" in capsys.readouterr().err


class TestUnknownKeys:
    """A key that names no field is an error, not silently skipped."""

    @pytest.mark.parametrize("extra", ["volume", "class0.mu.2", "class1.count.7"])
    def test_template(self, tmp_path, extra):
        path = tmp_path / "t.tpl"
        path.write_bytes(encode_template(_template()))
        path.write_text(path.read_text() + f"{extra}=11\n")
        with pytest.raises(TemplateFormatError, match=f"^unknown keys: {extra}$"):
            load_template(path)

    @pytest.mark.parametrize("report", [UNLABELED, LABELED], ids=["unlabeled", "labeled"])
    def test_report(self, report):
        text = _text(report) + "bogus_field=3\nkey.2.f=1,2\n"
        with pytest.raises(ReportFormatError, match="^unknown keys: bogus_field, key.2.f$"):
            _report(text)

    def test_cli_analyze_templates(self, capsys, tmp_path):
        prefix = tmp_path / "tpl"
        for name in ("inner", "neg"):
            Path(f"{prefix}.{name}.tpl").write_bytes(encode_template(_template()))
        path = tmp_path / "tpl.neg.tpl"
        path.write_text(path.read_text() + "volume=11\n")
        assert main(["analyze", "--templates", str(prefix)]) == 2
        assert "unknown keys: volume" in capsys.readouterr().err

    def test_cli_report(self, capsys, tmp_path):
        path = tmp_path / "r.report.txt"
        path.write_text(LABELED_TEXT + "bogus_field=3\n")
        assert main(["report", str(path)]) == 2
        assert "unknown keys: bogus_field" in capsys.readouterr().err


def _with_value(text: str, key: str, value: str) -> str:
    """The key=value text with `key`'s value replaced."""
    assert f"\n{key}=" in "\n" + text
    lines = [f"{key}={value}" if line.startswith(f"{key}=") else line
             for line in text.splitlines()]
    return "\n".join(lines) + "\n"


class TestBadValueNamesItsField:
    """A value its codec rejects is an error that names the key it sits under."""

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("n_keys", "x", "invalid literal for int() with base 10: 'x'"),
            ("key.1.g", "2,y", "invalid literal for int() with base 10: 'y'"),
            ("overlap_neg", "abc", "could not convert string to float: 'abc'"),
            ("report_version", "v1", "invalid literal for int() with base 10: 'v1'"),
        ],
    )
    def test_report(self, key, value, message):
        with pytest.raises(ReportFormatError) as info:
            _report(_with_value(LABELED_TEXT, key, value))
        assert str(info.value) == f"field {key!r}: {message}"

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("class0.mu.0", "abc", "could not convert string to float: 'abc'"),
            ("class1.count.0", "9.5", "invalid literal for int() with base 10: '9.5'"),
            ("pois", "3,x", "invalid literal for int() with base 10: '3,x'"),
        ],
    )
    def test_template(self, tmp_path, key, value, message):
        path = tmp_path / "t.tpl"
        path.write_bytes(encode_template(_template()))
        path.write_text(_with_value(path.read_text(), key, value))
        with pytest.raises(TemplateFormatError) as info:
            load_template(path)
        assert str(info.value) == f"field {key!r}: {message}"

    def test_cli_report(self, capsys, tmp_path):
        path = tmp_path / "r.report.txt"
        path.write_text(_with_value(LABELED_TEXT, "n_keys", "x"))
        assert main(["report", str(path)]) == 2
        assert "field 'n_keys': invalid literal" in capsys.readouterr().err


_WRITTEN = st.one_of(
    st.tuples(st.just("int"), st.integers()),
    st.tuples(st.just("float"), st.floats()),
    st.tuples(st.just("bool"), st.booleans()),
    st.tuples(st.just("list[int]"), st.lists(st.integers(), min_size=1)),
    st.tuples(st.just("str"), st.text().filter(lambda s: "\n" not in s)),
)


class TestCanonicalValues:
    """A file field reads only in the form its encoder writes."""

    @settings(max_examples=300, deadline=None)
    @given(_WRITTEN)
    def test_what_the_writer_gives_reads_back(self, case):
        kind, value = case
        values = {"k": traceio.CODECS[kind][0](value)}
        got = traceio.pop_field(values, "k", kind, CdtLeakError)
        assert got == value or (value != value and got != got)
        assert values == {}

    @pytest.mark.parametrize(
        "kind, raw",
        [("int", " 2_0 "), ("int", "020"), ("int", "+5"), ("int", "-0"),
         ("float", " 1.5\t"), ("float", "1e300"), ("float", "1.50"), ("float", "NaN"),
         ("bool", "2"), ("bool", "01"), ("list[int]", "1, 2"), ("list[int]", "1,+2")],
    )
    def test_other_forms_are_refused(self, kind, raw):
        message = f"^field 'k': {re.escape(repr(raw))} is not in canonical {re.escape(kind)} form$"
        with pytest.raises(ReportFormatError, match=message):
            traceio.pop_field({"k": raw}, "k", kind, ReportFormatError)

    def test_cli_report_of_the_readme_flow(self, capsys, tmp_path, walkthrough):
        root, _ = walkthrough
        path = tmp_path / "camp.report.txt"
        path.write_text(_with_value((root / "camp.report.txt").read_text(), "n_keys", " 2_0 "))
        capsys.readouterr()
        assert main(["report", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: field 'n_keys': ' 2_0 ' is not in canonical int form\n"

    def test_lone_surrogate_is_refused_and_nothing_written(self, tmp_path):
        trace_set = traceio.TraceSet(np.zeros((1, 1), np.float32), {"a": "\udcff"})
        with pytest.raises(DomainError, match="^key 'a' or its value is not encodable as UTF-8$"):
            traceio.write_trace_set(trace_set, tmp_path / "x.trc")
        assert list(tmp_path.iterdir()) == []
