import types

import pytest

import tracing
from run import op_tail


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_direct_children_only():
    # cli [0, 10] > leakage [1, 9] > sampler [2, 5]; cli > traceio [9, 10]
    tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 5, 9, 9, 10, 10))
    cli = tracer.begin("cli")
    leak = tracer.begin("leakage")
    samp = tracer.begin("sampler")
    tracer.finish(samp)
    tracer.finish(leak)
    io = tracer.begin("traceio.write")
    tracer.finish(io)
    tracer.finish(cli)
    totals = tracing.layer_totals(tracer.spans)
    assert totals["sampler"]["self_s"] == 3
    assert totals["leakage"]["total_s"] == 8
    assert totals["leakage"]["self_s"] == 5
    assert totals["traceio.write"]["self_s"] == 1
    assert totals["cli"]["self_s"] == 1  # 10 - 8 - 1
    assert sum(t["self_s"] for t in totals.values()) == totals["cli"]["total_s"]


def test_spans_of_one_layer_add_up():
    tracer = tracing.Tracer(clock=FakeClock(0, 2, 3, 7))
    for _ in range(2):
        tracer.finish(tracer.begin("recover"))
    totals = tracing.layer_totals(tracer.spans)
    assert totals["recover"] == {"spans": 2, "count": 0, "total_s": 6, "self_s": 6}


def test_finish_out_of_order_is_an_error():
    tracer = tracing.Tracer()
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.finish(outer)


def test_wrappers_count_work_report_absent_names_and_undo(monkeypatch):
    mod = types.ModuleType("fake_layer")
    mod.work = lambda items: list(items)
    original = mod.work
    monkeypatch.setitem(__import__("sys").modules, "fake_layer", mod)
    targets = (
        ("fake", "fake_layer", "work", lambda args, kwargs, result: len(result)),
        ("fake", "fake_layer", "removed_by_refactor", tracing._zero),
    )
    tracer = tracing.Tracer()
    installed = tracing.Installed(tracer, targets)
    assert installed.absent == ["fake_layer.removed_by_refactor"]
    assert mod.work("abc") == ["a", "b", "c"]
    installed.undo()
    assert mod.work is original
    mod.work("xy")  # no longer traced
    totals = tracing.layer_totals(tracer.spans)
    assert totals["fake"]["spans"] == 1 and totals["fake"]["count"] == 3


def test_wrappers_replace_the_callers_binding_not_the_definition():
    from cdtleak import leakage, sampler

    bound = {name: getattr(leakage, name)
             for name in ("generate_polynomials", "sample_coefficient")
             if hasattr(leakage, name)}
    installed = tracing.Installed(tracing.Tracer())
    try:
        for name, fn in bound.items():
            assert getattr(leakage, name).__wrapped__ is fn
            assert getattr(sampler, name) is fn
    finally:
        installed.undo()
    for name, fn in bound.items():
        assert getattr(leakage, name) is fn


def test_tail_needs_ten_ops_beyond_it():
    walls = [float(i) for i in range(30)]
    assert op_tail(walls) == (19.0, 100.0 * 20 / 30)
    assert op_tail(walls[:21]) == (10.0, 100.0 * 11 / 21)
    assert op_tail(walls[:12]) == (6.0, 100.0 * 7 / 12)  # no tail: the upper median

