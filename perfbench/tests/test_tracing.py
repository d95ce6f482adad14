import pytest

from tracing import SpanTable, reduce_spans


def table(names, spans):
    t = SpanTable()
    t.names.extend(names)
    for name, parent, start, end in spans:
        t.name_id.append(names.index(name))
        t.parent.append(parent)
        t.start.append(start)
        t.end.append(end)
    return t


def test_self_time_subtracts_direct_children():
    # a [0, 10] -> b [1, 4] -> c [2, 3];  a -> c [5, 9]
    t = table(["a", "b", "c"], [("a", -1, 0.0, 10.0), ("b", 0, 1.0, 4.0),
                                ("c", 1, 2.0, 3.0), ("c", 0, 5.0, 9.0)])
    self_s, calls, _ = reduce_spans(t)
    assert self_s == pytest.approx({"a": 3.0, "b": 2.0, "c": 5.0})
    assert calls == {"a": 1, "b": 1, "c": 2}
    assert sum(self_s.values()) == pytest.approx(10.0)


def test_inclusive_counts_outermost_span_only():
    # r [0, 10] -> x [0, 6] -> x [1, 4] (recursion);  r -> y [6, 8] -> x [6, 7]
    t = table(["r", "x", "y"], [("r", -1, 0.0, 10.0), ("x", 0, 0.0, 6.0),
                                ("x", 1, 1.0, 4.0), ("y", 0, 6.0, 8.0),
                                ("x", 3, 6.0, 7.0)])
    _, _, incl = reduce_spans(t, {"gx": ("x",), "gxy": ("x", "y"),
                                  "none": ()})
    assert incl == pytest.approx({"gx": 7.0, "gxy": 8.0, "none": 0.0})


def test_several_roots():
    t = table(["a"], [("a", -1, 0.0, 1.0), ("a", -1, 2.0, 5.0)])
    self_s, calls, _ = reduce_spans(t)
    assert self_s == pytest.approx({"a": 4.0}) and calls == {"a": 2}


def test_empty_table():
    assert reduce_spans(table(["a"], []), {"g": ("a",)}) == \
        ({"a": 0.0}, {"a": 0}, {"g": 0.0})


def test_tracer_wraps_and_restores():
    import json
    from pathlib import Path

    from replhom import arquiver, layered
    from replhom.quiver import Quiver, ReplicationSpec
    from tracing import Tracer

    original = layered.hom_basis_rep
    tracer = Tracer()
    tracer.install()
    try:
        assert arquiver.L.hom_basis_rep is not original
        arq = arquiver.ARQuiver(
            ReplicationSpec(Quiver(["a", "b"], [("beta", "b", "a")]), 1))
    finally:
        tracer.uninstall()
    assert layered.hom_basis_rep is original
    assert len(arq.nodes) == 9
    got = tracer.layer_metrics()
    assert got["arquiver.nodes"] == 9
    assert got["arquiver.build_s"] > 0 and got["layered.is_iso_calls"] > 0
    assert got["tilting.approx_calls"] == 0
    assert 0 < got["layered.is_iso_true_ratio"] <= 1
    bench = json.loads((Path(__file__).resolve().parents[2]
                        / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == \
        set(got) | {"trace.overhead_ratio"}
