"""Tests of the span tooling and the benchmark's metric definitions.

    python3 -m pytest perfbench/tests
"""

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from spans import Span, Tracer, aggregate, count_with_parent, overhead_frac, self_times  # noqa: E402
import tracepoints  # noqa: E402


def span(id, parent, name, start, end):
    return Span(id=id, parent=parent, run=1, name=name, start=start, end=end)


def test_self_time_nested_and_siblings():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 3.0),  # sibling of b
        span(2, 0, "b", 4.0, 8.0),
        span(3, 2, "c", 5.0, 6.0),  # nested inside b
        span(4, 3, "d", 5.25, 5.5),  # nested two deep
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 2.0 - 4.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0 - 0.25)
    assert selfs[4] == pytest.approx(0.25)
    # self times partition the root's duration
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        span(0, None, "root", 0.0, 10.0),
        span(1, 0, "a", 1.0, 5.0),
        span(2, 0, "b", 3.0, 7.0),
        span(3, 0, "c", 9.0, 12.0),  # clipped to the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_aggregate_sums_per_name_and_counts_failures():
    spans = [
        span(0, None, "root", 0.0, 4.0),
        span(1, 0, "leaf", 0.0, 1.0),
        span(2, 0, "leaf", 2.0, 3.0),
    ]
    spans[1].counts = {"examples": 8}
    spans[2].counts = {"examples": 16}
    spans[2].error = "RankDeficientError"
    stats = aggregate(spans)
    assert stats["leaf"].calls == 2
    assert stats["leaf"].self_s == pytest.approx(2.0)
    assert stats["leaf"].failed == 1
    assert stats["leaf"].counts["examples"] == 24
    assert stats["root"].self_s == pytest.approx(2.0)


def test_tracer_records_parents_and_errors():
    tracer = Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x * 2

    traced_inner = tracer.wrap(inner, "inner", counts=lambda args, kwargs, result: {"out": result})

    def outer(x):
        try:
            traced_inner(-1)
        except ValueError:
            pass
        return traced_inner(x)

    tracer.run = 7
    assert tracer.call("outer", outer, (3,)) == 6
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (outer_span,) = by_name["outer"]
    failed, ok = by_name["inner"]
    assert outer_span.parent is None
    assert failed.parent == ok.parent == outer_span.id
    assert failed.error == "ValueError" and ok.error is None
    assert ok.counts == {"out": 6}
    assert {s.run for s in tracer.spans} == {7}


def test_missing_patch_point_is_listed_not_raised(monkeypatch):
    module = types.ModuleType("fake_layer")
    module.present = lambda: 1
    monkeypatch.setitem(sys.modules, "fake_layer", module)
    tracer = Tracer()
    assert tracer.patch("fake_layer", "present", "fake.present")
    assert not tracer.patch("fake_layer", "renamed_away", "fake.renamed_away")
    assert not tracer.patch("no_such_module_here", "f", "x.f")
    assert tracer.missing == ["fake_layer.renamed_away", "no_such_module_here.f"]
    assert module.present() == 1 and len(tracer.spans) == 1
    original = tracer._patches[0][2]
    tracer.unpatch()
    assert module.present is original


def test_missing_patch_point_drops_its_metrics_instead_of_zero():
    tracer = Tracer()
    tracer.missing.append("breakeven.linalg.jacobi_eigh")
    tracer.spans = [span(0, None, tracepoints.MAIN_SPAN, 0.0, 1.0)]
    metrics = tracepoints.layer_metrics(tracer, 1, 10, 100, 1.1, 1.0)
    assert "linalg.jacobi_eigh.self_s" not in metrics
    assert "spectra.gram_eigh_per_checkpoint" not in metrics
    assert "linalg.lanczos_topk.self_s" in metrics
    assert metrics["trace.missing"] == (1.0, "count")


def test_gram_eigh_per_checkpoint():
    names = ["spectra.k_spectrum", "spectra.k_top_eigvecs", "linalg.lanczos_topk"]
    spans, t = [], 0.0
    for checkpoint in range(3):
        for parent_name in names:
            pid = len(spans)
            spans.append(span(pid, None, parent_name, t, t + 1.0))
            spans.append(span(pid + 1, pid, "linalg.jacobi_eigh", t + 0.1, t + 0.5))
            t += 1.0
    assert count_with_parent(spans, "linalg.jacobi_eigh", tracepoints.GRAM_PARENTS) == 6
    tracer = Tracer(spans=spans)
    metrics = tracepoints.layer_metrics(tracer, 1, 3, 0, 1.0, 1.0)
    assert metrics["spectra.gram_eigh_per_checkpoint"][0] == pytest.approx(2.0)
    assert metrics["linalg.jacobi_eigh.calls"][0] == 9
    assert metrics["linalg.jacobi_eigh.self_s"][0] == pytest.approx(9 * 0.4)


def test_overhead_frac():
    assert overhead_frac(1.25, 1.0) == pytest.approx(0.25)
    assert overhead_frac(2.0, 2.0) == 0.0
    tracer = Tracer()
    assert tracepoints.layer_metrics(tracer, 2, 0, 0, 3.3, 3.0)["trace.overhead_frac"][0] == pytest.approx(0.1)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracepoints.LAYER_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (unit, _) in tracepoints.LAYER_METRICS.items()
    }
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]


def test_every_patch_point_exists_in_the_source_tree():
    sys.path.insert(0, str(HERE.parent.parent / "src"))
    tracer = Tracer()
    tracepoints.install(tracer)
    try:
        assert tracer.missing == []
    finally:
        tracer.unpatch()
