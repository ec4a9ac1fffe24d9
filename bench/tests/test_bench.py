"""Tests of the benchmark itself: generators, span arithmetic, tracer
patching, and a tiny-input run of every workload.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
import run_bench  # noqa: E402
import spreademb  # noqa: E402
import spreademb.cli  # noqa: E402,F401
import workloads  # noqa: E402
from spans import Span, Tracer, layer_summary, self_times, union_length  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _arrays(c: inputs.Contacts):
    return c.n_nodes, c.src.tolist(), c.dst.tolist(), c.times.tolist()


@pytest.mark.parametrize("make", [
    lambda seed: inputs.planted_partition(seed, n=60),
    lambda seed: inputs.heavy_tailed(seed, 300, 3000),
])
def test_generators_deterministic_per_seed_and_differ_across_seeds(make):
    a, b, c = make(5), make(5), make(6)
    assert _arrays(a) == _arrays(b)
    assert a.sha256() == b.sha256()
    assert a.sha256() != c.sha256()
    assert np.all(np.diff(a.times) >= 0)
    assert np.all(a.src != a.dst)


def test_heavy_tailed_shape_is_exact_and_has_no_isolated_node(tmp_path):
    c = inputs.heavy_tailed(3, 300, 3000)
    shape = c.shape()
    assert shape["n_contacts"] == 3000
    assert shape["n_edges"] <= 3000
    assert len(np.unique(np.concatenate([c.src, c.dst]))) == 300
    digest = c.write_edge_list(tmp_path / "net.txt")
    assert digest == c.sha256()
    tn = spreademb.load_temporal(tmp_path / "net.txt")
    st = spreademb.stats(tn, spreademb.aggregate(tn))
    assert (st.n_nodes, st.n_contacts, st.n_edges, st.n_timestamps) == (
        shape["n_nodes"], shape["n_contacts"], shape["n_edges"], shape["n_timestamps"])


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 7]
    spans = [Span(0, None, "cli", "root", 0.0, 10.0),
             Span(1, 0, "graphs", "a", 1.0, 4.0),
             Span(2, 0, "evaluation", "b", 5.0, 9.0),
             Span(3, 2, "cli", "c", 6.0, 7.0)]
    assert self_times(spans) == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    summary = layer_summary(spans, ("cli", "graphs", "evaluation", "walks"))
    # the cli layer's nested span is inside its outer one: busy is not 11
    assert summary["cli"] == {"busy_s": 10.0, "self_s": 4.0, "calls": 2}
    assert summary["graphs"] == {"busy_s": 3.0, "self_s": 3.0, "calls": 1}
    assert summary["walks"] == {"busy_s": 0.0, "self_s": 0.0, "calls": 0}


def test_union_length_merges_overlaps():
    assert union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert union_length([]) == 0.0


def test_tracer_patches_every_binding_and_restores():
    original = spreademb.graphs.aggregate
    assert spreademb.spreading.aggregate is original
    tracer = Tracer()
    tracer.install(layers.targets(spreademb))
    try:
        for module in (spreademb, spreademb.graphs, spreademb.spreading,
                       spreademb.evaluation, spreademb.cli):
            assert getattr(module, "aggregate", None) is not original
        tn = spreademb.TemporalNetwork(4, [0, 1, 2], [1, 2, 3], [0, 1, 2])
        split = spreademb.make_split(tn, 0)
        with tracer.paused():
            spreademb.aggregate(tn)
    finally:
        tracer.uninstall()
    assert spreademb.spreading.aggregate is original
    make_split, aggregate = tracer.spans
    assert make_split.name == "evaluation.make_split" and make_split.parent is None
    assert aggregate.name == "graphs.aggregate" and aggregate.parent == make_split.id
    assert make_split.info == {"split_seed": split.split_seed}
    assert tracer.overhead_s > 0


def test_rates_divide_by_the_steps_they_count():
    rounds = [{"scaled": {"a.load": 2.0, "a.sample": 3.0, "b.run": 5.0}},
              {"scaled": {"a.load": 1.0, "a.sample": 4.0, "b.run": 6.0}}]

    class Workload:
        def unscored_steps(self):
            return {"a.sample"}

        def ingest(self):
            return 600, "a."

        def realizations(self):
            return 3

    m = run_bench.end_to_end_metrics(Workload(), rounds, [0.2, 0.1, 0.3], [0.5, 0.7])
    assert m["wall_s"] == 1.5 + 3.5 + 5.5   # medians of two rounds
    assert m["realizations_per_s"] == 3 / (1.5 + 5.5)
    assert m["contacts_per_s"] == 600 / (1.5 + 3.5)
    assert m["setup_s"] == 0.2
    assert m["auc_mean"] == pytest.approx(0.6)


def test_benchmark_json_names_match_the_runner():
    assert SPEC["command"][1] == "bench/run_bench.py"
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run_bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER_UNITS


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink every workload's input so a whole run takes seconds."""
    monkeypatch.setattr(run_bench, "RUNS_DIR", tmp_path)
    monkeypatch.setattr(workloads.C7Protocol, "n_nodes", 40)
    for cls in (workloads.CliGrid, workloads.Corpus1k, workloads.Ingest200k):
        monkeypatch.setattr(cls, "n_nodes", 60)
        monkeypatch.setattr(cls, "n_total_contacts", 600)
    monkeypatch.setattr(workloads.Ingest200k, "n_sampled_pairs", 20)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_and_passes_its_checks(tiny, tmp_path, name, trace):
    se, import_s = run_bench.import_spreademb()
    report, result = run_bench.run(se, import_s, name, seed=3, seconds=0.01, trace=bool(trace))
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert [m for m in result["metrics"]] == [m["name"] for m in listed]
    assert all(result["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)
    assert report["checks_failed"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert (tmp_path / f"{name}-seed3-trace{trace}.json").is_file()
    if trace:
        assert result["metrics"]["failed_frac"]["value"] == 0.0
        assert result["metrics"]["trace.overhead_s"]["value"] > 0
