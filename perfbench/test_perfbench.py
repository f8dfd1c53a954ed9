"""Tests of the benchmark's own arithmetic, tracing and failure accounting."""

import json
import re
import threading
from pathlib import Path

import pytest

import child
import run
import spans

CONTRACT = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def span(sid, start, end, parent=None, name="x"):
    return [sid, name, start, end, parent, None, None]


def test_self_time_of_nested_spans():
    got = spans.self_times([span(1, 0.0, 10.0), span(2, 1.0, 4.0, 1), span(3, 2.0, 3.0, 2), span(4, 5.0, 6.0, 1)])
    assert got == pytest.approx({1: 6.0, 2: 2.0, 3: 1.0, 4: 1.0})


def test_self_time_counts_overlapping_children_once():
    # two children running at once under one parent, and one that outlives it
    got = spans.self_times([span(1, 0.0, 10.0), span(2, 1.0, 5.0, 1), span(3, 3.0, 8.0, 1), span(4, 9.0, 12.0, 1)])
    assert got[1] == pytest.approx(10.0 - 7.0 - 1.0)


def test_concurrent_threads_keep_separate_parents():
    tracer = spans.Tracer()
    barrier = threading.Barrier(2, timeout=10)
    inner = tracer.wrap("inner", lambda: barrier.wait())
    outer = tracer.wrap("outer", lambda tag, trial: inner(), trial_of=lambda args: f"{args[0]}:{args[1]}")
    threads = [threading.Thread(target=outer, args=("g", k)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s[0]: s for s in tracer.spans}
    inners = [s for s in tracer.spans if s[1] == "inner"]
    assert len(inners) == 2
    for s in inners:
        parent = by_id[s[4]]
        assert parent[1] == "outer" and parent[5] == s[5]
    assert {s[5] for s in inners} == {"g:0", "g:1"}
    # the two trials overlapped in time, yet each outer span's self time
    # excludes only its own child
    self_s = spans.self_times(tracer.spans)
    for s in inners:
        parent = by_id[s[4]]
        assert self_s[parent[0]] == pytest.approx((parent[3] - parent[2]) - (s[3] - s[2]))


def test_span_is_recorded_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert [s[1] for s in tracer.spans] == ["boom"]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value, n = spans.tail(range(1, 101))
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10
    pct, value, n = spans.tail([5.0, 1.0, 3.0])
    assert (pct, value, n) == (100.0, 5.0, 3)
    pct, value, n = spans.tail(range(11))
    assert value == 0 and n == 11
    assert spans.tail([])[2] == 0


def test_metric_names_are_well_formed_and_unique():
    names = [w["name"] for w in CONTRACT["workloads"]]
    names += [m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in CONTRACT["workloads"]} == set(run.TRIALS)
    assert "setup_s" in {m["name"] for m in CONTRACT["end_to_end"]}


def test_traced_run_counts_the_calls_between_layers():
    from ttinherit.experiment import desk_preset, run_experiment

    tracer = spans.Tracer()
    restore = spans.instrument(tracer)
    try:
        run_experiment(desk_preset(trials=2), write=False)
    finally:
        restore()
    totals = spans.layer_totals(tracer.spans)
    n = totals["trials"]
    assert n == 6
    assert totals["tt.interface.left"] == 18 * n
    assert totals["tt.interface.right"] == 15 * n
    assert totals["tt.interface.distinct"] == 18 * n
    assert totals["tt.unfolding_svd.calls"] == 12 * n
    assert totals["tt.submatrix_svd.calls"] == 3 * n
    assert totals["experiment.sample.calls"] == 6 * n
    assert 0.0 < totals["experiment.run_trial.self_s"] < totals["experiment.run_trial.total_s"]


def test_a_run_that_raises_or_fails_the_gate_fails_all_its_trials(tmp_path, monkeypatch):
    from ttinherit import experiment
    from ttinherit.errors import GenerationError

    def raising(config, write=True):
        raise GenerationError("no draw")

    monkeypatch.setattr(experiment, "run_experiment", raising)
    report_path = tmp_path / "report.json"
    child.main(["desk", "7", str(tmp_path / "out"), str(report_path)])
    raised = json.loads(report_path.read_text())
    assert raised["completed"] == 0 and raised["attempted"] == 3 * run.TRIALS["desk"]
    assert "GenerationError" in raised["problems"][0]

    n = raised["attempted"]
    ok = {"attempted": n, "completed": n, "problems": []}
    assert run.account([ok, raised]) == (2 * n, n)
    assert run.problems_of([ok, raised]) == raised["problems"]
    # a run that completes every trial but fails the gate also fails them all
    wrong = {"attempted": n, "completed": n, "problems": ["1 bound violations"]}
    assert run.account([ok, wrong]) == (2 * n, n)
