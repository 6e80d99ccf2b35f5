"""The benchmark's own checks: span nesting, self-time accounting, golden
checking, seeded inputs, that untraced runs install nothing, that the
host-speed calibration is blind to the heap, and that the metric lists
are the ones in BENCHMARK.json.

Run with ``python -m pytest perfbench/tests -q`` from the checkout root.
Ops here are shrunk copies of the benchmark workloads so the suite is
quick; the code paths are the benchmark's own.
"""

import dataclasses
import gc
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import BENCHMARK
from perfbench import run as bench
from perfbench import tracing
from perfbench.workloads import SIM_SEEDS, WORKLOADS, digest

ROOT = Path(__file__).resolve().parents[2]
EPS = 1e-9


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], scale=0.01, ticks=1)


def traced_op(workload, sim_seed=SIM_SEEDS[0]):
    tracer = tracing.Tracer()
    runner = None
    if workload.kind == "pressure":
        runner = tracing.TimingRunner(workload.jobs, tracer)
    with tracing.installed(tracer):
        tracer.begin_op(0)
        result = workload.run_op(sim_seed, profiler=tracer, runner=runner)
        trace = tracer.end_op()
    return result, trace, runner


@pytest.fixture(scope="module")
def scenario_trace():
    return traced_op(tiny("thp-khugepaged"))


@pytest.fixture(scope="module")
def pressure_trace():
    return traced_op(tiny("pressure-fanout"))


def check_nesting(spans):
    by_id = {span["id"]: span for span in spans}
    busy_of_children = {}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        assert span["start"] >= parent["start"] - EPS, span["name"]
        assert span["end"] <= parent["end"] + EPS, span["name"]
        if span["pid"] == parent["pid"]:
            busy_of_children[parent["id"]] = (
                busy_of_children.get(parent["id"], 0.0) + span["busy_s"])
    for sid, busy in busy_of_children.items():
        assert busy <= by_id[sid]["busy_s"] + EPS, by_id[sid]["name"]


def test_child_spans_never_exceed_their_parent(scenario_trace, pressure_trace):
    for _, trace, _ in (scenario_trace, pressure_trace):
        check_nesting(trace.spans)
    names = {span["name"] for span in scenario_trace[1].spans}
    # Phase spans are the parents of the layer spans.
    assert "phase:build" in names and "jvm:JavaVM.startup" in names
    by_id = {span["id"]: span for span in scenario_trace[1].spans}
    startup = next(s for s in scenario_trace[1].spans
                   if s["name"] == "jvm:JavaVM.startup")
    assert by_id[startup["parent"]]["name"] == "phase:build"


def test_self_times_sum_to_no_more_than_traced_wall(scenario_trace):
    _, trace, _ = scenario_trace
    root = trace.spans[0]
    layers = tracing.layer_self_times(trace.spans)
    assert all(value >= -EPS for value in layers.values())
    assert sum(layers.values()) <= root["busy_s"] + EPS
    metrics = tracing.layer_metrics(trace)
    assert metrics["mem.workingset.range_queries"] > 0
    assert metrics["guestos.thp.collapses"] > 0


def test_parallel_units_are_accounted_per_process(pressure_trace):
    result, trace, runner = pressure_trace
    selfs = tracing.self_times(trace.spans)
    root = trace.spans[0]
    per_pid = {}
    for span in trace.spans:
        per_pid[span["pid"]] = per_pid.get(span["pid"], 0.0) + (
            selfs[span["id"]])
    assert per_pid.pop(root["pid"]) <= root["busy_s"] + EPS
    for pid, total in per_pid.items():
        units = sum(unit.wall_s for unit in runner.units if unit.pid == pid)
        assert total <= units + EPS
    exec_metrics = runner.metrics()
    assert exec_metrics["exec.units"] == 5
    assert exec_metrics["exec.pickle_bytes"] > 0
    assert exec_metrics["exec.dispatch_s"] >= 0
    # The fanned-out family equals the serial one.
    serial = tiny("pressure-fanout").run_op(SIM_SEEDS[0], jobs=1)
    assert digest(result) == digest(serial)


def test_tampered_golden_counts_as_failed_op():
    workload = tiny("preload-incremental")
    first = workload.op_inputs(3)[0]
    good = digest(workload.run_op(first))
    goldens = {"workloads": {workload.name: {str(first): good}}}
    run = bench.run_ops(workload, 3, 0.0, False, goldens)
    assert [op["problems"] for op in run["ops"]] == [[]]
    tampered = good[:-1] + ("0" if good[-1] != "0" else "1")
    goldens["workloads"][workload.name][str(first)] = tampered
    run = bench.run_ops(workload, 3, 0.0, False, goldens)
    assert len(run["ops"]) == 1 and run["ops"][0]["problems"]


def test_failed_op_fails_the_run(tmp_path, monkeypatch, capsys):
    workload = tiny("paper-fullscan")
    goldens = {"workloads": {workload.name: {
        str(seed): "0" * 64 for seed in SIM_SEEDS}}}
    path = tmp_path / "goldens.json"
    path.write_text(json.dumps(goldens))
    monkeypatch.setattr(bench, "GOLDENS", path)
    monkeypatch.setattr(bench, "time_setup", lambda name, seed: [(0.5, 0.5)])
    monkeypatch.setitem(WORKLOADS, workload.name, workload)
    status = bench.main(["--workload", workload.name, "--seed", "1",
                         "--seconds", "0", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    assert status == 1


def test_calibration_runs_without_the_garbage_collector():
    collections = []
    callback = lambda phase, info: collections.append(phase)  # noqa: E731
    # Garbage an op could leave behind: young, cyclic, uncollected.
    gc.disable()
    garbage = [[] for _ in range(50_000)]
    for item in garbage:
        item.append(item)
    del garbage
    gc.enable()
    gc.callbacks.append(callback)
    try:
        bench.calibration_s()
    finally:
        gc.callbacks.remove(callback)
        gc.collect()
    assert collections == []
    assert gc.isenabled()


def test_metric_and_workload_lists_come_from_benchmark_json(
        scenario_trace, pressure_trace):
    assert bench.WORKLOAD_NAMES == tuple(
        workload["name"] for workload in BENCHMARK["workloads"])
    for entry in BENCHMARK["workloads"]:
        assert WORKLOADS[entry["name"]].why == entry["why"]
    ops = [{"traced": False, "wall_s": 1.0, "cpu_s": 1.0, "scale": 1.0,
            "tps_saving_mb": 1.0}]
    assert list(bench.end_to_end(ops, [(0.5, 0.5)])) == list(bench.END_TO_END_UNITS)
    traces = []
    for _, trace, runner in (scenario_trace, pressure_trace):
        layer = tracing.layer_metrics(trace)
        layer.update(runner.metrics() if runner is not None
                     else tracing.exec_metrics([], 0.0, 1))
        traces.append((trace, layer))
    computed = set(traces[0][1]) | {"trace.op_s_p50", "trace.overhead_pct"}
    assert computed == set(tracing.PER_LAYER_UNITS)
    ops = [dict(ops[0], traced=traced) for traced in (False, True)]
    assert list(bench.per_layer(ops, traces)) == list(tracing.PER_LAYER_UNITS)


def test_seed_fixes_the_inputs():
    assert tuple(WORKLOADS) == bench.WORKLOAD_NAMES
    for workload in WORKLOADS.values():
        assert workload.op_inputs(7) == workload.op_inputs(7)
        assert workload.op_inputs(7) != workload.op_inputs(8)
        assert sorted(workload.op_inputs(7)) == sorted(SIM_SEEDS)
        specs = [workload.spec(seed) for seed in workload.op_inputs(7)]
        assert specs == [workload.spec(seed) for seed in workload.op_inputs(7)]


def test_untraced_runs_leave_wrapped_attributes_untouched():
    clean = tracing.bindings()
    run = bench.run_ops(tiny("paper-fullscan"), 1, 0.0, False, {})
    assert run["untouched"] and tracing.bindings() == clean
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert tracing.wrapped_bindings()
        assert tracing.bindings() != clean
    assert tracing.wrapped_bindings() == []
    assert tracing.bindings() == clean


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(
        [sys.executable] + command[1:]
        + ["--workload", "paper-fullscan", "--seed", "1", "--seconds", "1",
           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
