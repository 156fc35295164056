"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import pickle
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spectralflow import classical, geometry  # noqa: E402


def _answers(result):
    return pickle.dumps([(op.name, op.value, op.error, op.exc)
                         for op in result.ops])


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """One untraced pass that samples the host's speed and one traced
    pass of a workload, seed 0."""
    wl = workloads.WORKLOADS[request.param]
    inputs = wl.inputs(0)
    speed = workloads.HostSpeed()
    plain = workloads.run_pass(wl, inputs, speed=speed)
    plain.speed = speed
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced, metrics = tracer.run_pass(0, workloads.run_pass, wl, inputs)
    finally:
        tracer.uninstall()
    return request.param, plain, traced, metrics


def test_traced_results_are_bit_identical(passes):
    _, plain, traced, _ = passes
    assert _answers(plain) == _answers(traced)


def test_self_times_sum_to_traced_pass(passes):
    _, _, traced, metrics = passes
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert total == pytest.approx(metrics["pass_span_s"], rel=1e-9)
    # the root span encloses the pass and adds only the call around it
    assert 0 <= metrics["pass_span_s"] - traced.pass_s < 1e-3


def test_bypass_invariants(passes):
    name, _, _, metrics = passes
    if name == "sphere-genus":
        assert metrics["theta.calls"] == 0
        assert metrics["elliptic.calls"] == 0
        assert metrics["theta.cache_entries"] == 0
    if name == "classical-torus":
        assert metrics["recursion.calls"] == 0
        assert metrics["recursion.tensor_entries"] == 0


def test_every_operation_is_attempted(passes):
    name, plain, _, _ = passes
    expected = {"sphere-genus": 12, "torus-forms": 6, "classical-torus": 16}
    assert len(plain.ops) == expected[name]
    for op in plain.ops:
        assert op.exc or op.error <= op.tol, op


def test_speed_sampling(passes):
    _, plain, traced, _ = passes
    assert (traced.setup_scale, traced.query_scale) == (1.0, 1.0)
    speed = plain.speed
    assert speed.loops > 10
    assert 0.2 < plain.setup_scale < 5.0 and 0.2 < plain.query_scale < 5.0
    assert speed.spent_s >= speed.loop_s    # the handler covers its loops
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL


def test_stopwatch_leaves_out_the_sampling():
    cal = workloads.Calibration(workloads.interpreter_loop, 3.6e-4, 0.002)
    speed = workloads.HostSpeed()
    watch = workloads.Stopwatch(speed, cal)
    with speed:
        t0 = time.perf_counter()
        with watch:
            while time.perf_counter() - t0 < 0.2:
                pass
        wall = time.perf_counter() - t0
    # one more loop may run between the end of the watch and of the timer
    assert speed.loops - 1 <= watch.loops <= speed.loops
    assert watch.loops > 5
    assert watch.wall_s == pytest.approx(wall - speed.spent_s, abs=2e-3)
    assert 0.2 < watch.scale() < 5.0
    assert workloads.Stopwatch(None, cal).scale(fallback=0.5) == 0.5


def test_failures_are_recorded_not_raised():
    ops = []
    workloads._op(ops, "bare", 1.0, lambda: {}[(0, 21)])
    workloads._op(ops, "loose", 1e-9, lambda: (1.0, 1e-3))
    workloads._op(ops, "ok", 1e-9, lambda: (1.0, 1e-12))
    assert [op.failed for op in ops] == [True, True, False]
    assert ops[0].exc.startswith("KeyError")
    summary = run.summarize([workloads.PassResult(0.0, 0.0, ops)])
    assert (summary["attempted"], summary["failed"]) == (3, 2)
    assert summary["correct"] is False      # "loose" missed its tolerance
    assert summary["failures"] == {"KeyError": 1, "tolerance": 1}


def test_joukowski_reference():
    assert workloads.bernoulli(1) == workloads.Fraction(-1, 2)
    assert workloads.bernoulli(12) == workloads.Fraction(-691, 2730)
    assert workloads.joukowski_fg(2) == workloads.Fraction(1, 240)
    assert workloads.joukowski_fg(3) == workloads.Fraction(-1, 1008)


def test_tracer_patches_names_where_bound_and_restores():
    original = geometry.line_integral
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert geometry.line_integral is not original
        assert classical.line_integral is geometry.line_integral
    finally:
        tracer.uninstall()
    assert geometry.line_integral is original
    assert classical.line_integral is original


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    per_layer = dict(spans.per_layer_names(), **{"trace.overhead": "ratio"})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sphere-genus",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
