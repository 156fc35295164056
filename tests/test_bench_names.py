"""The benchmark's traced run names library functions by their qualified
names; a rename here that it does not follow breaks ``--trace 1``."""

import importlib
import pickle
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_finds_every_counted_and_timed_function(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    # the constructor raises LookupError for any name it cannot find
    tracer = spans.Tracer()
    for group in (spans.COUNTED, spans.TIMED):
        for names in group.values():
            assert set(names) <= set(tracer.names)


def test_every_benchmark_operation_passes(monkeypatch):
    # one seed-0 pass of each workload: a library change that breaks a
    # benchmark operation fails here, not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, workload in workloads.WORKLOADS.items():
        ops = workloads.run_pass(workload, workload.inputs(0)).ops
        assert ops, name
        failed = [(op.name, op.error, op.exc) for op in ops if op.failed]
        assert not failed, (name, failed)


def test_warm_queries_repeat_a_cold_pass(monkeypatch):
    # the seed-0 queries run twice on one set-up read the engine's level
    # memo, its leg memo, the systems' psi block memos and the theta cache
    # the first run filled: every answer must repeat a cold pass bit for
    # bit.  The answers hold numpy arrays, so they are compared pickled
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name in ("sphere-genus", "torus-forms", "classical-torus"):
        workload = workloads.WORKLOADS[name]
        inputs = workload.inputs(0)
        cold = pickle.dumps(
            [op.value for op in workloads.run_pass(workload, inputs).ops])
        state = workload.setup()
        for _ in range(2):
            warm = [op.value for op in workload.queries(state, inputs)]
            assert pickle.dumps(warm) == cold, name
