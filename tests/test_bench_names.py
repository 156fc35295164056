"""The benchmark's traced run names library functions by their qualified
names; a rename here that it does not follow breaks ``--trace 1``."""

import importlib
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
