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
