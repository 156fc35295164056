"""Run one benchmark workload of spectralflow and print its metrics.

    python3 perfbench/run.py --workload sphere-genus --seed 0 --seconds 30 --trace 0

One process, one caller, BLAS and OpenMP pinned to one thread: cold
passes run back to back until ``--seconds`` have passed.  With
``--trace 0`` the passes are untraced and the end-to-end metrics are
reported, each time scaled to a reference speed of the host measured
through the same pass (``workloads.HostSpeed``); with ``--trace 1``
untraced and traced passes alternate, unscaled, the per-layer metrics come
from the traced ones, and the spans are written to
``.perfbench-out/spans-<workload>.npz``.  The second-to-last line of
standard output is a report (environment, sample counts, quartiles,
failures); the last line is the result object.  See perfbench/README.md.
"""

import os

_PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
           "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _PINNED:            # before numpy is first imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
WORKLOAD_NAMES = ("sphere-genus", "torus-forms", "classical-torus")
END_TO_END = {"pass_s": "s", "setup_s": "s", "query_s": "s",
              "accuracy_digits": "digits", "ok_frac": "ratio",
              "peak_rss_mb": "MB"}
EPS = 2.0 ** -52                # floor of a relative error, for the digits
SETUP_BATCH_S = 0.5             # set-up time timed as one sample per pass


def _git_sha():
    """HEAD of the checkout, read without running git; 'unknown' if the
    checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    import numpy as np
    return {"git_sha": _git_sha(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in _PINNED}}


def _stats(samples):
    q1, _, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 \
        else (samples[0],) * 3
    return {"value": statistics.median(samples), "samples": len(samples),
            "q1": q1, "q3": q3}


def measure(workload, inputs, seconds, tracer=None):
    """Cold passes for ``seconds``: no pass starts that would likely end
    after them, but at least one runs (one of each kind when traced).
    With a tracer, odd passes are traced and no pass samples the host's
    speed.  Returns (untraced results, [(result, metrics)])."""
    from workloads import HostSpeed, run_pass
    plain, traced, took = [], [], []
    setups = 1
    speed = HostSpeed() if tracer is None else None
    start = perf_counter()
    while True:
        t0 = perf_counter()
        gc.collect()
        if tracer is None or len(took) % 2 == 0:
            plain.append(run_pass(workload, inputs, setups, speed))
            # a set-up of ~0.1 s lands wholly in a fast or a slow spell of
            # a shared host; timing several back to back evens them out
            setups = max(1, round(SETUP_BATCH_S / plain[0].setup_s))
        else:
            tracer.install()
            try:
                traced.append(tracer.run_pass(len(took), run_pass, workload,
                                              inputs))
            finally:
                tracer.uninstall()
        now = perf_counter()
        took.append(now - t0)
        if (now - start + statistics.median(took) > seconds
                and (tracer is None or traced)):
            return plain, traced


def summarize(results):
    """attempted, failed, correct and the accuracy over every pass."""
    ops = [op for r in results for op in r.ops]
    failed = [op for op in ops if op.failed]
    # a wrong answer is incorrect; a query that raised is only a failure
    correct = all(not op.failed for op in ops if not op.exc)
    errors = [op.error for op in ops if not op.exc]
    worst = max(errors, default=math.nan)
    digits = -math.log10(max(worst, EPS)) if worst == worst else 0.0
    failures = Counter(op.exc.split(":")[0] if op.exc else "tolerance"
                       for op in failed)
    return {"attempted": len(ops), "failed": len(failed), "correct": correct,
            "accuracy_digits": digits, "worst_error": worst,
            "failures": dict(failures),
            "failed_ops": sorted({op.name for op in failed})}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    src = ROOT / "src"
    if not (src / "spectralflow" / "__init__.py").is_file():
        print(f"perfbench: no spectralflow package under {src}; run from "
              "the root of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    tracer = spans.Tracer() if args.trace else None
    plain, traced = measure(workload, inputs, args.seconds, tracer)
    results = plain + [r for r, _ in traced]
    summary = summarize(results)

    stats, wall = {}, {}
    if not args.trace:
        scaled = [r.scaled() for r in plain]
        for i, name in enumerate(("pass_s", "setup_s", "query_s")):
            stats[name] = _stats([t[i] for t in scaled])
            wall[name] = _stats([getattr(r, name) for r in plain])
        wall["setup_scale"] = _stats([r.setup_scale for r in plain])
        wall["query_scale"] = _stats([r.query_scale for r in plain])
        stats["accuracy_digits"] = _stats([summary["accuracy_digits"]])
        ok = 1.0 - summary["failed"] / summary["attempted"]
        stats["ok_frac"] = _stats([ok])
        stats["peak_rss_mb"] = _stats(
            [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
        units = END_TO_END
    else:
        units = spans.per_layer_names()
        for name in units:
            stats[name] = _stats([m[name] for _, m in traced])
        plain_s = statistics.median(r.pass_s for r in plain)
        traced_s = statistics.median(r.pass_s for r, _ in traced)
        units = dict(units, **{"trace.overhead": "ratio"})
        stats["trace.overhead"] = {"value": traced_s / plain_s - 1.0,
                                   "samples": len(traced),
                                   "untraced_samples": len(plain)}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "passes": len(results), "environment": environment(),
              "fail_frac": summary["failed"] / summary["attempted"],
              **{k: summary[k] for k in ("worst_error", "failures",
                                         "failed_ops")},
              "metrics": {name: dict(stats[name], unit=unit)
                          for name, unit in units.items()},
              "unscaled": wall}
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": summary["correct"], "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": stats[name]["value"], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
