#!/usr/bin/env python3
"""Benchmark of siglap's signed spectral clustering, end to end or per layer.

    python3 siglapbench/run.py --workload gm-two-cluster --seed 1 --seconds 35 --trace 0

Run from the repository root; the program is imported from ``src/``.  Calls
run in-process, one after another, each from a workload input to labels.

``--trace 0`` times untraced calls and reports the end-to-end metrics.  A
fixed pure-Python loop runs just before and after each call; the gated time,
``cluster_ref_s``, is the call's wall time scaled by that loop's time, which
takes out most of a shared host's speed drift.  ``cluster_s``, the plain
wall time, is printed alongside.
``--trace 1`` calls every input untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  Dense-oracle and label checks
run after the timed calls, once per input.

Standard output holds an ``environment`` JSON line, a readable report (each
metric with its unit, including the ones that may read 0), and as its last
line one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import importlib.util
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
# Milliseconds the reference loop takes on a fast, quiet host of the kind the
# benchmark was tuned on; ``cluster_ref_s`` is expressed at that speed.
REFERENCE_MS = 12.5


def use_source():
    """Import siglap from the checkout, with single-threaded BLAS unless set.

    The calls are small and the machine is shared, so BLAS threads would add
    contention noise and no speed.
    """
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def lookup(name):
    import workloads

    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; choose from {sorted(workloads.WORKLOADS)}")
    return workloads.WORKLOADS[name]


def timed_setup(name, seed):
    """Import siglap and generate the run's inputs; returns (seconds, workload, inputs)."""
    start = time.perf_counter()
    workload = lookup(name)
    inputs = workload.inputs(seed)
    return time.perf_counter() - start, workload, inputs


def fresh_setup_seconds(name, seed):
    """``timed_setup`` in a new interpreter, so the import is paid again."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"run.use_source(); print(run.timed_setup({name!r}, {seed})[0])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True, timeout=SETUP_TIMEOUT_S)
    return float(proc.stdout.split()[-1])


@dataclass
class Call:
    instance: int
    seconds: float
    outcome: object  # workloads.Outcome, or None when the call raised
    error: str       # the exception's class name, or ""
    ref_ms: float    # reference loop, mean of one run before and one after

    @property
    def ref_seconds(self):
        """The call's seconds scaled to a host running the loop in REFERENCE_MS."""
        return self.seconds * REFERENCE_MS / self.ref_ms


def call_once(workload, inputs, i, failures, tracer=None):
    """One timed call on input ``i``; a listed failure is recorded, not raised."""
    if tracer is not None:
        import layers

        layers.install(tracer)
    try:
        before_ms = reference_ms()
        start = time.perf_counter()
        span = tracer.open(layers.CALL, "bench") if tracer is not None else None
        try:
            outcome, error = workload.solve(inputs[i]), ""
        except failures as exc:
            outcome, error = None, type(exc).__name__
        if tracer is not None:
            tracer.close(span)
            if outcome is not None:
                tracer.counts["geomean.order_warnings"] += outcome.order_warnings
        seconds = time.perf_counter() - start
        return Call(i, seconds, outcome, error, (before_ms + reference_ms()) / 2.0)
    finally:
        if tracer is not None:
            tracer.restore()


def measure(workload, inputs, seconds, failures, tracer=None):
    """Call the inputs in turn for about ``seconds``.

    Every input is called at least once; after that, calls go on cycling
    through the inputs while the longest step so far still fits.  With a
    tracer, each step calls the input untraced and then traced.  Returns the
    lists of untraced and traced calls.
    """
    plain, traced = [], []
    for _ in range(5):
        reference_ms()  # the first loops after start-up run slow
    start = time.perf_counter()
    longest = 0.0
    for step in itertools.count():
        i = step % len(inputs)
        if step >= len(inputs) and time.perf_counter() - start + longest > seconds:
            return plain, traced
        step_start = time.perf_counter()
        plain.append(call_once(workload, inputs, i, failures))
        if tracer is not None:
            traced.append(call_once(workload, inputs, i, failures, tracer))
        longest = max(longest, time.perf_counter() - step_start)


def verify(workload, inputs, calls):
    """Check each input's first good outcome against the oracle and labels.

    Returns ``(correct, checks)``.  Every good outcome of an input must carry
    the same labels, since each call gets the same input and seed.
    """
    import numpy as np

    first, deterministic = {}, True
    for c in calls:
        if c.outcome is None:
            continue
        labels = c.outcome.result.labels.labels
        if c.instance in first:
            deterministic &= np.array_equal(labels, first[c.instance].result.labels.labels)
        else:
            first[c.instance] = c.outcome
    checks = [workload.check(inputs[i], out) for i, out in sorted(first.items())]
    correct = bool(checks) and deterministic and all(ch.correct for ch in checks)
    return correct, checks


def quality_metrics(workload, checks, calls):
    """Oracle and label figures; they may read 0, so they are reported, not gated."""
    failed = sum(c.outcome is None for c in calls)
    pairs = workload.k * len(checks)
    if not checks:
        return {"failed_frac": (failed / len(calls), "fraction")}
    return {
        "clustering_error": (statistics.fmean(ch.clustering_error for ch in checks), "fraction"),
        "oracle_fail_frac": (sum(ch.failed_pairs for ch in checks) / pairs, "fraction"),
        "failed_frac": (failed / len(calls), "fraction"),
        "oracle.eig_rel_err_max": (max(float(ch.eig_rel_err.max()) for ch in checks), "ratio"),
        "oracle.angle_rad": (max(ch.angle for ch in checks), "rad"),
        "eig.resid_max": (max(ch.resid_max for ch in checks), "norm"),
    }


def median_seconds(calls, attr="seconds"):
    """Median over inputs of each input's median successful call time.

    Inputs get unequal numbers of calls when time runs out mid-cycle, so the
    median is taken per input first.  Failed calls count only when no call
    succeeded at all; ``failed_frac`` reports them.
    """
    good = [c for c in calls if c.outcome is not None] or calls
    per_input = {}
    for c in good:
        per_input.setdefault(c.instance, []).append(getattr(c, attr))
    return statistics.median(statistics.median(t) for t in per_input.values())


def reference_ms():
    """Milliseconds of a fixed pure-Python loop: the host's current speed.

    A shared host's speed drifts by up to twofold within a minute.  The loop
    does not touch the program, so a change to the program cannot move it.
    """
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i
    return 1000.0 * (time.perf_counter() - start)


def environment(args, workload):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "instances": workload.instances,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "machine": platform.machine(),
    }


def run(args):
    """Returns (environment, result, report metrics)."""
    use_source()
    if args.trace:
        import layers
        import spans

        workload = lookup(args.workload)
        tracer = spans.Tracer()
        layers.install(tracer)
        try:
            inputs = workload.inputs(args.seed)  # traced, for sbm.sample_s
        finally:
            tracer.restore()
    else:
        setup_s, workload, inputs = timed_setup(args.workload, args.seed)
        tracer = None
    import workloads

    plain, traced = measure(workload, inputs, args.seconds, workloads.FAILURES, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calls = plain + traced
    correct, checks = verify(workload, inputs, calls)
    quality = quality_metrics(workload, checks, calls)

    if args.trace:
        metrics = layers.metrics(tracer, calls=len(traced), inputs=len(inputs))
        metrics["cluster_s"] = (median_seconds(plain), "s")
        untraced = statistics.fmean(c.seconds for c in plain)
        metrics["trace.untraced_cluster_s"] = (untraced, "s")
        metrics["trace.overhead_frac"] = (metrics["trace.cluster_s"][0] / untraced - 1.0,
                                          "fraction")
        metrics.update(quality)
        report = metrics
    else:
        setups = [setup_s] + [fresh_setup_seconds(args.workload, args.seed)
                              for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "cluster_ref_s": (median_seconds(plain, "ref_seconds"), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report = dict(metrics, cluster_s=(median_seconds(plain), "s"), **quality)
    result = {
        "correct": correct,
        "attempted": len(calls),
        "failed": sum(c.outcome is None for c in calls),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    notes = {
        "ref_ms": [round(c.ref_ms, 3) for c in plain],
        "call_seconds": [round(c.seconds, 4) for c in plain],
        "outer_steps": [sum(p.iterations for p in c.outcome.result.eigenpairs)
                        if c.outcome else None for c in plain],
        "traced_calls": len(traced),
        "errors": sorted({c.error for c in calls if c.error}),
    }
    return dict(environment(args, workload), **notes), result, report


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    env, result, report = run(args)
    print(json.dumps({"environment": env}))
    for name, (value, unit) in report.items():
        print(f"{name:28s} {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
