"""Benchmark of mmasr: training steps and beam decoding, end to end and per layer.

    python3 perfbench/run.py --workload train-audio --seed 2024 --seconds 30 --trace 0

Workloads (all on the criterion-6 model and corpus settings):

  train-audio   stage-1 audio-only train steps from a fresh model
  train-fusion  stage-2 fusion train steps from the stage-1 fixture
  decode-beam4  beam-4 audio+visual decoding with the stage-2 fixture

One client runs one operation at a time (closed loop) with BLAS on one
thread. ``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same operations with every layer's public functions wrapped and prints
per-layer metrics per operation. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import bootstrap

SETUP_REPS = 15
TRACE_REF_OPS = 30  # untraced operations the traced run must reproduce bitwise
MAX_SPANS = 1_000_000  # about 32 MB of spans; the traced run stops there
OUT_DIR = os.path.join(bootstrap.BENCH_DIR, "out")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("train-audio", "train-fusion", "decode-beam4"))
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    bootstrap.pin_blas_to_one_thread()
    import numpy  # noqa: F401  (numpy's own import is not set-up of mmasr)

    t0 = time.perf_counter()
    try:
        bootstrap.add_source_path()
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The benchmark's modules import mmasr, so they load only now.
    import recipe
    import report
    import workloads

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[args.workload]
    try:
        if args.trace:
            result = traced_run(workload, args)
        else:
            result = untraced_run(workload, args, import_s)
    except recipe.FixtureError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_result(args, result, report.environment())
    return 0


def untraced_run(workload, args, import_s):
    import report
    import workloads

    # One set-up before each of SETUP_REPS blocks of operations, so that
    # their median sees the machine over the same stretch as the operations
    # do. The operations all use the first set-up's state.
    setups, state, run = [], None, None
    for block in range(SETUP_REPS):
        t0 = time.perf_counter()
        fresh = workload.setup(args.seed)
        setups.append(time.perf_counter() - t0)
        state = fresh if state is None else state
        fresh = None  # free a discarded set-up before the operations run
        last = block == SETUP_REPS - 1
        run = workloads.run_ops(workload, state, args.seconds / SETUP_REPS,
                                workload.min_ops if last else 0, run=run)
    loss, extras, op_problems, run_problems = workload.score(state, run)
    for i, problems in op_problems.items():
        run.fail(i, problems)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for pct in (50, 90):
        try:
            metrics[f"op_ms.p{pct}"] = (report.percentile(run.times_ms, pct), "ms")
        except ValueError as exc:
            metrics[f"op_ms.p{pct}"] = (math.nan, "ms")
            run_problems.append(str(exc))
    metrics["loss"] = (loss, "nats")
    extras.update(ops_timed=len(run.times_ms), setup_runs_s=setups, import_s=import_s)
    return Result(run.attempted, run.failed, run_problems, run.failures, metrics, extras)


def traced_run(workload, args):
    import report
    import tracing
    import workloads

    ref_state = workload.setup(args.seed)
    ref = workloads.run_ops(workload, ref_state, 0, TRACE_REF_OPS, max_ops=TRACE_REF_OPS)
    ref_state = None
    tracer = tracing.Tracer()
    tracer.install(*report.trace_plan())
    try:
        state = workload.setup(args.seed)
        run = workloads.run_ops(workload, state, args.seconds, TRACE_REF_OPS,
                                tracer=tracer, max_spans=MAX_SPANS)
        tracer.current_op = tracing.OUTSIDE
        _, extras, op_problems, run_problems = workload.score(state, run)
    finally:
        tracer.uninstall()
    for i, problems in op_problems.items():
        run.fail(i, problems)
    spans = tracer.spans()
    cover = float(report.coverage(spans, workload.op_name))
    if cover < report.MIN_COVERAGE:
        run_problems.append(f"spans below the operation cover {cover:.3f} of its wall "
                            f"time, below {report.MIN_COVERAGE}")
    differ = [i for i, r in enumerate(ref.results) if r != run.results[i]]
    if differ:
        run_problems.append(f"traced and untraced results differ at operations {differ[:5]}")
    overhead = (statistics.median(run.times_ms[:TRACE_REF_OPS])
                / statistics.median(ref.times_ms) - 1.0)
    layer = report.per_layer_metrics(spans, tracer.counters, run.attempted, {
        "coverage": cover, "overhead": overhead,
        "repeat_share": workload.repeat_share(state)})
    metrics = {name: (value, report.layer_unit(name)) for name, value in layer.items()}
    os.makedirs(OUT_DIR, exist_ok=True)
    spans.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
    extras.update(spans=len(spans.code))
    failures = {f"untraced {i}": p for i, p in ref.failures.items()}
    failures.update(run.failures)
    return Result(ref.attempted + run.attempted, ref.failed + run.failed, run_problems,
                  failures, metrics, extras)


@dataclass
class Result:
    attempted: int
    failed: int
    problems: list  # run-level checks that failed
    failures: dict  # operation -> problems
    metrics: dict  # name -> (value, unit)
    extras: dict  # printed, not reported


def print_result(args, result, env):
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    for name, value in result.extras.items():
        print(f"  {name:34s} {value}")
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for i, problems in list(result.failures.items())[:10]:
        print(f"failed op {i}: {'; '.join(problems)}", file=sys.stderr)
    correct = result.failed == 0 and not result.problems
    print(f"ops attempted={result.attempted} failed={result.failed} correct={correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))


if __name__ == "__main__":
    sys.exit(main())
