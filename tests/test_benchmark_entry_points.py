"""Every mmasr entry point the benchmark calls still runs: each workload's
set-up (the fixtures among it, with their pinned digests), three operations
and its score, with no failed operation and no problem reported."""

import math
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import bootstrap  # noqa: E402

bootstrap.add_source_path()

import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_three_operations_cleanly(name):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(2024)
    run = workloads.run_ops(workload, state, 0, 3, max_ops=3)
    loss, _, op_problems, run_problems = workload.score(state, run)
    assert (run.attempted, run.failed, run.failures) == (3, 0, {})
    assert not op_problems and not run_problems
    assert math.isfinite(loss)
