"""Process set-up shared by the perfbench entry points: BLAS pinned to one
thread, and the checkout's own ``src/`` on ``sys.path``, so the benchmark
measures the code beside it and nothing installed elsewhere.
"""

from __future__ import annotations

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")


def pin_blas_to_one_thread():
    """Call before numpy is imported: BLAS reads its thread count on load."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before BLAS threads were pinned")
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class MissingSource(RuntimeError):
    """The checkout has no ``src/mmasr`` package to benchmark."""


def add_source_path():
    if not os.path.isfile(os.path.join(SRC, "mmasr", "__init__.py")):
        raise MissingSource(f"no mmasr package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
