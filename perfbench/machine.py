"""The record of the machine and software a benchmark run used."""

from __future__ import annotations

import os
import platform

import numpy
import scipy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_version() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return "%s %s" % (blas["name"], blas["version"])
    except (TypeError, KeyError):
        return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; exported trees have none."""
    try:
        with open(".git/HEAD", encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(".git/" + ref):
            with open(".git/" + ref, encoding="utf-8") as f:
                return f.read().strip()
        with open(".git/packed-refs", encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record(seed: int, blas_threads: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "blas_threads": int(blas_threads),
        "git_commit": _git_commit(),
        "workload_seed": seed,
    }
