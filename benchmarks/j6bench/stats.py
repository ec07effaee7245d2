"""Summary statistics and the host/provenance block of a result."""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

__all__ = ["MIN_BEYOND", "percentile", "least_by_unit", "spread", "provenance"]

# A percentile is reported only when at least this many samples lie
# beyond it, so p90 needs 100 samples.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float, min_beyond: int = MIN_BEYOND) -> float:
    """Nearest-rank ``q``-quantile (0 < q < 1) of ``samples``.

    Raises ValueError when fewer than ``min_beyond`` samples lie above
    the chosen rank: such a tail is too thin to report.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0, 1)")
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    beyond = len(xs) - rank
    if beyond < min_beyond:
        raise ValueError(
            f"p{round(q * 100)} of {len(xs)} samples has {beyond} beyond it, "
            f"fewer than {min_beyond}"
        )
    return xs[rank - 1]


def least_by_unit(samples: dict) -> dict:
    """The least of each unit's timings, for units that have any.

    A unit is one piece of work that a run repeats unchanged, such as
    one configuration or one command on the same inputs.  Its timings
    differ only by what the host did meanwhile, and contention on a
    shared host only adds time, so the least of them is the unit's time
    on a quiet host.  A unit's repeats are spread over the whole run.
    """
    return {unit: min(xs) for unit, xs in samples.items() if xs}


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the repository rooted exactly at ``root``, if it is one."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(root: Path, seed: int, workload: str) -> dict:
    """Host, library and source facts that a result depends on."""
    import numpy as np

    import j6opt

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "j6opt": j6opt.__version__,
        "j6opt_commit": _git_commit(root),
        "j6opt_src_sha256": _source_digest(Path(j6opt.__file__).parent),
        "machine": platform.machine(),
    }
