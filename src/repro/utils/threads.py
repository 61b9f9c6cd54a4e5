"""BLAS thread-pool tuning for process-parallel workloads.

numpy links against a threaded BLAS (OpenBLAS / MKL / ...) whose pool
defaults to "all the cores".  That is the right call for one process,
and exactly wrong for N worker processes: N pools x all cores
oversubscribes the machine and the workers spend their time context
switching instead of multiplying.  The process-parallel sweep pool
(:func:`repro.api.run_sweep` with ``workers=N``) therefore caps each
worker's BLAS pool at ``cores // workers``.

Two mechanisms, one knob:

* **Environment variables** (:data:`BLAS_ENV_VARS`) — honored by every
  BLAS at *load* time.  The sweep pool uses the ``spawn`` start method, so
  setting the variables in the parent just before the workers start
  (:class:`blas_thread_limit`) caps the freshly imported numpy in each
  child.  This is dependency-free and covers OpenBLAS, MKL, numexpr and
  Accelerate.
* **threadpoolctl**, when importable, additionally re-limits pools that
  are already loaded (the parent's own, or a ``fork``-started child's).
  It is optional on purpose: the env-var path is the load-bearing one.

``REPRO_BLAS_THREADS`` overrides the computed per-worker budget
everywhere (:func:`blas_thread_budget`).
"""

from __future__ import annotations

import os
from typing import Dict, Optional

#: the load-time thread-count switches recognized across BLAS/LAPACK
#: implementations (OpenBLAS, MKL, numexpr, Accelerate, generic OpenMP)
BLAS_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: the override knob: when set, every worker gets exactly this many
#: BLAS threads no matter how many workers share the machine
BLAS_THREADS_ENV = "REPRO_BLAS_THREADS"


def available_cores() -> int:
    """CPU cores usable by this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


def blas_thread_budget(workers: int = 1) -> int:
    """Per-worker BLAS thread budget for ``workers`` concurrent processes.

    ``REPRO_BLAS_THREADS`` (when set and positive) wins; otherwise the
    machine's cores are split evenly, never below one thread:

    >>> import os
    >>> os.environ.pop("REPRO_BLAS_THREADS", None) and None
    >>> blas_thread_budget(workers=available_cores()) >= 1
    True
    """
    override = os.environ.get(BLAS_THREADS_ENV, "").strip()
    if override:
        try:
            value = int(override)
        except ValueError:
            raise ValueError(
                f"{BLAS_THREADS_ENV} must be an integer, got {override!r}")
        if value > 0:
            return value
    return max(1, available_cores() // max(1, workers))


def _limit_running_pools(threads: int):
    """Cap already-loaded BLAS pools via threadpoolctl, when available.

    Returns the active ``threadpool_limits`` controller (so the caller
    can restore the previous limits) or ``None`` when threadpoolctl is
    not installed — the env-var path still covers spawned children.
    """
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return None
    controller = threadpool_limits(limits=threads)
    return controller


class blas_thread_limit:
    """Context manager: cap BLAS pools at ``threads`` for the block.

    Sets the :data:`BLAS_ENV_VARS` (inherited by any process spawned
    inside the block — the whole point: the sweep pool starts its
    children here) and, when threadpoolctl is importable, re-limits the
    current process's already-loaded pools too.  Previous values are
    restored on exit.

    >>> with blas_thread_limit(1):
    ...     os.environ["OPENBLAS_NUM_THREADS"]
    '1'
    """

    def __init__(self, threads: int):
        if threads < 1:
            raise ValueError(f"thread limit must be >= 1, got {threads}")
        self.threads = int(threads)
        self._saved: Optional[Dict[str, Optional[str]]] = None
        self._controller = None

    def __enter__(self):
        self._saved = {name: os.environ.get(name) for name in BLAS_ENV_VARS}
        for name in BLAS_ENV_VARS:
            os.environ[name] = str(self.threads)
        self._controller = _limit_running_pools(self.threads)
        return self

    def __exit__(self, *exc):
        for name, previous in (self._saved or {}).items():
            if previous is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = previous
        if self._controller is not None:
            restore = getattr(self._controller, "restore_original_limits",
                              None) or getattr(self._controller,
                                               "unregister", None)
            if restore is not None:
                restore()
            self._controller = None
        return False


def apply_blas_thread_limit(threads: int) -> None:
    """Persistently cap BLAS threads for *this* process (no restore).

    The worker-side half of :class:`blas_thread_limit`: the sweep
    pool's initializer calls this so a worker that later re-imports or
    lazily initializes a BLAS keeps the cap for its whole lifetime.
    """
    if threads < 1:
        raise ValueError(f"thread limit must be >= 1, got {threads}")
    for name in BLAS_ENV_VARS:
        os.environ[name] = str(threads)
    _limit_running_pools(threads)
