"""The host a result was measured on.

Every result carries this stamp, so two results from different hosts are
never compared silently.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict, Optional


def usable_cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def cpu_model(cpuinfo: Optional[str] = None) -> str:
    """The ``model name`` line of ``/proc/cpuinfo``, else the platform's."""
    if cpuinfo is None:
        try:
            with open("/proc/cpuinfo") as handle:
                cpuinfo = handle.read()
        except OSError:
            cpuinfo = ""
    for line in cpuinfo.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name" and value.strip():
            return value.strip()
    return platform.processor() or platform.machine() or "unknown"


def blas_from_config(config: Dict) -> str:
    """``"<name> <version>"`` of the BLAS in ``np.show_config(mode="dicts")``."""
    blas = config.get("Build Dependencies", {}).get("blas", {})
    name = blas.get("name", "unknown")
    version = blas.get("version")
    return f"{name} {version}" if version else name


def host_stamp() -> Dict[str, object]:
    """Cores, CPU model and the Python / numpy / scipy / BLAS versions."""
    import numpy as np
    import scipy

    try:
        blas = blas_from_config(np.show_config(mode="dicts"))
    except TypeError:               # numpy < 1.25 has no mode argument
        blas = "unknown"
    return {
        "nproc": usable_cores(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "platform": sys.platform,
    }

