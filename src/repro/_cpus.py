"""How many CPUs this process may run on, for sizing worker pools."""

from __future__ import annotations

import os


def usable_cpus() -> int:
    """CPUs in this process's affinity mask (``taskset``, cgroup cpusets).

    Falls back to :func:`os.cpu_count` where the platform has no
    affinity API (macOS, Windows).
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1
