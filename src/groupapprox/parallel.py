"""Process fan-out for the sweeps and scans that take ``--jobs``.

Every caller merges results in task order, so the output does not depend
on how many workers ran.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def worker_count(jobs: int, tasks: int) -> int:
    """Processes to start for ``tasks`` independent tasks under ``--jobs``.

    Rejects jobs below 1 and clamps to the CPU count and the task count,
    so no worker is started without a task or a CPU to run it.
    """
    if jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {jobs}")
    return max(1, min(jobs, os.cpu_count() or 1, tasks))


def map_tasks(fn, tasks, jobs: int) -> list:
    """``[fn(t) for t in tasks]``, fanned out over ``worker_count`` processes."""
    workers = worker_count(jobs, len(tasks))
    if workers == 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, tasks))
