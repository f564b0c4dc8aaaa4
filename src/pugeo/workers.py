"""The worker-thread runner shared by dataset building, training and evaluation.

`_map_tasks` runs independent tasks on `_worker_count` threads and hands
their results back in task order, so a caller's output does not depend on
the thread count.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def _worker_count(tasks: int) -> int:
    """Threads that run `tasks` independent tasks: min(tasks, CPUs // BLAS threads).

    CPUs are the ones this process may run on.  BLAS threads come from the
    first of _BLAS_THREAD_VARS set to a positive integer, else the CPU
    count, so an unpinned BLAS, which may use every core, keeps one worker.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas = cpus
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        # isdecimal, not isdigit: "²" is a digit that int() rejects
        if value.isdecimal() and int(value) > 0:
            blas = int(value)
            break
    return max(1, min(tasks, cpus // blas))


def _map_tasks(task, count: int):
    """Yield task(i) for i in range(count), in index order, run on `_worker_count(count)` threads.

    The calling thread is one of them, so one worker starts no thread.  A
    worker thread does not inherit the caller's np.errstate, so the
    settings, the error callback included, are read here and applied on
    every thread.  Each thread claims the lowest unclaimed index until none
    is left or a task has failed.  Every thread is joined before the first
    result is yielded.  Indices are claimed in order, so every task below a
    failed one has been claimed and run to its end: the results below the
    lowest failing index are yielded, then that index's error is raised, as
    in a serial loop.
    """
    err = np.geterr()
    err["call"] = np.geterrcall()
    results = [None] * count
    errors: dict[int, BaseException] = {}
    indices = iter(range(count))
    claim = threading.Lock()

    def work():
        with np.errstate(**err):
            while not errors:
                with claim:
                    i = next(indices, None)
                if i is None:
                    return
                try:
                    results[i] = task(i)
                except BaseException as exc:  # re-raised on the calling thread below
                    errors[i] = exc

    threads = [threading.Thread(target=work) for _ in range(_worker_count(count) - 1)]
    for thread in threads:
        thread.start()
    try:
        work()
    finally:
        for thread in threads:
            thread.join()
    failed = min(errors, default=count)
    yield from results[:failed]
    if errors:
        raise errors[failed]
