"""Independent tasks fanned out over forked worker processes, folded in task order.

``run(work, chunks, fold)`` calls ``fold`` on every item that
``work(chunk)`` yields, for each chunk in turn.  The parent computes the
first chunk itself, while one forked child per later chunk computes its
own, keeps the items and pickles them back through a pipe once it is
done; the parent folds them after its own, one at a time.  So ``fold``
sees the serial order for any number of chunks, and a task that draws
from its own seed stream gives the same bits in any process.  A child
holds all its items until its chunk is done, so ``work`` should sum what
it can itself and yield little.  ``timed``, the one entry point callers
use, runs the first task alone and fans the rest out only when the time
it took, scaled by the sizes of the tasks left, says the rest is worth
the forks.

A child starts from a copy of the parent's memory: state a task changes
stays in its process, so ``work`` must depend on its chunk alone.  An
exception raised in a child is re-raised in the parent (after the items
the child made before it), caused by a :class:`WorkerError` that holds
the child's traceback; a child that ends without reporting, or whose
exception does not pickle, raises :class:`WorkerError`.  The parent reaps
every child before ``run`` returns or raises, and a failure in the parent
kills the children still running.
"""

from __future__ import annotations

import os
import pickle
import threading
from time import perf_counter

import numpy as np

# ``timed`` fans out only when the first task's time predicts at least this
# much work for the rest: on a 2-vCPU VM with one BLAS thread a fork plus
# join costs 5-8 ms, and two processes each run 1.2-1.5x slower than one.
_FORK_MIN_S = 0.1


class WorkerError(RuntimeError):
    """A forked worker failed in a way its own exception cannot say."""


def worker_count(tasks: int) -> int:
    """Processes to run ``tasks`` independent tasks on.

    min(tasks, usable CPUs // BLAS threads), where the BLAS thread count
    is read as OpenBLAS reads it: OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, a value that is not a positive integer counting as
    unset, else the CPU count.  A process whose BLAS is not pinned to one
    thread already keeps every CPU busy, and stays serial.  Also serial where
    "fork" is not a start method, and while the process runs another
    Python thread: a forked child gets only the calling thread, and a
    lock another thread held stays locked in it.  (Spawned workers would
    each re-import numpy, which costs more than a typical run.)
    """
    if threading.active_count() > 1:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    blas_threads = cpus
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(var, "").strip()
        if value.isdecimal() and int(value) > 0:
            blas_threads = int(value)
            break
    workers = min(tasks, cpus // blas_threads)
    if workers < 2:
        return 1
    import multiprocessing  # here, not at import time: it costs about 10 ms to load

    return workers if "fork" in multiprocessing.get_all_start_methods() else 1


def split(tasks: list, sizes, parts: int) -> list[list]:
    """``tasks`` cut into ``parts`` contiguous chunks of about equal total ``sizes``."""
    cum = np.concatenate([[0], np.cumsum(sizes)])
    bounds = np.searchsorted(cum, cum[-1] * np.arange(parts + 1) // parts)
    return [tasks[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _serve(work, chunk, fd: int) -> None:
    """The child's side: every item of ``work(chunk)``, then its exception and traceback."""
    items, error, trace = [], None, None
    try:
        for item in work(chunk):
            items.append(item)
    except Exception as exc:
        import traceback

        error, trace = exc, "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        tail = pickle.dumps((False, (error, trace)))
    except Exception:  # an exception that does not pickle goes back as its text
        tail = pickle.dumps((False, (WorkerError(f"{type(error).__name__}: {error}"), trace)))
    with os.fdopen(fd, "wb") as fh:
        for item in items:
            pickle.dump((True, item), fh, pickle.HIGHEST_PROTOCOL)
        fh.write(tail)


def _start(work, chunk):
    """Fork a child that runs ``_serve``; return its pid and the read end of its pipe."""
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns into the caller's frames
        code = 1
        try:
            os.close(r)
            _serve(work, chunk, w)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def run(work, chunks: list[list], fold) -> None:
    """``fold(item)`` for every item of ``work(chunk)``, chunk by chunk.

    The first chunk runs here; each later non-empty one runs in a forked
    child, started before the first chunk and folded after it.
    """
    children = []  # (pid, pipe) of the chunks not yet folded, in order
    try:
        for chunk in chunks[1:]:
            if chunk:
                children.append(_start(work, chunk))
        for item in work(chunks[0]):
            fold(item)
        while children:
            pid, fh = children[0]
            while True:
                try:
                    more, value = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    fh.close()
                    status = os.waitpid(pid, 0)[1]
                    children.pop(0)
                    raise WorkerError(
                        f"forked worker {pid} ended without returning its results "
                        f"(exit code {os.waitstatus_to_exitcode(status)})"
                    ) from None
                if not more:
                    break
                fold(value)
            fh.close()
            os.waitpid(pid, 0)
            children.pop(0)
            error, trace = value
            if error is not None:
                raise error from WorkerError(f"raised in forked worker {pid}:\n{trace}")
    finally:  # after a failure: kill and reap the children not yet folded
        if children:
            import signal  # here, not at import time: a serial run never needs it
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def timed(work, tasks: list, sizes, fold) -> None:
    """:func:`run` over ``tasks``, fanned out only where a measurement says it pays.

    The first task runs alone in this process, timed.  That time, scaled
    by the sizes of the tasks left over the first task's size, predicts
    the rest: when the prediction is at least ``_FORK_MIN_S`` the rest fan
    out over :func:`worker_count` processes in chunks of about equal total
    ``sizes``, and run here otherwise.  ``sizes`` are positive and in any
    unit in which a task's time is about proportional to its size.
    """
    if not tasks:
        return
    t0 = perf_counter()
    for item in work(tasks[:1]):
        fold(item)
    rest = tasks[1:]
    predicted = sum(sizes[1:]) / sizes[0] * (perf_counter() - t0)
    workers = worker_count(len(rest)) if predicted >= _FORK_MIN_S else 1
    run(work, split(rest, sizes[1:], workers), fold)
