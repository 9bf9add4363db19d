"""The forked fan-out: how many workers, when ``timed`` forks, and what comes back from a child."""

import errno
import os
import threading
import time

import pytest

from svyerr import _fork


def _pids(tasks):
    """The work of a task: the pid of the process that ran it, after its delay."""
    for delay in tasks:
        time.sleep(delay)
        yield os.getpid()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestTimed:
    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(_fork, "worker_count", lambda tasks: 2)

    def test_forks_when_the_first_task_predicts_enough_work(self):
        # two tasks left x 0.06 s >= _FORK_MIN_S = 0.1 s
        pids = []
        _fork.timed(_pids, [0.06, 0.0, 0.0], [1, 1, 1], pids.append)
        assert pids[:2] == [os.getpid()] * 2 and pids[2] != os.getpid()
        _assert_no_child_left()

    def test_stays_serial_when_it_does_not(self):
        pids = []
        _fork.timed(_pids, [0.0, 0.0, 0.0], [1, 1, 1], pids.append)
        assert pids == [os.getpid()] * 3

    def test_no_tasks(self):
        _fork.timed(_pids, [], [], pytest.fail)

    def test_prediction_scales_with_the_sizes_left(self):
        # 0.01 s for a task of size 1 predicts 1 s for the size 100 left,
        # though two tasks left x 0.01 s is below _FORK_MIN_S
        pids = []
        _fork.timed(_pids, [0.01, 0.0, 0.0], [1, 50, 50], pids.append)
        assert pids[:2] == [os.getpid()] * 2 and pids[2] != os.getpid()
        _assert_no_child_left()

    def test_large_first_task_predicts_less_for_small_ones(self):
        # 0.06 s for a task of size 100 predicts 1.2 ms for the size 2 left
        pids = []
        _fork.timed(_pids, [0.06, 0.0, 0.0], [100, 1, 1], pids.append)
        assert pids == [os.getpid()] * 3


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)

    def test_unpinned_blas_stays_serial(self):
        assert _fork.worker_count(100) == 1

    @pytest.mark.parametrize("cpu_count, workers", [(6, 6), (None, 1)])
    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch, cpu_count, workers):
        # a platform without sched_getaffinity counts every CPU, and one
        # whose CPU count is unknown counts one
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _fork.worker_count(100) == workers

    @pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("threads, workers", [("1", 4), ("2", 2), ("3", 1), ("8", 1)])
    def test_cpus_divided_by_blas_threads(self, monkeypatch, var, threads, workers):
        monkeypatch.setenv(var, threads)
        assert _fork.worker_count(100) == workers

    def test_openblas_setting_wins(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "4")
        assert _fork.worker_count(100) == 4

    @pytest.mark.parametrize("openblas", ["0", "-1", "abc"])
    @pytest.mark.parametrize("omp, workers", [(None, 1), ("1", 4)])
    def test_setting_not_a_positive_integer_reads_the_next(self, monkeypatch, openblas, omp, workers):
        # as OpenBLAS reads them: OPENBLAS_NUM_THREADS=0 with OMP_NUM_THREADS
        # unset runs a thread per CPU, and OMP_NUM_THREADS=1 pins it to one
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", openblas)
        if omp is not None:
            monkeypatch.setenv("OMP_NUM_THREADS", omp)
        assert _fork.worker_count(100) == workers

    def test_no_more_workers_than_tasks(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _fork.worker_count(3) == 3

    def test_other_thread_running_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _fork.worker_count(100) == 4
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10.0,))
        thread.start()
        try:
            assert _fork.worker_count(100) == 1
        finally:
            release.set()
            thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_no_fork_serial(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delattr(os, "fork")
        assert _fork.worker_count(100) == 1


def test_run_folds_in_chunk_order():
    items = []
    _fork.run(lambda chunk: iter(chunk), [[1, 2], [3], [], [4, 5]], items.append)
    assert items == [1, 2, 3, 4, 5]
    _assert_no_child_left()


def test_failed_fork_runs_its_chunk_and_the_later_ones_here(monkeypatch):
    forks, fork = [], os.fork

    def fork_once():
        forks.append(None)
        if len(forks) > 1:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    pids = []
    _fork.run(_pids, [[0.0], [0.0], [0.0], [0.0]], pids.append)
    assert len(forks) == 2  # no fork is tried after the first that fails
    assert pids[0] == pids[2] == pids[3] == os.getpid() != pids[1]
    _assert_no_child_left()


def test_exception_that_does_not_pickle_comes_back_as_text():
    class Local(Exception):  # a local class pickles by a name that does not resolve
        pass

    def work(chunk):
        if chunk == ["child"]:
            raise Local("lost class")
        yield from chunk

    with pytest.raises(_fork.WorkerError, match="^Local: lost class$"):
        _fork.run(work, [["parent"], ["child"]], lambda item: None)
    _assert_no_child_left()
