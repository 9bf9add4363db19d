"""The forked fan-out: when ``timed`` forks, and what comes back from a child."""

import os
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


def test_run_folds_in_chunk_order():
    items = []
    _fork.run(lambda chunk: iter(chunk), [[1, 2], [3], [], [4, 5]], items.append)
    assert items == [1, 2, 3, 4, 5]
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
