"""WorkerPool: the one process runtime behind campaigns, jobs, agents.

The properties under test are the ones the old duplicated runtimes
each needed separately: batch results stream back in order, workers
survive (and are *reused*) across tasks, cancellation is cooperative
at item boundaries, and a worker death names exactly the batch items
that produced no result.
"""

import os
import select
import signal
import time

import pytest

from repro.service.pool import WorkerDied, WorkerPool, WorkerTaskError


#: Pool submission crosses callables by module reference, so every
#: task body lives at module level.
def _square(x):
    return x * x


def _slow_square(x):
    time.sleep(0.15)
    return x * x


def _exit_on_seven(x):
    if x == 7:
        os._exit(1)
    return x * x


def _raise_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x * x


class _Unpicklable(Exception):
    def __init__(self, sock):
        super().__init__("held a live handle")
        self.sock = sock


def _raise_unpicklable(x):
    import socket

    raise _Unpicklable(socket.socket())


def _pid(_):
    return os.getpid()


def _orphan_self(write_fd, size):
    """Report this worker's pid, SIGKILL the pool's owner, and return a
    result far larger than the pipe's buffer."""
    os.write(write_fd, str(os.getpid()).encode())
    os.kill(os.getppid(), signal.SIGKILL)
    return b"x" * size


def _run(pool, fn, values):
    """Submit one batch and drive it to its terminal; returns
    (handle, {index: value})."""
    results = {}
    handle = pool.submit(fn, [(v,) for v in values],
                         on_item=results.__setitem__)
    while not handle.finished:
        pool.wait([handle], timeout=0.5)
    return handle, results


class TestBatchDispatch:
    def test_results_stream_in_order(self):
        with WorkerPool(1) as pool:
            handle, results = _run(pool, _square, [2, 3, 4])
        assert handle.outcome[0] == "done"
        assert results == {0: 4, 1: 9, 2: 16}
        assert handle.lost_indices == []

    def test_empty_batch_is_rejected(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="at least one"):
                pool.submit(_square, [])

    def test_submit_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_square, [(1,)])
        pool.close()  # idempotent


class TestWorkerReuse:
    def test_consecutive_tasks_share_one_process(self):
        with WorkerPool(1) as pool:
            _, first = _run(pool, _pid, [0])
            _, second = _run(pool, _pid, [0])
            stats = pool.stats()
        assert first[0] == second[0] != os.getpid()
        assert stats["worker.spawn"] == 1
        assert stats["worker.reuse"] == 1
        assert stats["pool.dispatch"] == 2
        assert stats["worker.death"] == 0

    def test_workers_spawn_lazily(self):
        with WorkerPool(4) as pool:
            assert pool.stats()["workers.alive"] == 0
            _run(pool, _square, [1])
            assert pool.stats()["workers.alive"] == 1
            assert pool.available() == 4


class TestFailureModes:
    def test_picklable_exception_propagates_and_worker_survives(self):
        with WorkerPool(1) as pool:
            handle, results = _run(pool, _raise_on_seven, [2, 7, 4])
            assert handle.outcome[0] == "failed"
            assert isinstance(handle.outcome[3], ValueError)
            assert results == {0: 4}           # items before the failure
            assert handle.lost_indices == [1, 2]
            # The worker reported cleanly and went back to the pool.
            assert pool.stats()["worker.death"] == 0
            _, again = _run(pool, _square, [5])
            assert again == {0: 25}

    def test_unpicklable_exception_degrades_to_message(self):
        with WorkerPool(1) as pool:
            handle, _ = _run(pool, _raise_unpicklable, [1])
        assert handle.outcome[0] == "failed"
        assert handle.outcome[3] is None
        assert "_Unpicklable" in handle.outcome[2]

    def test_worker_death_names_the_lost_items(self):
        with WorkerPool(1) as pool:
            handle, results = _run(pool, _exit_on_seven, [3, 7, 5])
            assert isinstance(handle.error, WorkerDied)
            assert handle.error.exitcode == 1
            assert results == {0: 9}
            assert handle.lost_indices == [1, 2]
            stats = pool.stats()
            assert stats["worker.death"] == 1
            assert stats["workers.alive"] == 0
            # The pool replaces the dead worker lazily on demand.
            _, again = _run(pool, _square, [6])
            assert again == {0: 36}
            assert pool.stats()["worker.spawn"] == 2


class TestOrphanedWorker:
    def test_worker_exits_when_its_owner_dies_mid_send(self):
        """A worker whose pool owner was SIGKILLed exits, instead of
        blocking forever on a result larger than the pipe's buffer."""
        read_end, write_end = os.pipe()
        owner = os.fork()
        if owner == 0:  # the pool owner, which its worker kills
            try:
                os.close(read_end)
                WorkerPool(1).submit(_orphan_self, [(write_end, 4 << 20)])
                time.sleep(20)
            finally:
                os._exit(1)
        os.close(write_end)
        os.waitpid(owner, 0)
        # The worker holds the pipe's write end too: EOF means it exited.
        received = b""
        exited = False
        deadline = time.monotonic() + 20
        while not exited and time.monotonic() < deadline:
            if select.select([read_end], [], [], 0.1)[0]:
                chunk = os.read(read_end, 64)
                received += chunk
                exited = not chunk
        os.close(read_end)
        if not exited:
            os.kill(int(received), signal.SIGKILL)
        assert exited, "the orphaned worker is still alive"


class TestCancellation:
    def test_cancel_stops_at_the_next_item_boundary(self):
        with WorkerPool(1) as pool:
            results = {}
            handle = pool.submit(_slow_square, [(i,) for i in range(50)],
                                 on_item=results.__setitem__)
            while not results:        # let at least one item land
                pool.wait([handle], timeout=0.5)
            pool.cancel(handle)
            while not handle.finished:
                pool.wait([handle], timeout=0.5)
            assert handle.outcome[0] == "cancelled"
            assert len(results) < 50
            # The worker is back: cancellation is not death.
            assert pool.stats()["worker.death"] == 0
            _, again = _run(pool, _square, [2])
            assert again == {0: 4}

    def test_cancel_after_finish_is_a_no_op(self):
        with WorkerPool(1) as pool:
            handle, _ = _run(pool, _square, [2])
            pool.cancel(handle)       # must not poison the next task
            _, again = _run(pool, _square, [3])
            assert again == {0: 9}


class TestCheckoutGuard:
    def test_submit_gives_up_when_should_stop_fires(self):
        with WorkerPool(1) as pool:
            blocker = pool.submit(_slow_square, [(i,) for i in range(50)])
            handle = pool.submit(_square, [(1,)], should_stop=lambda: True)
            assert handle is None     # nothing dispatched, nothing lost
            pool.cancel(blocker)
            while not blocker.finished:
                pool.wait([blocker], timeout=0.5)

    def test_available_tracks_checkouts(self):
        with WorkerPool(2) as pool:
            assert pool.available() == 2
            handle = pool.submit(_slow_square, [(1,)])
            assert pool.available() == 1
            while not handle.finished:
                pool.wait([handle], timeout=0.5)
            assert pool.available() == 2


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(0)
