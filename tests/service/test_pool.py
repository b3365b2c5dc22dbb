"""WorkerPool: the one process runtime behind campaigns, jobs, agents.

The properties under test are the ones every caller of ``map`` relies
on: results stream back in order, workers survive (and are *reused*)
across tasks, the earliest-dispatched failure is raised once the work
in flight finishes, a stop is cooperative at call boundaries, a worker
death names exactly the calls that produced no result, and an
interrupt closes the pool.
"""

import os
import select
import signal
import time

import pytest

from repro.core.search import SearchCancelled
from repro.service import pool as pool_mod
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


def _pid_then_sleep(index):
    """This worker's pid at once, then a long second call."""
    if index:
        time.sleep(30)
    return os.getpid()


def _orphan_self(write_fd, size):
    """Report this worker's pid, SIGKILL the pool's owner, and return a
    result far larger than the pipe's buffer."""
    os.write(write_fd, str(os.getpid()).encode())
    os.kill(os.getppid(), signal.SIGKILL)
    return b"x" * size


def _exit_once(sentinel, x):
    """Die on 7 until ``sentinel`` exists."""
    if x == 7 and not os.path.exists(sentinel):
        open(sentinel, "w").close()
        os._exit(1)
    return x * x


def _fail_after(delay, message):
    time.sleep(delay)
    if message is not None:
        raise ValueError(message)
    return delay


_run_batch = pool_mod._child_run_batch


def _late_terminal_batch(conn, seq, cancel_seq, parent_pid, payload):
    """The worker's batch body with each terminal frame sent 0.3 s late,
    long after the owner's next stop poll (installed before the fork)."""

    class LateTerminal:
        def send(self, frame):
            if frame[0] != "item-done":
                time.sleep(0.3)
            conn.send(frame)

    _run_batch(LateTerminal(), seq, cancel_seq, parent_pid, payload)


def _no_death(calls, exitcode):
    """``on_death`` for maps whose workers must not die."""
    raise WorkerDied(f"lost {calls} (exit code {exitcode})", exitcode)


def _run(pool, fn, values, **kwargs):
    """Map one unit of ``fn(value)`` calls; returns [(value, result)]
    in arrival order."""
    results = []
    pool.map(fn, [[(v,) for v in values]],
             on_item=lambda call, value: results.append((call[0], value)),
             on_death=_no_death, **kwargs)
    return results


class TestBatchDispatch:
    def test_results_stream_in_order(self):
        with WorkerPool(1) as pool:
            assert _run(pool, _square, [2, 3, 4]) == [(2, 4), (3, 9), (4, 16)]

    def test_units_dispatch_in_order_across_workers(self):
        with WorkerPool(2) as pool:
            results = []
            pool.map(_square, [[(v,)] for v in range(6)],
                     on_item=lambda call, value: results.append(call[0]),
                     on_death=_no_death)
            stats = pool.stats()
        assert sorted(results) == list(range(6))
        assert stats["pool.dispatch"] == 6
        assert stats["worker.spawn"] == 2

    def test_empty_unit_is_rejected(self):
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="at least one"):
                pool.map(_square, [[(1,)], []], on_item=print,
                         on_death=_no_death)
            assert pool.stats()["pool.dispatch"] == 0

    def test_map_after_close_raises(self):
        pool = WorkerPool(1)
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            _run(pool, _square, [1])
        pool.close()  # idempotent
        assert pool.closed


class TestWorkerReuse:
    def test_consecutive_tasks_share_one_process(self):
        with WorkerPool(1) as pool:
            [(_, first)] = _run(pool, _pid, [0])
            [(_, second)] = _run(pool, _pid, [0])
            stats = pool.stats()
        assert first == second != os.getpid()
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

    def test_available_tracks_checkouts(self):
        with WorkerPool(2) as pool:
            assert pool.available() == 2
            seen = []
            pool.map(_slow_square, [[(1,), (2,)]],
                     on_item=lambda call, value: seen.append(
                         pool.available()),
                     on_death=_no_death)
            assert seen == [1, 1]
            assert pool.available() == 2


class TestFailureModes:
    def test_picklable_exception_propagates_and_worker_survives(self):
        results = []
        with WorkerPool(1) as pool:
            with pytest.raises(ValueError, match="seven"):
                pool.map(_raise_on_seven, [[(2,), (7,), (4,)]],
                         on_item=lambda call, value: results.append(value),
                         on_death=_no_death)
            assert results == [4]              # calls before the failure
            # The worker reported cleanly and went back to the pool.
            assert pool.stats()["worker.death"] == 0
            assert not pool.closed
            assert _run(pool, _square, [5]) == [(5, 25)]

    def test_unpicklable_exception_degrades_to_message(self):
        with WorkerPool(1) as pool:
            with pytest.raises(WorkerTaskError, match="_Unpicklable"):
                _run(pool, _raise_unpicklable, [1])

    def test_earliest_dispatched_failure_wins_after_in_flight_finish(self):
        """Unit 0 fails slowly and unit 1 at once: dispatch stops (unit
        3 never runs), unit 2 -- already in flight -- runs to its end,
        and unit 0's error is the one raised."""
        done = []
        with WorkerPool(3) as pool:
            with pytest.raises(ValueError, match="slow"):
                pool.map(_fail_after,
                         [[(1.0, "slow")], [(0.0, "fast")],
                          [(0.8, None)], [(0.0, None)]],
                         on_item=lambda call, value: done.append(call),
                         on_death=_no_death)
            assert pool.stats()["pool.dispatch"] == 3
            assert pool.available() == 3
        assert done == [(0.8, None)]

    def test_on_death_gets_exactly_the_lost_calls(self, tmp_path):
        """The dead worker's unfinished calls reach ``on_death`` with
        its exit code, and the units it returns run on a new worker."""
        sentinel = str(tmp_path / "died")
        deaths, results = [], []

        def on_death(calls, exitcode):
            deaths.append((calls, exitcode))
            return [[call] for call in calls]

        with WorkerPool(1) as pool:
            pool.map(_exit_once, [[(sentinel, v) for v in (3, 7, 5)]],
                     on_item=lambda call, value: results.append(value),
                     on_death=on_death)
            stats = pool.stats()
        assert deaths == [([(sentinel, 7), (sentinel, 5)], 1)]
        assert results == [9, 49, 25]
        assert stats["worker.death"] == 1
        assert stats["worker.spawn"] == 2
        assert stats["pool.dispatch"] == 3

    def test_on_death_returning_none_stops_dispatching(self):
        deaths, results = [], []

        def on_death(calls, exitcode):
            deaths.append((calls, exitcode))

        with WorkerPool(1) as pool:
            pool.map(_exit_on_seven, [[(3,), (7,), (5,)], [(2,)]],
                     on_item=lambda call, value: results.append(value),
                     on_death=on_death)
            assert deaths == [([(7,), (5,)], 1)]
            assert results == [9]
            stats = pool.stats()
            assert stats["pool.dispatch"] == 1
            assert stats["worker.death"] == 1
            assert stats["workers.alive"] == 0
            assert not pool.closed
            # The pool replaces the dead worker lazily on demand.
            assert _run(pool, _square, [6]) == [(6, 36)]
            assert pool.stats()["worker.spawn"] == 2


class TestSignals:
    def test_worker_ends_on_sigterm_under_an_owner_handler(self):
        """A worker does not keep its owner's Python SIGTERM handler,
        and the pool replaces a worker killed while idle."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            with WorkerPool(1) as pool:
                [(_, first)] = _run(pool, _pid, [0])
                (worker,) = pool._idle
                os.kill(first, signal.SIGTERM)
                worker.process.join(timeout=10)
                assert worker.process.exitcode == -signal.SIGTERM
                [(_, second)] = _run(pool, _pid, [0])
                stats = pool.stats()
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert second != first
        assert stats["worker.death"] == 1
        assert stats["worker.spawn"] == 2


class TestOrphanedWorker:
    def test_worker_exits_when_its_owner_dies_mid_send(self):
        """A worker whose pool owner was SIGKILLed exits, instead of
        blocking forever on a result larger than the pipe's buffer."""
        read_end, write_end = os.pipe()
        owner = os.fork()
        if owner == 0:  # the pool owner, which its worker kills
            try:
                os.close(read_end)
                WorkerPool(1).map(_orphan_self, [[(write_end, 4 << 20)]],
                                  on_item=lambda call, value: None,
                                  on_death=_no_death)
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
        # A pid proves the worker ran the call (and killed its owner)
        # rather than exiting idle on the ppid check.
        assert received.isdigit(), "the worker never ran the call"
        if not exited:
            os.kill(int(received), signal.SIGKILL)
        assert exited, "the orphaned worker is still alive"


class TestStop:
    def test_stop_cancels_at_the_next_call_boundary(self):
        with WorkerPool(1) as pool:
            results = []
            with pytest.raises(SearchCancelled) as caught:
                pool.map(_slow_square, [[(i,) for i in range(50)]],
                         on_item=lambda call, value: results.append(value),
                         on_death=_no_death,
                         should_stop=lambda: bool(results))
            assert 1 <= len(results) < 50
            assert caught.value.completed == len(results)
            # The worker is back, and the stop does not reach its next
            # task: cancellation is not death.
            assert pool.available() == 1
            assert _run(pool, _square, [2, 3]) == [(2, 4), (3, 9)]
            stats = pool.stats()
            assert stats["worker.death"] == 0
            assert stats["worker.spawn"] == 1

    def test_stop_after_the_last_result_returns(self, monkeypatch):
        """A stop that turns true once every call has its result cancels
        nothing, even while the last unit's terminal frame is still on
        its way: the map returns instead of raising."""
        monkeypatch.setattr(pool_mod, "_child_run_batch",
                            _late_terminal_batch)
        with WorkerPool(1) as pool:
            results = []
            pool.map(_square, [[(2,)], [(3,), (4,)]],
                     on_item=lambda call, value: results.append(value),
                     on_death=_no_death,
                     should_stop=lambda: len(results) == 3)
            assert pool.stats()["pool.dispatch"] == 2
        assert results == [4, 9, 16]

    def test_stop_before_dispatch_runs_nothing(self):
        with WorkerPool(1) as pool:
            with pytest.raises(SearchCancelled):
                _run(pool, _square, [1], should_stop=lambda: True)
            assert pool.stats()["pool.dispatch"] == 0


class TestInterrupt:
    def test_interrupt_closes_the_pool_and_its_workers(self):
        pids = []

        def interrupt(call, pid):
            pids.append(pid)
            raise KeyboardInterrupt

        pool = WorkerPool(2)
        with pytest.raises(KeyboardInterrupt):
            pool.map(_pid_then_sleep, [[(0,), (1,)], [(0,), (1,)]],
                     on_item=interrupt, on_death=_no_death)
        assert pool.closed
        assert pool.stats()["workers.alive"] == 0
        for pid in set(pids):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        with pytest.raises(RuntimeError, match="closed"):
            _run(pool, _square, [1])


class TestValidation:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            WorkerPool(0)
