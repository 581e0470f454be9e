"""Persistent worker runtime for the multi-worker exploration.

The first-generation parallel driver paid its overhead per *task*: every
frontier seed was pickled on its own, handed to a fork-pool future, and the
pool itself was rebuilt around every fan-out.  On the benchmark box that
overhead ate the entire parallel win (0.87–0.94x at 2–4 workers).  This
module replaces it with a runtime whose costs are paid once per **run**:

* **Long-lived workers.**  :class:`PersistentPool` spawns ``workers``
  processes once and feeds them over duplex pipes until the exploration is
  drained.  Workers are *spawn-safe*: where ``fork`` is available the
  engine is inherited by memory (programs may close over lambdas — the
  application workloads do), otherwise the engine is pickled once at pool
  start and shipped to each worker.  Where neither works the pool refuses
  to start with :class:`PoolUnavailableError` instead of hanging or
  silently serialising.

* **One fixed policy.**  Every ``TASK`` frame (the length-prefixed frames
  of :mod:`repro.core.wire`) carries one seed.  The worker drains it
  through :meth:`~repro.dpor.explore.StepEngine.drain` — the same loop as
  the in-process run — for one time slice (:data:`TASK_BUDGET`, capped at
  :data:`TASK_TICKS` steps) and answers with one ``DONE`` frame holding
  its statistics, its output histories and its whole unfinished stack,
  which the coordinator re-queues as new seeds (work sharing).  Both
  values are read by the coordinator at dispatch and shipped in the task
  metadata, so a test that lowers them reaches ``spawn`` workers too.

* **Crash recovery.**  The coordinator remembers which seed each worker
  holds.  Outputs and statistics are *committed only at* ``DONE``; if a
  worker dies mid-task (its pipe drops or its sentinel fires), the seed is
  re-queued for the surviving workers — nothing is lost and nothing is
  double-counted, so the serial ≡ parallel equivalence holds even under
  ``kill -9``.  Dead workers are respawned up to :attr:`~PersistentPool.max_respawns`;
  if the whole pool is lost the coordinator drains the remaining frontier
  itself (exact, just slower).

* **Task errors are not crashes.**  An exception raised inside a task (a
  body error in the program, say) travels back in the ``DONE`` frame with
  its formatted traceback.  The coordinator commits nothing from that
  task, stops every worker at once and re-raises the exception from a
  :class:`WorkerTraceback`, so the caller sees it once, as if the
  exploration had run in-process.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
from collections import deque
from itertools import count
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.history import History
from ..core.wire import (
    decode_frame,
    decode_items,
    encode_frame,
    encode_items,
    history_from_wire,
    history_to_wire,
)
from .explore import StepEngine, WorkItem
from .stats import ExplorationStats

#: Engines shared with forked workers, keyed by a per-pool token.  Workers
#: inherit the registry at fork time and look their engine up by token, so
#: concurrent pools in one process cannot cross-wire configurations.
_ENGINES: Dict[int, StepEngine] = {}
_ENGINE_TOKENS = count()

# Frame tags of the pool protocol (one byte each; see repro.core.wire).
TAG_TASK = 1  #: coordinator → worker: (meta, one seed)
TAG_DONE = 3  #: worker → coordinator: task finished (stats, outputs, remainder, error)
TAG_SHUTDOWN = 4  #: coordinator → worker: exit the serve loop

#: Seconds of exploration per task: the worker's time slice.  Long enough
#: to amortise one frame round trip, short enough that a skewed subtree's
#: remainder comes back for rebalancing.  Sized on explorations of about
#: 0.3 s; its effect on long explorations is not yet measured.
TASK_BUDGET = 0.05

#: Hard cap on steps per task (the time slice usually ends a task first).
TASK_TICKS = 16384


class PoolUnavailableError(RuntimeError):
    """``workers > 1`` was requested but no worker pool can start here.

    Raised *eagerly* (at explorer construction) so a parallel request
    never hangs or silently degrades to serial: the platform offers no
    ``fork``, and the exploration engine cannot be pickled for a
    ``spawn``/``forkserver`` pool.  Re-run with ``workers=1`` (the
    documented fallback) or make the program picklable.
    """


class WorkerTraceback(Exception):
    """The traceback of a task error, as formatted in the worker that raised
    it; the coordinator re-raises the error ``from`` this."""

    def __str__(self) -> str:
        return self.args[0]


def available_start_method(engine: StepEngine) -> str:
    """The multiprocessing start method the pool will use, or raise.

    Preference order: ``fork`` (engine inherited by memory — works for
    programs closing over lambdas), then ``spawn``/``forkserver`` — which
    require the engine to survive one pickle round trip, probed *here* so
    the failure is an immediate, explainable error rather than a crash
    inside a half-started pool.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    candidates = ["fork", "spawn", "forkserver"]
    for method in candidates:
        if method not in methods:
            continue
        if method == "fork":
            return method
        try:
            pickle.dumps(engine)
            return method
        except Exception as err:
            raise PoolUnavailableError(
                f"worker pool cannot start with the {method!r} start method: the "
                f"exploration engine does not pickle ({err}); programs built from "
                f"Python closures need a platform with fork, or workers=1"
            ) from None
    raise PoolUnavailableError(
        f"worker pool cannot start: no usable multiprocessing start method "
        f"(wanted {candidates}, platform offers {methods}); run with workers=1"
    )


def _resolve_engine(token: int, engine_bytes: Optional[bytes]) -> StepEngine:
    if engine_bytes is not None:
        return pickle.loads(engine_bytes)
    engine = _ENGINES.get(token)
    assert engine is not None, "forked worker started without a registered engine"
    return engine


def _worker_main(
    conn,
    token: int,
    engine_bytes: Optional[bytes],
    chaos_exit_after: Optional[int],
) -> None:
    """Serve loop of one persistent worker: TASK in, DONE out.

    ``chaos_exit_after`` is the crash-recovery test hook: after fully
    exploring that many tasks the worker dies with ``os._exit`` *instead
    of sending DONE* — the maximally adversarial crash (all work done,
    none of it committed), which the coordinator must absorb by
    re-queueing the task without double-counting anything.
    """
    engine = _resolve_engine(token, engine_bytes)
    tasks_served = 0
    while True:
        try:
            frame = conn.recv_bytes()
        except (EOFError, OSError):
            return  # coordinator went away; nothing to clean up
        tag, payload = decode_frame(frame)
        if tag == TAG_SHUTDOWN:
            return
        assert tag == TAG_TASK, f"worker received unexpected frame tag {tag}"
        (time_left, budget, max_ticks, ship_outputs), seed = payload
        stack: List[WorkItem] = decode_items([seed])
        stats = ExplorationStats()
        outputs: List[History] = []
        try:
            engine.drain(
                stack,
                stats,
                outputs.append,
                deadline=None if time_left is None else time.monotonic() + time_left,
                poll_every=1,
                slice_end=time.perf_counter() + budget,
                max_steps=max_ticks,
            )
            wired = [history_to_wire(h) for h in outputs] if ship_outputs else []
            done = (os.getpid(), stats, wired, encode_items(stack), None)
        except Exception as err:  # a task error: the coordinator re-raises it
            done = (os.getpid(), None, [], [], (err, traceback.format_exc()))
        tasks_served += 1
        if chaos_exit_after is not None and tasks_served >= chaos_exit_after:
            os._exit(17)  # crash-recovery hook: die before committing
        try:
            conn.send_bytes(encode_frame(TAG_DONE, done))
        except (BrokenPipeError, OSError):
            return


class _Worker:
    """Coordinator-side handle: process, pipe, and the in-flight task."""

    __slots__ = ("process", "conn", "inflight")

    def __init__(self, process, conn):
        self.process = process
        self.conn = conn
        #: Wire seed of the in-flight task — the re-queue unit on crash.
        self.inflight: Optional[Tuple] = None

    @property
    def idle(self) -> bool:
        return self.inflight is None


class PersistentPool:
    """Long-lived worker processes serving one exploration run.

    Created (and torn down) once per multi-worker
    :meth:`~repro.dpor.explore.SwappingExplorer.run`; every task reuses the
    same processes and pipes.  See the module docstring for the protocol.
    """

    def __init__(
        self,
        engine: StepEngine,
        workers: int,
        chaos_exit_after: Optional[int] = None,
    ):
        self.engine = engine
        self.workers = workers
        self.start_method = available_start_method(engine)
        #: Replacement workers spawned after crashes before the coordinator
        #: gives up on the pool and drains the frontier itself.
        self.max_respawns = workers
        self.respawns = 0
        self.crashes = 0
        self.tasks_dispatched = 0
        self._chaos_exit_after = chaos_exit_after
        self._token = next(_ENGINE_TOKENS)
        self._engine_bytes: Optional[bytes] = None
        self._ctx = None
        self._alive: List[_Worker] = []

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        import multiprocessing

        self._ctx = multiprocessing.get_context(self.start_method)
        if self.start_method != "fork":
            self._engine_bytes = pickle.dumps(self.engine)
        else:
            _ENGINES[self._token] = self.engine
        chaos = self._chaos_exit_after
        for _ in range(self.workers):
            self._alive.append(self._spawn(chaos))
            chaos = None  # the chaos hook only ever arms the first worker

    def _spawn(self, chaos_exit_after: Optional[int]) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self._token, self._engine_bytes, chaos_exit_after),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return _Worker(process, parent_conn)

    def shutdown(self, kill: bool = False) -> None:
        """Stop every worker: after its current task, or at once with ``kill``."""
        for worker in self._alive:
            if kill:
                worker.process.terminate()
                continue
            try:
                worker.conn.send_bytes(encode_frame(TAG_SHUTDOWN, None))
            except (BrokenPipeError, OSError):
                pass
        for worker in self._alive:
            worker.process.join(timeout=5.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=5.0)
            worker.conn.close()
        self._alive = []
        _ENGINES.pop(self._token, None)

    # -- the drive loop -----------------------------------------------------

    def explore(
        self,
        items: List[WorkItem],
        deadline: Optional[float],
        ship_outputs: bool,
        emit: Callable[[History], None],
        worker_stats: Dict[int, ExplorationStats],
        coordinator_stats: ExplorationStats,
    ) -> bool:
        """Drain the frontier through the pool; returns ``timed_out``.

        ``worker_stats`` collects per-pid statistics (committed at DONE);
        ``coordinator_stats`` absorbs any serially-drained remainder if the
        entire pool is lost.  The output-history callback ``emit`` runs in
        the coordinator, in task-commit order.
        """
        from multiprocessing.connection import wait as conn_wait

        pending: Deque[Tuple] = deque(encode_items(items))
        timed_out = False
        while pending or any(not w.idle for w in self._alive):
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
            if timed_out:
                pending.clear()  # stop feeding; running tasks self-expire
            for worker in [w for w in self._alive if w.idle]:
                if not pending:
                    break
                self._dispatch(worker, pending.popleft(), pending, deadline, ship_outputs)
            busy = [w for w in self._alive if not w.idle]
            if not busy:
                if pending:
                    # Whole pool lost and respawns exhausted: finish on the
                    # coordinator — exactness over speed.
                    self.engine.drain(
                        decode_items(list(pending)),
                        coordinator_stats,
                        emit,
                        deadline=deadline,
                        poll_every=1,
                    )
                    return coordinator_stats.timed_out or timed_out
                break
            ready = conn_wait(
                [w.conn for w in busy] + [w.process.sentinel for w in busy],
                timeout=1.0,
            )
            ready_set = set(ready)
            for worker in busy:
                if worker.conn in ready_set:
                    if self._receive(worker, pending, emit, worker_stats):
                        timed_out = True
                        pending.clear()
                    continue
                if worker.process.sentinel in ready_set and not worker.process.is_alive():
                    self._recover(worker, pending)
        return timed_out

    # -- protocol steps ------------------------------------------------------

    def _dispatch(
        self,
        worker: _Worker,
        seed: Tuple,
        pending: Deque[Tuple],
        deadline: Optional[float],
        ship_outputs: bool,
    ) -> None:
        time_left = (
            None if deadline is None else max(deadline - time.monotonic(), 0.0)
        )
        meta = (time_left, TASK_BUDGET, TASK_TICKS, ship_outputs)
        worker.inflight = seed
        try:
            worker.conn.send_bytes(encode_frame(TAG_TASK, (meta, seed)))
        except (BrokenPipeError, OSError):
            # Worker died between tasks; recover exactly as for a mid-task
            # crash — the seed goes back to the queue.
            self._recover(worker, pending)
            return
        self.tasks_dispatched += 1

    def _receive(
        self,
        worker: _Worker,
        pending: Deque[Tuple],
        emit: Callable[[History], None],
        worker_stats: Dict[int, ExplorationStats],
    ) -> bool:
        """Read one DONE frame from a busy worker; returns ``True`` on timeout.

        Re-raises the exception of a task that raised one.
        """
        try:
            frame = worker.conn.recv_bytes()
        except (EOFError, OSError):
            self._recover(worker, pending)
            return False
        tag, payload = decode_frame(frame)
        assert tag == TAG_DONE, f"coordinator received unexpected frame tag {tag}"
        pid, stats, outputs_wire, returned, error = payload
        worker.inflight = None
        if error is not None:
            # The task raised (a body error in the program, say): commit
            # nothing, stop every worker without waiting for its slice, and
            # hand the error to the caller once.
            self.shutdown(kill=True)
            exc, worker_traceback = error
            raise exc from WorkerTraceback(worker_traceback)
        # Commit point: everything about the task becomes visible at once.
        bucket = worker_stats.get(pid)
        worker_stats[pid] = stats if bucket is None else bucket.merge(stats)
        for wire in outputs_wire:
            emit(history_from_wire(wire))
        pending.extend(returned)
        return stats.timed_out

    def _recover(self, worker: _Worker, pending: Deque[Tuple]) -> None:
        """A worker died: re-queue its seed and replace it within budget.

        Nothing the dead worker did was committed (commit happens only in
        :meth:`_receive` on DONE), so re-exploring the seed keeps all
        additive counters and the output set exactly equal to a serial
        run — crash recovery cannot double-count.
        """
        self.crashes += 1
        if worker.inflight is not None:
            pending.append(worker.inflight)
        worker.inflight = None
        try:
            worker.conn.close()
        except OSError:
            pass
        worker.process.join(timeout=1.0)
        if worker in self._alive:
            self._alive.remove(worker)
        if self.respawns < self.max_respawns:
            self.respawns += 1
            self._alive.append(self._spawn(None))
