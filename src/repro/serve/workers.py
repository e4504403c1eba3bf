"""The one executor of the serving layer: shard loops behind a pipe.

Every micro-batch and every track operation -- in either deployment
shape -- runs inside :func:`_worker_main`, a shard loop that owns its
own calibrated sessions and talks to :class:`WorkerPool` over a
``multiprocessing`` pipe with one set of frames and one outcome codec:

- ``ShardPolicy(workers=0)`` (the default) hosts a single shard loop on
  a daemon thread of the serving process; ``workers=N`` spawns N shard
  processes (``multiprocessing`` *spawn* start method, daemonic so they
  can never outlive the parent).  Every shard rebuilds its sessions
  from the :class:`WorkerSpec` with the same ``session_seed``, so shards
  are bit-for-bit interchangeable with each other and with
  :func:`~repro.serve.execution.reference_run`.
- Assembled micro-batches are routed to the **least-loaded live shard**,
  tie-broken toward a shard that has already served the batch's
  substrate (``ShardPolicy.affinity``) so calibration state stays warm;
  request items and responses cross the pipe as plain picklable
  payloads.
- **Shard death is detected** (pipe EOF from a dedicated reader thread
  per shard): every in-flight request on the dead shard fails with
  :class:`~repro.serve.types.WorkerCrashed` -- a retryable 503, never a
  hung future -- the shard is respawned, and subsequent requests keep
  matching the reference bit-for-bit.  Readiness is event-driven: the
  reader thread wakes every waiter the moment a shard reports ready or
  dies.
- Shutdown sends every shard a stop message, then joins with the
  ``ShardPolicy.join_timeout_s`` deadline, escalating terminate -> kill
  for processes; an ``atexit`` guard runs the same teardown if the owner
  never calls :meth:`WorkerPool.stop`, so Ctrl-C cannot leak orphaned
  children.  A shard process that loses its parent pipe exits on its
  own (EOF), covering even hard parent kills.

Metering stays exact because the scoped ledgers live in the shard that
executed the batch; the responses carry per-request energy/ops back over
the pipe like any other result field.
"""

from __future__ import annotations

import asyncio
import atexit
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence, TypeVar

import numpy as np

from repro.nn.sequential import Sequential
from repro.runtime.policy import ShardPolicy
from repro.serve.execution import Outcome, RequestItem, run_grouped
from repro.serve.pool import build_reference_session
from repro.serve.types import (
    InferenceResponse,
    RequestExecutionError,
    TrackError,
    WorkerCrashed,
)

PairKey = tuple[str, str]
# A track's home: (shard index, shard generation).
Home = tuple[int, int]
_T = TypeVar("_T")

_STARTUP_FAILURE_MESSAGE = (
    "worker shards keep dying during warm-up; giving up on respawns. "
    "A thread-hosted shard (workers=0) prints its warm-up error above. "
    "For shard processes the common cause is a parent __main__ that is "
    "not importable (interactive/stdin scripts cannot use the "
    "multiprocessing 'spawn' start method) -- run from a file, "
    "`python -m repro serve`, or use workers=0."
)


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a shard needs to rebuild the served sessions.

    A process shard receives the spec once, at spawn; a thread shard
    reads it in place.  Either way the shard builds private sessions
    from it (same calibration, same ``session_seed``), which is what
    makes every shard bit-for-bit interchangeable.
    """

    models: dict[str, Sequential]
    substrates: tuple[str, ...]
    n_iterations: int = 30
    calibration_inputs: np.ndarray | None = None
    session_seed: int = 0
    # Streaming tracks (repro.serve.tracks): when a world is given, the
    # shard also warms one TrackStore over these substrates before
    # reporting ready, so sticky-routed track state can live shard-side.
    track_world: Any = None
    track_substrates: tuple[str, ...] | None = None

    def keys(self) -> list[PairKey]:
        return [
            (substrate, model)
            for substrate in self.substrates
            for model in self.models
        ]


def _worker_main(spec: WorkerSpec, conn: Any) -> None:
    """The shard loop: warm the sessions, then serve jobs until stopped.

    Runs as a shard process's entry point or as a thread shard's target.
    Protocol (parent -> shard): ``("batch", job_id, key, items)``,
    ``("track", job_id, op, payload)`` with op open/steps/close, and
    ``("stop",)``.  Shard -> parent: ``("ready",)`` once warmed, then
    one ``("result", job_id, encoded_outcomes)`` per job.  Outcomes are
    encoded as ``("ok", payload)`` / ``("track_error", (kind, message))``
    / ``("error", message)`` tuples so nothing unpicklable ever crosses
    the pipe.  The shard closes its pipe end on every exit path, so the
    parent's reader sees EOF even when warm-up raises.
    """
    try:
        # The loop is strictly serial (one job at a time), so one
        # session per pair is all it can use; concurrency comes from the
        # number of shards.
        sessions = {
            key: build_reference_session(
                key[0],
                spec.models[key[1]],
                n_iterations=spec.n_iterations,
                calibration_inputs=spec.calibration_inputs,
                session_seed=spec.session_seed,
            )
            for key in spec.keys()
        }
        track_store = None
        if spec.track_world is not None:
            from repro.serve.tracks import TrackStore

            track_store = TrackStore(
                spec.track_world,
                spec.track_substrates or spec.substrates,
            )
        conn.send(("ready",))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died: exit rather than linger as an orphan
            kind = message[0]
            if kind == "stop":
                break
            if kind == "batch":
                _, job_id, key, items = message
                encoded = _run_batch(sessions, key, items)
            elif kind == "track":
                _, job_id, op, payload = message
                encoded = _run_track_op(track_store, op, payload)
            else:
                continue
            try:
                conn.send(("result", job_id, encoded))
            except (OSError, ValueError):
                break
    finally:
        conn.close()


def _run_batch(
    sessions: dict[PairKey, Any], key: PairKey, items: Sequence[RequestItem]
) -> list[tuple[str, Any]]:
    """Execute one micro-batch, one wire-encoded outcome per item."""
    try:
        outcomes = run_grouped(sessions[tuple(key)], key[0], key[1], items)
    except Exception as error:  # session-level failure: fail every item
        return [("error", f"{type(error).__name__}: {error}")] * len(items)
    return [
        ("ok", outcome)
        if isinstance(outcome, InferenceResponse)
        else ("error", str(outcome))
        for outcome in outcomes
    ]


def _run_track_op(track_store: Any, op: str, payload: Any) -> list:
    """Execute one shard-side track operation, wire-encoded.

    ``steps`` payloads are per-item lists; ``open``/``close`` encode one
    outcome.
    """
    n_outcomes = len(payload) if op == "steps" else 1
    try:
        if track_store is None:
            raise RuntimeError("track serving is not enabled on this shard")
        if op == "open":
            track_id, substrate, init, seed = payload
            return [("ok", track_store.open(track_id, substrate, init, seed))]
        if op == "steps":
            return track_store.step_batch(payload)
        if op == "close":
            return [("ok", track_store.close(payload))]
        raise RuntimeError(f"unknown track op {op!r}")
    except TrackError as error:
        return [("track_error", (error.kind, str(error)))] * n_outcomes
    except Exception as error:
        return [("error", f"{type(error).__name__}: {error}")] * n_outcomes


@dataclass
class _Inflight:
    """One dispatched job awaiting its shard's result."""

    loop: asyncio.AbstractEventLoop
    future: asyncio.Future
    n_requests: int
    sent_at: float


class WorkerHandle:
    """Parent-side view of one shard: process or thread, pipe, counters.

    ``process`` is the shard's ``multiprocessing`` process, or the
    ``threading.Thread`` hosting it when the pool runs in-process.
    """

    def __init__(self, index: int, process: Any, conn: Any, generation: int = 0):
        self.index = index
        # Spawn-unique id: a respawned shard gets a new generation, so
        # state pinned to the dead one (live tracks) can never be
        # silently served by its fresh-state replacement.
        self.generation = generation
        self.process = process
        self.conn = conn
        self.ready = False
        self.alive = True
        self.inflight: dict[int, _Inflight] = {}
        self.dispatched_batches = 0
        self.completed_batches = 0
        self.failed_batches = 0
        self.substrates: set[str] = set()
        self.started_at = time.monotonic()
        self.last_dispatch_at: float | None = None

    @property
    def inflight_batches(self) -> int:
        return len(self.inflight)

    @property
    def inflight_requests(self) -> int:
        return sum(entry.n_requests for entry in self.inflight.values())

    def describe(self, now: float | None = None) -> dict[str, Any]:
        """Per-shard stats row for ``/stats``: queue depth and ages
        (``pid`` is None for a thread shard)."""
        now = time.monotonic() if now is None else now
        oldest = min(
            (entry.sent_at for entry in self.inflight.values()), default=None
        )
        return {
            "index": self.index,
            "generation": self.generation,
            "pid": getattr(self.process, "pid", None),
            "alive": bool(self.process.is_alive()),
            "ready": self.ready,
            "queue_depth": self.inflight_batches,
            "inflight_requests": self.inflight_requests,
            "dispatched_batches": self.dispatched_batches,
            "completed_batches": self.completed_batches,
            "failed_batches": self.failed_batches,
            "oldest_inflight_age_s": (
                None if oldest is None else now - oldest
            ),
            "last_dispatch_age_s": (
                None
                if self.last_dispatch_at is None
                else now - self.last_dispatch_at
            ),
            "uptime_s": now - self.started_at,
            "substrates": sorted(self.substrates),
        }


class WorkerPool:
    """Shard loops behind asyncio ``execute`` / ``execute_track`` calls.

    ``policy.workers`` spawned shard processes, or -- at ``workers=0``
    -- one shard loop on a daemon thread.  One pipe and one reader
    thread per shard; futures are created on the dispatching event loop
    and resolved with ``call_soon_threadsafe``, so the pool survives the
    service being driven from different event loops over its lifetime
    (each ``infer_many`` call runs its own).
    """

    def __init__(self, spec: WorkerSpec, policy: ShardPolicy):
        self.spec = spec
        self.policy = policy
        import multiprocessing

        self._context = multiprocessing.get_context("spawn")
        self._n_shards = max(1, policy.workers)
        self._handles: list[WorkerHandle] = []
        self._lock = threading.Lock()
        # Futures of coroutines waiting for a shard state change.
        self._waiters: list[
            tuple[asyncio.AbstractEventLoop, asyncio.Future]
        ] = []
        self._job_ids = itertools.count()
        self._generations = itertools.count()
        self._started = False
        self._startup_failures = 0  # consecutive never-ready shard deaths
        self._failed_permanently = False
        self.respawns = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Start every shard and wait until each reports warmed-up."""
        if self._started:
            return
        self._handles = [
            self._launch(index) for index in range(self._n_shards)
        ]
        self._started = True
        # Guard against owners that exit without stop(): never leak
        # orphaned children.  (Shards also self-exit on parent-pipe EOF.)
        atexit.register(self.stop)
        # Readers start only once the handles are installed, so even a
        # shard that dies at once is respawned into its slot.
        for handle in self._handles:
            self._watch(handle)
        await self._wait_until(
            self._all_ready,
            "no worker shard became ready within "
            f"{self.policy.spawn_timeout_s:.0f}s",
        )

    def _launch(self, index: int) -> WorkerHandle:
        parent_conn, child_conn = self._context.Pipe()
        shard_kwargs: dict[str, Any] = dict(
            target=_worker_main,
            args=(self.spec, child_conn),
            name=f"repro-serve-shard-{index}",
            daemon=True,
        )
        shard: Any
        if self.policy.workers == 0:
            # The thread owns child_conn and closes it when its loop ends.
            shard = threading.Thread(**shard_kwargs)
            shard.start()
        else:
            shard = self._context.Process(**shard_kwargs)
            shard.start()
            child_conn.close()  # parent keeps one end; EOF now propagates
        return WorkerHandle(
            index, shard, parent_conn, generation=next(self._generations)
        )

    def _watch(self, handle: WorkerHandle) -> None:
        threading.Thread(
            target=self._reader,
            args=(handle,),
            name=f"repro-serve-reader-{handle.index}",
            daemon=True,
        ).start()

    def _all_ready(self) -> bool:
        live = [handle for handle in self._handles if handle.alive]
        return bool(live) and all(handle.ready for handle in live)

    async def _wait_until(
        self, probe: Callable[[], Optional[_T]], timeout_message: str
    ) -> _T:
        """Await the first truthy ``probe()`` (evaluated under the lock).

        Reader threads wake every waiter whenever a shard turns ready or
        dies, so nothing polls.  Gives up with a retryable
        :class:`WorkerCrashed` after ``spawn_timeout_s``, or at once when
        respawning was abandoned.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.policy.spawn_timeout_s
        while True:
            with self._lock:
                if self._failed_permanently:
                    raise WorkerCrashed(
                        -1, 0, message=_STARTUP_FAILURE_MESSAGE
                    )
                found = probe()
                if found:
                    return found
                remaining = deadline - loop.time()
                if remaining <= 0:
                    raise WorkerCrashed(-1, 0, message=timeout_message)
                wake: asyncio.Future = loop.create_future()
                self._waiters.append((loop, wake))
            try:
                await asyncio.wait_for(wake, remaining)
            except asyncio.TimeoutError:
                pass

    def _wake_waiters(self) -> None:
        with self._lock:
            waiters, self._waiters = self._waiters, []
        for loop, wake in waiters:

            def apply(wake: asyncio.Future = wake) -> None:
                if not wake.done():
                    wake.set_result(None)

            self._call_threadsafe(loop, apply)

    def stop(self) -> None:
        """Stop every shard within ``join_timeout_s``; escalate if needed.

        Idempotent and atexit-safe: stop -> deadline join -> terminate ->
        kill, then fail anything still in flight so no awaiter hangs.
        """
        if not self._started:
            return
        self._started = False
        # The stopped shards stay listed (alive: false) so their counters
        # remain readable in /stats until the next start().
        handles = list(self._handles)
        self._halt(handles)
        for handle in handles:
            with self._lock:
                inflight = dict(handle.inflight)
                handle.inflight.clear()
            for entry in inflight.values():
                self._fail(
                    entry,
                    RequestExecutionError(
                        "service stopped before execution"
                    ),
                )
        atexit.unregister(self.stop)

    def _halt(self, handles: Sequence[WorkerHandle]) -> None:
        """Send each shard a stop frame and join it by the deadline.

        A process that misses the deadline is terminated, then killed; a
        thread cannot be, but it is a daemon and dies with the
        interpreter.
        """
        deadline = time.monotonic() + self.policy.join_timeout_s
        for handle in handles:
            try:
                handle.conn.send(("stop",))
            except (OSError, ValueError):
                pass
        for handle in handles:
            shard = handle.process
            shard.join(timeout=max(0.0, deadline - time.monotonic()))
            for escalate in ("terminate", "kill"):
                if shard.is_alive() and hasattr(shard, escalate):
                    getattr(shard, escalate)()
                    shard.join(timeout=1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    # -- dispatch ----------------------------------------------------------

    async def execute(
        self, key: PairKey, items: Sequence[RequestItem]
    ) -> list[Outcome]:
        """Route one assembled micro-batch to a shard; await its result.

        Raises:
            WorkerCrashed: the chosen shard died before answering (its
                replacement is already spawning), or no shard became
                ready within ``spawn_timeout_s``.
        """
        if not self._started:
            raise RuntimeError("worker pool is not started")
        handle = await self._pick(key[0])
        return await self._submit(
            handle,
            "batch",
            (tuple(key), list(items)),
            len(items),
            substrate=key[0],
        )

    async def execute_track(
        self,
        index: int,
        generation: int,
        op: str,
        payload: Any,
        n_items: int = 1,
    ) -> list[Any]:
        """Run one track op on a *specific* shard generation (sticky
        routing: a track's filter state lives on exactly one shard).

        Returns the decoded outcome list (payload dicts / typed
        exceptions, one per item).  Raises :class:`WorkerCrashed` when
        that generation is gone -- dead, respawned, or never ready --
        so the caller (the track manager) can recover explicitly
        instead of silently hitting a fresh-state replacement.
        """
        if not self._started:
            raise RuntimeError("worker pool is not started")
        with self._lock:
            handle = (
                self._handles[index]
                if 0 <= index < len(self._handles)
                else None
            )
        if (
            handle is None
            or handle.generation != generation
            or not handle.ready
        ):
            raise WorkerCrashed(index, n_items)
        return await self._submit(handle, "track", (op, payload), n_items)

    async def _submit(
        self,
        handle: WorkerHandle,
        kind: str,
        body: tuple,
        n_items: int,
        substrate: str | None = None,
    ) -> list[Any]:
        """Send one job frame to ``handle``; await its decoded outcomes."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        job_id = next(self._job_ids)
        with self._lock:
            # Checked under the lock the reader clears in-flight work
            # under: a job is either failed by the death or never sent.
            if not handle.alive:
                raise WorkerCrashed(handle.index, n_items)
            handle.inflight[job_id] = _Inflight(
                loop=loop,
                future=future,
                n_requests=n_items,
                sent_at=time.monotonic(),
            )
            handle.dispatched_batches += 1
            handle.last_dispatch_at = time.monotonic()
            if substrate is not None:
                handle.substrates.add(substrate)
        try:
            handle.conn.send((kind, job_id, *body))
        except (OSError, ValueError, TypeError) as error:
            # The reader thread may close a dying shard's pipe while this
            # thread is inside send(): the Connection then writes to a
            # None handle and raises TypeError.  Any other TypeError (an
            # unpicklable body) is a bug, not a crash.
            if isinstance(error, TypeError) and not handle.conn.closed:
                raise
            with self._lock:
                handle.inflight.pop(job_id, None)
            # The death handler may already have queued a failure for
            # this future; nobody will await it, so settle it now.
            future.cancel()
            raise WorkerCrashed(handle.index, n_items) from error
        return await future

    def _live_homes(self) -> list[Home]:
        return [
            (handle.index, handle.generation)
            for handle in self._handles
            if handle.alive and handle.ready
        ]

    def ready_homes(self) -> list[Home]:
        """Live placement targets as (shard index, generation) pairs."""
        with self._lock:
            return self._live_homes()

    async def wait_homes(self) -> list[Home]:
        """:meth:`ready_homes`, waiting out shard warm-up or respawn up
        to ``spawn_timeout_s``."""
        return await self._wait_until(
            self._live_homes,
            "no live worker shard available for track placement; retry",
        )

    def respawning_shards(self) -> list[int]:
        """Shard indices currently dead or warming a replacement (the
        /healthz ``degraded`` signal)."""
        with self._lock:
            return sorted(
                handle.index
                for handle in self._handles
                if not (handle.alive and handle.ready)
            )

    async def _pick(self, substrate: str) -> WorkerHandle:
        """Least-loaded live shard, affinity-tie-broken; waits for warm-up."""

        def least_loaded() -> WorkerHandle | None:
            ready = [
                handle
                for handle in self._handles
                if handle.alive and handle.ready
            ]
            if not ready:
                return None
            if self.policy.affinity:
                return min(
                    ready,
                    key=lambda h: (
                        h.inflight_requests,
                        substrate not in h.substrates,
                        h.index,
                    ),
                )
            return min(ready, key=lambda h: (h.inflight_requests, h.index))

        return await self._wait_until(
            least_loaded,
            "no live worker shard became ready within "
            f"{self.policy.spawn_timeout_s:.0f}s; retry",
        )

    # -- reader thread -----------------------------------------------------

    def _reader(self, handle: WorkerHandle) -> None:
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "ready":
                with self._lock:
                    handle.ready = True
                self._wake_waiters()
            elif kind == "result":
                self._resolve(handle, message[1], message[2])
        self._on_worker_death(handle)

    def _resolve(
        self, handle: WorkerHandle, job_id: int, encoded: list
    ) -> None:
        with self._lock:
            entry = handle.inflight.pop(job_id, None)
            handle.completed_batches += 1
        if entry is None:
            return
        outcomes: list[Outcome] = [
            payload
            if tag == "ok"
            else TrackError(payload[0], str(payload[1]))
            if tag == "track_error"
            else RequestExecutionError(str(payload))
            for tag, payload in encoded
        ]

        def apply() -> None:
            if not entry.future.done():
                entry.future.set_result(outcomes)

        self._call_threadsafe(entry.loop, apply)

    def _is_current(self, handle: WorkerHandle) -> bool:
        """Whether ``handle`` still fills its slot of a running pool."""
        return self._started and self._handles[handle.index] is handle

    def _on_worker_death(self, handle: WorkerHandle) -> None:
        """Pipe EOF: fail in-flight work with a 503 and respawn the shard
        (unless the pool was stopped or restarted meanwhile)."""
        with self._lock:
            was_ready = handle.ready
            handle.alive = False
            handle.ready = False
            inflight = dict(handle.inflight)
            handle.inflight.clear()
            handle.failed_batches += len(inflight)
            current = self._is_current(handle)
            if current and was_ready:
                self._startup_failures = 0
            elif current:
                # A shard that died before finishing warm-up will very
                # likely die again (bad spec, spawn-incompatible
                # __main__): cap the respawn loop instead of thrashing.
                self._startup_failures += 1
                if self._startup_failures > 3 * self._n_shards:
                    self._failed_permanently = True
        self._wake_waiters()
        for entry in inflight.values():
            self._fail(
                entry, WorkerCrashed(handle.index, entry.n_requests)
            )
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=1.0)  # reap; the shard is gone
        if not (current and self.policy.respawn) or self._failed_permanently:
            return
        replacement = self._launch(handle.index)
        with self._lock:
            self.respawns += 1
            installed = self._is_current(handle)
            if installed:
                self._handles[handle.index] = replacement
        if installed:
            self._watch(replacement)
        else:
            # The pool stopped while we were respawning: don't leak it.
            self._halt([replacement])

    def _fail(self, entry: _Inflight, error: Exception) -> None:
        def apply() -> None:
            if not entry.future.done():
                entry.future.set_exception(error)

        self._call_threadsafe(entry.loop, apply)

    @staticmethod
    def _call_threadsafe(loop: asyncio.AbstractEventLoop, fn: Any) -> None:
        try:
            loop.call_soon_threadsafe(fn)
        except RuntimeError:
            pass  # the dispatching loop is gone; nothing left to notify

    # -- introspection -----------------------------------------------------

    def describe(self) -> dict[str, Any]:
        """Pool-level stats: one row per shard (queue depth, ages, pids)."""
        now = time.monotonic()
        with self._lock:
            shards = [handle.describe(now) for handle in self._handles]
        return {
            "workers": self.policy.workers,
            "respawns": self.respawns,
            "shards": shards,
        }


__all__ = ["WorkerHandle", "WorkerPool", "WorkerSpec", "_worker_main"]
