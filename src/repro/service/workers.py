"""Process-parallel shard ingest: one OS process per sketch shard.

The in-process backend (:class:`~repro.service.shards.ShardedIngest`) feeds
one driver in one Python process.  The linearity that makes the paper's
coordinator model work with ``s`` independent sites (Lemma 4.2: merging is
addition) lets the stream be split across processes instead:
:class:`WorkerPoolIngest` spawns one worker per shard, each constructing its
:class:`~repro.streaming.streaming_coreset.StreamingCoreset` *inside* the
worker from the shared ``(params, seed)`` (every bit of randomness is
derived from those, so all shards share grid shift, hash polynomials and
sketch layouts), and feeds it batched events over a bounded command queue.
This module is the service's only router: :func:`route_rows` sends each
point to a shard by its key.

Queries and checkpoints pull per-shard serialized sketch state (the
:mod:`repro.service.state` codec) back to the parent, where
:meth:`ShardedIngest.from_shards` folds them with the exact
:func:`~repro.streaming.merge.merge_streaming_states`.  Because each
worker's command queue is FIFO, a ``state`` request enqueued after a set of
batches observes exactly those batches — no separate barrier or ack
protocol is needed for determinism.

The public surface mirrors ``ShardedIngest`` (``apply_batch`` /
``insert_points`` / ``merged_state`` / ``to_state_dict`` / counters), so the
engine treats both backends uniformly; ``close()`` additionally tears the
workers down.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import time

import numpy as np

from repro.core.io import params_from_dict, params_to_dict
from repro.core.params import CoresetParams
from repro.grid.grids import PointCodec
from repro.service.faults import InjectedFault, fault_point
from repro.service.shards import ShardedIngest
from repro.service.state import (
    build_sharded_state_dict,
    check_format_version,
    streaming_state_from_dict,
    streaming_state_to_dict,
)
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import check_stream_points, coerce_integral_rows

__all__ = ["WorkerDied", "WorkerPoolIngest", "DEFAULT_QUEUE_BATCHES", "route_rows"]

#: Fibonacci-style multiplicative mixer: point keys are mixed-radix encodings
#: whose low bits carry only the last coordinate, so reducing the raw key
#: modulo the shard count would route entire coordinate slices to one shard.
_MIX = 0x9E3779B97F4A7C15
_MIX_MASK = (1 << 64) - 1


def _mix(key: int) -> int:
    """64-bit multiplicative hash spreading structured point keys."""
    h = (int(key) * _MIX) & _MIX_MASK
    h ^= h >> 29
    return h


def _mix_array(keys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mix` (uint64 wrap-around multiply), bigint-safe."""
    if keys.dtype == object:
        return np.array([_mix(k) for k in keys.tolist()],  # scalar-ok: bigints
                        dtype=np.uint64)
    h = keys.astype(np.uint64) * np.uint64(_MIX)
    h ^= h >> np.uint64(29)
    return h


def route_rows(codec: PointCodec, rows: np.ndarray, num_shards: int) -> np.ndarray:
    """Shard index of each (validated) row: its mixed point key modulo
    ``num_shards``.

    Routing is by point key, so an insertion and its later deletion meet
    in the same shard and per-shard live sets stay balanced.  Linearity
    makes this an optimization, not a requirement: a deletion routed to
    another shard than its insertion leaves a negative count there that
    cancels in the fold, which is what makes at-least-once routing layers
    safe in front of the service.
    """
    return (_mix_array(codec.encode(rows)) % np.uint64(num_shards)).astype(np.int64)


class WorkerDied(RuntimeError):
    """A shard worker process is gone (or reported a fatal error and
    exited).  Carries enough context for a supervisor to rebuild the shard:
    :class:`~repro.service.supervisor.SupervisedWorkerPool` catches this,
    respawns the worker from its last per-shard checkpoint, and replays the
    journaled batches; the plain pool surfaces it to the caller.
    """

    def __init__(self, shard: int, message: str, exitcode: int | None = None):
        super().__init__(message)
        self.shard = shard
        self.exitcode = exitcode

#: Bound on queued-but-unprocessed batches per worker; `apply_batch` blocks
#: once a worker falls this far behind (backpressure instead of unbounded
#: parent-side memory growth).
DEFAULT_QUEUE_BATCHES = 64

#: How long the parent waits for a worker reply before declaring it dead.
_REPLY_TIMEOUT_S = 600.0


def _worker_main(spec: dict, cmd_q, out_q) -> None:
    """Worker entry point: build (or restore) one shard, then serve commands.

    Runs in a child process.  The shard is constructed here from the shared
    ``(params, seed)`` — not pickled over — which regenerates grid shift,
    hash polynomials, and sketch layouts bit-identically to every sibling
    shard and to the in-process backend.
    """
    try:
        if spec.get("state") is not None:
            shard = streaming_state_from_dict(spec["state"])
        else:
            params = params_from_dict(spec["params"])
            o_range = (tuple(spec["o_range"])
                       if spec["o_range"] is not None else None)
            shard = StreamingCoreset(
                params, seed=spec["seed"], backend=spec["backend"],
                o_range=o_range, auto_pilot=spec["auto_pilot"],
            )
        out_q.put(("ready", os.getpid()))
    except Exception as exc:  # surface construction failures to the parent
        out_q.put(("error", f"{type(exc).__name__}: {exc}"))
        return
    events = 0
    batches = 0
    busy_s = 0.0
    while True:  # scalar-ok: per-batch command loop
        msg = cmd_q.get()
        op = msg[0]
        try:
            if op == "batch":
                t0 = time.perf_counter()
                shard.update_batch(msg[1])
                busy_s += time.perf_counter() - t0
                events += len(msg[1])
                batches += 1
            elif op == "abatch":
                # Columnar payload: (rows, signs) arrays straight into the
                # vectorized ingest path — no per-event tuples on the wire.
                t0 = time.perf_counter()
                shard.update_arrays(msg[1], msg[2])
                busy_s += time.perf_counter() - t0
                events += len(msg[2])
                batches += 1
            elif op == "state":
                out_q.put(("state", streaming_state_to_dict(shard)))
            elif op == "stats":
                out_q.put(("stats", {
                    "pid": os.getpid(),
                    "events": events,
                    "batches": batches,
                    "busy_s": busy_s,
                    "space_bits": shard.space_bits(),
                }))
            elif op == "crash":
                # Injected soft failure (FaultPlan worker.kill mode="soft"):
                # die the way a worker with a poisoned shard does — report
                # an error, then exit — so recovery handles both shapes.
                raise InjectedFault("worker.kill", "soft worker crash")
            elif op == "stop":
                out_q.put(("stopped", events))
                return
            else:
                out_q.put(("error", f"unknown worker command {op!r}"))
                return
        except Exception as exc:
            # A failed command poisons the shard state; report and die so
            # the parent's next round trip sees the error, not silence.
            out_q.put(("error", f"{type(exc).__name__}: {exc}"))
            return


class WorkerPoolIngest:
    """One logical dynamic stream over N shard *processes*.

    Parameters
    ----------
    params, seed, backend, o_range, auto_pilot:
        Exactly as for :class:`~repro.service.shards.ShardedIngest`; the
        shared ``(params, seed)`` is what makes the fold exact.
    num_workers:
        Worker processes, one shard each.
    start_method:
        ``multiprocessing`` start method.  Defaults to ``"spawn"`` — safe
        under the wire server's worker threads (``fork`` from a
        multi-threaded parent can deadlock in the child) and identical across platforms;
        shard construction is seed-derived, so the start method cannot
        affect results.
    queue_batches:
        Backpressure bound on queued batches per worker.
    shard_states:
        Internal (restore path): per-shard state dicts the workers load at
        startup instead of starting empty.
    """

    def __init__(
        self,
        params: CoresetParams,
        num_workers: int = 4,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
        auto_pilot: bool | None = None,
        start_method: str = "spawn",
        queue_batches: int = DEFAULT_QUEUE_BATCHES,
        shard_states: list | None = None,
    ):
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if shard_states is not None and len(shard_states) != num_workers:
            raise ValueError(
                f"got {len(shard_states)} shard states for {num_workers} workers"
            )
        self._params = params
        self._codec = PointCodec(params.delta, params.d)
        self._ctx = multiprocessing.get_context(start_method)
        self._closed = False
        self._queue_batches = max(1, int(queue_batches))
        self._base_spec = {
            "params": params_to_dict(params),
            "seed": int(seed),
            "backend": backend,
            "o_range": list(o_range) if o_range is not None else None,
            "auto_pilot": auto_pilot,
            "state": None,
        }
        self._cmd_queues = [None] * num_workers
        self._out_queues = [None] * num_workers
        self._procs = [None] * num_workers
        #: Times each worker slot has been respawned (always 0 for the
        #: plain pool; SupervisedWorkerPool increments on recovery).
        self.restart_counts = [0] * num_workers
        #: Workers close() had to SIGKILL because terminate() did not
        #: take — a wedged worker is force-reaped, not silently leaked.
        self.forced_kills = 0
        for w in range(num_workers):  # scalar-ok: per-worker spawn
            self._spawn(w, shard_states[w] if shard_states is not None else None)
        try:
            for w in range(num_workers):  # scalar-ok: per-worker handshake
                self._collect(w, "ready")
        except Exception:
            self.close()
            raise
        self.version = 0
        self.events_per_shard = [0] * num_workers
        self.num_insertions = 0
        self.num_deletions = 0

    def _spawn(self, idx: int, state: dict | None) -> None:
        """(Re)create worker slot ``idx``: fresh queues + process.

        Fresh queues matter for *respawns*: a SIGKILL'd worker can leave a
        partial pickle in its old pipes, and stale commands behind it, so a
        recovered slot must never reuse them.
        """
        spec = dict(self._base_spec)
        spec["state"] = state
        cmd_q = self._ctx.Queue(maxsize=self._queue_batches)
        out_q = self._ctx.Queue()
        proc = self._ctx.Process(
            target=_worker_main, args=(spec, cmd_q, out_q),
            name=f"repro-shard-{idx}", daemon=True,
        )
        proc.start()
        self._cmd_queues[idx] = cmd_q
        self._out_queues[idx] = out_q
        self._procs[idx] = proc

    # ---------------------------------------------------------------- meta
    @property
    def num_shards(self) -> int:
        """Number of shard processes."""
        return len(self._procs)

    @property
    def params(self) -> CoresetParams:
        """The shared problem parameters."""
        return self._params

    @property
    def num_events(self) -> int:
        """Total events routed across all workers."""
        return sum(self.events_per_shard)

    def shard_of(self, point) -> int:
        """Deterministic shard index of one point (:func:`route_rows`)."""
        return _mix(self._codec.encode_one(point)) % len(self._procs)

    # -------------------------------------------------------------- ingest
    def apply(self, point, sign: int) -> int:
        """Apply one update to its shard's worker; returns the shard index."""
        idx = self.shard_of(point)
        self._send(idx, ("batch", [(tuple(int(c) for c in point), int(sign))]))
        self.events_per_shard[idx] += 1
        self._count_sign(sign)
        self.version += 1
        return idx

    def apply_batch(self, events) -> int:
        """Apply a batch of events (StreamEvent or (point, sign) pairs).

        Normalized to coordinate/sign arrays and routed by
        :meth:`apply_arrays`.  The call returns once every per-shard slice
        is *enqueued*, not processed — workers drain asynchronously, and
        any later ``state``/``stats`` round trip observes all previously
        enqueued batches (FIFO queues).  Bumps :attr:`version` once.
        """
        rows, signs = events_to_arrays(events, d=self._params.d)
        return self.apply_arrays(rows, signs)

    def apply_arrays(self, rows, signs) -> int:
        """Vectorized ingest: validate and route the whole batch up front,
        then ship one columnar (rows, signs) slice per shard worker."""
        rows = check_stream_points(coerce_integral_rows(rows),
                                   self._params.delta)
        signs = np.asarray(signs, dtype=np.int64)
        n = len(signs)
        if n == 0:
            return 0
        nshards = len(self._procs)
        idx = route_rows(self._codec, rows, nshards)
        for s in range(nshards):  # scalar-ok: per shard, batched inside
            mask = idx == s
            cnt = int(mask.sum())
            if not cnt:
                continue
            self._send(s, ("abatch", rows[mask], signs[mask]))
            self.events_per_shard[s] += cnt
        ins = int((signs > 0).sum())
        self.num_insertions += ins
        self.num_deletions += n - ins
        self.version += 1
        return n

    def insert_points(self, points) -> int:
        """Insert each row of an (n, d) array; one version bump."""
        rows = coerce_integral_rows(points)
        return self.apply_arrays(rows, np.ones(len(rows), dtype=np.int64))

    def delete_points(self, points) -> int:
        """Delete each row of an (n, d) array; one version bump."""
        rows = coerce_integral_rows(points)
        return self.apply_arrays(rows, np.full(len(rows), -1, dtype=np.int64))

    def _count_sign(self, sign: int) -> None:
        if sign > 0:
            self.num_insertions += 1
        else:
            self.num_deletions += 1

    # --------------------------------------------------------------- fan-in
    def merged_state(self) -> StreamingCoreset:
        """A fresh driver equal to one that saw the entire stream.

        Drains every worker (the ``state`` request queues behind all
        pending batches) and folds the deserialized shard states together
        with :meth:`ShardedIngest.from_shards`.
        """
        return ShardedIngest.from_shards(
            [streaming_state_from_dict(rec) for rec in self._shard_state_dicts()]
        ).driver

    def space_bits(self) -> int:
        """Total charged sketch bits across all workers (round trip)."""
        return sum(rec["space_bits"] for rec in self.worker_stats())

    # ---------------------------------------------------------- persistence
    def to_state_dict(self) -> dict:
        """Checkpoint payload — same schema as the in-process backend, so
        checkpoints restore into either backend interchangeably."""
        return build_sharded_state_dict(
            self._shard_state_dicts(),
            version=self.version,
            events_per_shard=self.events_per_shard,
            num_insertions=self.num_insertions,
            num_deletions=self.num_deletions,
        )

    @classmethod
    def from_state_dict(cls, data: dict, start_method: str = "spawn",
                        queue_batches: int = DEFAULT_QUEUE_BATCHES,
                        ) -> "WorkerPoolIngest":
        """Rebuild a pool from a sharded checkpoint (workers load their
        shard state at startup)."""
        check_format_version(data, "sharded-state")
        shards = data["shards"]
        if len(shards) != int(data["num_shards"]):
            raise ValueError("checkpoint shard count mismatch")
        first = shards[0]
        o_range = (tuple(first["o_range"])
                   if first["o_range"] is not None else None)
        pool = cls(
            params_from_dict(first["params"]),
            num_workers=len(shards),
            seed=first["seed"],
            backend=first["backend"],
            o_range=o_range,
            auto_pilot=first["auto_pilot"],
            start_method=start_method,
            queue_batches=queue_batches,
            shard_states=list(shards),
        )
        pool.version = int(data["version"])
        pool.events_per_shard = [int(x) for x in data["events_per_shard"]]
        pool.num_insertions = int(data["num_insertions"])
        pool.num_deletions = int(data["num_deletions"])
        return pool

    # ------------------------------------------------------------- operations
    def worker_stats(self) -> list[dict]:
        """Per-worker counters: pid, events, batches, busy seconds, space.

        Synchronizing — the reply queues behind any pending batches.
        """
        for idx in range(self.num_shards):  # scalar-ok: per-worker stats round-trip
            self._send(idx, ("stats",))
        return [self._collect(idx, "stats") for idx in range(self.num_shards)]

    def queue_depths(self) -> list[int | None]:
        """Queued-but-unprocessed command count per worker (best effort —
        ``None`` where the platform lacks ``qsize``)."""
        depths: list[int | None] = []
        for q in self._cmd_queues:  # scalar-ok: per-worker queue probe
            try:
                depths.append(q.qsize())
            except NotImplementedError:  # pragma: no cover - macOS
                depths.append(None)
        return depths

    def stats_extra(self) -> dict:
        """Pool-specific stats block merged into ``ClusteringService.stats``."""
        workers = self.worker_stats()
        return {
            "mode": "parallel",
            "queue_depth": self.queue_depths(),
            "space_bits": sum(rec["space_bits"] for rec in workers),
            "restarts": sum(self.restart_counts),
            "forced_kills": self.forced_kills,
            "workers": [
                {
                    "pid": rec["pid"],
                    "events": rec["events"],
                    "batches": rec["batches"],
                    "busy_s": round(rec["busy_s"], 6),
                    "batch_latency_s": round(
                        rec["busy_s"] / rec["batches"], 6
                    ) if rec["batches"] else 0.0,
                    "exitcode": self._procs[i].exitcode,
                    "restarts": self.restart_counts[i],
                }
                for i, rec in enumerate(workers)
            ],
        }

    # --------------------------------------------------------------- teardown
    def close(self, timeout: float = 30.0) -> dict:
        """Stop all workers (idempotent).  Pending batches are drained first
        — ``stop`` queues behind them — so no enqueued event is lost.

        Escalates on a wedged worker: ``stop`` command → ``terminate()``
        (SIGTERM) → ``kill()`` (SIGKILL), so ``close()`` never returns with
        a live child, and reports what it had to do:
        ``{"stopped": n, "terminated": n, "killed": n}`` (``killed`` also
        accumulates into :attr:`forced_kills`).
        """
        report = {"stopped": 0, "terminated": 0, "killed": 0}
        if self._closed:
            return report
        self._closed = True
        for idx, q in enumerate(self._cmd_queues):  # scalar-ok: per-worker shutdown
            if self._procs[idx].is_alive():
                try:
                    q.put(("stop",), timeout=timeout)
                except queue_mod.Full:  # pragma: no cover - wedged worker
                    pass
        for proc in self._procs:  # scalar-ok: per-worker join
            proc.join(timeout)
            if not proc.is_alive():
                report["stopped"] += 1
                continue
            proc.terminate()
            proc.join(5.0)
            if not proc.is_alive():
                report["terminated"] += 1
                continue
            # SIGTERM did not take (blocked, stopped, or wedged in C code):
            # SIGKILL cannot be ignored.  Without this a wedged worker
            # outlived close() silently.
            proc.kill()
            proc.join(5.0)
            report["killed"] += 1
            self.forced_kills += 1
        for q in self._cmd_queues + self._out_queues:  # scalar-ok: per-queue close
            q.close()
            q.cancel_join_thread()
        self.last_close_report = report
        return report

    def __enter__(self) -> "WorkerPoolIngest":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # --------------------------------------------------------------- plumbing
    def _send(self, idx: int, msg: tuple) -> None:
        """Enqueue one command; blocks for backpressure when the worker lags."""
        if self._closed:
            raise RuntimeError("worker pool is closed")
        if msg[0] in ("batch", "abatch"):
            self._maybe_inject_kill(idx)
        if not self._procs[idx].is_alive():
            raise WorkerDied(
                idx,
                f"shard worker {idx} (pid {self._procs[idx].pid}) died; "
                "restore the service from its last checkpoint",
                exitcode=self._procs[idx].exitcode,
            )
        self._cmd_queues[idx].put(msg)

    def _maybe_inject_kill(self, idx: int) -> None:
        """``worker.kill`` fault point (no-op without an installed plan):
        hard = SIGKILL the shard process, soft = command it to error out
        and exit.  The very next liveness check sees the corpse."""
        act = fault_point("worker.kill", shard=idx, pid=self._procs[idx].pid)
        if act is None:
            return
        if act.mode == "soft":
            self._cmd_queues[idx].put(("crash",))
        else:
            self._procs[idx].kill()
        # Join (briefly) so the death is observable deterministically —
        # a hard-killed pid must be gone before the caller's next check.
        self._procs[idx].join(5.0)

    def _collect(self, idx: int, want: str):
        """Wait for one tagged reply from worker ``idx``; raise on errors."""
        deadline = time.monotonic() + _REPLY_TIMEOUT_S
        while True:  # scalar-ok: reply poll, per message
            try:
                tag, payload = self._out_queues[idx].get(timeout=0.5)
            except queue_mod.Empty:
                if not self._procs[idx].is_alive():
                    raise WorkerDied(
                        idx,
                        f"shard worker {idx} died without replying to {want!r}",
                        exitcode=self._procs[idx].exitcode,
                    ) from None
                if time.monotonic() > deadline:  # pragma: no cover
                    raise TimeoutError(
                        f"shard worker {idx} did not answer {want!r} within "
                        f"{_REPLY_TIMEOUT_S:.0f}s"
                    ) from None
                continue
            if tag == "error":
                # The worker exits right after reporting an error, so an
                # error reply IS a death notice — typed accordingly.
                raise WorkerDied(idx, f"shard worker {idx} failed: {payload}")
            if tag != want:  # pragma: no cover - protocol bug guard
                raise RuntimeError(
                    f"shard worker {idx} answered {tag!r}, expected {want!r}"
                )
            return payload

    def _shard_state_dicts(self) -> list[dict]:
        """Serialized state of every shard (parallel drain across workers)."""
        for idx in range(self.num_shards):  # scalar-ok: per-shard state drain
            self._send(idx, ("state",))
        return [self._collect(idx, "state") for idx in range(self.num_shards)]
