"""The query engine: snapshot the ingest state, solve, memoize by version.

A query is expensive — a state snapshot (a deep copy in-process, a drain
and fold of the shards with worker processes), sketch decode,
coreset assembly, capacitated solve — while ingest is cheap.  The engine
therefore keys its single-entry result cache on the ingest layer's state
*version* (bumped once per applied batch): repeated queries against an
unchanged stream return the memoized :class:`QueryResult` in O(1), and any
intervening ingest invalidates it implicitly, with no bookkeeping beyond an
integer comparison.  ``stats()`` exposes hit/miss counters so cache behavior
is observable over the wire.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass

import numpy as np

from repro.core.io import params_to_dict, read_json
from repro.core.params import CoresetParams
from repro.service.shards import ShardedIngest
from repro.service.state import (
    STATE_FORMAT_VERSION,
    check_format_version,
    sharded_state_from_dict,
    write_checkpoint,
)
from repro.solvers.capacitated_lloyd import CapacitatedKClustering
from repro.utils.rng import derive_seed

__all__ = ["ServiceConfig", "QueryResult", "ClusteringService"]


@dataclass(frozen=True)
class ServiceConfig:
    """Everything needed to (re)create a service instance."""

    k: int
    d: int
    delta: int
    r: float = 2.0
    eps: float = 0.25
    eta: float = 0.25
    #: Worker processes for ingest: 0 = one ``StreamingCoreset`` in-process;
    #: N > 0 = N shard processes, one sketch each.  Answers are identical
    #: either way — workers build their shards from the same
    #: ``(params, seed)``, and the merge fan-in is exact.  The pool is a
    #: :class:`~repro.service.supervisor.SupervisedWorkerPool`, which
    #: respawns dead workers from their per-shard checkpoint and replays
    #: the journaled batches bit-identically.
    workers: int = 0
    seed: int = 0
    backend: str = "exact"
    #: Uniform capacity as a multiple of total_weight/k at query time.
    capacity_slack: float = 1.2
    #: k-means++ restarts of the capacitated solver per query.
    restarts: int = 2
    #: Optional guess window (lo, hi); None = auto-pilot over the full range.
    o_range: tuple[float, float] | None = None

    def make_params(self) -> CoresetParams:
        """The :class:`CoresetParams` of the ingest drivers."""
        return CoresetParams.practical(k=self.k, d=self.d, delta=self.delta,
                                       r=self.r, eps=self.eps, eta=self.eta)

    def to_dict(self) -> dict:
        """JSON-safe form (inverse: :meth:`from_dict`)."""
        data = dataclasses.asdict(self)
        data["o_range"] = list(self.o_range) if self.o_range is not None else None
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServiceConfig":
        data = dict(data)
        # Checkpoints written before supervision became unconditional
        # carry a ``supervise`` flag, and those written while the
        # in-process backend held several shards a ``num_shards`` count;
        # neither selects anything now.
        data.pop("supervise", None)
        data.pop("num_shards", None)
        if data.get("o_range") is not None:
            data["o_range"] = tuple(data["o_range"])
        return cls(**data)


@dataclass(frozen=True)
class QueryResult:
    """One solved clustering snapshot of the live stream."""

    #: (k, d) solved centers in grid coordinates.
    centers: np.ndarray
    #: Capacitated cost of the solution *on the coreset*.
    cost: float
    #: Uniform capacity used by the solve.
    capacity: float
    #: Coreset size the solve ran on.
    coreset_size: int
    #: Accepted guess o of the winning instance.
    o: float
    #: Ingest-state version this result reflects.
    version: int

    def to_dict(self) -> dict:
        """JSON-safe form for the wire protocol."""
        return {
            "centers": self.centers.tolist(),
            "cost": self.cost,
            "capacity": self.capacity,
            "coreset_size": self.coreset_size,
            "o": self.o,
            "version": self.version,
        }


class ClusteringService:
    """Long-lived balanced-clustering service over a dynamic stream.

    Thread-safe: one lock serializes state mutation and queries (the wire
    server runs each request in a worker thread).  All randomness is seeded
    through the config, so two services fed the same events answer
    identically.
    """

    def __init__(self, config: ServiceConfig, ingest=None):
        self.config = config
        self.params = config.make_params()
        if ingest is None:
            if config.workers > 0:
                # Lazy import: the engine stays importable without the
                # multiprocessing machinery.
                from repro.service.supervisor import SupervisedWorkerPool

                ingest = SupervisedWorkerPool(
                    self.params, num_workers=config.workers, seed=config.seed,
                    backend=config.backend, o_range=config.o_range,
                )
            else:
                ingest = ShardedIngest(
                    self.params, seed=config.seed, backend=config.backend,
                    o_range=config.o_range,
                )
        self.ingest = ingest
        self._lock = threading.RLock()
        self._cached: QueryResult | None = None
        self.queries = 0
        self.cache_hits = 0
        #: Nominal ingested volume (8 bytes per coordinate per event) —
        #: the figure tenant byte-quotas are enforced against.  Persisted
        #: in checkpoints so eviction/restore cannot reset a quota.
        self.bytes_ingested = 0

    def close(self) -> None:
        """Release the ingest backend (stops worker processes, if any)."""
        with self._lock:
            self.ingest.close()

    def __enter__(self) -> "ClusteringService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -------------------------------------------------------------- ingest
    def insert(self, points) -> int:
        """Insert rows of an (n, d) int array; returns events applied."""
        with self._lock:
            n = self.ingest.insert_points(points)
            self.bytes_ingested += n * 8 * self.params.d
            return n

    def delete(self, points) -> int:
        """Delete rows of an (n, d) int array; returns events applied."""
        with self._lock:
            n = self.ingest.delete_points(points)
            self.bytes_ingested += n * 8 * self.params.d
            return n

    def apply_events(self, events) -> int:
        """Apply a mixed batch of (point, ±1) events."""
        with self._lock:
            n = self.ingest.apply_batch(events)
            self.bytes_ingested += n * 8 * self.params.d
            return n

    # -------------------------------------------------------------- queries
    def query(self, capacity_slack: float | None = None) -> tuple[QueryResult, bool]:
        """Solve capacitated k-clustering on the current live set.

        Returns ``(result, cache_hit)``.  A non-default ``capacity_slack``
        bypasses the cache (the memoized solve used the configured slack).
        """
        with self._lock:
            version = self.ingest.version
            self.queries += 1
            if (capacity_slack is None and self._cached is not None
                    and self._cached.version == version):
                self.cache_hits += 1
                return self._cached, True
            slack = self.config.capacity_slack if capacity_slack is None else capacity_slack
            merged = self.ingest.merged_state()
        # Finalize + solve outside the lock: they only touch the merged
        # deep copy, so ingest can proceed concurrently.
        coreset, instance = merged.finalize_with_instance()
        # Capacity beyond the total weight never binds; the cap also keeps
        # a huge finite slack from overflowing to inf in the LP.
        total = coreset.total_weight
        capacity = max(min(total / self.params.k * slack, total), 1e-12)
        solver = CapacitatedKClustering(
            k=self.params.k, capacity=capacity, r=self.params.r,
            restarts=self.config.restarts,
            seed=derive_seed(self.config.seed, "service-solve"),
        )
        sol = solver.fit(coreset.points.astype(float), weights=coreset.weights)
        result = QueryResult(
            centers=np.asarray(sol.centers, dtype=float),
            cost=float(sol.cost),
            capacity=float(capacity),
            coreset_size=len(coreset),
            o=float(coreset.o),
            version=version,
        )
        with self._lock:
            if capacity_slack is None:
                self._cached = result
        return result, False

    # ----------------------------------------------------------- persistence
    def state_payload(self, extra: dict | None = None) -> dict:
        """The full checkpoint envelope as a JSON-safe dict (no disk I/O).

        This is the one serialization of a live service: ``checkpoint``
        writes it to disk, and the ``pull_state`` wire op ships it to a
        fleet coordinator — the checkpoint format doubling as the transfer
        encoding, so anything that can restore a checkpoint can merge a
        pulled site state.  With a worker pool, building the payload drains
        the workers first (their ``state`` requests queue behind all pending
        batches).  ``extra`` keys are merged into the envelope (the tenant
        registry stamps its stream id this way); they must not collide with
        the envelope's own fields.
        """
        with self._lock:
            payload = {
                "format_version": STATE_FORMAT_VERSION,
                "config": self.config.to_dict(),
                "counters": {"bytes_ingested": self.bytes_ingested},
                "ingest": self.ingest.to_state_dict(),
            }
            if extra:
                overlap = payload.keys() & extra.keys()
                if overlap:
                    raise ValueError(
                        f"checkpoint extra keys collide with envelope: {sorted(overlap)}")
                payload.update(extra)
            return payload

    def site_stats(self) -> dict:
        """Lightweight counters a fleet coordinator polls between pulls.

        Deliberately a fixed, small vocabulary (unlike :meth:`stats`): the
        fleet charges each ``site_stats`` reply a constant number of bits,
        so the payload must stay a handful of scalar counters.
        """
        with self._lock:
            ingest = self.ingest
            return {
                "version": ingest.version,
                "events": ingest.num_events,
                "insertions": ingest.num_insertions,
                "deletions": ingest.num_deletions,
                "num_shards": ingest.num_shards,
                "space_bits": ingest.space_bits(),
            }

    def checkpoint(self, path, extra: dict | None = None) -> dict:
        """Atomically persist config + full shard state + version to disk
        (the :meth:`state_payload` envelope via
        :func:`~repro.service.state.write_checkpoint`)."""
        with self._lock:
            write_checkpoint(path, self.state_payload(extra=extra))
            return {"path": str(path), "version": self.ingest.version,
                    "events": self.ingest.num_events}

    @classmethod
    def restore(cls, path) -> "ClusteringService":
        """Rebuild a service from :meth:`checkpoint` output.

        The restored instance is bit-identical: same hash randomness (it is
        derived from the config seed), same sketch contents, same version —
        so its next ``query`` answers exactly as the checkpointed process
        would have.
        """
        return cls.from_payload(read_json(path))

    @classmethod
    def from_payload(cls, payload: dict) -> "ClusteringService":
        """Rebuild a service from an already-parsed checkpoint envelope.

        Split out of :meth:`restore` so callers that need the envelope's
        other fields (the tenant registry reads its stamped ``tenant``
        block) can parse the JSON once.
        """
        check_format_version(payload, "service checkpoint")
        config = ServiceConfig.from_dict(payload["config"])
        if config.workers > 0:
            from repro.service.supervisor import SupervisedWorkerPool

            ingest = SupervisedWorkerPool.from_state_dict(payload["ingest"])
            if ingest.num_shards != config.workers:
                ingest.close()
                raise ValueError(
                    f"checkpoint has {ingest.num_shards} shards but its "
                    f"config asks for {config.workers} workers"
                )
        else:
            ingest = sharded_state_from_dict(payload["ingest"])
        if ingest.params != config.make_params():
            ingest.close()
            raise ValueError("checkpoint shard parameters do not match its config")
        service = cls(config, ingest=ingest)
        service.bytes_ingested = int(
            payload.get("counters", {}).get("bytes_ingested", 0))
        return service

    def restore_in_place(self, path) -> None:
        """Replace this service's state with a checkpoint (keeps the object,
        and hence the wire server holding it, alive)."""
        fresh = ClusteringService.restore(path)
        with self._lock:
            stale = self.ingest
            self.config = fresh.config
            self.params = fresh.params
            self.ingest = fresh.ingest
            self.bytes_ingested = fresh.bytes_ingested
            self._cached = None
            stale.close()

    # ---------------------------------------------------------------- stats
    def stats(self) -> dict:
        """Operational counters (also served over the wire).

        With a worker pool the dict additionally carries ``worker_stats``
        (per-worker pid / event count / batch latency) and ``queue_depth``
        (pending batches per worker); gathering those synchronizes with the
        workers, so ``stats`` doubles as a drain barrier.
        """
        with self._lock:
            extra = (self.ingest.stats_extra()
                     if hasattr(self.ingest, "stats_extra") else None)
            base = {
                "version": self.ingest.version,
                "mode": extra["mode"] if extra else "in-process",
                "num_shards": self.ingest.num_shards,
                "events": self.ingest.num_events,
                "events_per_shard": list(self.ingest.events_per_shard),
                "insertions": self.ingest.num_insertions,
                "deletions": self.ingest.num_deletions,
                "live_points": self.ingest.num_insertions - self.ingest.num_deletions,
                "bytes_ingested": self.bytes_ingested,
                "queries": self.queries,
                "cache_hits": self.cache_hits,
                "cached_version": (self._cached.version
                                   if self._cached is not None else None),
                "space_bits": (extra["space_bits"] if extra
                               else self.ingest.space_bits()),
                "params": params_to_dict(self.params),
            }
            if extra is not None:
                base["queue_depth"] = extra["queue_depth"]
                base["worker_stats"] = extra["workers"]
                # Surface every other backend extra (supervision flags,
                # restart totals, recovery events) without enumerating them
                # here — the backend owns that vocabulary.
                for key, value in sorted(extra.items()):
                    if key in ("mode", "space_bits", "queue_depth", "workers"):
                        continue
                    base.setdefault(key, value)
            return base

