"""In-process ingest: one logical dynamic stream into one sketch driver.

The service's in-process backend owns exactly one
:class:`~repro.streaming.streaming_coreset.StreamingCoreset` plus the
ingest counters the engine and the wire report.  Everything the driver
holds is a linear sketch (Lemma 4.2), so splitting it into several
in-process shards would only hold the same state N ways and make every
cold query pay for a fold; parallel shards live in worker processes
(:mod:`repro.service.workers`) instead.

:meth:`ShardedIngest.from_shards` is where several drivers built from one
``(params, seed)`` become one: an in-process checkpoint written when this
backend still held several shards, or a worker pool's state pulled by a
fleet coordinator, folds through the exact
:func:`~repro.streaming.merge.merge_streaming_states` (Section 4.3's
streaming↔distributed bridge).
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.params import CoresetParams
from repro.streaming.merge import merge_streaming_states
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import coerce_integral_rows

__all__ = ["ShardedIngest"]


class ShardedIngest:
    """One logical dynamic stream into one in-process sketch driver.

    Parameters
    ----------
    params:
        Problem parameters of the driver.
    seed:
        Seed every bit of the driver's randomness derives from.
    backend, o_range, auto_pilot:
        Forwarded to the :class:`StreamingCoreset`.

    Notes
    -----
    Every applied batch bumps :attr:`version`; the query engine keys its
    memoization on it, so "has anything changed since the last query?" is a
    single integer comparison.  The shard-shaped counters
    (:attr:`num_shards`, :attr:`events_per_shard`) keep the worker pool's
    vocabulary, so the engine, the wire and the checkpoint envelope treat
    both backends alike.
    """

    def __init__(
        self,
        params: CoresetParams,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
        auto_pilot: bool | None = None,
    ):
        self._adopt(StreamingCoreset(params, seed=seed, backend=backend,
                                     o_range=o_range, auto_pilot=auto_pilot))

    def _adopt(self, driver: StreamingCoreset) -> None:
        self.driver = driver
        self.version = 0
        self.num_events = 0
        self.num_insertions = 0
        self.num_deletions = 0

    @classmethod
    def from_shards(cls, shards: list[StreamingCoreset]) -> "ShardedIngest":
        """Fold restored drivers of one ``(params, seed)`` into one ingest.

        The first driver absorbs the others (they are consumed); the sum
        is the state of one driver that saw every shard's events.  The
        caller sets the counters.
        """
        if not shards:
            raise ValueError("need at least one shard")
        driver = shards[0]
        for other in shards[1:]:  # scalar-ok: per-shard merge fan-in
            merge_streaming_states(driver, other)
        ingest = cls.__new__(cls)
        ingest._adopt(driver)
        return ingest

    # ---------------------------------------------------------------- meta
    @property
    def num_shards(self) -> int:
        """Always 1: the in-process backend holds one driver."""
        return 1

    @property
    def events_per_shard(self) -> list[int]:
        """``[num_events]``, the worker pool's per-shard vocabulary."""
        return [self.num_events]

    @property
    def params(self) -> CoresetParams:
        """The driver's problem parameters."""
        return self.driver.params

    # -------------------------------------------------------------- ingest
    def apply_batch(self, events) -> int:
        """Apply a batch of events (StreamEvent or (point, sign) pairs).

        The batch is normalized to coordinate/sign arrays and applied by
        :meth:`apply_arrays`.  Returns the number of events applied; bumps
        :attr:`version` once.
        """
        rows, signs = events_to_arrays(events, d=self.params.d)
        return self.apply_arrays(rows, signs)

    def apply_arrays(self, rows, signs) -> int:
        """Vectorized ingest: (n, d) coordinate rows + sign vector.

        The driver validates the whole batch before it touches any sketch,
        so a malformed event rejects the batch instead of leaving a
        partially applied, version-less state.
        """
        rows = coerce_integral_rows(rows)
        signs = np.asarray(signs, dtype=np.int64)
        n = self.driver.update_arrays(rows, signs)
        if n == 0:
            return 0
        ins = int((signs > 0).sum())
        self.num_events += n
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

    # ------------------------------------------------------------- queries
    def merged_state(self) -> StreamingCoreset:
        """A copy of the driver a query can finalize without disturbing
        live ingest."""
        return copy.deepcopy(self.driver)

    def space_bits(self) -> int:
        """Charged sketch bits of the driver."""
        return self.driver.space_bits()

    # ---------------------------------------------------------- persistence
    def to_state_dict(self) -> dict:
        """Checkpoint payload (same schema as the worker-pool backend)."""
        from repro.service.state import sharded_state_to_dict

        return sharded_state_to_dict(self)

    def close(self) -> None:
        """No-op: the in-process driver holds no external resources.
        Exists so the engine can close any ingest backend uniformly."""
