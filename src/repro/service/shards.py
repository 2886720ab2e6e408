"""Sharded ingest: one logical dynamic stream over N parallel sketches.

Every shard is a full :class:`~repro.streaming.streaming_coreset.StreamingCoreset`
built from the *same* ``(params, seed)`` — hence identical grid shift, hash
polynomials, and sketch layouts.  Because all of that state is a linear
sketch, the sum of the shards equals the state of a single driver that saw
the whole stream, and
:func:`~repro.streaming.merge.merge_streaming_states` fan-in is *exact*,
not approximate (Section 4.3's streaming↔distributed bridge).

Routing is by point key, so an insertion and its later deletion meet in the
same shard and per-shard live sets stay balanced.  Linearity means this is
an optimization, not a requirement: a deletion applied to a *different*
shard than its insertion leaves that shard with a negative count that
cancels at merge time (the cross-shard-deletion tests exercise exactly
this), which is what makes at-least-once routing layers safe to put in
front of the service.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.params import CoresetParams
from repro.grid.grids import HierarchicalGrids
from repro.streaming.merge import merge_streaming_states
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.rng import derive_seed
from repro.utils.validation import check_stream_points, coerce_integral_rows

__all__ = ["ShardedIngest"]

#: Fibonacci-style multiplicative mixer: point keys are mixed-radix encodings
#: whose low bits carry only the last coordinate, so reducing the raw key
#: modulo ``num_shards`` would route entire coordinate slices to one shard.
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


class ShardedIngest:
    """Partition one logical dynamic stream across N sketch shards.

    Parameters
    ----------
    params:
        Shared :class:`CoresetParams` of every shard.
    num_shards:
        Number of independent sketches; each sees ~1/N of the events.
    seed:
        Shared by *all* shards — this is what makes merging exact.
    backend, o_range, auto_pilot:
        Forwarded to every :class:`StreamingCoreset`.

    Notes
    -----
    Every applied batch bumps :attr:`version`; the query engine keys its
    memoization on it, so "has anything changed since the last query?" is a
    single integer comparison.
    """

    def __init__(
        self,
        params: CoresetParams,
        num_shards: int = 4,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
        auto_pilot: bool | None = None,
    ):
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        # One grid object shared by all shards (identical by construction
        # anyway, since the shift is derived from the shared seed).
        grids = HierarchicalGrids(params.delta, params.d,
                                  seed=derive_seed(seed, "grids"))
        self.shards = [
            StreamingCoreset(params, seed=seed, backend=backend,
                             o_range=o_range, grids=grids, auto_pilot=auto_pilot)
            for _ in range(num_shards)
        ]
        self._init_counters()

    def _init_counters(self) -> None:
        self.version = 0
        self.events_per_shard = [0] * len(self.shards)
        self.num_insertions = 0
        self.num_deletions = 0

    @classmethod
    def from_shards(cls, shards: list[StreamingCoreset]) -> "ShardedIngest":
        """Adopt restored shards (used by checkpoint restore)."""
        if not shards:
            raise ValueError("need at least one shard")
        ingest = cls.__new__(cls)
        ingest.shards = list(shards)
        ingest._init_counters()
        return ingest

    # ---------------------------------------------------------------- meta
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def params(self) -> CoresetParams:
        """The shared problem parameters."""
        return self.shards[0].params

    @property
    def num_events(self) -> int:
        """Total events applied across all shards."""
        return sum(self.events_per_shard)

    def shard_of(self, point) -> int:
        """Deterministic shard index of a point (same for insert/delete)."""
        key = self.shards[0].grids.point_codec.encode_one(point)
        return _mix(key) % len(self.shards)

    # -------------------------------------------------------------- ingest
    def apply(self, point, sign: int) -> int:
        """Apply one update to its shard; returns the shard index.

        Bumps :attr:`version` — prefer :meth:`apply_batch` for bulk traffic
        so the version moves once per batch.
        """
        idx = self._apply_one(point, sign)
        self.version += 1
        return idx

    def apply_batch(self, events) -> int:
        """Apply a batch of events (StreamEvent or (point, sign) pairs).

        The batch is normalized to coordinate/sign arrays and routed by
        :meth:`apply_arrays` — one vectorized encode + mix instead of a
        per-event ``shard_of``.  Returns the number of events applied;
        bumps :attr:`version` once.
        """
        rows, signs = events_to_arrays(events, d=self.params.d)
        return self.apply_arrays(rows, signs)

    def apply_arrays(self, rows, signs) -> int:
        """Vectorized ingest: (n, d) coordinate rows + sign vector.

        The whole batch is validated and routed *before* any shard is
        touched, so a malformed event rejects the batch instead of leaving
        a partially applied, version-less state.  Within each shard the
        original event order is kept (irrelevant for the linear sketches,
        cheap to preserve).
        """
        rows = check_stream_points(coerce_integral_rows(rows), self.params.delta)
        signs = np.asarray(signs, dtype=np.int64)
        n = len(signs)
        if n == 0:
            return 0
        keys = self.shards[0].grids.point_codec.encode(rows)
        idx = (_mix_array(keys) % np.uint64(len(self.shards))).astype(np.int64)
        for s in range(len(self.shards)):  # scalar-ok: per shard, batched inside
            mask = idx == s
            cnt = int(mask.sum())
            if not cnt:
                continue
            self.shards[s].update_arrays(rows[mask], signs[mask])
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

    def _apply_one(self, point, sign: int) -> int:
        point = tuple(int(c) for c in point)
        idx = self.shard_of(point)
        self.shards[idx].update(point, sign)
        self.events_per_shard[idx] += 1
        self._count_sign(sign)
        return idx

    def _count_sign(self, sign: int) -> None:
        if sign > 0:
            self.num_insertions += 1
        else:
            self.num_deletions += 1

    # --------------------------------------------------------------- fan-in
    def merged_state(self) -> StreamingCoreset:
        """A fresh driver equal to one that saw the entire stream.

        Deep-copies shard 0 (merging is in-place and must not disturb live
        ingest state) and folds the remaining shards in; they are only read.
        """
        merged = copy.deepcopy(self.shards[0])
        for shard in self.shards[1:]:  # scalar-ok: per-shard merge fan-in
            merge_streaming_states(merged, shard)
        return merged

    def space_bits(self) -> int:
        """Total charged sketch bits across all shards."""
        return sum(s.space_bits() for s in self.shards)

    # ---------------------------------------------------------- persistence
    def to_state_dict(self) -> dict:
        """Checkpoint payload (same schema as the worker-pool backend)."""
        from repro.service.state import sharded_state_to_dict

        return sharded_state_to_dict(self)

    def close(self) -> None:
        """No-op: in-process shards hold no external resources.  Exists so
        the engine can close any ingest backend uniformly."""
