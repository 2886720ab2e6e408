"""Seeded inputs for the service benchmark: a point pool and a set ledger.

Every workload draws from one de-duplicated Gaussian-mixture pool
(k=3 planted means, d=2, coordinates in [1, delta]).  A :class:`Window`
walks that pool as a sliding window over a dynamic stream: inserts take
the next pool points, deletes take the oldest live ones, and the walk
cycles through the pool.  The ledger asserts set semantics on every
request -- it never inserts a live point and never deletes a dead one --
and records each request so an in-process reference can replay exactly
what the server received.

This module imports only numpy: the generator must not depend on the
program under test.
"""

from __future__ import annotations

from collections import deque

import numpy as np

__all__ = ["K", "D", "make_pool", "Window", "Ledger"]


#: Cluster centres (k=3, d=2) as fractions of delta.  They are fixed, not
#: seeded: the seed varies the sample and its order, not how hard the data
#: is to cluster, so query and solver work stay comparable across seeds.
MEANS = ((0.25, 0.25), (0.75, 0.30), (0.45, 0.75))
K, D = len(MEANS), len(MEANS[0])


def make_pool(seed: int, delta: int = 1024, draws: int = 40_000,
              spread: float = 0.02) -> np.ndarray:
    """Distinct integer points of the mixture, sampled and ordered by seed.

    ``draws`` samples are snapped to the grid and de-duplicated; at the
    default size (delta=1024) that leaves about 17k distinct points.
    """
    rng = np.random.default_rng([int(seed), 0x5EED])
    means = np.asarray(MEANS) * delta
    k, d = means.shape
    labels = rng.integers(0, k, size=draws)
    real = means[labels] + rng.normal(0.0, spread * delta, size=(draws, d))
    pts = np.clip(np.rint(real), 1, delta).astype(np.int64)
    pts = np.unique(pts, axis=0)
    return pts[rng.permutation(len(pts))]


class Ledger:
    """What the server has been told: event counters plus a request log."""

    def __init__(self):
        self.insertions = 0
        self.deletions = 0
        #: (op, rows) per acknowledged request, in send order.
        self.requests: list[tuple[str, np.ndarray]] = []

    @property
    def events(self) -> int:
        return self.insertions + self.deletions

    @property
    def live_points(self) -> int:
        return self.insertions - self.deletions

    def record(self, op: str, rows: np.ndarray) -> None:
        if op == "insert":
            self.insertions += len(rows)
        elif op == "delete":
            self.deletions += len(rows)
        else:
            raise ValueError(f"not a mutation: {op!r}")
        self.requests.append((op, rows))

    def expected_counters(self) -> dict:
        """The ``stats`` counters the server must report for this stream."""
        return {"events": self.events, "insertions": self.insertions,
                "deletions": self.deletions, "live_points": self.live_points}


class Window:
    """Sliding window over a pool with asserted set semantics.

    ``next_inserts(n)`` and ``oldest(n)`` only *propose* rows; the caller
    commits them with :meth:`commit` once the server acknowledged the
    request, so a failed request leaves the ledger unchanged.
    """

    def __init__(self, pool: np.ndarray, delta: int):
        if len(pool) < 2:
            raise ValueError("pool too small")
        self.pool = pool
        self._base = int(delta) + 1
        self._keys = pool[:, 0].astype(np.int64)
        for j in range(1, pool.shape[1]):
            self._keys = self._keys * self._base + pool[:, j]
        self._head = 0
        self._live: deque[int] = deque()   # pool indices, oldest first
        self._live_set: set[int] = set()   # point keys currently live
        self.ledger = Ledger()

    def __len__(self) -> int:
        return len(self._live)

    def next_inserts(self, n: int) -> np.ndarray:
        """Pool indices of the next ``n`` points to insert (cycling)."""
        idx = (self._head + np.arange(n)) % len(self.pool)
        keys = self._keys[idx]
        if len(set(keys.tolist())) != n or any(
                k in self._live_set for k in keys.tolist()):
            raise AssertionError(
                "generator would insert a live point; the pool is too small "
                "for this window")
        return idx

    def oldest(self, n: int) -> np.ndarray:
        """Pool indices of the ``n`` oldest live points."""
        if n > len(self._live):
            raise AssertionError("generator would delete a dead point")
        return np.fromiter((self._live[i] for i in range(n)), dtype=np.int64,
                           count=n)

    def rows(self, idx: np.ndarray) -> np.ndarray:
        return self.pool[idx]

    def commit(self, op: str, idx: np.ndarray) -> None:
        """Apply an acknowledged request to the live set and the ledger."""
        keys = self._keys[idx].tolist()
        if op == "insert":
            if any(k in self._live_set for k in keys):
                raise AssertionError("inserted a live point")
            self._live.extend(idx.tolist())
            self._live_set.update(keys)
            self._head = (int(idx[-1]) + 1) % len(self.pool)
        elif op == "delete":
            expect = [self._live.popleft() for _ in range(len(idx))]
            if expect != idx.tolist():
                raise AssertionError("deletes must take the oldest live points")
            for k in keys:
                self._live_set.remove(k)
        else:
            raise ValueError(f"not a mutation: {op!r}")
        self.ledger.record(op, self.pool[idx])
