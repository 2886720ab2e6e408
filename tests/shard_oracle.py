"""Test oracle for the worker pool's shards.

:func:`routed_drivers` builds, in-process, the drivers a
:class:`~repro.service.workers.WorkerPoolIngest` holds: one
:class:`StreamingCoreset` per shard, each fed — in stream order — exactly
the events the pool's own routing sends it; :func:`routed_state` wraps
them in the pool's checkpoint envelope.
"""

from __future__ import annotations

import numpy as np

from repro.service.state import build_sharded_state_dict, streaming_state_to_dict
from repro.service.workers import route_rows
from repro.streaming import StreamingCoreset


def routed_drivers(params, rows, signs, num_shards: int, **kwargs):
    """``(drivers, events_per_shard)`` for ``num_shards`` shards."""
    rows = np.asarray(rows, dtype=np.int64)
    signs = np.asarray(signs, dtype=np.int64)
    drivers = [StreamingCoreset(params, **kwargs) for _ in range(num_shards)]
    idx = route_rows(drivers[0].grids.point_codec, rows, num_shards)
    for s, driver in enumerate(drivers):
        mask = idx == s
        if mask.any():
            driver.update_arrays(rows[mask], signs[mask])
    return drivers, np.bincount(idx, minlength=num_shards).tolist()


def routed_state(params, rows, signs, num_shards: int, *, version: int,
                 **kwargs) -> dict:
    """The checkpoint envelope of a ``num_shards``-worker pool fed
    ``rows``/``signs`` in ``version`` batches."""
    signs = np.asarray(signs, dtype=np.int64)
    drivers, counts = routed_drivers(params, rows, signs, num_shards, **kwargs)
    return build_sharded_state_dict(
        [streaming_state_to_dict(d) for d in drivers], version=version,
        events_per_shard=counts, num_insertions=int((signs > 0).sum()),
        num_deletions=int((signs < 0).sum()))
