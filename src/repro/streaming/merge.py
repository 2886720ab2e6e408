"""Merging streaming states (parallel shards of one logical stream).

Everything Algorithm 4 maintains is a *linear sketch*, so two instances
built with the same randomness over disjoint sub-streams can be **added**:
the merged state equals the state of one instance that saw the concatenated
stream.  This is the streaming↔distributed bridge the paper exploits in
Section 4.3 — here exposed directly so users can shard a stream across
workers and merge, or combine checkpointed states.

On the exact backend the merge is one concatenation of the live-point
tables plus a compaction; on the sketch backend every per-guess sketch is
added to its sibling.

Requirements (checked): identical parameters, identical seeds (same grids,
hash polynomials, and sketch layouts), same backend.
"""

from __future__ import annotations

from repro.streaming.storing import ExactStoring, SketchStoring
from repro.streaming.streaming_coreset import StreamingCoreset

__all__ = ["merge_many", "merge_streaming_states", "merge_storing"]


def merge_storing(a, b):
    """Merge two Storing structures of the same shape *in place* into ``a``."""
    if type(a) is not type(b):
        raise ValueError("cannot merge different Storing backends")
    if (a.alpha, a.beta, a.recover_points) != (b.alpha, b.beta, b.recover_points):
        raise ValueError("cannot merge Storing structures with different budgets")
    if isinstance(a, ExactStoring):
        a.merge_from(b)
        return a
    if isinstance(a, SketchStoring):
        _add_iblt(a._cells, b._cells)
        # repro-lint: disable=DET104 merging in b's first-touch order creates
        # any nested sketch new to `a` exactly where sequential ingest of the
        # concatenated stream (a's events then b's) would have created it.
        for pos, sk in b._nested.items():
            _add_iblt(a._nested_at(*pos), sk)
        return a
    raise TypeError(f"unknown Storing type {type(a)!r}")


def _add_iblt(dst, src) -> None:
    if dst.m != src.m or dst.universe_bits != src.universe_bits:
        raise ValueError("cannot merge IBLTs of different shapes")
    dst.merge_from(src)


def merge_streaming_states(a: StreamingCoreset, b: StreamingCoreset) -> StreamingCoreset:
    """Merge ``b``'s state into ``a`` (in place; returns ``a``).

    Both drivers must have been constructed with identical ``params``,
    ``seed``, ``backend``, and guess windows — i.e. they are shards of one
    logical computation, differing only in which updates they saw.
    """
    if a.params != b.params:
        raise ValueError("cannot merge: different parameters")
    oa = [inst.o for inst in a.instances]
    ob = [inst.o for inst in b.instances]
    if oa != ob:
        raise ValueError("cannot merge: different guess schedules")
    if a.backend != b.backend:
        raise ValueError("cannot merge: different backends")
    # Same seed ⇒ same grid shift; cheap proxy check on the shift vector.
    import numpy as np

    if not np.allclose(a.grids.shift, b.grids.shift):
        raise ValueError("cannot merge: different grid randomness (seeds differ)")

    if a.live is not None:
        a.live.table.merge_from(b.live.table)
    for ia, ib in zip(a.instances, b.instances):
        for ga, gb in ((ia.store_h, ib.store_h), (ia.store_hp, ib.store_hp),
                       (ia.store_hhat, ib.store_hhat)):
            for sa, sb in zip(ga, gb):
                merge_storing(sa, sb)
    if a._pilot_sampler is not None and b._pilot_sampler is not None:
        for sa, sb in zip(a._pilot_sampler._sketches, b._pilot_sampler._sketches):
            _add_iblt(sa, sb)
    a.num_updates += b.num_updates
    return a


def merge_many(states) -> StreamingCoreset:
    """Fold a sequence of compatible drivers into the first one (in place).

    The fleet fan-in: the coordinator merges one pulled site state per
    site.  Addition of linear sketches is associative and commutative, so
    any fold order — and any site arrival order — yields the same result;
    the fleet property tests assert this bit for bit.
    """
    states = list(states)
    if not states:
        raise ValueError("need at least one state to merge")
    acc = states[0]
    for other in states[1:]:  # scalar-ok: per-site fan-in, not data plane
        acc = merge_streaming_states(acc, other)
    return acc
