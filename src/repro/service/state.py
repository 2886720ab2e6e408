"""Bit-exact serialization of live streaming sketch state (checkpoints).

:mod:`repro.core.io` persists *finished* coresets — a summary frozen at
finalize time.  A long-running service additionally needs to persist the
*live* sketches mid-stream so a process can restart and keep ingesting.

The key observation making this cheap: every random choice inside a
:class:`~repro.streaming.streaming_coreset.StreamingCoreset` (grid shift,
hash polynomials, sketch layouts) is derived deterministically from
``(params, seed)``.  A checkpoint therefore stores only

1. the construction arguments (params dict, seed, backend, guess window,
   ``prefer``, ``auto_pilot``), and
2. the *data* the stream wrote: on the exact backend the live-point table
   (sorted point keys with their nonzero counts — one table however many
   guesses run), on the sketch backend every guess's Storing sketches;
   plus the pilot ℓ₀-sampler buckets and the update counter.

Restore rebuilds the driver from the arguments — regenerating identical
randomness — and pours the data back in.  The round trip is bit-identical:
``finalize()`` on the restored driver replays the same decode on the same
contents.  The exact table is canonical (a function of the surviving
multiset alone), so two drivers that saw different streams with the same
survivors serialize it to the same bytes.  Everything is JSON (Python's
``json`` round-trips the arbitrary-precision integers our point/cell keys
need), so checkpoints are portable and diffable.

Format 1 stored one exact Storing structure per (guess, level, sub-stream).
It is still read: the table is rebuilt from the point pairs of a live
guess's ĥ store at a level whose rate φ is 1 (that store saw every update),
and a format-1 state without such a store is refused.
"""

from __future__ import annotations

from urllib.parse import quote, unquote

from repro.core.io import atomic_write_json, params_from_dict, params_to_dict
from repro.service.faults import fault_point
from repro.streaming.storing import SketchStoring
from repro.streaming.streaming_coreset import StreamingCoreset

__all__ = [
    "STATE_FORMAT_VERSION",
    "check_format_version",
    "streaming_state_to_dict",
    "streaming_state_from_dict",
    "build_sharded_state_dict",
    "sharded_state_to_dict",
    "sharded_state_from_dict",
    "shard_drivers_from_dict",
    "tenant_checkpoint_filename",
    "tenant_id_from_filename",
    "write_checkpoint",
]

STATE_FORMAT_VERSION = 2

#: Formats :func:`check_format_version` accepts (1: per-guess exact stores).
_READABLE_FORMAT_VERSIONS = (1, STATE_FORMAT_VERSION)

#: Prefix of per-tenant checkpoint files inside a ``--tenants-dir``.
_TENANT_FILE_PREFIX = "tenant-"
_TENANT_FILE_SUFFIX = ".ckpt.json"


# ------------------------------------------------------------ tenant files
def tenant_checkpoint_filename(stream_id: str) -> str:
    """File name a tenant's eviction checkpoint is stored under.

    The stream id is percent-encoded with no safe characters, so any
    printable id (slashes, dots, unicode) maps to exactly one flat file
    name, and :func:`tenant_id_from_filename` inverts it losslessly.
    """
    return _TENANT_FILE_PREFIX + quote(stream_id, safe="") + _TENANT_FILE_SUFFIX


def tenant_id_from_filename(name: str) -> str | None:
    """Inverse of :func:`tenant_checkpoint_filename`; ``None`` for foreign
    files (a tenants dir may also hold manifests or user checkpoints)."""
    if not (name.startswith(_TENANT_FILE_PREFIX)
            and name.endswith(_TENANT_FILE_SUFFIX)):
        return None
    return unquote(name[len(_TENANT_FILE_PREFIX): -len(_TENANT_FILE_SUFFIX)])


# ------------------------------------------------------------- durability
def write_checkpoint(path, payload: dict) -> None:
    """Crash-safe checkpoint write: every service checkpoint goes through
    here (engine checkpoints, tenant eviction, close-time persistence).

    Durability is :func:`~repro.core.io.atomic_write_json` — temp file in
    the target directory, ``fsync`` of the file *and* of the directory
    entry, then ``os.replace`` — so a reader (or a crash at any byte) sees
    either the previous complete checkpoint or the new complete one, never
    a torn mix.  The ``checkpoint.write`` fault point injects an
    ``OSError`` *before* any bytes are written, modelling a full disk or
    dead volume: the previous checkpoint must survive such a failure
    untouched, which the fault tests assert.
    """
    act = fault_point("checkpoint.write", path=str(path))
    if act is not None:
        raise OSError(f"injected checkpoint write failure: {path}")
    atomic_write_json(path, payload)


def check_format_version(data: dict, what: str) -> int:
    """Return ``data``'s format version, refusing any this module cannot read."""
    version = data.get("format_version")
    if version not in _READABLE_FORMAT_VERSIONS:
        raise ValueError(f"unsupported {what} format {version!r}")
    return version


# ---------------------------------------------------------------- storing
def _buckets_to_list(buckets: dict) -> list:
    """IBLT buckets as ``[row, pos, count, keysum, fpsum]`` rows."""
    return [[r, p, b[0], int(b[1]), int(b[2])]
            for (r, p), b in buckets.items()]  # repro-lint: disable=DET104 first-touch bucket order IS the checkpoint byte contract


def _buckets_from_list(rows: list) -> dict:
    return {(r, p): [c, ks, fs] for r, p, c, ks, fs in rows}


def _storing_to_dict(store: SketchStoring) -> dict:
    """Serialize one sketch Storing structure's *contents* (layout is
    seed-derived)."""
    return {
        "kind": "sketch",
        "cells": _buckets_to_list(store._cells.buckets),
        "nested": [
            [r, p, _buckets_to_list(sk.buckets)]
            for (r, p), sk in store._nested.items()  # repro-lint: disable=DET104 first-touch nested order mirrors sequential-ingest creation order
        ],
    }


def _storing_from_dict(store: SketchStoring, data: dict) -> None:
    """Pour serialized contents back into a freshly constructed Storing."""
    if data["kind"] != "sketch":
        raise ValueError("checkpoint backend mismatch (expected sketch)")
    store._cells.buckets = _buckets_from_list(data["cells"])
    store._nested = {}
    for r, p, buckets in data["nested"]:
        store._nested_at(r, p).buckets = _buckets_from_list(buckets)


def _table_from_v1(sc: StreamingCoreset, records: list) -> None:
    """Rebuild the live table from a format-1 exact state.

    A live guess's ĥ store at a level with φ = 1 sampled every update, so
    its (cell, point) pairs are exactly the surviving multiset.  A guess
    the old early kill stopped froze mid-stream and cannot serve.
    """
    for inst, rec in zip(sc.instances, records):
        if rec.get("dead_reason") is not None:
            continue
        for i, store in enumerate(rec["store_hhat"]):
            if sc.params.phi(i, inst.o) < 1.0:
                continue
            if store["kind"] != "exact":
                raise ValueError("checkpoint backend mismatch (expected exact)")
            pairs = [pair for _, pts in store["points"] for pair in pts]
            sc.live.table.load([p for p, _ in pairs], [n for _, n in pairs])
            return
    raise ValueError(
        "format-1 exact checkpoint has no live guess with a phi=1 point store, "
        "so its surviving point set cannot be rebuilt; re-ingest the stream "
        "into a fresh service instead")


# ------------------------------------------------------------- one driver
def streaming_state_to_dict(sc: StreamingCoreset) -> dict:
    """Full JSON-safe state of one :class:`StreamingCoreset`."""
    instances = []
    for inst in sc.instances:
        rec = {"o": inst.o}
        if sc.live is None:
            rec["store_h"] = [_storing_to_dict(s) for s in inst.store_h]
            rec["store_hp"] = [_storing_to_dict(s) for s in inst.store_hp]
            rec["store_hhat"] = [_storing_to_dict(s) for s in inst.store_hhat]
        instances.append(rec)
    table = None
    if sc.live is not None:
        keys, counts = sc.live.table.contents()
        table = {"keys": keys.tolist(), "counts": counts.tolist()}
    pilot = None
    if sc._pilot_sampler is not None:
        pilot = [_buckets_to_list(sk.buckets) for sk in sc._pilot_sampler._sketches]
    return {
        "format_version": STATE_FORMAT_VERSION,
        "params": params_to_dict(sc.params),
        "seed": sc.seed,
        "backend": sc.backend,
        "prefer": sc.prefer,
        "o_range": list(sc.o_range) if sc.o_range is not None else None,
        "auto_pilot": sc.auto_pilot,
        "num_updates": sc.num_updates,
        "instances": instances,
        "table": table,
        "pilot": pilot,
    }


def streaming_state_from_dict(data: dict) -> StreamingCoreset:
    """Rebuild a :class:`StreamingCoreset` from :func:`streaming_state_to_dict`.

    The driver is reconstructed from its arguments (regenerating identical
    grids and hash polynomials), then the sketch contents are restored, so
    the result is indistinguishable from the checkpointed original — it can
    keep ingesting, merge with drivers of the same ``(params, seed)``, and
    finalize.  Format-1 states are read too (see the module docstring).
    """
    version = check_format_version(data, "streaming-state")
    params = params_from_dict(data["params"])
    o_range = tuple(data["o_range"]) if data["o_range"] is not None else None
    sc = StreamingCoreset(
        params,
        seed=data["seed"],
        backend=data["backend"],
        o_range=o_range,
        prefer=data["prefer"],
        auto_pilot=data["auto_pilot"],
    )
    got = [inst.o for inst in sc.instances]
    want = [rec["o"] for rec in data["instances"]]
    if got != want:
        raise ValueError(
            f"checkpoint guess schedule {want} does not match rebuilt {got}"
        )
    if sc.live is not None:
        if version == 1:
            _table_from_v1(sc, data["instances"])
        else:
            sc.live.table.load(data["table"]["keys"], data["table"]["counts"])
    else:
        for inst, rec in zip(sc.instances, data["instances"]):
            for group, payload in (
                (inst.store_h, rec["store_h"]),
                (inst.store_hp, rec["store_hp"]),
                (inst.store_hhat, rec["store_hhat"]),
            ):
                if len(group) != len(payload):
                    raise ValueError("checkpoint level count mismatch")
                for store, d in zip(group, payload):
                    _storing_from_dict(store, d)
    if data["pilot"] is not None:
        if sc._pilot_sampler is None:
            raise ValueError("checkpoint has pilot state but rebuilt driver has none")
        for sk, buckets in zip(sc._pilot_sampler._sketches, data["pilot"]):
            sk.buckets = _buckets_from_list(buckets)
    sc.num_updates = int(data["num_updates"])
    return sc


# ----------------------------------------------------------- shard fan-out
def build_sharded_state_dict(shard_dicts: list, *, version: int,
                             events_per_shard: list, num_insertions: int,
                             num_deletions: int) -> dict:
    """Assemble the sharded-checkpoint envelope from per-shard state dicts.

    Shared by the in-process backend (one shard: its driver) and the
    worker-pool backend (whose shards serialize themselves inside their
    worker processes) — both produce the same, interchangeable format.
    """
    return {
        "format_version": STATE_FORMAT_VERSION,
        "num_shards": len(shard_dicts),
        "version": int(version),
        "events_per_shard": [int(x) for x in events_per_shard],
        "num_insertions": int(num_insertions),
        "num_deletions": int(num_deletions),
        "shards": list(shard_dicts),
    }


def sharded_state_to_dict(ingest) -> dict:
    """JSON-safe state of a :class:`~repro.service.shards.ShardedIngest`:
    the envelope with its one driver as the only shard."""
    return build_sharded_state_dict(
        [streaming_state_to_dict(ingest.driver)],
        version=ingest.version,
        events_per_shard=ingest.events_per_shard,
        num_insertions=ingest.num_insertions,
        num_deletions=ingest.num_deletions,
    )


def shard_drivers_from_dict(data: dict) -> list[StreamingCoreset]:
    """Every shard of a sharded-checkpoint envelope as its own driver,
    not yet folded."""
    check_format_version(data, "sharded-state")
    shards = [streaming_state_from_dict(rec) for rec in data["shards"]]
    if len(shards) != int(data["num_shards"]):
        raise ValueError("checkpoint shard count mismatch")
    return shards


def sharded_state_from_dict(data: dict, shards: list | None = None):
    """Rebuild a :class:`~repro.service.shards.ShardedIngest` (inverse of
    :func:`sharded_state_to_dict`).

    An envelope with several shards — a worker pool's, or an in-process
    checkpoint from when that backend held several shards too — folds into
    the one driver, with the counters summed.  ``shards`` passes the
    envelope's drivers when the caller already rebuilt them with
    :func:`shard_drivers_from_dict`.
    """
    from repro.service.shards import ShardedIngest

    if shards is None:
        shards = shard_drivers_from_dict(data)
    ingest = ShardedIngest.from_shards(shards)
    ingest.version = int(data["version"])
    ingest.num_events = sum(int(x) for x in data["events_per_shard"])
    ingest.num_insertions = int(data["num_insertions"])
    ingest.num_deletions = int(data["num_deletions"])
    return ingest
