"""In-memory span recorder, layer wrappers and the per-layer report.

A *span* is one call into a layer's public callable: name, start, end,
the span that caused it (parent) and the request it belongs to.  Spans
are appended to flat columns in memory and written out once, at exit.
Parents are tracked through a context variable, so a span opened on the
asyncio event loop is the parent of spans that ``asyncio.to_thread``
opens in a worker thread (the thread runs in a copy of the context).

:func:`install` wraps the callables listed in :data:`SERVER_TARGETS`
(and, in the load generator, :data:`CLIENT_TARGETS`), patching
each name where the program looks it up: methods on their class,
functions imported by name into the module that calls them.  A target
that no longer exists is reported as absent instead of failing, so the
benchmark keeps running while later changes remove layers.

The report side (:func:`self_times`, :func:`layer_metrics`) turns the
columns into per-layer self time, call counts and ratios.  Self time is
a span's duration minus the part of it that its children cover.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import math
import os
import threading
import time
from array import array

import numpy as np

__all__ = ["SpanRecorder", "SERVER_TARGETS", "CLIENT_TARGETS", "install",
           "load_spans", "self_times", "layer_metrics", "PER_LAYER_METRICS"]

#: (span id, request id) of the innermost open span in this context.
_CURRENT: contextvars.ContextVar[tuple[int, int]] = contextvars.ContextVar(
    "perfbench_current_span", default=(0, 0))

_COLUMNS = (("name", "i"), ("start", "d"), ("end", "d"), ("span", "q"),
            ("parent", "q"), ("request", "q"), ("value", "d"))


class SpanRecorder:
    """Columnar span store; thread-safe appends, one write at the end."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._cols = {c: array(t) for c, t in _COLUMNS}
        self._lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._request_ids = itertools.count(1)
        self.absent: list[str] = []

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, nid: int, start: float, end: float, span: int, parent: int,
            request: int, value: float) -> None:
        cols = self._cols
        with self._lock:
            cols["name"].append(nid)
            cols["start"].append(start)
            cols["end"].append(end)
            cols["span"].append(span)
            cols["parent"].append(parent)
            cols["request"].append(request)
            cols["value"].append(value)

    # ------------------------------------------------------------ wrapping
    def wrap(self, name: str, fn, note=None, root: bool = False):
        """Return ``fn`` wrapped in a span named ``name``.

        ``note(args, kwargs, out, exc)`` may return a number stored with
        the span (bytes, a size, a hit flag); ``root`` starts a new
        request id.
        """
        nid = self.name_id(name)
        ids, reqs, add = self._span_ids, self._request_ids, self.add
        clock = time.monotonic

        def _open():
            parent, req = _CURRENT.get()
            sid = next(ids)
            if root:
                req = next(reqs)
            return sid, parent, req, _CURRENT.set((sid, req))

        def _close(sid, parent, req, token, t0, args, kwargs, out, exc):
            t1 = clock()
            _CURRENT.reset(token)
            value = math.nan
            if note is not None:
                try:
                    value = float(note(args, kwargs, out, exc))
                except Exception:  # a broken note must not break the program
                    value = math.nan
            add(nid, t0, t1, sid, parent, req, value)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def awrapper(*args, **kwargs):
                sid, parent, req, token = _open()
                t0 = clock()
                out = exc = None
                try:
                    out = await fn(*args, **kwargs)
                    return out
                except BaseException as e:
                    exc = e
                    raise
                finally:
                    _close(sid, parent, req, token, t0, args, kwargs, out, exc)
            return awrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid, parent, req, token = _open()
            t0 = clock()
            out = exc = None
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as e:
                exc = e
                raise
            finally:
                _close(sid, parent, req, token, t0, args, kwargs, out, exc)
        return wrapper

    # -------------------------------------------------------------- output
    def dump(self, path) -> None:
        """Write the columns (``.npz``) plus names and absent targets."""
        cols = self.columns()
        meta = json.dumps({"names": cols.pop("names"), "absent": cols.pop("absent")})
        tmp = f"{path}.tmp.npz"
        np.savez(tmp, meta=np.frombuffer(meta.encode(), dtype=np.uint8), **cols)
        os.replace(tmp, path)

    def columns(self) -> dict:
        """The recorded spans in the :func:`load_spans` format."""
        with self._lock:
            out = {c: np.array(self._cols[c]) for c, _ in _COLUMNS}
        out["names"] = list(self.names)
        out["absent"] = list(self.absent)
        return out


def load_spans(path) -> dict:
    """Read a :meth:`SpanRecorder.dump` file back into columns."""
    with np.load(path) as data:
        out = {c: data[c] for c, _ in _COLUMNS}
        meta = json.loads(bytes(data["meta"]).decode())
    out["names"] = meta["names"]
    out["absent"] = meta["absent"]
    return out


# ------------------------------------------------------------------ targets
def _nbytes(args, kwargs, out, exc):
    return len(args[0])


def _out_len(args, kwargs, out, exc):
    return len(out)


def _cache_hit(args, kwargs, out, exc):
    return 1.0 if out[1] else 0.0


def _dead_guesses(args, kwargs, out, exc):
    return sum(1 for inst in args[0].instances if inst.dead_reason is not None)


def _succeeded(args, kwargs, out, exc):
    return 0.0 if exc is not None else 1.0


def _file_size(args, kwargs, out, exc):
    return os.path.getsize(args[0])


def _fit_size(args, kwargs, out, exc):
    return len(args[1])


#: (module, attribute path, span name, note, starts a request).  Names are
#: patched where the program looks them up: ``decode_line`` inside
#: ``aserver``, ``assemble_coreset`` inside ``streaming_coreset``, and so on.
SERVER_TARGETS = (
    ("repro.service.aserver", "AsyncClusteringServer._dispatch",
     "aserver.request", None, True),
    ("repro.service.aserver", "decode_line", "protocol.decode", _nbytes, False),
    ("repro.service.aserver", "encode_message", "protocol.encode", _out_len, False),
    ("repro.service.aserver", "parse_points", "protocol.parse_points", None, False),
    ("repro.service.tenants", "TenantRegistry.insert", "tenants.op", None, False),
    ("repro.service.tenants", "TenantRegistry.delete", "tenants.op", None, False),
    ("repro.service.tenants", "TenantRegistry.query", "tenants.op", None, False),
    ("repro.service.tenants", "TenantRegistry.pull_state", "tenants.op", None, False),
    ("repro.service.tenants", "TenantRegistry.stats", "tenants.op", None, False),
    ("repro.service.tenants", "read_json", "io.read_json", None, False),
    ("repro.service.engine", "ClusteringService.insert", "engine.ingest", None, False),
    ("repro.service.engine", "ClusteringService.delete", "engine.ingest", None, False),
    ("repro.service.engine", "ClusteringService.query", "engine.query", _cache_hit, False),
    ("repro.service.engine", "ClusteringService.checkpoint", "engine.checkpoint", None, False),
    ("repro.service.engine", "ClusteringService.from_payload", "engine.from_payload",
     None, False),
    ("repro.service.engine", "ClusteringService.state_payload", "engine.state_payload",
     None, False),
    ("repro.service.engine", "sharded_state_from_dict", "state.from_dict", None, False),
    ("repro.service.state", "sharded_state_to_dict", "state.to_dict", None, False),
    ("repro.service.state", "atomic_write_json", "io.atomic_write", _file_size, False),
    ("repro.service.shards", "ShardedIngest.apply_arrays", "shards.apply_arrays", None, False),
    ("repro.service.shards", "ShardedIngest.merged_state", "shards.merged_state", None, False),
    ("repro.service.shards", "merge_streaming_states", "merge.merge", None, False),
    ("repro.grid.grids", "HierarchicalGrids.cell_keys", "grid.cell_keys", None, False),
    ("repro.hashing.kwise", "StackedHashes.values_np", "hashing.values_np", None, False),
    ("repro.hashing.kwise", "KWiseHash.values_np", "hashing.values_np", None, False),
    ("repro.streaming.streaming_coreset", "StreamingCoreset.update_arrays",
     "streaming_coreset.update_arrays", None, False),
    ("repro.streaming.streaming_coreset", "StreamingCoresetInstance.update_batch_arrays",
     "streaming_coreset.instance_scatter", None, False),
    ("repro.streaming.streaming_coreset", "StreamingCoreset.finalize_with_instance",
     "streaming_coreset.finalize", _dead_guesses, False),
    ("repro.streaming.streaming_coreset", "StreamingCoresetInstance.finalize",
     "streaming_coreset.instance_finalize", _succeeded, False),
    ("repro.streaming.streaming_coreset", "StreamingCoreset._pilot_upper_bound",
     "streaming_coreset.pilot", None, False),
    ("repro.streaming.streaming_coreset", "assemble_coreset",
     "streaming_coreset.assemble", None, False),
    ("repro.streaming.storing", "ExactStoring.update_many", "storing.update_many", None, False),
    ("repro.streaming.storing", "SketchStoring.update_many", "storing.update_many", None, False),
    ("repro.streaming.storing", "ExactStoring.result", "storing.result", None, False),
    ("repro.streaming.storing", "SketchStoring.result", "storing.result", None, False),
    ("repro.streaming.sketch", "IBLTSketch.apply_hashed", "sketch.apply_hashed", None, False),
    ("repro.streaming.sketch", "IBLTSketch.merge_from", "sketch.merge", None, False),
    ("repro.streaming.l0sampler", "DistinctSampler.update_many", "l0sampler.update_many",
     None, False),
    ("repro.streaming.l0sampler", "DistinctSampler.sample", "l0sampler.sample", None, False),
    ("repro.solvers.capacitated_lloyd", "CapacitatedKClustering.fit", "solvers.fit",
     _fit_size, False),
)

CLIENT_TARGETS = (
    ("repro.service.client", "ServiceClient.request", "client.request", None, False),
)


def install(recorder: SpanRecorder, targets=SERVER_TARGETS) -> None:
    """Wrap every available target in place; record the missing ones."""
    for module_name, attr_path, span_name, note, root in targets:
        where = f"{module_name}.{attr_path}"
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            recorder.absent.append(where)
            continue
        *owners, attr = attr_path.split(".")
        try:
            for part in owners:
                owner = getattr(owner, part)
            raw = (inspect.getattr_static(owner, attr) if inspect.isclass(owner)
                   else getattr(owner, attr))
        except AttributeError:
            recorder.absent.append(where)
            continue
        if isinstance(raw, classmethod):
            wrapped = classmethod(recorder.wrap(span_name, raw.__func__, note, root))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(recorder.wrap(span_name, raw.__func__, note, root))
        elif callable(raw):
            wrapped = recorder.wrap(span_name, raw, note, root)
        else:
            recorder.absent.append(where)
            continue
        setattr(owner, attr, wrapped)


# ------------------------------------------------------------------- report
def self_times(start, end, span, parent) -> np.ndarray:
    """Per-span self time: duration minus the union of its children.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so self time is never negative.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    span = np.asarray(span, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    selft = dur.copy()
    if not len(span):
        return selft
    pos = {int(s): i for i, s in enumerate(span.tolist())}
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parent.tolist()):
        j = pos.get(p)
        if j is not None:
            children.setdefault(j, []).append(i)
    for j, kids in children.items():
        lo, hi = start[j], end[j]
        ivals = sorted((max(lo, start[i]), min(hi, end[i])) for i in kids)
        covered = 0.0
        cur_lo = cur_hi = None
        for a, b in ivals:
            if b <= a:
                continue
            if cur_hi is None or a > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = a, b
            else:
                cur_hi = max(cur_hi, b)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        selft[j] = max(0.0, dur[j] - covered)
    return selft


#: name -> unit of every per-layer metric the report emits.
PER_LAYER_METRICS = {
    "client.request_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.encode_ms": "ms",
    "protocol.request_bytes": "bytes",
    "protocol.reply_bytes": "bytes",
    "aserver.self_ms": "ms",
    "tenants.self_ms": "ms",
    "tenants.restores_per_op": "ratio",
    "tenants.evictions_per_op": "ratio",
    "engine.query_ms": "ms",
    "engine.cache_hit_ratio": "ratio",
    "engine.checkpoint_ms": "ms",
    "engine.from_payload_ms": "ms",
    "engine.state_payload_ms": "ms",
    "shards.apply_arrays_self_ms": "ms",
    "shards.events_per_shard_skew": "ratio",
    "shards.merged_state_self_ms": "ms",
    "grid.cell_keys_ms": "ms",
    "hashing.values_np_ms": "ms",
    "streaming_coreset.update_arrays_self_ms": "ms",
    "streaming_coreset.instance_calls_per_request": "calls/req",
    "streaming_coreset.instance_scatter_self_ms": "ms",
    "streaming_coreset.dead_guesses": "count",
    "streaming_coreset.pilot_ms": "ms",
    "streaming_coreset.finalize_attempts_per_query": "calls/query",
    "streaming_coreset.finalize_useful_ratio": "ratio",
    "streaming_coreset.assemble_ms": "ms",
    "storing.update_many_calls_per_request": "calls/req",
    "storing.update_many_ms": "ms",
    "storing.update_many_ms_max": "ms",
    "storing.result_ms": "ms",
    "sketch.apply_hashed_calls_per_request": "calls/req",
    "sketch.apply_hashed_ms": "ms",
    "sketch.merge_ms": "ms",
    "merge.calls_per_query": "calls/query",
    "merge.ms": "ms",
    "l0sampler.update_many_ms": "ms",
    "l0sampler.sample_ms": "ms",
    "state.to_dict_ms": "ms",
    "state.from_dict_ms": "ms",
    "io.atomic_write_ms": "ms",
    "io.read_json_ms": "ms",
    "state.checkpoint_bytes": "bytes",
    "solvers.fit_ms": "ms",
    "solvers.coreset_size": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
    "trace.absent_callables": "count",
}


def _window(cols: dict, t0: float, t1: float) -> dict:
    keep = (cols["start"] >= t0) & (cols["end"] <= t1)
    out = {c: cols[c][keep] for c, _ in _COLUMNS}
    out["names"] = cols["names"]
    return out


class _Layers:
    """Per-span-name views of one window of spans."""

    def __init__(self, cols: dict, with_self_times: bool = True):
        self.cols = cols
        self.selft = (self_times(cols["start"], cols["end"], cols["span"],
                                 cols["parent"]) if with_self_times else None)
        self.dur = cols["end"] - cols["start"]
        ids = {n: i for i, n in enumerate(cols["names"])}
        self._masks = {n: cols["name"] == i for n, i in ids.items()}

    def mask(self, name: str) -> np.ndarray:
        m = self._masks.get(name)
        return m if m is not None else np.zeros(len(self.dur), dtype=bool)

    def count(self, name: str) -> int:
        return int(self.mask(name).sum())

    def mean_ms(self, name: str, self_time: bool = False, where=None) -> float:
        m = self.mask(name) if where is None else where
        if not m.any():
            return 0.0
        src = self.selft if self_time else self.dur
        return float(src[m].mean() * 1e3)

    def max_ms(self, name: str) -> float:
        m = self.mask(name)
        return float(self.dur[m].max() * 1e3) if m.any() else 0.0

    def mean_value(self, name: str) -> float:
        vals = self.cols["value"][self.mask(name)]
        vals = vals[~np.isnan(vals)]
        return float(vals.mean()) if len(vals) else 0.0

    def values(self, name: str) -> np.ndarray:
        vals = self.cols["value"][self.mask(name)]
        return vals[~np.isnan(vals)]


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(server: dict, client: dict, t0: float, t1: float, *,
                  overhead_ratio: float, events_per_shard) -> dict:
    """Every :data:`PER_LAYER_METRICS` value from one traced run.

    Spans are restricted to the timed phase ``[t0, t1]`` (monotonic clock,
    shared by the client and server processes), except the dead-guess
    count, which is read off the last query whenever it ran.
    """
    s = _Layers(_window(server, t0, t1))
    c = _Layers(_window(client, t0, t1))
    every = _Layers(server, with_self_times=False)
    writes = s.count("engine.ingest")
    registry_ops = s.count("tenants.op")
    queries = s.count("engine.query")
    cold = s.mask("engine.query") & (s.cols["value"] == 0.0)
    cold_queries = int(cold.sum())
    hits = queries - cold_queries
    finalizes = s.count("streaming_coreset.finalize")
    attempts = s.values("streaming_coreset.instance_finalize")
    dead = every.values("streaming_coreset.finalize")
    eps = np.asarray(events_per_shard, dtype=np.float64)
    skew = float(eps.max() / eps.mean()) if len(eps) and eps.mean() > 0 else 0.0
    m = {
        "client.request_ms": c.mean_ms("client.request"),
        "protocol.decode_ms": s.mean_ms("protocol.decode"),
        "protocol.encode_ms": s.mean_ms("protocol.encode"),
        "protocol.request_bytes": s.mean_value("protocol.decode"),
        "protocol.reply_bytes": s.mean_value("protocol.encode"),
        "aserver.self_ms": s.mean_ms("aserver.request", self_time=True),
        "tenants.self_ms": s.mean_ms("tenants.op", self_time=True),
        "tenants.restores_per_op": _ratio(s.count("engine.from_payload"), registry_ops),
        "tenants.evictions_per_op": _ratio(s.count("engine.checkpoint"), registry_ops),
        "engine.query_ms": s.mean_ms("engine.query", where=cold),
        "engine.cache_hit_ratio": _ratio(hits, queries),
        "engine.checkpoint_ms": s.mean_ms("engine.checkpoint"),
        "engine.from_payload_ms": s.mean_ms("engine.from_payload"),
        "engine.state_payload_ms": s.mean_ms("engine.state_payload"),
        "shards.apply_arrays_self_ms": s.mean_ms("shards.apply_arrays", self_time=True),
        "shards.events_per_shard_skew": skew,
        "shards.merged_state_self_ms": s.mean_ms("shards.merged_state", self_time=True),
        "grid.cell_keys_ms": s.mean_ms("grid.cell_keys"),
        "hashing.values_np_ms": s.mean_ms("hashing.values_np"),
        "streaming_coreset.update_arrays_self_ms": s.mean_ms(
            "streaming_coreset.update_arrays", self_time=True),
        "streaming_coreset.instance_calls_per_request": _ratio(
            s.count("streaming_coreset.instance_scatter"), writes),
        "streaming_coreset.instance_scatter_self_ms": s.mean_ms(
            "streaming_coreset.instance_scatter", self_time=True),
        "streaming_coreset.dead_guesses": float(dead[-1]) if len(dead) else 0.0,
        "streaming_coreset.pilot_ms": s.mean_ms("streaming_coreset.pilot"),
        "streaming_coreset.finalize_attempts_per_query": _ratio(len(attempts), finalizes),
        "streaming_coreset.finalize_useful_ratio": _ratio(attempts.sum(), len(attempts)),
        "streaming_coreset.assemble_ms": s.mean_ms("streaming_coreset.assemble"),
        "storing.update_many_calls_per_request": _ratio(
            s.count("storing.update_many"), writes),
        "storing.update_many_ms": s.mean_ms("storing.update_many"),
        "storing.update_many_ms_max": s.max_ms("storing.update_many"),
        "storing.result_ms": s.mean_ms("storing.result"),
        "sketch.apply_hashed_calls_per_request": _ratio(
            s.count("sketch.apply_hashed"), writes),
        "sketch.apply_hashed_ms": s.mean_ms("sketch.apply_hashed"),
        "sketch.merge_ms": s.mean_ms("sketch.merge"),
        "merge.calls_per_query": _ratio(s.count("merge.merge"), cold_queries),
        "merge.ms": s.mean_ms("merge.merge"),
        "l0sampler.update_many_ms": s.mean_ms("l0sampler.update_many"),
        "l0sampler.sample_ms": s.mean_ms("l0sampler.sample"),
        "state.to_dict_ms": s.mean_ms("state.to_dict"),
        "state.from_dict_ms": s.mean_ms("state.from_dict"),
        "io.atomic_write_ms": s.mean_ms("io.atomic_write"),
        "io.read_json_ms": s.mean_ms("io.read_json"),
        "state.checkpoint_bytes": s.mean_value("io.atomic_write"),
        "solvers.fit_ms": s.mean_ms("solvers.fit"),
        "solvers.coreset_size": s.mean_value("solvers.fit"),
        "trace.overhead_ratio": float(overhead_ratio),
        "trace.spans": float(len(s.dur) + len(c.dur)),
        "trace.absent_callables": float(len(server["absent"]) + len(client["absent"])),
    }
    return {name: {"value": m[name], "unit": unit}
            for name, unit in PER_LAYER_METRICS.items()}
