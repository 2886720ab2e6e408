"""The exact backend's live-point table against the per-guess oracle.

The exact backend keeps one :class:`LivePointTable` per driver and derives
every (guess, level, sub-stream) Storing output from it at decode time.
The oracle here is the layout it replaced: one standalone
:class:`ExactStoring` per (guess, level, sub-stream), fed the updates its
threshold mask selects.  Every decoded structure, the coreset of every
guess, the driver's answer and the service's answer must match it.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CoresetParams
from repro.service import ClusteringService, ServiceConfig
from repro.service.shards import ShardedIngest
from repro.service.state import streaming_state_from_dict, streaming_state_to_dict
from repro.solvers.capacitated_lloyd import CapacitatedKClustering
from repro.streaming.merge import merge_streaming_states
from repro.streaming.storing import (
    ExactStoring,
    LivePointTable,
    SketchStoring,
    masked_storing_result,
)
from repro.streaming.stream import events_to_arrays
from repro.streaming.streaming_coreset import (
    StreamingCoreset,
    StreamingCoresetInstance,
    assemble_coreset,
)
from repro.utils.rng import derive_seed
from repro.utils.validation import FailedConstruction

K, D, DELTA = 3, 2, 1024


@pytest.fixture(scope="module")
def params():
    return CoresetParams.practical(k=K, d=D, delta=DELTA)


def _trace(seed: int, n: int, delta: int = DELTA):
    """Random insert/delete events; deletions only hit live points."""
    rng = np.random.default_rng(seed)
    centers = rng.integers(1, delta + 1, size=(K, D))
    live: list = []
    events = []
    for _ in range(n):
        if live and rng.random() < 0.3:
            events.append((live.pop(int(rng.integers(len(live)))), -1))
            continue
        c = centers[int(rng.integers(K))]
        p = tuple(int(x) for x in np.clip(c + rng.integers(-3, 4, D), 1, delta))
        events.append((p, 1))
        live.append(p)
    return events


def _outcome(fn):
    try:
        return ("ok", fn())
    except FailedConstruction as exc:
        return ("fail", exc.reason)


def _coreset_key(cs):
    return (cs.o, cs.points.tobytes(), cs.weights.tobytes(),
            cs.part_ids.tobytes(), [(p.level, p.parent_cell_key, p.size_estimate)
                                    for p in cs.parts])


class _Oracle:
    """Per-guess ExactStorings fed the masked updates of one event list."""

    def __init__(self, sc: StreamingCoreset, events):
        rows, signs = events_to_arrays(events, d=sc.params.d)
        pkeys = sc.grids.point_codec.encode(rows)
        cells = [sc.grids.cell_keys(rows, i) for i in range(sc.params.L + 1)]
        vals = [h.values_np(pkeys) for h in (sc.shared.stacked_h,
                                              sc.shared.stacked_hp,
                                              sc.shared.stacked_hhat)]
        self.stores = {}
        for inst in sc.instances:
            groups = (
                (vals[0], inst._thr_h, inst.alpha_h, [1] * len(cells), False),
                (vals[1], inst._thr_hp, inst.alpha_hp, [1] * len(cells), False),
                (vals[2], inst._thr_hhat, inst.alpha_hhat, inst.beta_hhat, True),
            )
            per_inst = []
            for v, thr, alpha, beta, recover in groups:
                level_stores = []
                for i in range(len(cells)):
                    store = ExactStoring(alpha[i], beta[i], recover_points=recover)
                    m = np.asarray(v[i] < thr[i], dtype=bool)
                    store.update_many(cells[i][m], pkeys[m], signs[m])
                    level_stores.append(store)
                per_inst.append(level_stores)
            self.stores[inst.o] = per_inst

    def results(self, o):
        """(res_h, res_hp, res_hhat), raising the first FAIL in that order."""
        return tuple([s.result() for s in group] for group in self.stores[o])

    def coreset(self, sc, inst):
        return assemble_coreset(sc.params, inst.o, sc.grids, *self.results(inst.o))


def _select(sc, candidates):
    """The driver's guess selection over precomputed per-guess outcomes."""
    order = sc.instances if sc.prefer == "smallest" else sc.instances[::-1]
    cap = sc._pilot_upper_bound()
    first = [i for i in order if cap is None or i.o <= cap]
    deferred = sorted((i for i in order if cap is not None and i.o > cap),
                      key=lambda i: i.o)
    live = len(sc.live.table) > 0
    for inst in first + deferred:
        kind, cs = candidates[inst.o]
        if kind == "ok" and (len(cs) or not live):
            return cs
    return None


# ----------------------------------------------------------------- the table
class TestLivePointTable:
    def test_contents_are_canonical(self):
        rng = np.random.default_rng(0)
        keys = rng.integers(0, 40, size=300)
        signs = rng.choice([1, -1], size=300)
        scalar, batched = LivePointTable(), LivePointTable()
        for k, s in zip(keys.tolist(), signs.tolist()):
            scalar.update(k, s)
        order = rng.permutation(300)
        for lo in range(0, 300, 37):
            idx = order[lo: lo + 37]
            batched.update_many(keys[idx], signs[idx])
        for a, b in zip(scalar.contents(), batched.contents()):
            assert a.tolist() == b.tolist()
        got_k, got_c = scalar.contents()
        assert (np.diff(got_k) > 0).all() and (got_c != 0).all()

    def test_merge_and_load(self):
        a, b, whole = LivePointTable(), LivePointTable(), LivePointTable()
        a.update_many([5, 3, 5], [1, 1, 1])
        b.update_many([3, 9], [-1, 1])
        whole.update_many([5, 3, 5, 3, 9], [1, 1, 1, -1, 1])
        a.merge_from(b)
        assert [x.tolist() for x in a.contents()] == [[5, 9], [2, 1]]
        assert [x.tolist() for x in a.contents()] == [x.tolist() for x in whole.contents()]
        c = LivePointTable()
        c.load([9, 5, 5, 7], [1, 1, 1, 0])
        assert [x.tolist() for x in c.contents()] == [[5, 9], [2, 1]]

    def test_generation_moves_with_content(self):
        t = LivePointTable()
        g0 = t.generation
        t.update(3, 1)
        assert t.generation > g0
        g1 = t.generation
        t.contents()
        assert t.generation == g1  # compaction is not a content change

    @given(st.lists(st.tuples(st.integers(0, 12), st.sampled_from([1, -1])),
                    max_size=60),
           st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_masked_result_equals_exact_storing(self, ops, mask_seed):
        """Lemma 4.2's output from the table equals a standalone
        ExactStoring fed the selected updates, FAIL included.  Point p
        lies in cell p % 6 (one cell per point, as at any one level)."""
        table = LivePointTable()
        for p, s in ops:
            table.update(p, s)
        keys, counts = table.contents()
        cells = keys % 6
        order = np.lexsort((keys, cells))
        rng = np.random.default_rng(mask_seed)
        pick = rng.random(13) < 0.6
        mask = pick[keys[order]] if len(keys) else np.zeros(0, dtype=bool)
        for alpha, beta, recover in ((4, 1, False), (6, 2, True), (64, 3, True)):
            oracle = ExactStoring(alpha, beta, recover_points=recover)
            for p, s in ops:
                if pick[p]:
                    oracle.update(p % 6, p, s)
            want = _outcome(oracle.result)
            got = _outcome(lambda: masked_storing_result(
                cells[order], keys[order], counts[order], mask, alpha, beta, recover))
            if want[0] == "fail":
                assert got == want
                continue
            assert got[0] == "ok"
            assert list(got[1].cells.items()) == list(want[1].cells.items())
            assert ([(c, list(p.items())) for c, p in got[1].small_points.items()]
                    == [(c, list(p.items())) for c, p in want[1].small_points.items()])


# ---------------------------------------------------------- oracle identity
class TestPerGuessOracleIdentity:
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 160),
           chunk=st.integers(1, 64))
    @settings(max_examples=15, deadline=None)
    def test_every_result_coreset_and_answer(self, params, seed, n, chunk):
        events = _trace(seed, n)
        sc = StreamingCoreset(params, seed=seed % 7)
        for lo in range(0, len(events), chunk):
            sc.update_batch(events[lo: lo + chunk])
        oracle = _Oracle(sc, events)
        levels = sc.live.levels()
        candidates = {}
        for inst in sc.instances:
            # Every (guess, level, sub-stream) structure on its own.
            for group, attr, thr in ((0, "vh", inst._thr_h), (1, "vhp", inst._thr_hp),
                                     (2, "vhhat", inst._thr_hhat)):
                for i, lv in enumerate(levels):
                    store = oracle.stores[inst.o][group][i]
                    mask = np.asarray(getattr(lv, attr) < thr[i], dtype=bool)
                    want = _outcome(store.result)
                    got = _outcome(lambda: masked_storing_result(
                        lv.cells, lv.keys, lv.counts, mask, store.alpha,
                        store.beta, store.recover_points))
                    if want[0] == "fail":
                        assert got == want
                    else:
                        assert got[0] == "ok"
                        assert list(got[1].cells.items()) == list(want[1].cells.items())
                        assert got[1].small_points == want[1].small_points
            # The instance's coreset (or FAIL) equals the oracle's.
            want = _outcome(lambda: oracle.coreset(sc, inst))
            got = _outcome(inst.finalize)
            assert got[0] == want[0]
            if got[0] == "ok":
                assert _coreset_key(got[1]) == _coreset_key(want[1])
            else:
                assert got[1] == want[1]
            candidates[inst.o] = want
        want_cs = _select(sc, candidates)
        got = _outcome(sc.finalize)
        if want_cs is None:
            assert got[0] == "fail"
        else:
            assert _coreset_key(got[1]) == _coreset_key(want_cs)

    def test_service_answer_matches_oracle(self, params):
        events = _trace(11, 200)
        config = ServiceConfig(k=K, d=D, delta=DELTA, seed=4)
        svc = ClusteringService(config)
        rows, signs = events_to_arrays(events, d=D)
        for lo in range(0, len(events), 50):
            svc.ingest.apply_arrays(rows[lo: lo + 50], signs[lo: lo + 50])
        answer, _ = svc.query()
        sc = StreamingCoreset(params, seed=4)
        oracle = _Oracle(sc, events)
        sc.update_batch(events)
        cs = _select(sc, {inst.o: _outcome(lambda inst=inst: oracle.coreset(sc, inst))
                          for inst in sc.instances})
        capacity = max(cs.total_weight / K * config.capacity_slack, 1e-12)
        sol = CapacitatedKClustering(
            k=K, capacity=capacity, r=config.r, restarts=config.restarts,
            seed=derive_seed(config.seed, "service-solve"),
        ).fit(cs.points.astype(float), weights=cs.weights)
        assert answer.o == cs.o and answer.coreset_size == len(cs)
        assert answer.cost == float(sol.cost)
        assert np.array_equal(answer.centers, np.asarray(sol.centers, dtype=float))
        svc.close()


# ------------------------------------------------- no per-guess ingest work
class TestNoPerGuessIngest:
    def test_update_arrays_touches_no_storing(self, params, monkeypatch):
        calls = []
        for cls in (ExactStoring, SketchStoring):
            for name in ("update", "update_many", "result"):
                orig = getattr(cls, name)
                monkeypatch.setattr(
                    cls, name,
                    lambda *a, _n=f"{cls.__name__}.{name}", _o=orig, **k:
                    (calls.append(_n), _o(*a, **k))[1])
        monkeypatch.setattr(
            StreamingCoresetInstance, "update_batch_arrays",
            lambda *a, **k: calls.append("instance.update_batch_arrays"))
        ing = ShardedIngest(params, seed=1)
        events = _trace(3, 300)
        rows, signs = events_to_arrays(events, d=D)
        ing.apply_arrays(rows, signs)
        sc = StreamingCoreset(params, seed=1)
        sc.update_arrays(rows, signs)
        for p, s in events[:20]:
            sc.update(p, s)
        assert calls == []
        for drv in (ing.driver, sc):
            assert all(not (inst.store_h or inst.store_hp or inst.store_hhat)
                       for inst in drv.instances)

    def test_early_kill_is_deleted(self, params):
        import inspect

        import repro.streaming.streaming_coreset as module

        inst = StreamingCoreset(params, seed=1).instances[0]
        for name in ("_replay_scalar", "dead_reason", "_early_kill"):
            assert not hasattr(inst, name)
        assert not hasattr(ExactStoring, "live_cells_upper")
        src = inspect.getsource(module)
        assert "early_kill" not in src and "dead_reason" not in src


# ------------------------------------------------------------ bigint keys
class TestBigintKeys:
    def test_object_keys_through_ingest_merge_checkpoint_finalize(self):
        delta = 2 ** 20
        params = CoresetParams.practical(k=2, d=8, delta=delta)
        rng = np.random.default_rng(8)
        centers = rng.integers(1, delta, size=(2, 8))
        pts = np.clip(centers[rng.integers(0, 2, 40)]
                      + rng.integers(-4, 5, size=(40, 8)), 1, delta)
        pts = np.unique(pts, axis=0)
        kw = dict(seed=2, o_range=(1.0, 2.0 ** 40))
        whole = StreamingCoreset(params, **kw)
        assert whole.grids.point_codec.encode(pts).dtype == object
        assert int(whole.grids.point_codec.encode(pts).max()) > 2 ** 63
        whole.update_arrays(pts, np.ones(len(pts), dtype=np.int64))
        whole.update_arrays(pts[:5], -np.ones(5, dtype=np.int64))
        keys, _ = whole.live.table.contents()
        assert keys.dtype == object and len(keys) == len(pts) - 5

        shards = [StreamingCoreset(params, **kw) for _ in range(3)]
        for j, p in enumerate(pts.tolist()):
            shards[j % 3].update(p, 1)
        for p in pts[:5].tolist():
            shards[2].update(p, -1)  # cross-shard deletions
        merged = shards[0]
        for other in shards[1:]:
            merge_streaming_states(merged, other)
        restored = streaming_state_from_dict(
            json.loads(json.dumps(streaming_state_to_dict(merged))))

        def table_bytes(drv):
            return json.dumps(streaming_state_to_dict(drv)["table"])

        assert table_bytes(whole) == table_bytes(merged) == table_bytes(restored)
        want = _outcome(whole.finalize)
        assert want[0] == "ok" and len(want[1]) > 0
        for drv in (merged, restored):
            assert _coreset_key(drv.finalize()) == _coreset_key(want[1])
