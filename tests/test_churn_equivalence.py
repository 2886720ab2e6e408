"""Churn equivalence: the exact backend's state is a function of the
surviving multiset (Lemma 4.2 / Theorem 4.5 on dynamic streams).

Whatever insert/delete trace led to a live set — and whichever ingest path
carried it: scalar updates, batched arrays, a legacy four-shard checkpoint
merged at restore, a checkpoint round trip, a two-worker pool folded, or a
tenant evicted and restored — the serialized live table and the query
answer must equal those of a fresh driver fed only the survivors.  A
"noise then delete" family stresses the case that used to break: a large
transient live set that is deleted again.  The pool and tenant paths run
one fixed trace of that family, since spawning worker processes per
hypothesis example costs too much.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CoresetParams
from repro.service import (
    ClusteringService,
    ServiceConfig,
    SupervisedWorkerPool,
    TenantRegistry,
)
from repro.service.state import (
    sharded_state_from_dict,
    streaming_state_from_dict,
    streaming_state_to_dict,
)
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import FailedConstruction
from tests.shard_oracle import routed_state

DELTA = 1024
SEED = 3


@pytest.fixture(scope="module")
def params():
    return CoresetParams.practical(k=2, d=2, delta=DELTA)


point = st.tuples(st.integers(1, DELTA), st.integers(1, DELTA))


@st.composite
def churn_traces(draw):
    """Inserts (repeats allowed) with deletions of currently live points."""
    live: list = []
    events = []
    for _ in range(draw(st.integers(0, 120))):
        if live and draw(st.booleans()):
            events.append((live.pop(draw(st.integers(0, len(live) - 1))), -1))
        else:
            p = draw(point)
            events.append((p, 1))
            live.append(p)
    return events


@st.composite
def noise_then_delete(draw):
    """Distinct uniform noise and clustered survivors, then the noise goes."""
    survivors = draw(st.lists(st.tuples(st.integers(5, 8), st.integers(20, 23)),
                              min_size=1, max_size=25))
    noise = draw(st.lists(point, min_size=1, max_size=150, unique=True))
    events = [(p, 1) for p in noise] + [(p, 1) for p in survivors]
    order = draw(st.permutations(range(len(events))))
    events = [events[i] for i in order]
    return events + [(p, -1) for p in draw(st.permutations(noise))]


def _survivors(events) -> list:
    counts: Counter = Counter()
    for p, s in events:
        counts[p] += s
    assert all(c >= 0 for c in counts.values())
    return [p for p, c in sorted(counts.items()) for _ in range(c)]


def _answer(drv):
    try:
        cs = drv.finalize()
    except FailedConstruction as exc:
        return ("fail", exc.reason)
    return ("ok", cs.o, cs.points.tobytes(), cs.weights.tobytes())


def _table_bytes(drv) -> str:
    return json.dumps(streaming_state_to_dict(drv)["table"], separators=(",", ":"))


def _arrays(events):
    rows = np.array([p for p, _ in events], dtype=np.int64).reshape(-1, 2)
    signs = np.array([s for _, s in events], dtype=np.int64)
    return rows, signs


def _paths(params, events, chunk):
    """The same trace through every ingest path."""
    rows, signs = _arrays(events)
    scalar = StreamingCoreset(params, seed=SEED)
    for p, s in events:
        scalar.update(p, s)
    batched = StreamingCoreset(params, seed=SEED)
    for lo in range(0, len(events), chunk):
        batched.update_arrays(rows[lo: lo + chunk], signs[lo: lo + chunk])
    restored = streaming_state_from_dict(
        json.loads(json.dumps(streaming_state_to_dict(batched))))
    return {"scalar": scalar, "update_arrays": batched,
            "legacy_merge": _legacy_merge(params, rows, signs),
            "restored": restored}


def _legacy_merge(params, rows, signs):
    """The trace as a four-shard in-process checkpoint (the layout before
    that backend held one driver), merged at restore."""
    envelope = routed_state(params, rows, signs, 4, version=1, seed=SEED)
    return sharded_state_from_dict(json.loads(json.dumps(envelope))).driver


def _fresh(params, events):
    """A driver fed only the trace's survivors."""
    fresh = StreamingCoreset(params, seed=SEED)
    surv = _survivors(events)
    if surv:
        fresh.update_arrays(*_arrays([(p, 1) for p in surv]))
    return fresh


def _check_equivalent(params, events, chunk):
    fresh = _fresh(params, events)
    want_table, want = _table_bytes(fresh), _answer(fresh)
    for name, drv in _paths(params, events, chunk).items():
        assert _table_bytes(drv) == want_table, name
        assert _answer(drv) == want, name


class TestChurnEquivalence:
    @given(events=churn_traces(), chunk=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_random_churn(self, params, events, chunk):
        _check_equivalent(params, events, chunk)

    @given(events=noise_then_delete(), chunk=st.integers(1, 64))
    @settings(max_examples=15, deadline=None)
    def test_noise_then_delete(self, params, events, chunk):
        _check_equivalent(params, events, chunk)


class TestFixedTraceEquivalence:
    """The worker-pool and tenant-registry paths on one fixed
    noise-then-delete trace."""

    @pytest.fixture(scope="class")
    def trace(self):
        rng = np.random.default_rng(7)
        noise = [tuple(p) for p in
                 np.unique(rng.integers(1, DELTA + 1, size=(300, 2)), axis=0).tolist()]
        survivors = [(int(5 + rng.integers(0, 4)), int(20 + rng.integers(0, 4)))
                     for _ in range(25)]
        noise = [p for p in noise if p not in set(survivors)]
        events = [(p, 1) for p in noise] + [(p, 1) for p in survivors]
        return events + [(p, -1) for p in noise]

    @staticmethod
    def _assert_equivalent(params, trace, drv):
        fresh = _fresh(params, trace)
        assert _table_bytes(drv) == _table_bytes(fresh)
        assert _answer(drv) == _answer(fresh)

    def test_two_worker_pool_folded(self, params, trace):
        rows, signs = _arrays(trace)
        with SupervisedWorkerPool(params, num_workers=2, seed=SEED) as pool:
            for lo in range(0, len(trace), 64):
                pool.apply_arrays(rows[lo: lo + 64], signs[lo: lo + 64])
            assert min(pool.events_per_shard) > 0
            drv = pool.merged_state()
        self._assert_equivalent(params, trace, drv)

    def test_tenant_evicted_and_restored(self, params, trace, tmp_path):
        rows, signs = _arrays(trace)
        config = ServiceConfig(k=2, d=2, delta=DELTA, seed=SEED)
        assert config.make_params() == params
        with TenantRegistry(config, tenants_dir=tmp_path) as registry:
            registry.insert("default", rows[signs > 0])
            registry.delete("default", rows[signs < 0])
            assert registry.evict("default")
            state = registry.pull_state("default")
            assert registry.stats("default")["restores"] == 1
        (shard,) = state["ingest"]["shards"]
        self._assert_equivalent(params, trace, streaming_state_from_dict(shard))


class TestNoiseThenDeleteRegression:
    """Scaled-down ROADMAP trace: before the live table, mid-stream early
    kills froze every guess under the pilot cap, the fallback tried the
    deferred guesses largest-first, and the query returned an empty
    coreset at o≈8.6e9 (the service then failed with ``empty input``)."""

    def test_query_returns_the_survivors_answer(self):
        delta = 256
        rng = np.random.default_rng(0)
        noise = np.unique(rng.integers(1, delta + 1, size=(12000, 2)), axis=0)
        centers = np.array([[51, 64], [128, 204], [204, 85]])
        surv = np.unique(np.clip(centers[rng.integers(0, 3, 150)]
                                 + rng.integers(-1, 2, (150, 2)), 1, delta), axis=0)
        noise = noise[~(noise[:, None, :] == surv[None]).all(-1).any(1)]
        config = ServiceConfig(k=3, d=2, delta=delta, seed=1)
        svc = ClusteringService(config)
        ref = ClusteringService(config)
        try:
            for lo in range(0, len(noise), 2048):
                svc.insert(noise[lo: lo + 2048])
            svc.insert(surv)
            for lo in range(0, len(noise), 2048):
                svc.delete(noise[lo: lo + 2048])
            ref.insert(surv)
            got, _ = svc.query()
            want, _ = ref.query()
            assert got.coreset_size == want.coreset_size > 0
            assert got.o == want.o
            assert got.cost == want.cost
            assert np.array_equal(got.centers, want.centers)
        finally:
            svc.close()
            ref.close()


class TestGuessSelection:
    @pytest.fixture
    def world(self):
        """30 live points on Δ=256: the largest guesses sample nothing."""
        params = CoresetParams.practical(k=2, d=2, delta=256)
        rng = np.random.default_rng(5)
        pts = np.clip(np.array([[40, 50], [200, 180]])[rng.integers(0, 2, 30)]
                      + rng.integers(-2, 3, (30, 2)), 1, 256)
        sc = StreamingCoreset(params, seed=SEED)
        sc.update_arrays(pts, np.ones(len(pts), dtype=np.int64))
        return sc

    def test_deferred_guesses_nearest_cap_first(self, world, monkeypatch):
        """With every guess above the pilot cap, the answer is the first
        non-FAIL, non-empty guess counting up from the cap — not the
        largest guess, whose coreset is empty."""
        assert len(world.instances[-1].finalize()) == 0
        monkeypatch.setattr(world, "_pilot_upper_bound", lambda: 0.5)
        cs, inst = world.finalize_with_instance()
        assert len(cs) > 0
        for other in world.instances:
            if other.o >= inst.o:
                break
            try:
                early = other.finalize()
            except FailedConstruction:
                continue
            assert len(early) == 0  # skipped as a FAIL, not returned

    def test_empty_coreset_from_live_set_is_a_fail(self, world):
        empty = []
        for inst in world.instances:
            try:
                if len(inst.finalize()) == 0:
                    empty.append(inst)  # an overshooting guess sampled nothing
            except FailedConstruction:
                pass
        assert empty
        world.instances = empty
        with pytest.raises(FailedConstruction, match="empty coreset"):
            world.finalize()

    def test_empty_live_set_still_answers_empty(self, params):
        sc = StreamingCoreset(params, seed=SEED)
        sc.update((3, 4), 1)
        sc.update((3, 4), -1)
        assert len(sc.finalize()) == 0
