"""Bit-identity of the vectorized hot path against the scalar reference.

The vectorized ingest path (numpy Horner sweeps, columnar IBLT state,
batched storing updates) is an *optimization*, never a semantic change:
every test here pins some observable — hash values, bucket state, decode
output, checkpoint bytes — to the scalar reference implementation that the
batched code replaced.  A lint guard at the bottom keeps per-event Python
loops from creeping back into the hot files.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import CoresetParams
from repro.hashing.kwise import (
    BernoulliHash,
    KWiseHash,
    StackedHashes,
    UniformBucketHash,
    exact_field_threshold,
)
from repro.service.protocol import ProtocolError, parse_points
from repro.service.shards import ShardedIngest
from repro.service.state import streaming_state_to_dict
from repro.streaming.sketch import DecodeFailure, IBLTSketch
from repro.streaming.stream import events_to_arrays
from repro.streaming.storing import ExactStoring
from repro.streaming.streaming_coreset import StreamingCoreset
from repro.utils.validation import FailedConstruction
from tests.shard_oracle import routed_drivers


# --------------------------------------------------------------------------
# Satellite 1 — exact integer thresholds for primes beyond float precision.
# --------------------------------------------------------------------------
class TestExactThreshold:
    def test_matches_float_for_small_primes(self):
        p = KWiseHash(2, 16, seed=0).prime
        for phi in (0.1, 0.25, 0.5, 0.9):
            assert exact_field_threshold(phi, p) == int(phi * p)

    def test_float_product_is_wrong_above_2_53(self):
        """Regression: ``int(phi * p)`` loses low bits for primes > 2^53;
        the exact rational product must differ from it for some φ."""
        p = KWiseHash(2, 70, seed=0).prime  # ~2^70 — universe beyond 64 bits
        assert p.bit_length() > 64
        exact = {phi: exact_field_threshold(phi, p)
                 for phi in (0.1, 0.3, 0.7)}
        # The exact threshold equals floor(Fraction(phi) * p) ...
        for phi, t in exact.items():
            frac = Fraction(phi)
            assert t == (frac.numerator * p) // frac.denominator
            # ... and realizes Pr[v < t] within 1/p of phi.
            assert abs(t / p - phi) < 1.0 / (1 << 52)
        # ... while the float64 product is off by more than one field
        # element for at least one of them (the bug this PR fixes).
        assert any(int(phi * p) != t for phi, t in exact.items())

    def test_bernoulli_uses_exact_threshold_on_huge_universe(self):
        b = BernoulliHash(0.3, independence=2, universe_bits=70, seed=5)
        assert b._threshold == exact_field_threshold(0.3, b._h.prime)
        keys = [3, 1 << 64, (1 << 69) + 17]
        want = [b.indicator(k) for k in keys]
        assert b.select(keys).tolist() == want

    def test_boundary_phis(self):
        p = 101
        assert exact_field_threshold(0.0, p) == 0
        assert exact_field_threshold(1.0, p) == p


# --------------------------------------------------------------------------
# Tentpole — vectorized Horner sweeps are bit-identical to the scalar oracle.
# --------------------------------------------------------------------------
class TestHornerIdentity:
    @pytest.mark.parametrize("ub", [16, 20, 31, 40, 55, 70])
    def test_values_np_matches_value(self, ub):
        h = KWiseHash(independence=5, universe_bits=ub, seed=ub)
        rng = np.random.default_rng(ub)
        keys = [int(x) for x in rng.integers(0, 1 << min(ub, 62), size=64)]
        keys += [0, 1, (1 << ub) - 1]
        got = [int(v) for v in h.values_np(keys)]
        assert got == [h.value(k) for k in keys]  # scalar oracle

    @pytest.mark.parametrize("ub", [16, 40, 70])
    def test_stacked_matches_per_hash(self, ub):
        hashes = [KWiseHash(independence=lam, universe_bits=ub, seed=100 + i)
                  for i, lam in enumerate([2, 3, 7, 7, 2])]
        stacked = StackedHashes(hashes)
        rng = np.random.default_rng(ub + 1)
        keys = [int(x) for x in rng.integers(0, 1 << min(ub, 62), size=40)]
        mat = stacked.values_np(keys)
        assert mat.shape == (len(hashes), len(keys))
        for row, h in enumerate(hashes):
            assert [int(v) for v in mat[row]] == [h.value(k) for k in keys]

    def test_stacked_rejects_mixed_primes(self):
        with pytest.raises(ValueError, match="prime"):
            StackedHashes([KWiseHash(2, 16, seed=0), KWiseHash(2, 40, seed=0)])

    def test_bucket_batch_matches_scalar(self):
        h = UniformBucketHash(97, independence=6, universe_bits=40, seed=2)
        keys = list(range(0, 2000, 37))
        assert h.buckets(keys).tolist() == [h.bucket(k) for k in keys]


# --------------------------------------------------------------------------
# Tentpole — columnar IBLT: batched updates == scalar updates, bucket-exact.
# --------------------------------------------------------------------------
class TestIBLTBatchedIdentity:
    @given(st.lists(st.tuples(st.integers(0, 40), st.sampled_from([1, -1])),
                    min_size=0, max_size=60),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=40, deadline=None)
    def test_update_many_matches_scalar_buckets_and_decode(self, ups, seed):
        scalar = IBLTSketch(32, 16, seed=seed)
        batched = IBLTSketch(32, 16, seed=seed)
        for k, s in ups:
            scalar.update(k, s)
        if ups:
            keys = np.asarray([k for k, _ in ups], dtype=np.int64)
            signs = np.asarray([s for _, s in ups], dtype=np.int64)
            batched.update_many(keys, signs)
        # Bucket state — including first-touch ordering — must be identical.
        assert scalar.buckets == batched.buckets
        try:
            want = scalar.decode()
        except DecodeFailure:
            with pytest.raises(DecodeFailure):
                batched.decode()
            return
        assert batched.decode() == want


# --------------------------------------------------------------------------
# Tentpole — log-structured ExactStoring: event order and batching invisible.
# --------------------------------------------------------------------------
class TestExactStoringCanonical:
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 9),
                              st.sampled_from([1, -1])),
                    min_size=0, max_size=80),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_batched_equals_scalar_equals_shuffled(self, ops, chunk):
        scalar = ExactStoring(64, 8)
        batched = ExactStoring(64, 8)
        for c, p, s in ops:
            scalar.update(c, p, s)
        for lo in range(0, len(ops), chunk):
            part = ops[lo: lo + chunk]
            batched.update_many(
                np.asarray([c for c, _, _ in part], dtype=np.int64),
                np.asarray([p for _, p, _ in part], dtype=np.int64),
                np.asarray([s for _, _, s in part], dtype=np.int64))
        # The serialized views are canonical (sorted) snapshots: identical
        # regardless of arrival order or batching.
        assert scalar._cells == batched._cells
        assert scalar._points == batched._points
        assert scalar.live_cells() == batched.live_cells()
        try:
            want = scalar.result()
        except FailedConstruction:
            with pytest.raises(FailedConstruction):
                batched.result()
            return
        got = batched.result()
        assert got.cells == want.cells
        assert got.small_points == want.small_points

    def test_merge_equals_concatenated_stream(self):
        a, b, whole = (ExactStoring(64, 8) for _ in range(3))
        rng = np.random.default_rng(1)
        for target in (a, b):
            cells = rng.integers(0, 6, size=40)
            pts = rng.integers(0, 9, size=40)
            signs = rng.choice([1, -1], size=40)
            target.update_many(cells, pts, signs)
            whole.update_many(cells, pts, signs)
        a.merge_from(b)
        assert a._cells == whole._cells
        assert a._points == whole._points


# --------------------------------------------------------------------------
# Satellite 4 — full-driver property: batched churn == scalar churn, byte
# for byte through the checkpoint codec, on both storing backends.
# --------------------------------------------------------------------------
def _churn_events(n, seed, delta):
    rng = np.random.default_rng(seed)
    live = []
    out = []
    for _ in range(n):
        p = (int(rng.integers(1, delta + 1)), int(rng.integers(1, delta + 1)))
        out.append((p, 1))
        live.append(p)
        if len(live) > 4 and rng.random() < 0.35:
            out.append((live.pop(int(rng.integers(0, len(live)))), -1))
    return out


class TestDriverBitIdentity:
    @pytest.fixture(scope="class")
    def params(self):
        return CoresetParams.practical(k=2, d=2, delta=64, eps=0.45, eta=0.45)

    @given(seed=st.integers(min_value=0, max_value=200),
           chunk=st.integers(min_value=1, max_value=48),
           backend=st.sampled_from(["exact", "sketch"]))
    @settings(max_examples=12, deadline=None)
    def test_checkpoint_bytes_equal(self, params, seed, chunk, backend):
        events = _churn_events(60, seed, 64)
        kw = dict(seed=7, backend=backend, o_range=(8.0, 64.0))
        scalar = StreamingCoreset(params, **kw)
        batched = StreamingCoreset(params, **kw)
        for p, s in events:
            scalar.update(p, s)
        for lo in range(0, len(events), chunk):
            batched.update_batch(events[lo: lo + chunk])
        da = json.dumps(streaming_state_to_dict(scalar), sort_keys=True)
        db = json.dumps(streaming_state_to_dict(batched), sort_keys=True)
        assert da == db

    def test_exact_backend_coreset_equal(self, params):
        events = _churn_events(120, 5, 64)
        kw = dict(seed=7, backend="exact", o_range=(8.0, 64.0))
        scalar = StreamingCoreset(params, **kw)
        batched = StreamingCoreset(params, **kw)
        for p, s in events:
            scalar.update(p, s)
        batched.update_batch(events)

        def outcome(drv):
            try:
                c = drv.finalize()
                return ("ok", c.o, c.points.tobytes(), c.weights.tobytes())
            except FailedConstruction as exc:
                return ("fail", exc.reason)

        assert outcome(scalar) == outcome(batched)


class TestWorkerPoolBitIdentity:
    """The ndarray ``abatch`` worker frames must reproduce, shard by shard
    and byte for byte, in-process drivers fed the pool's routing, on both
    storing backends.  (The comparison stays per shard: on the sketch
    backend a fold's IBLT first-touch order differs from a one-driver
    replay's.  The exact backend is also covered end-to-end in
    test_service_parallel.py.)"""

    @pytest.mark.parametrize("backend", ["exact", "sketch"])
    def test_two_workers_match_inprocess(self, backend):
        from repro.service.workers import WorkerPoolIngest

        params = CoresetParams.practical(k=2, d=2, delta=64,
                                         eps=0.45, eta=0.45)
        events = _churn_events(80, 11, 64)
        kw = dict(seed=5, backend=backend, o_range=(8.0, 64.0))
        rows, signs = events_to_arrays(events, d=2)
        drivers, counts = routed_drivers(params, rows, signs, 2, **kw)
        pool = WorkerPoolIngest(params, num_workers=2, **kw)
        try:
            for lo in range(0, len(events), 32):
                pool.apply_batch(events[lo: lo + 32])
            pool.worker_stats()  # drain barrier
            state = pool.to_state_dict()
        finally:
            pool.close()
        assert state["events_per_shard"] == counts
        assert (json.dumps(state["shards"], sort_keys=True)
                == json.dumps([streaming_state_to_dict(d) for d in drivers],
                              sort_keys=True))


# --------------------------------------------------------------------------
# Satellite 2 — non-integral coordinates are rejected, never truncated.
# --------------------------------------------------------------------------
class TestNonIntegralRejection:
    @pytest.fixture(scope="class")
    def params(self):
        return CoresetParams.practical(k=2, d=2, delta=64, eps=0.45, eta=0.45)

    def test_update_rejects(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        with pytest.raises(ValueError, match="integral"):
            sc.update((2.5, 3), 1)
        sc.update((2.0, 3.0), 1)  # integral floats are fine

    def test_update_batch_rejects_atomically(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        before = json.dumps(streaming_state_to_dict(sc), sort_keys=True)
        with pytest.raises(ValueError, match="integral"):
            sc.update_batch([((1, 1), 1), ((2.7, 3), 1)])
        after = json.dumps(streaming_state_to_dict(sc), sort_keys=True)
        assert before == after  # nothing ingested from the bad batch

    def test_sharded_insert_rejects(self, params):
        ing = ShardedIngest(params, seed=0, o_range=(8.0, 64.0))
        with pytest.raises(ValueError, match="integral"):
            ing.insert_points([[1.5, 2.0]])
        assert ing.num_events == 0 and ing.version == 0

    def test_wire_parse_points_rejects(self):
        with pytest.raises(ProtocolError, match="integ"):
            parse_points({"points": [[1, 2], [3, 4.2]]}, d=2, delta=64)
        arr = parse_points({"points": [[1, 2.0]]}, d=2, delta=64)
        assert arr.dtype == np.int64 and arr.tolist() == [[1, 2]]

    def test_nan_and_overflow_rejected(self, params):
        sc = StreamingCoreset(params, seed=0, o_range=(8.0, 64.0))
        with pytest.raises(ValueError, match="finite"):
            sc.update((float("nan"), 1), 1)
        with pytest.raises(ValueError):
            sc.update((1e30, 1), 1)


# --------------------------------------------------------------------------
# Lint guard: no per-event Python in the hot files (delegates to the HOT
# rule of ``repro lint``, the AST-accurate successor of the old regex scan —
# it also sees `.tolist()` calls and multi-line loop headers, and covers all
# six vectorized files instead of three).
# --------------------------------------------------------------------------
class TestNoScalarLoopsInHotPath:
    def test_hot_rule_clean_on_hot_files(self):
        """Every statement loop / ``.tolist()`` in the vectorized hot files
        must carry a ``# scalar-ok: <reason>`` marker — the reviewable
        assertion that it is NOT per-event work (decode, construction,
        per-coefficient, ...).  A new un-annotated loop fails here before it
        fails the benchmark."""
        from repro.analysis_lint import HOT_FILES, run_lint

        root = Path(__file__).resolve().parents[1]
        paths = [root / "src" / rel for rel in HOT_FILES]
        assert all(p.is_file() for p in paths), paths
        result = run_lint(paths, select=["HOT"], root=root)
        assert result.clean, "\n".join(f.render() for f in result.findings)
