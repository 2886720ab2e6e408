"""Algorithm 4 / Theorem 4.5 — one-pass coreset over a dynamic stream.

For a fixed guess ``o``, the algorithm maintains, per level i ∈ {0…L}, three
λ-wise independently sub-sampled sub-streams, each fed into a ``Storing``
structure (Lemma 4.2):

====================  =========================  ============================
sub-stream (rate)      Storing budget             role
====================  =========================  ============================
h_i   (ψ_i)            (α_i, β=1), counts only    τ(C∩Q): heavy-cell decisions
h'_i  (ψ'_i)           (α'_i, β=1), counts only   τ(Q_{i,j}): part sizes
ĥ_i   (φ_i)            (α̂_i, β̂_i), with points    the coreset samples themselves
====================  =========================  ============================

At the end of the stream, the decoded counts replay Algorithms 1+2 *exactly*
(same hash functions ⇒ same samples as the offline construction in
``use_sampled_counts`` mode), and the coreset points are recovered from the
ĥ sketches of crucial cells in retained parts.

:class:`StreamingCoreset` is the Theorem 4.5 driver: it runs one instance
per guess o ∈ {1, 2, 4, …, Δ^d·(√dΔ)^r} in parallel (all instances *share*
the underlying hash polynomials — only the acceptance thresholds differ) and
returns the preferred guess whose instance does not FAIL.  Because only the
thresholds differ, the exact backend stores the surviving multiset once (a
:class:`~repro.streaming.storing.LivePointTable`) and derives every
instance's Storing output from it at decode time; the sketch backend keeps
one set of sketches per guess.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.params import CoresetParams
from repro.core.partition import ROOT_CELL_KEY
from repro.core.weighted import Coreset, PartInfo
from repro.grid.grids import HierarchicalGrids
from repro.hashing.kwise import KWiseHash, StackedHashes, exact_field_threshold
from repro.streaming.storing import LivePointTable, SketchStoring, masked_storing_result
from repro.streaming.stream import events_to_arrays
from repro.utils.rng import derive_seed
from repro.utils.validation import (
    FailedConstruction,
    check_stream_points,
    coerce_integral_rows,
)

__all__ = ["StreamingCoresetInstance", "StreamingCoreset", "assemble_coreset"]


def _parent_key(grids: HierarchicalGrids, cell_key: int) -> int:
    """Key of a cell's parent one level up (nested grids ⇒ halve coords)."""
    ck = grids.decode_cell_key(int(cell_key))
    if ck.level == 0:
        return ROOT_CELL_KEY
    parent = np.floor_divide(np.asarray(ck.coords, dtype=np.int64), 2)
    return grids.encode_cell(parent, ck.level - 1)


def assemble_coreset(params: CoresetParams, o: float, grids: HierarchicalGrids,
                     res_h, res_hp, res_hhat) -> Coreset:
    """Replay Algorithms 1+2 from decoded Storing results (one per level).

    Shared by the streaming (Theorem 4.5) and distributed (Theorem 4.7)
    drivers — the coordinator holds merged StoringResults with identical
    semantics.  ``res_h``/``res_hp``/``res_hhat`` are lists indexed by level
    0…L of :class:`~repro.streaming.storing.StoringResult`.

    Raises :class:`FailedConstruction` with the paper's FAIL conditions.
    """
    L = params.L

    # --- Algorithm 1: heavy cells, top-down. -------------------------------
    heavy: dict[int, set] = {}
    total_q = sum(res_h[0].cells.values()) / params.psi(0, o)
    heavy[-1] = {ROOT_CELL_KEY} if total_q >= params.threshold(-1, o) else set()
    if not heavy[-1] and total_q > 0:
        # Fact A.1: the root is heavy whenever o ≤ OPT; an un-heavy root
        # means the guess overshot and the whole input would be dropped.
        raise FailedConstruction(
            f"assemble: root cell not heavy (guess o={o:g} too large)"
        )
    total_heavy = len(heavy[-1])
    for i in range(0, L):  # scalar-ok: finalize: per level
        psi = params.psi(i, o)
        level_heavy = set()
        for cell, cnt in res_h[i].cells.items():  # scalar-ok: finalize: <= alpha cells
            if cnt / psi < params.threshold(i, o):
                continue
            if _parent_key(grids, cell) in heavy[i - 1]:
                level_heavy.add(cell)
        heavy[i] = level_heavy
        total_heavy += len(level_heavy)
        if total_heavy > params.max_heavy_cells():
            raise FailedConstruction(
                f"assemble: {total_heavy} heavy cells exceed "
                f"{params.max_heavy_cells():.0f} (o={o:g})"
            )
    heavy[L] = set()

    # --- crucial cells and part sizes from the h' sketches. ----------------
    part_tau: dict[tuple[int, int], float] = {}
    for i in range(0, L + 1):  # scalar-ok: finalize: per level
        psip = params.psi_part(i, o)
        level_mass = 0.0
        for cell, cnt in res_hp[i].cells.items():  # scalar-ok: finalize: <= alpha cells
            if i < L and cell in heavy[i]:
                continue
            parent = _parent_key(grids, cell)
            if parent not in heavy[i - 1]:
                continue
            est = cnt / psip
            key = (i, int(parent))
            part_tau[key] = part_tau.get(key, 0.0) + est
            level_mass += est
        if level_mass > params.max_level_mass(i, o):
            raise FailedConstruction(
                f"assemble: level {i} mass {level_mass:.1f} exceeds "
                f"{params.max_level_mass(i, o):.1f} (o={o:g})"
            )

    # --- coreset samples from the ĥ sketches. ------------------------------
    retained: dict[tuple[int, int], int] = {}
    parts_info: list[PartInfo] = []
    pts_rows: list[np.ndarray] = []
    weights: list[float] = []
    part_ids: list[int] = []
    for i in range(0, L + 1):  # scalar-ok: finalize: per level
        phi = params.phi(i, o)
        cutoff = params.small_part_cutoff(i, o)
        res = res_hhat[i]
        beta = params.storing_beta(i, o)
        for cell, cnt in res.cells.items():  # scalar-ok: finalize: <= alpha cells
            # Crucial-cell test mirrors the h'-stream logic.
            if i < L and cell in heavy[i]:
                continue
            parent = _parent_key(grids, cell)
            if parent not in heavy[i - 1]:
                continue
            key = (i, int(parent))
            tau = part_tau.get(key, 0.0)
            if tau < cutoff:
                continue  # dropped small part (Lemma 3.4)
            if cnt > beta:
                raise FailedConstruction(
                    f"assemble: crucial cell at level {i} holds {cnt} "
                    f"samples > beta={beta} (o={o:g})"
                )
            if key not in retained:
                retained[key] = len(parts_info)
                parts_info.append(PartInfo(
                    level=i, parent_cell_key=int(parent),
                    size_estimate=tau, phi=phi,
                ))
            pid = retained[key]
            for pkey, pcnt in res.small_points.get(cell, {}).items():  # scalar-ok: finalize: <= beta samples per cell
                row = grids.point_codec.decode(pkey)
                for _ in range(int(pcnt)):  # scalar-ok: finalize: multiplicity expansion
                    pts_rows.append(row)
                    weights.append(1.0 / phi)
                    part_ids.append(pid)

    if pts_rows:
        q_points = np.stack(pts_rows).astype(np.int64)
        q_weights = np.asarray(weights)
        q_part_ids = np.asarray(part_ids, dtype=np.int64)
    else:
        q_points = np.empty((0, params.d), dtype=np.int64)
        q_weights = np.empty(0)
        q_part_ids = np.empty(0, dtype=np.int64)
    return Coreset(
        points=q_points, weights=q_weights, part_ids=q_part_ids,
        parts=parts_info, o=float(o), delta=params.delta, input_size=-1,
    )


class _SharedHashes:
    """One λ-wise hash polynomial per (level, sub-stream); every guess-o
    instance reuses the same field values with its own threshold, exactly as
    if each instance drew its own function — Bernoulli(φ) needs only
    ``value < φ·p`` — while paying the Horner evaluation once.

    Each sub-stream's per-level polynomials additionally stack into one
    :class:`~repro.hashing.kwise.StackedHashes` (they share a prime), so a
    batch evaluates all L+1 levels in a single broadcast Horner sweep."""

    def __init__(self, params: CoresetParams, grids: HierarchicalGrids, seed: int):
        ub = grids.point_codec.universe_bits
        self.h = [KWiseHash(params.lam_est, ub, seed=derive_seed(seed, f"h-{i}"))
                  for i in range(params.L + 1)]
        self.hp = [KWiseHash(params.lam_est, ub, seed=derive_seed(seed, f"hp-{i}"))
                   for i in range(params.L + 1)]
        self.hhat = [KWiseHash(params.lam, ub, seed=derive_seed(seed, f"hhat-{i}"))
                     for i in range(params.L + 1)]
        self.stacked_h = StackedHashes(self.h)
        self.stacked_hp = StackedHashes(self.hp)
        self.stacked_hhat = StackedHashes(self.hhat)

    def randomness_bits(self) -> int:
        """Total bits of stored hash-polynomial randomness."""
        return sum(f.randomness_bits for f in self.h + self.hp + self.hhat)


def _threshold_column(thresholds) -> np.ndarray:
    """Thresholds as an (L+1, 1) column for broadcast against value rows."""
    try:
        col = np.asarray(thresholds, dtype=np.int64)
    except OverflowError:
        col = np.array([int(t) for t in thresholds], dtype=object)
    return col[:, None]


def _bool_mask(x: np.ndarray) -> np.ndarray:
    """Ensure a comparison result is a native bool array (object inputs)."""
    return x if x.dtype == np.bool_ else np.asarray(x, dtype=bool)


class _LevelRows:
    """One level's view of the live table: rows sorted by (cell, point),
    with each sub-stream's hash values aligned to them."""

    __slots__ = ("cells", "keys", "counts", "vh", "vhp", "vhhat")

    def __init__(self, cells, keys, counts, vh, vhp, vhhat):
        self.cells, self.keys, self.counts = cells, keys, counts
        self.vh, self.vhp, self.vhhat = vh, vhp, vhhat


class _ExactLive:
    """The exact backend's state, shared by every guess of one driver.

    Every guess-o instance samples the same surviving multiset through the
    same hash polynomials (:class:`_SharedHashes`) — only its thresholds
    differ — so one :class:`LivePointTable` replaces the per-guess Storing
    structures.  At decode time the live rows get their per-level cell keys
    and hash values once; each tried guess then only masks them."""

    def __init__(self, params: CoresetParams, grids: HierarchicalGrids,
                 shared: _SharedHashes):
        self.table = LivePointTable()
        self._levels_of = params.L + 1
        self._grids = grids
        self._shared = shared
        self._cache: tuple[int, list] | None = None

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_cache"] = None  # derived; rebuilt on demand
        return state

    def levels(self) -> list[_LevelRows]:
        """Per-level rows of the current live set (cached per generation)."""
        gen = self.table.generation
        if self._cache is not None and self._cache[0] == gen:
            return self._cache[1]
        keys, counts = self.table.contents()
        rows = self._grids.point_codec.decode_many(keys)
        sh = self._shared
        vals = [st.values_np(keys) if len(keys) else
                np.empty((self._levels_of, 0), dtype=np.int64)
                for st in (sh.stacked_h, sh.stacked_hp, sh.stacked_hhat)]
        out = []
        for i in range(self._levels_of):  # scalar-ok: decode, per level
            cells = self._grids.cell_keys(rows, i)
            order = np.lexsort((keys, cells))
            out.append(_LevelRows(cells[order], keys[order], counts[order],
                                  *(v[i][order] for v in vals)))
        self._cache = (gen, out)
        return out


class StreamingCoresetInstance:
    """Algorithm 4 for one fixed guess ``o``.

    On the sketch backend the instance owns its 3·(L+1) Storing sketches
    and ingests through :meth:`update_with_values` /
    :meth:`update_batch_arrays`.  On the exact backend it owns only its
    thresholds and budgets and reads the driver's shared live table
    (``live``) at decode time; ingest never reaches it.
    """

    def __init__(
        self,
        params: CoresetParams,
        o: float,
        grids: HierarchicalGrids,
        shared: _SharedHashes,
        seed: int = 0,
        backend: str = "exact",
        live: _ExactLive | None = None,
    ):
        self.params = params
        self.o = float(o)
        self.grids = grids
        self.shared = shared
        self.backend = backend
        if backend not in ("exact", "sketch"):
            raise ValueError(f"unknown backend {backend!r}")
        if (backend == "exact") != (live is not None):
            raise ValueError("an exact-backend instance needs the driver's live table")
        self.live = live
        L = params.L

        # Acceptance thresholds against the shared hash values, and the
        # Storing budgets (α, β) of every (level, sub-stream).
        self._thr_h, self._thr_hp, self._thr_hhat = [], [], []
        self.alpha_h, self.alpha_hp, self.alpha_hhat, self.beta_hhat = [], [], [], []
        for i in range(L + 1):  # scalar-ok: constructor: per level
            psi = params.psi(i, o)
            psip = params.psi_part(i, o)
            phi = params.phi(i, o)
            # Exact-integer thresholds: the float product int(psi * prime)
            # deviates from ⌊psi·p⌋ once the prime outgrows float64's 53-bit
            # mantissa, skewing every realized sampling rate.
            self._thr_h.append(exact_field_threshold(psi, shared.h[i].prime))
            self._thr_hp.append(exact_field_threshold(psip, shared.hp[i].prime))
            self._thr_hhat.append(exact_field_threshold(phi, shared.hhat[i].prime))
            self.alpha_h.append(params.storing_alpha(i, o, psi))
            self.alpha_hp.append(params.storing_alpha(i, o, psip))
            self.alpha_hhat.append(params.storing_alpha(i, o, phi))
            self.beta_hhat.append(params.storing_beta(i, o))

        self.store_h, self.store_hp, self.store_hhat = [], [], []
        if backend == "sketch":
            self._thr_h_col = _threshold_column(self._thr_h)
            self._thr_hp_col = _threshold_column(self._thr_hp)
            self._thr_hhat_col = _threshold_column(self._thr_hhat)

            def make_storing(alpha: int, beta: int, recover: bool, tag: str):
                return SketchStoring(
                    alpha, beta,
                    cell_universe_bits=grids.cell_universe_bits,
                    point_universe_bits=grids.point_codec.universe_bits,
                    seed=derive_seed(seed, f"{tag}-o{self.o:g}"),
                    recover_points=recover,
                )

            for i in range(L + 1):  # scalar-ok: constructor: per level
                self.store_h.append(make_storing(self.alpha_h[i], 1, False, f"st-h-{i}"))
                self.store_hp.append(make_storing(self.alpha_hp[i], 1, False, f"st-hp-{i}"))
                self.store_hhat.append(make_storing(
                    self.alpha_hhat[i], self.beta_hhat[i], True, f"st-hhat-{i}"))

    # -- streaming (sketch backend) -------------------------------------------
    def update_with_values(self, point_key: int, cell_keys, sign: int,
                           values_h, values_hp, values_hhat) -> None:
        """Process one update given precomputed hash values per level."""
        for i in range(self.params.L + 1):  # scalar-ok: scalar reference path, per level
            ck = int(cell_keys[i])
            if values_h[i] < self._thr_h[i]:
                self.store_h[i].update(ck, point_key, sign)
            if values_hp[i] < self._thr_hp[i]:
                self.store_hp[i].update(ck, point_key, sign)
            if values_hhat[i] < self._thr_hhat[i]:
                self.store_hhat[i].update(ck, point_key, sign)

    @staticmethod
    def _scatter(store, cell_keys, pkeys, signs, mask, nsel: int, n: int) -> None:
        """Feed the mask-selected events of a batch into one store.

        A fully-selected level (ψ or φ = 1, the common case for the winning
        guesses) hands over the shared batch arrays without copying.
        """
        if not nsel:
            return
        if nsel == n:
            store.update_many(cell_keys, pkeys, signs)
            return
        idx = np.flatnonzero(mask)
        store.update_many(cell_keys[idx], pkeys[idx], signs[idx])

    def update_batch_arrays(self, pkeys, cell_keys, signs,
                            vh, vhp, vhhat) -> None:
        """Batched :meth:`update_with_values` over per-level value arrays.

        ``cell_keys`` is a list indexed by level; ``vh``/``vhp``/``vhhat``
        are ``(L+1, n)`` value matrices aligned with ``pkeys``/``signs``.
        Threshold masks come from one broadcast compare per sub-stream and
        Storing scatters run per level instead of per event, bit-identically
        to the scalar path.
        """
        n = len(signs)
        mh = _bool_mask(vh < self._thr_h_col)
        mhp = _bool_mask(vhp < self._thr_hp_col)
        mhh = _bool_mask(vhhat < self._thr_hhat_col)
        nh = mh.sum(axis=1)
        nhp = mhp.sum(axis=1)
        nhh = mhh.sum(axis=1)
        for i in range(self.params.L + 1):  # scalar-ok: per level per batch
            ck = cell_keys[i]
            self._scatter(self.store_h[i], ck, pkeys, signs, mh[i], int(nh[i]), n)
            self._scatter(self.store_hp[i], ck, pkeys, signs, mhp[i], int(nhp[i]), n)
            self._scatter(self.store_hhat[i], ck, pkeys, signs, mhh[i], int(nhh[i]), n)

    # -- finalization ----------------------------------------------------------
    def storing_results(self):
        """Decoded ``(res_h, res_hp, res_hhat)`` lists, one
        :class:`StoringResult` per level; raises the first Storing FAIL."""
        if self.live is None:
            return ([s.result() for s in self.store_h],
                    [s.result() for s in self.store_hp],
                    [s.result() for s in self.store_hhat])
        levels = self.live.levels()
        res_h = [masked_storing_result(
            lv.cells, lv.keys, lv.counts, _bool_mask(lv.vh < self._thr_h[i]),
            self.alpha_h[i], 1, False) for i, lv in enumerate(levels)]
        res_hp = [masked_storing_result(
            lv.cells, lv.keys, lv.counts, _bool_mask(lv.vhp < self._thr_hp[i]),
            self.alpha_hp[i], 1, False) for i, lv in enumerate(levels)]
        res_hhat = [masked_storing_result(
            lv.cells, lv.keys, lv.counts, _bool_mask(lv.vhhat < self._thr_hhat[i]),
            self.alpha_hhat[i], self.beta_hhat[i], True) for i, lv in enumerate(levels)]
        return res_h, res_hp, res_hhat

    def finalize(self) -> Coreset:
        """Replay Algorithms 1+2 from the decoded Storing output; may FAIL."""
        res_h, res_hp, res_hhat = self.storing_results()
        return assemble_coreset(self.params, self.o, self.grids,
                                res_h, res_hp, res_hhat)

    # -- accounting -----------------------------------------------------------
    def space_bits(self) -> int:
        """Sketch space (bits) of this instance's own Storing structures
        (none on the exact backend, whose table the driver charges)."""
        return sum(s.space_bits()
                   for group in (self.store_h, self.store_hp, self.store_hhat)  # scalar-ok: accounting
                   for s in group)


class StreamingCoreset:
    """Theorem 4.5: parallel guess-o instances over one dynamic stream.

    Parameters
    ----------
    params:
        Problem parameters; the guess schedule spans [1, Δ^d·(√dΔ)^r] (the
        paper's predetermined range — the stream length is unknown a priori).
    backend:
        ``"exact"`` (one live-point table shared by every guess; fast
        reference) or ``"sketch"`` (true sublinear IBLT sketches per guess;
        what E3 measures).
    o_range:
        Optional (lo, hi) to restrict the guesses, standing in for the
        streaming 2-approximation of OPT the paper runs in parallel
        ([HSYZ18]); guesses outside the window provably FAIL or lose to a
        smaller non-FAIL guess.
    auto_pilot:
        When True (default if no ``o_range`` is given), maintain an
        ℓ₀-sampler alongside the sketches; at finalize time a k-means++
        pilot on the recovered uniform sample of the *live* set upper-bounds
        OPT and anchors the guess selection — the fully single-pass,
        deletion-proof replacement for the parallel OPT estimator.
    """

    def __init__(
        self,
        params: CoresetParams,
        seed: int = 0,
        backend: str = "exact",
        o_range: tuple[float, float] | None = None,
        grids: HierarchicalGrids | None = None,
        prefer: str | None = None,
        auto_pilot: bool | None = None,
    ):
        """``prefer`` picks among non-FAIL guesses at finalize time:
        ``"smallest"`` is Theorem 3.19's rule (always quality-safe);
        ``"largest"`` maximizes compression and is the right choice when
        ``o_range`` is anchored by an OPT estimate (the Theorem 4.5 setting,
        where o ∈ [OPT/10, OPT]).  Default: largest when an ``o_range`` is
        given, smallest otherwise."""
        if auto_pilot is None:
            auto_pilot = o_range is None
        if prefer is None:
            prefer = "largest" if (o_range is not None or auto_pilot) else "smallest"
        if prefer not in ("largest", "smallest"):
            raise ValueError(f"prefer must be 'largest' or 'smallest', got {prefer!r}")
        self.prefer = prefer
        self.params = params
        # Construction arguments, kept so checkpoints (repro.service.state)
        # can rebuild an identical driver — every bit of randomness below is
        # derived from (params, seed), so (args, sketch contents) is a
        # complete, bit-exact description of the state.
        self.seed = int(seed)
        self.backend = backend
        self.o_range = None if o_range is None else (float(o_range[0]), float(o_range[1]))
        self.auto_pilot = bool(auto_pilot)
        self.grids = grids if grids is not None else HierarchicalGrids(
            params.delta, params.d, seed=derive_seed(seed, "grids"))
        self.shared = _SharedHashes(params, self.grids, derive_seed(seed, "hashes"))
        #: Exact backend: the live-point table every guess decodes from.
        self.live = (_ExactLive(params, self.grids, self.shared)
                     if backend == "exact" else None)
        top = (params.delta ** params.d) * (math.sqrt(params.d) * params.delta) ** params.r
        lo, hi = (1.0, top) if o_range is None else (max(1.0, o_range[0]), o_range[1])
        self.instances: list[StreamingCoresetInstance] = []
        o = 1.0
        while o <= top * 2:  # scalar-ok: constructor: guess schedule
            if lo <= o <= hi or (o <= lo < 2 * o):
                self.instances.append(StreamingCoresetInstance(
                    params, o, self.grids, self.shared,
                    seed=derive_seed(seed, f"inst-{o:g}"), backend=backend,
                    live=self.live,
                ))
            o *= 2.0
        self.num_updates = 0
        self._value_cache: dict[int, tuple] = {}
        self._pilot_sampler = None
        if auto_pilot:
            from repro.streaming.l0sampler import DistinctSampler

            self._pilot_sampler = DistinctSampler(
                sample_size=512,
                universe_bits=self.grids.point_codec.universe_bits,
                seed=derive_seed(seed, "pilot-l0"),
            )

    #: Entries kept in the sketch backend's per-point hash-value cache for
    #: scalar updates (a deletion re-hashes the same key as its insertion;
    #: caching halves the Horner work on churn streams).  Values are deterministic per key, so the cache can
    #: never go stale; eviction is arbitrary.
    VALUE_CACHE_LIMIT = 200_000

    # -- streaming ------------------------------------------------------------
    def update(self, point, sign: int) -> None:
        """Process one insertion (+1) / deletion (−1).

        Coordinates are validated against the codec's injective window
        [0, Δ] *before* any sketch is touched — an out-of-range or
        non-integral coordinate would otherwise alias (or truncate) to a
        different point's key and silently corrupt the state.
        """
        row = check_stream_points(coerce_integral_rows(point), self.params.delta)
        pkey = int(self.grids.point_codec.encode(row)[0])
        if self.live is not None:
            self.live.table.update(pkey, sign)
        else:
            cell_keys, vh, vhp, vhh = self._entry_for(pkey, row)
            for inst in self.instances:  # scalar-ok: scalar reference path, per instance
                inst.update_with_values(pkey, cell_keys, sign, vh, vhp, vhh)
        if self._pilot_sampler is not None:
            self._pilot_sampler.update(pkey, sign)
        self.num_updates += 1

    def update_batch(self, events) -> int:
        """Apply a batch of :class:`StreamEvent` / ``(point, sign)`` pairs.

        The batch entry point the worker processes use: points are
        normalized and validated up front (the whole batch is rejected
        before any state mutation if a single event is malformed —
        non-integral coordinates included), then the batch runs through the
        fully vectorized :meth:`update_arrays`.  Returns the number of
        events applied.
        """
        rows, signs = events_to_arrays(events, d=self.params.d)
        return self.update_arrays(rows, signs)

    def update_arrays(self, rows, signs) -> int:
        """Vectorized ingest of an (n, d) coordinate array + sign vector.

        Exact backend: validate, encode, append the keys to the live table's
        log and feed the ℓ₀-sampler — no hashing and no per-guess work.
        Sketch backend: one Horner sweep per (level, sub-stream) over the
        batch's *distinct* point keys replaces per-event hashing; threshold
        masks and sketch scatters run per level.  Either way the state is
        bit-identical to per-event :meth:`update` calls in the same order
        (asserted by the property tests and the bench harness).
        """
        rows = check_stream_points(np.asarray(rows), self.params.delta)
        n = len(rows)
        if n == 0:
            return 0
        signs = np.asarray(signs, dtype=np.int64)
        pkeys = self.grids.point_codec.encode(rows)
        if self.live is not None:
            self.live.table.update_many(pkeys, signs)
        else:
            self._scatter_instances(rows, pkeys, signs)
        if self._pilot_sampler is not None:
            self._pilot_sampler.update_many(pkeys, signs)
        self.num_updates += n
        return n

    def _scatter_instances(self, rows, pkeys, signs) -> None:
        """Sketch-backend batch: hash once, then every instance scatters."""
        levels = range(self.params.L + 1)
        cell_keys = [self.grids.cell_keys(rows, i) for i in levels]
        # Hash each distinct key once; churn streams (delete = re-hash of an
        # earlier insert) and duplicate-heavy batches pay per distinct key.
        # One stacked Horner sweep per sub-stream covers all L+1 levels.
        uniq, inverse = np.unique(pkeys, return_inverse=True)
        vh = self.shared.stacked_h.values_np(uniq)[:, inverse]
        vhp = self.shared.stacked_hp.values_np(uniq)[:, inverse]
        vhh = self.shared.stacked_hhat.values_np(uniq)[:, inverse]
        for inst in self.instances:  # scalar-ok: per instance per batch
            inst.update_batch_arrays(pkeys, cell_keys, signs, vh, vhp, vhh)

    def process(self, stream) -> int:
        """Consume an iterable of :class:`StreamEvent` (or (point, sign) pairs)."""
        return self.update_batch(stream)

    def _entry_for(self, pkey: int, row: np.ndarray):
        """Cached (cell keys, hash values) tuple for one encoded point."""
        cached = self._value_cache.get(pkey)
        if cached is None:
            levels = range(self.params.L + 1)
            cached = (
                [int(self.grids.cell_keys(row, i)[0]) for i in levels],
                [self.shared.h[i].value(pkey) for i in levels],
                [self.shared.hp[i].value(pkey) for i in levels],
                [self.shared.hhat[i].value(pkey) for i in levels],
            )
            if len(self._value_cache) >= self.VALUE_CACHE_LIMIT:
                self._value_cache.pop(next(iter(self._value_cache)))
            self._value_cache[pkey] = cached
        return cached

    # -- results ---------------------------------------------------------------
    def finalize(self) -> Coreset:
        """Return the coreset of the preferred non-FAIL guess.

        Non-destructive: decoding copies the sketches, so this may be called
        at any point of the stream (a *snapshot* of the current live set)
        and streaming can continue afterwards.
        """
        return self.finalize_with_instance()[0]

    #: Alias making the any-time-query semantics explicit.
    snapshot = finalize

    def finalize_with_instance(self):
        """Like :meth:`finalize` but also returns the winning instance.

        Guesses are tried in ``prefer`` order up to the pilot's OPT
        estimate, then the guesses above it, nearest the estimate first.
        An empty coreset from a non-empty live set counts as a FAIL: it
        means the guess overshot so far that no sample survived.
        """
        last = "no instances"
        order = self.instances if self.prefer == "smallest" else self.instances[::-1]
        cap = self._pilot_upper_bound()
        deferred = sorted((inst for inst in order if cap is not None and inst.o > cap),
                          key=lambda inst: inst.o)
        live_empty = None
        for inst in [i for i in order if cap is None or i.o <= cap] + deferred:  # scalar-ok: finalize: per guess
            try:
                coreset = inst.finalize()
            except FailedConstruction as exc:
                last = exc.reason
                continue
            if len(coreset) == 0:
                if live_empty is None:
                    live_empty = self._live_set_empty()
                if not live_empty:
                    last = f"empty coreset from a non-empty live set (o={inst.o:g})"
                    continue
            return coreset, inst
        raise FailedConstruction(f"all streaming guesses failed; last: {last}")

    def _live_set_empty(self) -> bool:
        """Whether the live set is known to be empty: exactly on the exact
        backend, via the ℓ₀-sampler on the sketch backend (assumed empty
        when neither can tell)."""
        if self.live is not None:
            return len(self.live.table) == 0
        if self._pilot_sampler is not None:
            return self._pilot_sampler.sample()[1] <= 0
        return True

    def _pilot_upper_bound(self) -> float | None:
        """Estimate of OPT/4 from the ℓ₀-sampler (None without auto_pilot).

        A k-means++/Lloyd solution on a uniform sample of the live set,
        scaled by the estimated live count, upper-bounds OPT up to sampling
        noise; dividing by 4 keeps the anchor on the safe (≤ OPT) side,
        mirroring the offline pilot/8 descent.
        """
        if self._pilot_sampler is None:
            return None
        keys, live_estimate = self._pilot_sampler.sample()
        if len(keys) < max(2 * self.params.k, 8) or live_estimate <= 0:
            return None
        from repro.solvers.lloyd import lloyd

        pts = self.grids.point_codec.decode_many(keys).astype(np.float64)
        res = lloyd(pts, min(self.params.k, len(pts)), r=self.params.r,
                    seed=derive_seed(0, "pilot-lloyd"), max_iter=8)
        pilot = res.cost * live_estimate / len(pts)
        return max(1.0, pilot / 4.0)

    def space_bits(self) -> int:
        """Total bits: the sketch instances (sketch backend) or the live
        table's content (exact backend), plus shared randomness."""
        own = (self.live.table.space_bits() if self.live is not None
               else sum(inst.space_bits() for inst in self.instances))
        return own + self.shared.randomness_bits()
