"""The ``Storing(G_i, α, β, δ)`` subroutine (Lemma 4.2, from [HSYZ18]).

Contract: after processing a dynamic stream of points (each update tagged
with its grid-cell key at level i and its point key), the structure either
FAILs or returns

- ``cells``       — every non-empty cell with its exact point count;
- ``small_points``— for every cell with ≤ β points, those points;

and it must not FAIL (w.h.p.) whenever the number of non-empty cells is ≤ α.

Two interchangeable implementations:

- :class:`ExactStoring` — a dictionary (reference semantics; linear space in
  the live set, the standalone test oracle);
- :class:`SketchStoring` — the true sublinear linear sketch: a cell-level
  IBLT of capacity α whose every (row, bucket) slot carries a *nested* point
  IBLT of capacity β (all nested sketches share one hash family; their
  bucket dicts materialize lazily).  After peeling the cell IBLT, every
  decoded cell that is alone in some (row, bucket) has its points
  recoverable from that slot's nested sketch.  Updates are linear, so
  insertions and deletions in any order work — the property Theorem 4.5
  needs.

The streaming driver's exact backend does not keep one ``ExactStoring`` per
(guess, level, sub-stream): every guess samples the same surviving multiset
with its own thresholds, so it keeps one :class:`LivePointTable` and derives
each structure's output at decode time with :func:`masked_storing_result` —
the output ``ExactStoring.result`` gives for the same masked updates.

Space: ``space_bits`` charges the full pre-allocated O(α·β) layout of a
space-bounded implementation (the quantity Lemma 4.2 bounds);
``resident_bits`` reports the materialized buckets (data-dependent, what
the Python process actually holds).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.streaming.sketch import DecodeFailure, IBLTSketch, SketchHashFamily
from repro.utils.rng import derive_seed
from repro.utils.validation import FailedConstruction

__all__ = ["StoringResult", "ExactStoring", "SketchStoring", "LivePointTable",
           "masked_storing_result"]


@dataclass
class StoringResult:
    """Decoded contents of a Storing structure."""

    #: Non-empty cells: cell key → exact count.
    cells: dict = field(default_factory=dict)
    #: Cells with ≤ β points: cell key → {point key: count}.
    small_points: dict = field(default_factory=dict)


def _as_key_array(x) -> np.ndarray:
    """Coerce a key sequence to int64, falling back to object for bigints."""
    if isinstance(x, np.ndarray):
        return x
    try:
        return np.asarray(x, dtype=np.int64)
    except (OverflowError, TypeError, ValueError):
        return np.array([int(v) for v in x], dtype=object)


def _group_sum(keys: np.ndarray, deltas: np.ndarray):
    """Aggregate signed deltas per key; returns (sorted keys, nonzero sums)."""
    uniq, inverse = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inverse, deltas)
    keep = sums != 0
    if keep.all():
        return uniq, sums
    return uniq[keep], sums[keep]


def _group_sum_pairs(cells: np.ndarray, points: np.ndarray, deltas: np.ndarray):
    """Aggregate per (cell, point) pair; lexicographically sorted, nonzero."""
    if len(cells) == 0:
        return cells, points, deltas
    order = np.lexsort((points, cells))
    c, p, v = cells[order], points[order], deltas[order]
    boundary = np.empty(len(c), dtype=bool)
    boundary[0] = True
    if len(c) > 1:
        np.logical_or(np.asarray(c[1:] != c[:-1], dtype=bool),
                      np.asarray(p[1:] != p[:-1], dtype=bool),
                      out=boundary[1:])
    gid = np.cumsum(boundary) - 1
    sums = np.zeros(int(gid[-1]) + 1, dtype=np.int64)
    np.add.at(sums, gid, v)
    starts = np.flatnonzero(boundary)
    keep = sums != 0
    return c[starts][keep], p[starts][keep], sums[keep]


class ExactStoring:
    """Reference implementation, log-structured columnar.

    Updates *append* to a pending log — one O(1) list append per batch (or
    per event on the scalar path) — and a flush aggregates the log into the
    compacted state with numpy group-by sweeps: cell keys sorted ascending
    with their nonzero exact counts, plus (cell, point) pairs in
    lexicographic order when ``recover_points``.  Flushes happen at query /
    checkpoint / merge time and whenever the log outgrows the compacted
    state, so ingest does no per-event Python dict work at all while every
    observable output (results, counts, serialized state) is a canonical
    function of the multiset of updates — independent of event order and of
    how the stream was batched.
    """

    #: Minimum pending-log size before an automatic compaction; beyond it
    #: the log may grow to the compacted size (amortized O(n log n) total).
    FLUSH_THRESHOLD = 4096

    def __init__(self, alpha: int, beta: int, recover_points: bool = True):
        self.alpha = int(alpha)
        self.beta = int(beta)
        self.recover_points = bool(recover_points)
        self._ckeys = np.empty(0, dtype=np.int64)   # sorted, counts nonzero
        self._ccounts = np.empty(0, dtype=np.int64)
        self._pcell = np.empty(0, dtype=np.int64)   # pairs, lex-sorted
        self._ppoint = np.empty(0, dtype=np.int64)
        self._pcount = np.empty(0, dtype=np.int64)
        self._log: list = []      # (cells, points | None, signs) array triples
        self._slog_c: list = []   # scalar-update staging (Python ints)
        self._slog_p: list = []
        self._slog_s: list = []
        self._log_events = 0

    def update(self, cell_key: int, point_key: int, sign: int) -> None:
        """Apply one insertion (+1) / deletion (−1) of a point in a cell."""
        self._slog_c.append(int(cell_key))
        self._slog_p.append(int(point_key))
        self._slog_s.append(int(sign))
        self._log_events += 1
        if self._log_events > max(self.FLUSH_THRESHOLD, len(self._ckeys)):
            self._flush()

    def update_many(self, cell_keys, point_keys, signs) -> None:
        """Append a batch of signed updates (one vectorized log entry).

        Arrays are logged by reference — callers must not mutate them after
        handing them over (the streaming driver's slices are fresh).
        """
        cell_keys = _as_key_array(cell_keys)
        n = len(cell_keys)
        if n == 0:
            return
        signs = np.asarray(signs, dtype=np.int64)
        pts = _as_key_array(point_keys) if self.recover_points else None
        self._log.append((cell_keys, pts, signs))
        self._log_events += n
        if self._log_events > max(self.FLUSH_THRESHOLD, len(self._ckeys)):
            self._flush()

    def _flush(self) -> None:
        """Compact the pending log into the sorted columnar state."""
        if not self._log_events:
            return
        if self._slog_c:
            self._log.append((
                _as_key_array(self._slog_c),
                _as_key_array(self._slog_p) if self.recover_points else None,
                np.asarray(self._slog_s, dtype=np.int64),
            ))
            self._slog_c, self._slog_p, self._slog_s = [], [], []
        logs, self._log = self._log, []
        self._log_events = 0
        cells = np.concatenate([self._ckeys] + [c for c, _, _ in logs])
        deltas = np.concatenate([self._ccounts] + [s for _, _, s in logs])
        self._ckeys, self._ccounts = _group_sum(cells, deltas)
        if self.recover_points:
            pc = np.concatenate([self._pcell] + [c for c, _, _ in logs])
            pp = np.concatenate([self._ppoint] + [p for _, p, _ in logs])
            pn = np.concatenate([self._pcount] + [s for _, _, s in logs])
            self._pcell, self._ppoint, self._pcount = _group_sum_pairs(pc, pp, pn)

    def live_cells(self) -> int:
        """Exact number of non-empty cells (forces a compaction)."""
        self._flush()
        return len(self._ckeys)

    # -- dict views (tests, merge, checkpoint codec) --------------------------
    @property
    def _cells(self) -> Counter:
        """Counter snapshot of the exact cell counts, sorted by key.

        A fresh object: mutations do not write through — use :meth:`update`
        / :meth:`update_many` / :meth:`merge_from` (or assign a full mapping,
        as checkpoint restore does).
        """
        self._flush()
        return Counter(dict(zip(self._ckeys.tolist(), self._ccounts.tolist())))  # scalar-ok: snapshot view

    @_cells.setter
    def _cells(self, mapping) -> None:
        items = sorted((int(k), int(v)) for k, v in mapping.items() if v)
        self._ckeys = _as_key_array([k for k, _ in items])
        self._ccounts = np.asarray([v for _, v in items], dtype=np.int64)

    @property
    def _points(self) -> dict:
        """Per-cell point Counters (fresh snapshot, sorted; see `_cells`)."""
        self._flush()
        out: dict[int, Counter] = {}
        for c, p, v in zip(self._pcell.tolist(), self._ppoint.tolist(),  # scalar-ok: snapshot view
                           self._pcount.tolist()):  # scalar-ok: snapshot view
            out.setdefault(c, Counter())[p] = v
        return out

    @_points.setter
    def _points(self, mapping) -> None:
        flat = sorted((int(c), int(p), int(v))
                      for c, pts in mapping.items()
                      for p, v in pts.items() if v)
        self._pcell = _as_key_array([c for c, _, _ in flat])
        self._ppoint = _as_key_array([p for _, p, _ in flat])
        self._pcount = np.asarray([v for _, _, v in flat], dtype=np.int64)

    def merge_from(self, other: "ExactStoring") -> None:
        """Add another structure's counts into this one (linearity)."""
        self._flush()
        other._flush()
        self._ckeys, self._ccounts = _group_sum(
            np.concatenate([self._ckeys, other._ckeys]),
            np.concatenate([self._ccounts, other._ccounts]))
        if self.recover_points:
            self._pcell, self._ppoint, self._pcount = _group_sum_pairs(
                np.concatenate([self._pcell, other._pcell]),
                np.concatenate([self._ppoint, other._ppoint]),
                np.concatenate([self._pcount, other._pcount]))

    def result(self) -> StoringResult:
        """Decode the structure (Lemma 4.2's output); FAIL if > α cells."""
        self._flush()
        if len(self._ckeys) > self.alpha:
            raise FailedConstruction(
                f"Storing: {len(self._ckeys)} non-empty cells exceed alpha={self.alpha}"
            )
        cells = dict(zip(self._ckeys.tolist(), self._ccounts.tolist()))  # scalar-ok: decode, <= alpha cells
        small = {}
        if self.recover_points:
            pcell = self._pcell
            for cell, cnt in cells.items():  # scalar-ok: decode, ≤ alpha cells
                if cnt > self.beta:
                    continue
                lo = np.searchsorted(pcell, cell, side="left")
                hi = np.searchsorted(pcell, cell, side="right")
                small[cell] = dict(zip(self._ppoint[lo:hi].tolist(),  # scalar-ok: decode, small cells only
                                       self._pcount[lo:hi].tolist()))  # scalar-ok: decode, small cells only
        return StoringResult(cells=cells, small_points=small)

    def space_bits(self, cell_bits: int = 64, point_bits: int = 64) -> int:
        """Actual content bits (the reference implementation is not sublinear)."""
        self._flush()
        bits = len(self._ckeys) * (cell_bits + 32)
        if self.recover_points:
            bits += len(self._pcount) * (point_bits + 32)
        return bits

    def resident_bits(self, cell_bits: int = 64, point_bits: int = 64) -> int:
        """Same as :meth:`space_bits` (only live content is held)."""
        return self.space_bits(cell_bits, point_bits)


class LivePointTable:
    """The surviving multiset of a dynamic stream: sorted point keys with
    their nonzero signed counts.

    The exact backend's whole Storing state.  Updates append to a log (one
    list append per batch, or per event on the scalar path) and a
    compaction folds the log in with :func:`_group_sum`, exactly like
    :class:`ExactStoring` but with no cell keys and no per-guess copies.
    The compacted arrays are canonical — a function of the multiset alone,
    independent of event order, batching, sharding and checkpointing — so
    they double as the checkpoint encoding.
    """

    #: Minimum pending-log size before an automatic compaction (as in
    #: :attr:`ExactStoring.FLUSH_THRESHOLD`).
    FLUSH_THRESHOLD = 4096

    def __init__(self):
        self._keys = np.empty(0, dtype=np.int64)    # sorted, unique
        self._counts = np.empty(0, dtype=np.int64)  # nonzero
        self._log: list = []      # (keys, signs) array pairs
        self._slog_k: list = []   # scalar-update staging (Python ints)
        self._slog_s: list = []
        self._log_events = 0
        #: Bumped on every content change; lets readers cache derived views.
        self.generation = 0

    def update(self, key: int, sign: int) -> None:
        """Apply one insertion (+1) / deletion (−1) of a point key."""
        self._slog_k.append(int(key))
        self._slog_s.append(int(sign))
        self._appended(1)

    def update_many(self, keys, signs) -> None:
        """Append a batch of signed updates (one log entry, logged by
        reference — callers must not mutate the arrays afterwards)."""
        keys = _as_key_array(keys)
        if len(keys) == 0:
            return
        self._log.append((keys, np.asarray(signs, dtype=np.int64)))
        self._appended(len(keys))

    def _appended(self, n: int) -> None:
        self._log_events += n
        self.generation += 1
        if self._log_events > max(self.FLUSH_THRESHOLD, len(self._keys)):
            self._flush()

    def _flush(self) -> None:
        """Compact the pending log into the sorted arrays."""
        if not self._log_events:
            return
        if self._slog_k:
            self._log.append((_as_key_array(self._slog_k),
                              np.asarray(self._slog_s, dtype=np.int64)))
            self._slog_k, self._slog_s = [], []
        logs, self._log = self._log, []
        self._log_events = 0
        self._keys, self._counts = _group_sum(
            np.concatenate([self._keys] + [k for k, _ in logs]),
            np.concatenate([self._counts] + [s for _, s in logs]))

    def contents(self) -> tuple[np.ndarray, np.ndarray]:
        """The compacted (sorted keys, nonzero counts) arrays."""
        self._flush()
        return self._keys, self._counts

    def load(self, keys, counts) -> None:
        """Replace the contents with the given (key, count) pairs; repeated
        keys add up and zero totals drop, so any pair list is accepted."""
        self._log, self._slog_k, self._slog_s = [], [], []
        self._log_events = 0
        self._keys, self._counts = _group_sum(
            _as_key_array(keys), np.asarray(counts, dtype=np.int64))
        self.generation += 1

    def merge_from(self, other: "LivePointTable") -> None:
        """Add another table's counts into this one (linearity)."""
        keys, counts = other.contents()
        self.update_many(keys, counts)
        self._flush()

    def __len__(self) -> int:
        """Number of distinct live keys."""
        return len(self.contents()[0])

    def space_bits(self, point_bits: int = 64) -> int:
        """Actual content bits: one key and one 32-bit count per live key."""
        return len(self) * (point_bits + 32)


def masked_storing_result(cells: np.ndarray, points: np.ndarray,
                          counts: np.ndarray, mask: np.ndarray, alpha: int,
                          beta: int, recover_points: bool) -> StoringResult:
    """Lemma 4.2's output for the ``mask``-selected rows of a live table.

    ``cells``/``points``/``counts`` are aligned rows sorted by (cell, point)
    with unique points and nonzero counts — a :class:`LivePointTable`
    annotated with one level's cell keys.  The result (FAIL rule, β rule,
    sorted key order) equals :meth:`ExactStoring.result` after feeding an
    ``ExactStoring(alpha, beta, recover_points)`` every update of the
    selected points, since that structure depends only on the net counts.
    """
    c = cells[mask]
    if len(c) == 0:
        return StoringResult()
    n = counts[mask]
    boundary = np.empty(len(c), dtype=bool)
    boundary[0] = True
    boundary[1:] = np.asarray(c[1:] != c[:-1], dtype=bool)
    starts = np.flatnonzero(boundary)
    sums = np.add.reduceat(n, starts)
    keep = sums != 0
    live = int(keep.sum())
    if live > alpha:
        raise FailedConstruction(
            f"Storing: {live} non-empty cells exceed alpha={alpha}")
    heads = c[starts]
    cell_counts = dict(zip(heads[keep].tolist(), sums[keep].tolist()))  # scalar-ok: decode, <= alpha cells
    small = {}
    if recover_points:
        p = points[mask]
        ends = np.append(starts[1:], len(c))
        sel = keep & (sums <= beta)
        for cell, lo, hi in zip(heads[sel].tolist(), starts[sel].tolist(),  # scalar-ok: decode, small cells only
                                ends[sel].tolist()):  # scalar-ok: decode, small cells only
            small[cell] = dict(zip(p[lo:hi].tolist(), n[lo:hi].tolist()))  # scalar-ok: decode, <= beta points per cell
    return StoringResult(cells=cell_counts, small_points=small)


class SketchStoring:
    """The sublinear linear-sketch implementation of Lemma 4.2."""

    def __init__(
        self,
        alpha: int,
        beta: int,
        cell_universe_bits: int,
        point_universe_bits: int,
        seed=0,
        recover_points: bool = True,
    ):
        self.alpha = int(alpha)
        self.beta = int(beta)
        self.recover_points = bool(recover_points)
        self.cell_universe_bits = int(cell_universe_bits)
        self.point_universe_bits = int(point_universe_bits)
        seed = int(seed) & 0xFFFFFFFF
        self._cells = IBLTSketch(self.alpha, cell_universe_bits,
                                 seed=derive_seed(seed, "cells"))
        # One shared hash family serves every nested point sketch; nested
        # sketches are just lazily-materialized bucket dicts.
        self._pt_family = SketchHashFamily(
            max(8, 2 * self.beta), point_universe_bits,
            seed=derive_seed(seed, "pt-family")) if recover_points else None
        self._nested: dict[tuple[int, int], IBLTSketch] = {}

    def _nested_at(self, row: int, pos: int) -> IBLTSketch:
        key = (row, pos)
        sk = self._nested.get(key)
        if sk is None:
            sk = IBLTSketch(self.beta, self.point_universe_bits,
                            family=self._pt_family)
            self._nested[key] = sk
        return sk

    def update(self, cell_key: int, point_key: int, sign: int) -> None:
        """Apply one signed update to the cell IBLT and its nested sketches.

        Routed through the shared :class:`IBLTSketch` update path (the
        scalar reference of the batched :meth:`update_many`); the cell and
        nested updates are no longer hand-inlined here, so there is exactly
        one implementation of the bucket arithmetic to keep correct.
        """
        cell_key = int(cell_key)
        self._cells.update(cell_key, sign)
        if self.recover_points:
            pk = int(point_key)
            for r, pos in enumerate(self._cells.family.positions(cell_key)):  # scalar-ok: ROWS=3
                self._nested_at(r, pos).update(pk, sign)

    def update_many(self, cell_keys, point_keys, signs) -> None:
        """Apply a batch of signed updates in vectorized sweeps.

        Bit-identical to calling :meth:`update` per event in order: the cell
        IBLT takes one batched scatter, and the point-side hash sweeps run
        once for the whole batch (every nested sketch shares one hash
        family) before fanning out per (row, cell-bucket) group.  Nested
        sketches materialize in first-touch event order — the same order the
        scalar path creates them — so checkpoint bytes are unchanged.
        """
        if not isinstance(cell_keys, np.ndarray):
            cell_keys = np.asarray(cell_keys)
        n = len(cell_keys)
        if n == 0:
            return
        signs = np.asarray(signs, dtype=np.int64)
        cells = self._cells
        fam = cells.family
        pos_rows = fam.positions_np(cell_keys)
        fps = fam.fingerprints_np(cell_keys)
        cells.apply_hashed(pos_rows, fps, cell_keys, signs)
        if not self.recover_points:
            return
        if not isinstance(point_keys, np.ndarray):
            point_keys = np.asarray(point_keys)
        pfam = self._pt_family
        ppos = pfam.positions_np(point_keys)
        pfps = pfam.fingerprints_np(point_keys)
        rows = cells.ROWS
        m = cells.m
        # Flat (row, cell-bucket) ids in scalar visitation order (event-major,
        # row-minor): drives both nested-sketch creation order and grouping.
        flat = np.empty(rows * n, dtype=np.int64)
        for r in range(rows):  # scalar-ok: ROWS=3, vectorized over events
            flat[r::rows] = np.int64(r) * m + pos_rows[r]
        uniq, first, inverse = np.unique(flat, return_index=True,
                                         return_inverse=True)
        nested = self._nested
        for u in np.argsort(first, kind="stable").tolist():  # scalar-ok: per touched bucket
            key = divmod(int(uniq[u]), m)
            if key not in nested:
                nested[key] = IBLTSketch(self.beta, self.point_universe_bits,
                                         family=pfam)
        # Group flat entries by bucket; stable sort keeps event order inside
        # each group, so every nested sketch sees its scalar subsequence.
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(inverse[order], np.arange(len(uniq) + 1))
        for u in range(len(uniq)):  # scalar-ok: per touched bucket, batched inside
            sel = order[bounds[u]: bounds[u + 1]] // rows
            nested[divmod(int(uniq[u]), m)].apply_hashed(
                ppos[:, sel], pfps[sel], point_keys[sel], signs[sel])

    def result(self) -> StoringResult:
        """Peel the sketches into Lemma 4.2's output; FAIL on stall."""
        try:
            cells = self._cells.decode()
        except DecodeFailure as exc:
            raise FailedConstruction(f"Storing sketch: {exc}") from exc
        if len(cells) > self.alpha:
            raise FailedConstruction(
                f"Storing sketch: decoded {len(cells)} cells exceed alpha={self.alpha}"
            )
        small: dict[int, dict[int, int]] = {}
        if self.recover_points:
            # Which cells share each (row, bucket)?  We know all live cells,
            # so bucket occupancy is computable exactly.
            occupancy: dict[tuple[int, int], int] = {}
            positions: dict[int, tuple[int, ...]] = {}
            fam = self._cells.family
            for cell in cells:  # scalar-ok: decode, ≤ alpha cells
                pos_list = fam.positions(cell)
                positions[cell] = pos_list
                for r, pos in enumerate(pos_list):  # scalar-ok: ROWS=3
                    occupancy[(r, pos)] = occupancy.get((r, pos), 0) + 1
            for cell, cnt in cells.items():  # scalar-ok: decode, ≤ alpha cells
                if cnt > self.beta:
                    continue
                decoded = None
                for r, pos in enumerate(positions[cell]):  # scalar-ok: ROWS=3
                    if occupancy[(r, pos)] != 1:
                        continue  # bucket shared: nested sketch is polluted
                    nested = self._nested.get((r, pos))
                    if nested is None:
                        decoded = {}
                        break
                    try:
                        decoded = nested.decode()
                    except DecodeFailure:
                        continue
                    break
                if decoded is None:
                    raise FailedConstruction(
                        f"Storing sketch: small cell {cell} never isolated "
                        f"in any row; cannot recover its points"
                    )
                small[cell] = decoded
        return StoringResult(cells=cells, small_points=small)

    # -- accounting ------------------------------------------------------------
    def space_bits(self) -> int:
        """Worst-case pre-allocated layout: the cell IBLT plus one nested
        point IBLT per (row, bucket) slot — the O(α·β) of Lemma 4.2."""
        bits = self._cells.space_bits()
        if self.recover_points:
            proto = IBLTSketch(self.beta, self.point_universe_bits,
                               family=self._pt_family)
            bits += (self._cells.ROWS * self._cells.m * proto.space_bits()
                     - (self._cells.ROWS * self._cells.m - 1)
                     * self._pt_family.randomness_bits)
        return bits

    def resident_bits(self) -> int:
        """Bits of buckets actually materialized (data-dependent)."""
        bits = self._cells.resident_bits()
        if self.recover_points:
            bits += self._pt_family.randomness_bits
            for sk in self._nested.values():  # scalar-ok: accounting
                bits += sk.resident_bits() - self._pt_family.randomness_bits
        return bits
