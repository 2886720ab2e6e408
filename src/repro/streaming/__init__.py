"""Dynamic streaming implementation (Section 4).

- :mod:`repro.streaming.stream` — the dynamic stream model: a sequence of
  point insertions and deletions over [Δ]^d.
- :mod:`repro.streaming.sketch` — linear sketches: 1-sparse recovery buckets
  and IBLT-style peelable key/count sketches.
- :mod:`repro.streaming.storing` — the ``Storing(G_i, α, β, δ)`` subroutine
  of Lemma 4.2 ([HSYZ18]): recover all non-empty cells, their counts, and
  the points of small cells — in both an exact reference form and the true
  sublinear sketch form — plus the exact backend's one-per-driver live-point
  table that every guess decodes from.
- :mod:`repro.streaming.streaming_coreset` — Algorithm 4 / Theorem 4.5: the
  one-pass dynamic-stream coreset, including the parallel guess-``o`` driver.
"""

from repro.streaming.stream import StreamEvent, Stream, INSERT, DELETE, materialize
from repro.streaming.storing import ExactStoring, LivePointTable, SketchStoring, StoringResult
from repro.streaming.streaming_coreset import StreamingCoreset, StreamingCoresetInstance
from repro.streaming.l0sampler import DistinctSampler
from repro.streaming.merge import merge_streaming_states

__all__ = [
    "StreamEvent",
    "Stream",
    "INSERT",
    "DELETE",
    "materialize",
    "ExactStoring",
    "LivePointTable",
    "SketchStoring",
    "StoringResult",
    "StreamingCoreset",
    "StreamingCoresetInstance",
    "DistinctSampler",
    "merge_streaming_states",
]
