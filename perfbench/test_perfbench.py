"""Self-tests for the service benchmark.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_perfbench.py

They cover the generator's set semantics, self-time arithmetic on a
synthetic span tree, the span wrappers, the ``BENCHMARK.json`` contract,
and a tiny run of every workload (small delta, window and batches) that
must print every metric ``BENCHMARK.json`` names, with its unit.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------- generator
def test_pool_is_distinct_seeded_and_in_range():
    a = loadgen.make_pool(3, delta=1024)
    assert len(np.unique(a, axis=0)) == len(a) > 15_000
    assert a.min() >= 1 and a.max() <= 1024
    assert np.array_equal(a, loadgen.make_pool(3, delta=1024))
    assert not np.array_equal(a[:100], loadgen.make_pool(4, delta=1024)[:100])


def test_window_keeps_set_semantics_while_cycling():
    pool = loadgen.make_pool(1, delta=64)
    win = loadgen.Window(pool, 64)
    live: set = set()
    for step in range(4 * len(pool) // 8):
        op = "insert" if step % 2 == 0 or len(win) < 8 else "delete"
        idx = win.next_inserts(8) if op == "insert" else win.oldest(8)
        rows = {tuple(r) for r in win.rows(idx).tolist()}
        if op == "insert":
            assert not rows & live
            live |= rows
        else:
            assert rows <= live
            live -= rows
        win.commit(op, idx)
    counters = win.ledger.expected_counters()
    assert counters["live_points"] == len(live) == len(win)
    assert counters["events"] == sum(len(r) for _, r in win.ledger.requests)


def test_window_refuses_to_insert_live_or_delete_dead_points():
    pool = loadgen.make_pool(1, delta=64)[:10]
    win = loadgen.Window(pool, 64)
    win.commit("insert", win.next_inserts(8))
    with pytest.raises(AssertionError):
        win.next_inserts(4)          # would wrap onto live points
    with pytest.raises(AssertionError):
        win.oldest(9)                # more than are live
    with pytest.raises(AssertionError):
        win.commit("delete", np.array([3]))   # not the oldest live point
    with pytest.raises(AssertionError):
        win.commit("insert", np.array([0]))   # already live


# ----------------------------------------------------------------- self time
def test_self_time_on_a_synthetic_tree():
    # span ids:  1 = root [0, 10]
    #            2 = child [1, 3], 3 = child [2, 5] (overlaps 2),
    #            4 = child [9, 12] (sticks out of the root: clipped)
    #            5 = grandchild of 3, [2.5, 3.5]
    #            6 = an unrelated root [20, 21]
    start = [0.0, 1.0, 2.0, 9.0, 2.5, 20.0]
    end = [10.0, 3.0, 5.0, 12.0, 3.5, 21.0]
    span = [1, 2, 3, 4, 5, 6]
    parent = [0, 1, 1, 1, 3, 0]
    selft = tracing.self_times(start, end, span, parent)
    # root: 10 - |[1, 5] u [9, 10]| = 10 - 5
    assert selft.tolist() == pytest.approx([5.0, 2.0, 2.0, 3.0, 1.0, 1.0])


def test_wrappers_link_parents_across_to_thread_and_count_absent():
    rec = tracing.SpanRecorder()

    def leaf(x):
        return x + 1

    wrapped_leaf = rec.wrap("leaf", leaf, note=lambda a, k, out, exc: out)

    async def handler(x):
        return await asyncio.to_thread(wrapped_leaf, x)

    wrapped_handler = rec.wrap("handler", handler, root=True)
    assert asyncio.run(wrapped_handler(1)) == 2
    assert asyncio.run(wrapped_handler(5)) == 6
    cols = rec.columns()
    names = [cols["names"][i] for i in cols["name"]]
    assert names == ["leaf", "handler", "leaf", "handler"]
    # Each leaf's parent is the handler of the same request.
    assert cols["parent"][0] == cols["span"][1]
    assert cols["request"][0] == cols["request"][1] != cols["request"][2]
    assert cols["value"][0] == 2.0 and math.isnan(cols["value"][1])

    tracing.install(rec, (("repro.service.aserver", "NoSuchClass.method",
                           "x", None, False),
                          ("no_such_module_anywhere", "f", "y", None, False)))
    assert rec.absent == ["repro.service.aserver.NoSuchClass.method",
                          "no_such_module_anywhere.f"]


def test_span_dump_round_trips(tmp_path):
    rec = tracing.SpanRecorder()
    rec.wrap("a", lambda: None)()
    rec.absent.append("gone.f")
    rec.dump(tmp_path / "s.npz")
    back = tracing.load_spans(tmp_path / "s.npz")
    assert back["names"] == ["a"] and back["absent"] == ["gone.f"]
    assert len(back["start"]) == 1 and back["end"][0] >= back["start"][0]


# ------------------------------------------------------------------ contract
def test_benchmark_json_matches_the_code():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    declared = [w["name"] for w in BENCH["workloads"]]
    assert set(declared) <= set(harness.WORKLOADS)
    for w in BENCH["workloads"]:
        assert w["why"] == harness.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == {
        name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert {m["name"]: m["better"] for m in BENCH["end_to_end"]} == {
        name: better for name, (_, better) in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == \
        tracing.PER_LAYER_METRICS
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


# ----------------------------------------------------------------- tiny runs
def _tiny(spec):
    return dataclasses.replace(spec, delta=64, window=16, batch=4,
                               preload_chunk=8, setup_reps=min(spec.setup_reps, 2))


@pytest.fixture
def tiny_workloads(monkeypatch):
    monkeypatch.setattr(harness, "WORKLOADS",
                        {name: _tiny(spec) for name, spec in harness.WORKLOADS.items()})
    monkeypatch.setattr(harness, "CACHED_PROBE", 5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_tiny_run_emits_every_metric(tiny_workloads, workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.main(["--workload", workload, "--seed", "5",
                         "--seconds", "0.2", "--trace", str(trace)])
    lines = buf.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0, buf.getvalue()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], float) and math.isfinite(m["value"]), name
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.absent_callables"]["value"] == 0
        assert result["metrics"]["trace.spans"]["value"] > 0
