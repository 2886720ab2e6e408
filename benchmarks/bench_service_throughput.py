"""Service benchmark — ingest throughput and query-cache latency.

The numbers every scaling change moves: (a) one in-process driver vs
process-parallel ingest (bit-identical state, wall-clock diverges with
cores), (b) scalar vs batched ingest, (c) cold (snapshot + decode + solve)
vs cached query latency, and (d) checkpoint write/restore time.

Also runnable as a script (spawn-safe: workers re-import this file, so it
must stay a real file, never piped through stdin)::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --smoke

which runs a reduced serial-vs-parallel curve plus an ingest/query latency
percentile pass (p50/p95/p99) and **appends** both records to
``BENCH_service.json`` at the repo root (``make bench-smoke``) — runs
accumulate as a history rather than overwriting each other.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from common import append_bench_record, make_mixture, print_table
from repro.core import CoresetParams
from repro.data.workloads import churn_stream
from repro.service import (
    ClusteringService,
    ServiceConfig,
    ShardedIngest,
    WorkerPoolIngest,
    streaming_state_to_dict,
)
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import materialize


def _workload(n: int = 4000, delta: int = 1024, seed: int = 3):
    pts, _ = make_mixture(n, 2, delta, 3, seed=seed)
    stream = churn_stream(pts, delete_fraction=0.3, seed=seed)
    survivors = materialize(stream, d=2)
    pilot = estimate_opt_cost(survivors, 3, r=2.0, seed=seed)
    return stream, survivors, pilot


def _canonical(state_dict: dict) -> str:
    return json.dumps(state_dict, sort_keys=True)


def run_parallel_curve(n: int = 4000, delta: int = 1024,
                       workers: tuple = (2, 4), batch: int = 1024,
                       seed: int = 3) -> dict:
    """One in-process driver vs process-parallel ingest.

    Feed the identical chunked stream through one in-process
    :class:`ShardedIngest` (serial baseline) and, for each worker count W,
    ``WorkerPoolIngest(num_workers=W)``, timing enqueue *plus drain* for
    the pool (``worker_stats`` queues behind all batches), and check the
    pool's state folded to one driver is byte-identical to the serial
    driver's (the exact backend's live table is canonical, and with a
    guess window there is no pilot sampler).  Pool spawn time is reported
    separately — it is a fixed startup cost, not ingest throughput.
    """
    params = CoresetParams.practical(k=3, d=2, delta=delta)
    stream, _, pilot = _workload(n=n, delta=delta, seed=seed)
    orange = (pilot / 16, pilot / 4)
    events = list(stream)
    chunks = [events[lo: lo + batch] for lo in range(0, len(events), batch)]
    serial = ShardedIngest(params, seed=9, backend="exact", o_range=orange)
    t0 = time.perf_counter()
    for chunk in chunks:
        serial.apply_batch(chunk)
    serial_s = time.perf_counter() - t0
    serial_state = _canonical(streaming_state_to_dict(serial.driver))
    rows = []
    for w in workers:
        t0 = time.perf_counter()
        pool = WorkerPoolIngest(params, num_workers=w, seed=9,
                                backend="exact", o_range=orange)
        spawn_s = time.perf_counter() - t0
        try:
            t0 = time.perf_counter()
            for chunk in chunks:
                pool.apply_batch(chunk)
            pool.worker_stats()  # drain barrier: all batches processed
            pool_s = time.perf_counter() - t0
            identical = (_canonical(streaming_state_to_dict(pool.merged_state()))
                         == serial_state)
        finally:
            pool.close()
        rows.append({
            "workers": w,
            "events": len(events),
            "serial_s": round(serial_s, 3),
            "parallel_s": round(pool_s, 3),
            "spawn_s": round(spawn_s, 3),
            "serial_eps": int(len(events) / max(serial_s, 1e-9)),
            "parallel_eps": int(len(events) / max(pool_s, 1e-9)),
            "speedup": round(serial_s / max(pool_s, 1e-9), 2),
            "bit_identical": identical,
        })
    return {
        "bench": "service parallel vs serial ingest",
        "cpu_count": os.cpu_count(),
        "n_points": n,
        "delta": delta,
        "batch": batch,
        "rows": rows,
    }


def run_scalar_vs_batched(n: int = 4000, delta: int = 1024,
                          batch: int = 1024, seed: int = 3) -> dict:
    """Scalar per-event ``update`` vs vectorized ``update_batch``, same driver.

    The batched path is only allowed to exist because it is bit-identical
    to the scalar reference — this pass re-checks that on the bench
    workload (checkpoint bytes compared) while timing both, and records
    the speedup ratio so a regression that quietly falls back to scalar
    work shows up in the bench history.
    """
    params = CoresetParams.practical(k=3, d=2, delta=delta)
    stream, _, pilot = _workload(n=n, delta=delta, seed=seed)
    orange = (pilot / 16, pilot / 4)
    events = list(stream)

    from repro.service.state import streaming_state_to_dict
    from repro.streaming.streaming_coreset import StreamingCoreset

    scalar = StreamingCoreset(params, seed=9, backend="exact", o_range=orange)
    t0 = time.perf_counter()
    for ev in events:
        scalar.update(ev.point, ev.sign)
    scalar_s = time.perf_counter() - t0

    batched = StreamingCoreset(params, seed=9, backend="exact", o_range=orange)
    t0 = time.perf_counter()
    for lo in range(0, len(events), batch):
        batched.update_batch(events[lo: lo + batch])
    batched_s = time.perf_counter() - t0

    identical = (_canonical(streaming_state_to_dict(scalar))
                 == _canonical(streaming_state_to_dict(batched)))
    return {
        "bench": "scalar vs batched ingest",
        "n_points": n,
        "delta": delta,
        "batch": batch,
        "events": len(events),
        "scalar_s": round(scalar_s, 3),
        "batched_s": round(batched_s, 3),
        "scalar_eps": int(len(events) / max(scalar_s, 1e-9)),
        "batched_eps": int(len(events) / max(batched_s, 1e-9)),
        "scalar_vs_batched": round(scalar_s / max(batched_s, 1e-9), 2),
        "bit_identical": identical,
    }


def _percentiles(samples_s: list[float]) -> dict:
    """p50/p95/p99 of a latency sample, in milliseconds."""
    ms = np.asarray(samples_s) * 1e3
    return {p: round(float(np.percentile(ms, q)), 3)
            for p, q in (("p50", 50), ("p95", 95), ("p99", 99))}


def run_latency_percentiles(n: int = 3000, delta: int = 256,
                            batch: int = 256, queries: int = 12,
                            seed: int = 3) -> dict:
    """Tail-latency profile of one service: per-batch ingest, cold query
    (snapshot + assemble + solve after an invalidating ingest) and cached
    query (version-keyed memo hit).  Tails, not means — the p99 is what a
    caller sharing the server actually waits."""
    stream, _, pilot = _workload(n=n, delta=delta, seed=seed)
    events = list(stream)
    config = ServiceConfig(k=3, d=2, delta=delta, seed=9,
                           o_range=(pilot / 16, pilot / 4))
    svc = ClusteringService(config)
    try:
        ingest_s = []
        for lo in range(0, len(events), batch):
            t0 = time.perf_counter()
            svc.apply_events(events[lo: lo + batch])
            ingest_s.append(time.perf_counter() - t0)
        cold_s, cached_s = [], []
        probe = np.asarray([[1, 1]])
        for _ in range(queries):
            svc.insert(probe)  # bump the version: next query is a miss
            t0 = time.perf_counter()
            _, hit = svc.query()
            cold_s.append(time.perf_counter() - t0)
            assert not hit
            t0 = time.perf_counter()
            _, hit = svc.query()
            cached_s.append(time.perf_counter() - t0)
            assert hit
        return {
            "bench": "service latency percentiles",
            "n_points": n,
            "delta": delta,
            "batch": batch,
            "events": len(events) + queries,
            "queries": queries,
            "ingest_batch_ms": _percentiles(ingest_s),
            "query_cold_ms": _percentiles(cold_s),
            "query_cached_ms": _percentiles(cached_s),
        }
    finally:
        svc.close()


def _latency_rows(report: dict) -> list[list]:
    return [[name, report[key]["p50"], report[key]["p95"], report[key]["p99"]]
            for name, key in (("ingest batch", "ingest_batch_ms"),
                              ("query cold", "query_cold_ms"),
                              ("query cached", "query_cached_ms"))]


@pytest.mark.benchmark(group="service")
def test_service_latency_percentiles(benchmark):
    """Ingest/query tail latency; the cached-query tail must stay far below
    the cold-solve median."""
    report = run_latency_percentiles(n=2000, queries=8)
    print_table(
        f"service: latency percentiles (ms; batch={report['batch']}, "
        f"{report['events']} events)",
        ["path", "p50", "p95", "p99"],
        _latency_rows(report),
    )
    assert report["query_cached_ms"]["p99"] < report["query_cold_ms"]["p50"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="service")
def test_service_query_cache_latency(benchmark):
    """Cold query (snapshot + assemble + solve) vs memoized repeat query."""
    stream, survivors, pilot = _workload(n=3000)
    config = ServiceConfig(k=3, d=2, delta=1024, seed=9,
                           o_range=(pilot / 16, pilot / 4))
    svc = ClusteringService(config)
    svc.apply_events(stream)

    t0 = time.time()
    cold, hit_cold = svc.query()
    cold_s = time.time() - t0
    t0 = time.time()
    warm, hit_warm = svc.query()
    warm_s = time.time() - t0
    assert not hit_cold and hit_warm

    t0 = time.time()
    info = svc.checkpoint("/tmp/bench_service.ckpt.json")
    ckpt_s = time.time() - t0
    t0 = time.time()
    ClusteringService.restore("/tmp/bench_service.ckpt.json")
    restore_s = time.time() - t0

    print_table(
        "service: query & checkpoint latency",
        ["events", "|Q'|", "cold query s", "cached query s", "speedup",
         "checkpoint s", "restore s"],
        [[info["events"], cold.coreset_size, round(cold_s, 3),
          round(warm_s, 6), int(cold_s / max(warm_s, 1e-9)),
          round(ckpt_s, 3), round(restore_s, 3)]],
    )
    # The memoized path must be orders of magnitude below a fresh solve.
    assert warm_s < cold_s / 10
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="service")
def test_service_parallel_vs_serial_ingest(benchmark):
    """Worker-process ingest vs the one-driver in-process baseline.

    Correctness is unconditional: the pool's state, folded to one driver,
    must be byte-identical to the baseline's at every worker count.  The ≥2× throughput claim is
    asserted only on machines with ≥4 cores — on fewer cores the worker
    processes time-slice one CPU and the table just records the overhead.
    """
    report = run_parallel_curve(n=4000, delta=1024, workers=(2, 4),
                                batch=1024)
    print_table(
        f"service: parallel vs serial ingest "
        f"({report['cpu_count']} cores; batch={report['batch']})",
        ["workers", "events", "serial s", "parallel s", "spawn s",
         "serial ev/s", "parallel ev/s", "speedup", "bit-identical"],
        [[r["workers"], r["events"], r["serial_s"], r["parallel_s"],
          r["spawn_s"], r["serial_eps"], r["parallel_eps"], r["speedup"],
          r["bit_identical"]] for r in report["rows"]],
    )
    assert all(r["bit_identical"] for r in report["rows"])
    cores = os.cpu_count() or 1
    if cores >= 4:
        four = [r for r in report["rows"] if r["workers"] == 4]
        assert four and four[0]["speedup"] >= 2.0
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def _smoke(argv=None) -> dict:
    """Reduced curve for CI: 2 workers, small stream, appended JSON record."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes + append to BENCH_service.json")
    parser.add_argument("--workers", type=int, nargs="+", default=None)
    parser.add_argument("--n", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_service.json; runs append)")
    args = parser.parse_args(argv)
    if args.smoke:
        n = args.n or 1500
        workers = tuple(args.workers or (2,))
        delta, batch, queries = 256, 512, 6
    else:
        n = args.n or 4000
        workers = tuple(args.workers or (2, 4))
        delta, batch, queries = 1024, 1024, 12
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    report = run_parallel_curve(n=n, delta=delta, workers=workers,
                                batch=batch)
    report["timestamp"] = stamp
    latency = run_latency_percentiles(n=n, delta=delta,
                                      batch=batch, queries=queries)
    latency["timestamp"] = stamp
    vector = run_scalar_vs_batched(n=n, delta=delta, batch=batch)
    vector["timestamp"] = stamp
    out = append_bench_record(report, out=args.out)
    append_bench_record(latency, out=args.out)
    append_bench_record(vector, out=args.out)
    print_table(
        f"service: parallel vs serial ingest smoke "
        f"({report['cpu_count']} cores) -> {out}",
        ["workers", "events", "serial s", "parallel s", "spawn s",
         "speedup", "bit-identical"],
        [[r["workers"], r["events"], r["serial_s"], r["parallel_s"],
          r["spawn_s"], r["speedup"], r["bit_identical"]]
         for r in report["rows"]],
    )
    print_table(
        f"service: latency percentiles (ms; batch={latency['batch']})",
        ["path", "p50", "p95", "p99"],
        _latency_rows(latency),
    )
    print_table(
        f"service: scalar vs batched ingest (batch={vector['batch']})",
        ["events", "scalar ev/s", "batched ev/s", "speedup", "bit-identical"],
        [[vector["events"], vector["scalar_eps"], vector["batched_eps"],
          vector["scalar_vs_batched"], vector["bit_identical"]]],
    )
    if not all(r["bit_identical"] for r in report["rows"]):
        raise SystemExit("FAIL: parallel ingest state diverged from serial")
    if not vector["bit_identical"]:
        raise SystemExit("FAIL: batched ingest state diverged from scalar")
    if vector["scalar_vs_batched"] < 1.0:
        raise SystemExit(
            f"FAIL: batched ingest slower than scalar "
            f"({vector['batched_eps']} vs {vector['scalar_eps']} ev/s)")
    return report


if __name__ == "__main__":
    _smoke()
