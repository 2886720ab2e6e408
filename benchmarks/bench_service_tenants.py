"""Multi-tenant service benchmark — interleaved streams, isolation, eviction.

Drives one async server with N named streams from concurrent clients and
measures aggregate ingest/query throughput while a small
``max_live_tenants`` budget forces LRU evict → restore churn underneath.
Correctness rides along: a sample of tenants is re-answered by reference
single-tenant services built from ``tenant_config(stream_id)`` and must
match bit-identically.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_service_tenants.py           # in-process
    PYTHONPATH=src python benchmarks/bench_service_tenants.py --smoke   # subprocess

``--smoke`` (the CI async-service check, ``make bench-tenants-smoke``)
boots a real ``python -m repro serve`` subprocess, drives 3 tenants
concurrently over TCP, asserts isolation, and shuts the server down over
the wire.  Both modes append a record to ``BENCH_service.json``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from common import append_bench_record, print_table
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    TenantRegistry,
    start_async_server,
)

# Small-but-real tenant shape (matches tests/test_service_tenants.py): a
# tenant costs ~50 ms to create and ~10 ms to query, so eviction churn —
# not sketch construction — dominates what this bench measures.
CHEAP = dict(k=2, d=2, delta=32, seed=11,
             o_range=(1.0, 8.0), restarts=1)


def stream_points(stream_id: str, n: int, delta: int = 32,
                  d: int = 2) -> np.ndarray:
    rng = np.random.default_rng(zlib.crc32(stream_id.encode()))
    return rng.integers(0, delta + 1, size=(n, d))


def _reference_answer(config: ServiceConfig, batches: int,
                      batch_n: int, sid: str) -> dict:
    ref = ClusteringService(config)
    try:
        for _ in range(batches):
            ref.insert(stream_points(sid, batch_n))
        result, _ = ref.query()
        return json.loads(json.dumps(result.to_dict()))
    finally:
        ref.close()


def run_tenant_bench(n_tenants: int = 24, max_live: int = 8,
                     batches: int = 2, batch_n: int = 64,
                     drivers: int = 4, check_sample: int = 6,
                     tenants_dir=None) -> dict:
    """N interleaved tenants against one in-process async server.

    ``drivers`` client threads partition the tenants and interleave their
    ingest batches, then every tenant is queried; ``check_sample`` of the
    answers are verified against reference single-tenant services.
    """
    config = ServiceConfig(**CHEAP)
    own_dir = tenants_dir is None
    if own_dir:
        tenants_dir = tempfile.mkdtemp(prefix="bench_tenants_")
    registry = TenantRegistry(config, tenants_dir=tenants_dir,
                              max_live_tenants=max_live)
    server, thread = start_async_server(registry)
    host, port = server.address
    streams = [f"t{i:03d}" for i in range(n_tenants)]
    errors: list[BaseException] = []

    def drive(mine: list[str]) -> None:
        try:
            with ServiceClient(host, port) as cli:
                for b in range(batches):  # interleave: batch b of every stream
                    for sid in mine:
                        cli.stream_id = sid
                        cli.insert(stream_points(sid, batch_n))
                for sid in mine:
                    cli.stream_id = sid
                    cli.query()
        except BaseException as exc:
            errors.append(exc)

    try:
        t0 = time.perf_counter()
        workers = [threading.Thread(target=drive, args=(streams[i::drivers],))
                   for i in range(drivers)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(600)
        elapsed = time.perf_counter() - t0
        if errors:
            raise errors[0]

        rows = {t["stream_id"]: t for t in registry.overview()}
        evictions = sum(t.get("evictions", 0) for t in rows.values())
        restores = sum(t.get("restores", 0) for t in rows.values())

        sample = streams[:: max(1, n_tenants // max(1, check_sample))]
        isolated = True
        with ServiceClient(host, port) as cli:
            for sid in sample:
                cli.stream_id = sid
                got = cli.query()
                got.pop("cache_hit")
                want = _reference_answer(registry.tenant_config(sid),
                                         batches, batch_n, sid)
                isolated = isolated and got == want

        events = n_tenants * batches * batch_n
        return {
            "bench": "service multi-tenant interleaved",
            "cpu_count": os.cpu_count(),
            "tenants": n_tenants,
            "max_live": max_live,
            "drivers": drivers,
            "events": events,
            "queries": n_tenants,
            "elapsed_s": round(elapsed, 3),
            "events_per_s": int(events / max(elapsed, 1e-9)),
            "evictions": evictions,
            "restores": restores,
            "live_at_end": registry.live_count(),
            "isolated_sample": len(sample),
            "isolated": isolated,
        }
    finally:
        server.shutdown()
        thread.join(10)
        registry.close(persist=not own_dir)


def run_subprocess_smoke(n_tenants: int = 3, batch_n: int = 160) -> dict:
    """Boot ``python -m repro serve`` for real and drive it concurrently.

    The CI async-service check: a subprocess server on an OS-assigned port,
    ``n_tenants`` clients ingesting and querying their own streams at the
    same time, isolation asserted against local references, clean wire
    shutdown.  Uses the CLI's default config so it exercises exactly what
    ``repro serve`` ships.
    """
    config = ServiceConfig(k=2, d=2, delta=32, seed=7)
    with tempfile.TemporaryDirectory(prefix="smoke_tenants_") as td:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--k", "2", "--d", "2", "--delta", "32",
             "--tenants-dir", td, "--max-live-tenants", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        try:
            line = proc.stdout.readline()
            m = re.search(r"listening on ([\d.]+):(\d+)", line)
            if not m:
                raise RuntimeError(f"server did not start: {line!r}")
            host, port = m.group(1), int(m.group(2))

            streams = [f"smoke{i}" for i in range(n_tenants)]
            errors: list[BaseException] = []
            answers: dict[str, dict] = {}

            def drive(sid: str) -> None:
                try:
                    with ServiceClient(host, port, stream_id=sid) as cli:
                        cli.insert(stream_points(sid, batch_n))
                        got = cli.query()
                        got.pop("cache_hit")
                        answers[sid] = got
                except BaseException as exc:
                    errors.append(exc)

            t0 = time.perf_counter()
            workers = [threading.Thread(target=drive, args=(sid,))
                       for sid in streams]
            for w in workers:
                w.start()
            for w in workers:
                w.join(120)
            elapsed = time.perf_counter() - t0
            if errors:
                raise errors[0]

            ref_registry = TenantRegistry(config)  # config math only
            isolated = all(
                answers[sid] == _reference_answer(
                    ref_registry.tenant_config(sid), 1, batch_n, sid)
                for sid in streams)
            ref_registry.close()

            with ServiceClient(host, port) as cli:
                n_known = len(cli.tenants())
                cli.shutdown()
            proc.wait(timeout=30)
            return {
                "bench": "service tenants subprocess smoke",
                "tenants": n_tenants,
                "events": n_tenants * batch_n,
                "elapsed_s": round(elapsed, 3),
                "tenants_seen_by_server": n_known,
                "isolated": isolated,
                "exit_code": proc.returncode,
            }
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


@pytest.mark.benchmark(group="service")
def test_service_tenants_interleaved(benchmark):
    """Interleaved multi-tenant ingest/query with eviction churn underneath;
    sampled answers must match single-tenant references bit-identically."""
    report = run_tenant_bench(n_tenants=12, max_live=4, batches=2,
                              batch_n=48, drivers=4, check_sample=4)
    print_table(
        f"service: {report['tenants']} tenants, max_live="
        f"{report['max_live']} ({report['cpu_count']} cores)",
        ["events", "sec", "events/s", "evictions", "restores",
         "live at end", "isolated"],
        [[report["events"], report["elapsed_s"], report["events_per_s"],
          report["evictions"], report["restores"], report["live_at_end"],
          report["isolated"]]],
    )
    assert report["isolated"]
    assert report["evictions"] > 0 and report["restores"] > 0
    assert report["live_at_end"] <= report["max_live"]
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="subprocess server + 3 concurrent tenants "
                             "(the CI async-service check)")
    parser.add_argument("--tenants", type=int, default=None)
    parser.add_argument("--max-live", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_service.json; runs append)")
    args = parser.parse_args(argv)
    if args.smoke:
        report = run_subprocess_smoke(n_tenants=args.tenants or 3)
        print_table(
            "service: subprocess async smoke -> shutdown over the wire",
            ["tenants", "events", "sec", "seen by server", "isolated",
             "exit code"],
            [[report["tenants"], report["events"], report["elapsed_s"],
              report["tenants_seen_by_server"], report["isolated"],
              report["exit_code"]]],
        )
    else:
        report = run_tenant_bench(n_tenants=args.tenants or 24,
                                  max_live=args.max_live or 8)
        print_table(
            f"service: {report['tenants']} tenants, max_live="
            f"{report['max_live']} ({report['cpu_count']} cores)",
            ["events", "sec", "events/s", "evictions", "restores",
             "live at end", "isolated"],
            [[report["events"], report["elapsed_s"], report["events_per_s"],
              report["evictions"], report["restores"], report["live_at_end"],
              report["isolated"]]],
        )
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = append_bench_record(report, out=args.out)
    print(f"appended record to {out}")
    if not report["isolated"]:
        raise SystemExit("FAIL: tenant answers diverged from references")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
