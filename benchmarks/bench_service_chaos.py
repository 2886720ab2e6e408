"""Chaos smoke benchmark — a seeded fault plan against the live service.

Runs the robustness stack end to end: a :class:`~repro.service.faults.
FaultPlan` kills shard workers (SIGKILL and soft crash), drops connections
around insert/delete requests (before *and* after execution), and fails a
checkpoint write, while a resilient :class:`ServiceClient` ingests a churn
workload.  The pass bar is the same as ``tests/test_service_chaos.py``:
the faulted service's serialized sketch state must be bit-identical to a
fault-free in-process reference fed the same logical stream — no event
lost, none double-counted — and a co-resident steady tenant must be
untouched by the chaos tenant's faults.

Also runnable as a script::

    PYTHONPATH=src python benchmarks/bench_service_chaos.py           # in-process
    PYTHONPATH=src python benchmarks/bench_service_chaos.py --smoke   # subprocess

``--smoke`` (the CI chaos check, ``make chaos-smoke``) boots a real
``python -m repro serve --fault-plan ...`` subprocess so the plan rides
the exact activation path operators use, drives the workload over TCP,
and shuts the server down over the wire.  Both modes append a record to
``BENCH_service.json``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from common import append_bench_record, print_table
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    TenantRegistry,
    faults,
    start_async_server,
)
from repro.service.state import sharded_state_from_dict

#: Service shape under chaos: 2 supervised workers per tenant, so a kill
#: costs a respawn + journal replay, not the run.  Only fields the ``serve``
#: CLI exposes — the smoke's local references must mirror the subprocess
#: server's config exactly (``o_range`` etc. shape the sketch state).
CHAOS_CONFIG = dict(k=3, d=2, delta=128, workers=2, seed=17)

#: One seeded plan covering the whole failure menagerie; ``decide()`` is
#: deterministic, so every run fires the same schedule.
CHAOS_PLAN_SPEC = {
    "seed": 99,
    "rules": [
        {"point": "worker.kill", "mode": "hard", "after": 2, "times": 1},
        {"point": "worker.kill", "mode": "soft", "after": 9, "times": 1},
        {"point": "server.reset", "after": 2, "times": 3,
         "match": {"op": "insert"}},
        {"point": "server.reset", "after": 1, "times": 1,
         "match": {"op": "delete"}},
        {"point": "server.reset", "mode": "pre", "times": 1,
         "match": {"op": "insert"}},
        {"point": "checkpoint.write", "times": 1},
    ],
}


def chaos_workload(delta: int = 128, n: int = 4000, seed: int = 23):
    """Deterministic churn workload: 12 insert chunks, 3 delete chunks
    (every delete removes a previously inserted point)."""
    rng = np.random.default_rng(seed)
    pts = np.unique(rng.integers(1, delta + 1, size=(n, 2)), axis=0)
    return np.array_split(pts, 12), np.array_split(pts[::3][:120], 3)


def _reference_for(config: ServiceConfig) -> ClusteringService:
    """Fault-free in-process oracle: the same config with ``workers=0``."""
    return ClusteringService(dataclasses.replace(config, workers=0))


def _folded_json(ingest_state: dict) -> str:
    """Canonical JSON of a checkpoint's ingest state folded to one driver.

    The ℓ₀ pilot's buckets are sorted: a fold adds the shards' buckets in
    shard order rather than stream order, and the sampler sorts what it
    decodes, so their contents, not their order, are the state.
    """
    state = sharded_state_from_dict(ingest_state).to_state_dict()
    for shard in state["shards"]:
        if shard["pilot"] is not None:
            shard["pilot"] = [sorted(rows) for rows in shard["pilot"]]
    return json.dumps(state, sort_keys=True)


def drive_chaos_tenant(host: str, port: int, sid: str, ckpt_path,
                       reference: ClusteringService) -> dict:
    """Push the chaos workload through one tenant, mirroring every op into
    ``reference``; returns events/stats plus the bit-identity verdict."""
    ins, dels = chaos_workload()
    events = 0
    with ServiceClient(host, port, stream_id=sid, retries=6,
                       backoff_s=0.02) as cli:
        for chunk in ins[:8]:
            events += cli.insert(chunk)
            reference.insert(chunk)
        try:
            cli.checkpoint(ckpt_path)
            ckpt_write_failed = False
        except ServiceError as exc:
            ckpt_write_failed = "injected checkpoint" in str(exc)
        cli.checkpoint(ckpt_path)  # rule exhausted: the retry lands
        for chunk in dels:
            events += cli.delete(chunk)
            reference.delete(chunk)
        for chunk in ins[8:]:
            events += cli.insert(chunk)
            reference.insert(chunk)
        cli.checkpoint(ckpt_path)
        stats = cli.stats()
        reconnects = cli.reconnects
    payload = json.loads(Path(ckpt_path).read_text(encoding="utf-8"))
    identical = (_folded_json(payload["ingest"])
                 == _folded_json(reference.ingest.to_state_dict()))
    ref_stats = reference.stats()
    ledger_ok = all(stats[k] == ref_stats[k]
                    for k in ("events", "insertions", "deletions", "version"))
    return {
        "events": events,
        "reconnects": reconnects,
        "restarts": stats.get("restarts", 0),
        "recovery_events": len(stats.get("recovery_events", [])),
        "fire_counts": stats.get("fault_plan", {}).get("fire_counts", {}),
        "ckpt_write_failed": ckpt_write_failed,
        "identical": identical,
        "ledger_ok": ledger_ok,
    }


def _check_steady_tenant(host: str, port: int, sid: str,
                         config: ServiceConfig) -> bool:
    """A clean tenant next to the chaos one must answer bit-identically to
    its own fault-free reference — chaos does not leak across tenants."""
    rng = np.random.default_rng(5)
    pts = rng.integers(1, 129, size=(200, 2))
    ref = _reference_for(config)
    try:
        with ServiceClient(host, port, stream_id=sid) as cli:
            cli.insert(pts)
            got = cli.query()
            got.pop("cache_hit")
        ref.insert(pts)
        result, _ = ref.query()
        return got == json.loads(json.dumps(result.to_dict()))
    finally:
        ref.close()


def _verdict(chaos: dict, steady_ok: bool) -> bool:
    fires = chaos["fire_counts"]
    return bool(
        chaos["identical"] and chaos["ledger_ok"] and steady_ok
        and chaos["ckpt_write_failed"]
        and chaos["restarts"] >= 2
        and fires.get("worker.kill", 0) >= 2
        and fires.get("server.reset", 0) >= 5
        and fires.get("checkpoint.write", 0) >= 1)


def run_chaos_inprocess() -> dict:
    """In-process async server + installed plan (no subprocess)."""
    config = ServiceConfig(**CHAOS_CONFIG)
    faults.install(faults.plan_from_spec(CHAOS_PLAN_SPEC))
    registry = TenantRegistry(config)
    server, thread = start_async_server(registry)
    host, port = server.address
    reference = _reference_for(registry.tenant_config("chaos"))
    try:
        with tempfile.TemporaryDirectory(prefix="chaos_bench_") as td:
            t0 = time.perf_counter()
            chaos = drive_chaos_tenant(host, port, "chaos",
                                       Path(td) / "chaos.ckpt.json",
                                       reference)
            steady_ok = _check_steady_tenant(
                host, port, "steady", registry.tenant_config("steady"))
            elapsed = time.perf_counter() - t0
        return {
            "bench": "service chaos in-process",
            "cpu_count": os.cpu_count(),
            "elapsed_s": round(elapsed, 3),
            "events_per_s": int(chaos["events"] / max(elapsed, 1e-9)),
            "steady_isolated": steady_ok,
            "passed": _verdict(chaos, steady_ok),
            **chaos,
        }
    finally:
        server.shutdown()
        thread.join(10)
        registry.close()
        reference.close()
        faults.uninstall()


def run_subprocess_smoke() -> dict:
    """Boot ``python -m repro serve --fault-plan ...`` and survive it.

    The CI chaos check: the plan is activated exactly the way operators
    activate it (CLI flag with inline JSON), the workload rides real TCP,
    and the server is shut down over the wire afterwards.
    """
    config = ServiceConfig(**CHAOS_CONFIG)
    with tempfile.TemporaryDirectory(prefix="chaos_smoke_") as td:
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--k", "3", "--d", "2", "--delta", "128", "--workers", "2",
             "--seed", "17", "--fault-plan", json.dumps(CHAOS_PLAN_SPEC)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ,
                 "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        reference = None
        try:
            host = port = None
            for _ in range(10):  # scalar-ok: startup banner scan, not data plane
                line = proc.stdout.readline()
                if "fault plan installed" in line:
                    continue
                m = re.search(r"listening on ([\d.]+):(\d+)", line)
                if m:
                    host, port = m.group(1), int(m.group(2))
                break
            if host is None:
                raise RuntimeError(f"server did not start: {line!r}")

            # Config math only: per-tenant derived configs for references.
            ref_registry = TenantRegistry(config)
            chaos_cfg = ref_registry.tenant_config("chaos")
            steady_cfg = ref_registry.tenant_config("steady")
            ref_registry.close()
            reference = _reference_for(chaos_cfg)

            t0 = time.perf_counter()
            chaos = drive_chaos_tenant(host, port, "chaos",
                                       Path(td) / "chaos.ckpt.json",
                                       reference)
            steady_ok = _check_steady_tenant(host, port, "steady", steady_cfg)
            elapsed = time.perf_counter() - t0

            with ServiceClient(host, port) as cli:
                cli.shutdown()
            proc.wait(timeout=30)
            return {
                "bench": "service chaos subprocess smoke",
                "elapsed_s": round(elapsed, 3),
                "events_per_s": int(chaos["events"] / max(elapsed, 1e-9)),
                "steady_isolated": steady_ok,
                "exit_code": proc.returncode,
                "passed": _verdict(chaos, steady_ok),
                **chaos,
            }
        finally:
            if reference is not None:
                reference.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="subprocess server via --fault-plan "
                             "(the CI chaos check)")
    parser.add_argument("--out", default=None,
                        help="output JSON path (default: repo-root "
                             "BENCH_service.json; runs append)")
    args = parser.parse_args(argv)
    report = run_subprocess_smoke() if args.smoke else run_chaos_inprocess()
    fires = report["fire_counts"]
    print_table(
        f"{report['bench']}: kills/resets/ckpt-fails = "
        f"{fires.get('worker.kill', 0)}/{fires.get('server.reset', 0)}/"
        f"{fires.get('checkpoint.write', 0)}",
        ["events", "sec", "events/s", "restarts", "reconnects",
         "identical", "ledger ok", "steady", "passed"],
        [[report["events"], report["elapsed_s"], report["events_per_s"],
          report["restarts"], report["reconnects"], report["identical"],
          report["ledger_ok"], report["steady_isolated"],
          report["passed"]]],
    )
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    out = append_bench_record(report, out=args.out)
    print(f"appended record to {out}")
    if not report["passed"]:
        raise SystemExit("FAIL: chaos run diverged from fault-free reference")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
