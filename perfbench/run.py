"""Service benchmark: one workload against a ``repro serve`` subprocess.

Run from the root of a checkout::

    python3 perfbench/run.py --workload window-ingest --seed 1 --seconds 8 --trace 0

``--trace 0`` measures the end-to-end metrics on the stock server.
``--trace 1`` runs the workload twice -- once on the stock server, once on
a server started through ``traced_serve.py`` -- and reports per-layer
self time and counts from the traced run plus the tracing overhead.

Human-readable lines come first (every metric with its unit and sample
count, then a config record); the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: name -> (unit, better) of every end-to-end metric, in report order.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ingest_eps": ("events/s", "higher"),
    "ingest_ms_p50": ("ms", "lower"),
}


def _median(values) -> float:
    return float(statistics.median(values)) if values else float("nan")


def end_to_end_metrics(res) -> dict:
    values = {
        "setup_s": _median(res.setup_s),
        "ingest_eps": res.ingest_eps,
        "ingest_ms_p50": _median(res.write_ms),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, (unit, _) in END_TO_END.items()}


def _p90(samples) -> float:
    return float(np.percentile(np.asarray(samples, dtype=np.float64), 90))


def report_lines(res) -> list[str]:
    """Every measured figure with its unit and sample count."""
    lines = [
        f"setup_s              {_median(res.setup_s):.4f} s   (median of {len(res.setup_s)})",
        f"ingest_eps           {res.ingest_eps:.2f} events/s   ({res.timed_events} events "
        f"in {res.timed_s:.3f} s)",
        f"ingest_ms_p50        {_median(res.write_ms):.3f} ms   (n={len(res.write_ms)})",
    ]
    if len(res.write_ms) >= 100:
        lines.append(f"ingest_ms_p90        {_p90(res.write_ms):.3f} ms   "
                     f"(n={len(res.write_ms)})")
    if res.cold_query_ms:
        lines.append(f"query_ms_p50         {_median(res.cold_query_ms):.3f} ms   "
                     f"(n={len(res.cold_query_ms)} cold, timed phase)")
    if res.cached_query_ms:
        lines.append(f"cached_query_ms_p50  {_median(res.cached_query_ms):.4f} ms   "
                     f"(n={len(res.cached_query_ms)})")
    if res.pull_state_ms:
        lines += [
            f"touch_ms_p50         {_median(res.write_ms):.3f} ms   "
            f"(n={len(res.write_ms)}; = ingest_ms_p50: inserts that restore a cold tenant)",
            f"hot_write_ms_p50     {_median(res.hot_write_ms):.3f} ms   "
            f"(n={len(res.hot_write_ms)}; deletes to the then-live tenant)",
            f"pull_state_ms_p50    {_median(res.pull_state_ms):.3f} ms   "
            f"(n={len(res.pull_state_ms)})",
            f"state_bytes          {res.state_bytes} bytes   (final pull_state reply)",
        ]
    lines += [
        f"server_rss_mb        {res.server_rss_mb:.1f} MiB   (VmHWM at the end of the timed phase)",
        f"op_fail_ratio        {res.failed / max(res.attempted, 1):.4f}   "
        f"({res.failed} of {res.attempted} ops)",
    ]
    lines += [f"error: {e}" for e in res.errors]
    return lines


def config_record(spec, seed: int, res) -> dict:
    """The configuration a figure from this run belongs to."""
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    server = res.server_config
    return {
        "workload": spec.name,
        "backend": spec.backend,
        "guess_window": "auto",
        "shards": server.get("num_shards"),
        "workers": 0 if server.get("mode") == "in-process" else server.get("mode"),
        "tenants": [t or "default" for t in spec.tenants],
        "max_live_tenants": spec.max_live_tenants,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from harness import RUN_DIR, WORKLOADS, run_workload

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2

    try:
        if args.trace:
            import tracing

            base = run_workload(spec, args.seed, args.seconds, setup_reps=1,
                                check_reference=False)
            recorder = tracing.SpanRecorder()
            res = run_workload(spec, args.seed, args.seconds, traced=True,
                               setup_reps=1, client_recorder=recorder)
            runs = (base, res)
            if res.server_spans is not None:
                t0, t1 = res.timed_window
                metrics = tracing.layer_metrics(
                    res.server_spans, recorder.columns(), t0, t1,
                    overhead_ratio=(base.ingest_eps / res.ingest_eps
                                    if res.ingest_eps else float("nan")),
                    events_per_shard=res.events_per_shard)
            else:
                metrics = {}
        else:
            res = run_workload(spec, args.seed, args.seconds)
            runs = (res,)
            metrics = end_to_end_metrics(res)
    finally:
        try:
            RUN_DIR.rmdir()
        except OSError:
            pass

    for run in runs:
        label = "traced" if run.server_spans is not None else "untraced"
        print(f"# {spec.name} seed={args.seed} ({label} run)")
        for line in report_lines(run):
            print("  " + line)
    if args.trace:
        print(f"# per-layer metrics ({spec.name}, traced timed phase)")
        for name, m in metrics.items():
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"config": config_record(spec, args.seed, res)}))
    correct = all(r.correct for r in runs) and bool(metrics)
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            correct = False
            m["value"] = None
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
