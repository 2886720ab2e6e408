"""Closed-loop workloads against a ``repro serve`` subprocess.

One benchmark process drives one server process over one
:class:`~repro.service.client.ServiceClient` connection.  The loop is
closed: the next request goes out only after the previous reply, because
the service's callers wait for each ack (the replay cache assumes a
client never pipelines mutations).

A run has three phases:

* **set-up** (``setup_s``): launch the server, create the workload's
  tenants and preload their windows.  Repeated ``setup_reps`` times on
  fresh servers; the last server is kept, warmed up with untimed cycles.
* **timed**: whole cycles of the workload for about ``seconds``.
* **closing** (untimed): a final query, memoized queries, ``stats``, then
  the correctness gate against an in-process reference fed the very same
  requests.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from loadgen import D, K, Window, make_pool

__all__ = ["Spec", "WORKLOADS", "RunResult", "run_workload"]

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for server logs, tenant directories and span files; it
#: lives inside the checkout and is removed after every run.
RUN_DIR = ROOT / ".perfbench_run"

#: Memoized queries sent after the final cold query of every workload.
CACHED_PROBE = 200

#: The server's hash seed (the ``repro serve`` default).  It is held
#: constant so that only the workload seed varies between runs.
SERVER_SEED = 7


@dataclass(frozen=True)
class Spec:
    """One workload: server flags, tenant layout and cycle shape."""

    name: str
    why: str
    window: int                 # points preloaded per tenant
    batch: int                  # events per timed insert/delete request
    backend: str = "exact"
    tenants: tuple = (None,)    # None addresses the default tenant
    max_live_tenants: int | None = None
    cold_query: bool = False    # a cold query (plus cached ones) per cycle
    cached_per_cycle: int = 0
    pull_state: bool = False    # cold insert, hot delete, pull_state per cycle; tenants in turn
    setup_reps: int = 3
    #: Untimed cycles between set-up and the timed phase, so one-off costs
    #: (lazy imports, the first query's allocations) stay out of the timing.
    warmup_cycles: int = 1
    preload_chunk: int = 4096   # the stock client's batch size
    delta: int = 1024


WORKLOADS = {
    spec.name: spec for spec in (
        Spec("window-ingest",
             "pure writes on an 8192-point sliding window: protocol, shards, "
             "grid/hashing and the per-guess storing scatter do the work",
             window=8192, batch=512),
        Spec("fresh-query",
             "8+8 events then a cold query and cached ones per cycle: merge, "
             "pilot, decode, assemble and solve do the work",
             window=8192, batch=8, cold_query=True, cached_per_cycle=4),
        Spec("tenant-churn",
             "3 tenants, 2 live: each cycle's insert restores a cold tenant and "
             "evicts another; a delete and pull_state follow (state codec, disk)",
             window=256, batch=128, tenants=("t0", "t1", "t2"),
             max_live_tenants=2, pull_state=True),
        Spec("sketch-window",
             "the paper's IBLT Storing backend on a 256-point window with "
             "64-event writes: the only workload exercising the sketch layer",
             window=256, batch=64, backend="sketch", setup_reps=1,
             warmup_cycles=0),
    )
}


@dataclass
class RunResult:
    """Everything one workload run measured and checked."""

    spec: Spec
    setup_s: list = field(default_factory=list)
    write_ms: list = field(default_factory=list)      # on tenant-churn: cold touches
    hot_write_ms: list = field(default_factory=list)  # tenant-churn: writes to a live tenant
    cold_query_ms: list = field(default_factory=list)
    cached_query_ms: list = field(default_factory=list)
    pull_state_ms: list = field(default_factory=list)
    state_bytes: int = 0
    timed_events: int = 0
    timed_s: float = 0.0
    timed_window: tuple = (0.0, 0.0)   # monotonic clock, for span filtering
    server_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    server_config: dict = field(default_factory=dict)
    events_per_shard: list = field(default_factory=list)
    server_spans: dict | None = None   # traced runs: the server's span columns

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0

    @property
    def ingest_eps(self) -> float:
        return self.timed_events / self.timed_s if self.timed_s > 0 else 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)


# ------------------------------------------------------------------ server
class ServerProcess:
    """One ``repro serve`` subprocess on an ephemeral localhost port."""

    def __init__(self, spec: Spec, workdir: Path, spans_path: Path | None = None):
        args = ["serve", "--host", "127.0.0.1", "--port", "0",
                "--k", str(K), "--d", str(D),
                "--delta", str(spec.delta), "--seed", str(SERVER_SEED)]
        if spec.backend != "exact":
            args += ["--backend", spec.backend]
        if spec.max_live_tenants is not None:
            tenants_dir = Path(tempfile.mkdtemp(prefix="tenants-", dir=workdir))
            args += ["--tenants-dir", str(tenants_dir),
                     "--max-live-tenants", str(spec.max_live_tenants)]
        if spans_path is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
                   str(spans_path), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        fd, log_name = tempfile.mkstemp(prefix="serve-", suffix=".log", dir=workdir)
        os.close(fd)
        self.log_path = Path(log_name)
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT,
                                     stdin=subprocess.DEVNULL)
        self.port = self._wait_listening(timeout=120.0)

    def _wait_listening(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            for line in self.log_path.read_text(errors="replace").splitlines():
                if " listening on " in line:
                    return int(line.split(" listening on ")[1].split()[0]
                               .rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        self.kill()
        raise RuntimeError("server did not start:\n"
                           + self.log_path.read_text(errors="replace")[-2000:])

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the server process, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self, client, graceful: bool = False) -> None:
        """Stop the server and wait for the process.

        A graceful stop sends the ``shutdown`` op, so the program unwinds
        normally (the span launcher writes its spans on the way out, and
        a server with a tenants dir persists its live tenants).  Otherwise
        the process is killed: nothing it would still write is needed.
        """
        try:
            if graceful:
                client.shutdown()
        except Exception:
            pass
        finally:
            client.close()
        if graceful:
            try:
                self.proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                pass
        self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._log.close()


# ---------------------------------------------------------------- workload
class _Driver:
    """Sends one workload's requests and keeps the ledgers in step."""

    def __init__(self, spec: Spec, seed: int, result: RunResult):
        self.spec = spec
        self.client = None  # set once the server is up
        self.result = result
        pool = make_pool(seed, delta=spec.delta)
        # Tenants walk disjoint stretches of one pool, so each one's window
        # stays a set however the pool cycles.
        parts = np.array_split(pool, len(spec.tenants))
        self.windows = {sid: Window(part, spec.delta)
                        for sid, part in zip(spec.tenants, parts)}
        self.last_state: dict = {}
        self.last_pull: dict | None = None

    def _request(self, op: str, sid, **fields) -> dict:
        self.result.attempted += 1
        if sid is not None:
            fields["stream_id"] = sid
        return self.client.request(op, **fields)

    def write(self, sid, op: str, n: int) -> float:
        """One insert/delete request; returns its round trip in ms."""
        win = self.windows[sid]
        idx = win.next_inserts(n) if op == "insert" else win.oldest(n)
        rows = win.rows(idx)
        t = time.perf_counter()
        resp = self._request(op, sid, points=rows.tolist())
        ms = (time.perf_counter() - t) * 1e3
        if int(resp.get("applied", -1)) != len(rows):
            raise RuntimeError(f"{op} acknowledged {resp.get('applied')} of {len(rows)}")
        win.commit(op, idx)
        return ms

    def query(self, sid) -> tuple[float, dict]:
        t = time.perf_counter()
        resp = self._request("query", sid)
        ms = (time.perf_counter() - t) * 1e3
        return ms, dict(resp["result"], cache_hit=bool(resp["cache_hit"]))

    def pull_state(self, sid) -> float:
        t = time.perf_counter()
        resp = self._request("pull_state", sid)
        ms = (time.perf_counter() - t) * 1e3
        self.last_pull = resp
        self.last_state[sid] = resp["state"]
        return ms

    def preload(self) -> None:
        for sid in self.spec.tenants:
            left = self.spec.window
            while left > 0:
                n = min(left, self.spec.preload_chunk)
                self.write(sid, "insert", n)
                left -= n

    def cycle(self, i: int) -> int:
        """One closed-loop cycle; returns the events it acknowledged."""
        spec, res = self.spec, self.result
        if spec.pull_state:
            # The insert touches a cold tenant (restore + evict); the delete
            # that follows hits it while live.  Every restore, eviction and
            # pull thus handles a tenant at its preload size, whatever the
            # cycle count.
            sid = spec.tenants[i % len(spec.tenants)]
            res.write_ms.append(self.write(sid, "insert", spec.batch))
            res.hot_write_ms.append(self.write(sid, "delete", spec.batch))
            res.pull_state_ms.append(self.pull_state(sid))
            return 2 * spec.batch
        sid = spec.tenants[0]
        res.write_ms.append(self.write(sid, "insert", spec.batch))
        res.write_ms.append(self.write(sid, "delete", spec.batch))
        if spec.cold_query:
            ms, answer = self.query(sid)
            (res.cached_query_ms if answer["cache_hit"] else res.cold_query_ms).append(ms)
            for _ in range(spec.cached_per_cycle):
                ms, answer = self.query(sid)
                (res.cached_query_ms if answer["cache_hit"]
                 else res.cold_query_ms).append(ms)
        return 2 * spec.batch

    def last_touched(self, cycles: int):
        if self.spec.pull_state and cycles:
            return self.spec.tenants[(cycles - 1) % len(self.spec.tenants)]
        return self.spec.tenants[0]


def _setup(spec: Spec, seed: int, workdir: Path, result: RunResult,
           spans_path: Path | None):
    """Launch a server and preload its tenants; returns (server, driver)."""
    from repro.service import ServiceClient

    driver = _Driver(spec, seed, result)
    t = time.perf_counter()
    server = ServerProcess(spec, workdir, spans_path=spans_path)
    driver.client = ServiceClient("127.0.0.1", server.port, timeout=170.0, retries=0)
    try:
        driver.preload()
    except BaseException:
        driver.client.close()
        server.kill()
        raise
    result.setup_s.append(time.perf_counter() - t)
    return server, driver


def run_workload(spec: Spec, seed: int, seconds: float, *, traced: bool = False,
                 setup_reps: int | None = None, client_recorder=None,
                 check_reference: bool = True) -> RunResult:
    """Run one workload end to end and check its outputs.

    ``traced`` starts the server through the span launcher and loads its
    spans into ``RunResult.server_spans``.
    ``client_recorder`` (a :class:`tracing.SpanRecorder`) is active in this
    process for the timed phase only.  ``check_reference=False`` keeps the
    ledger check but skips the reference replay (the untraced baseline of
    a traced run, whose traced twin is checked in full).
    """
    result = RunResult(spec=spec)
    reps = spec.setup_reps if setup_reps is None else setup_reps
    RUN_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{spec.name}-", dir=RUN_DIR))
    spans_path = workdir / "server-spans.npz" if traced else None
    server = None
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="reference")
    try:
        for rep in range(reps):
            last = rep == reps - 1
            server, driver = _setup(spec, seed, workdir, result,
                                    spans_path if last else None)
            if not last:
                server.stop(driver.client)
                server = None
        _timed_phase(driver, result, seconds, client_recorder)
        result.server_rss_mb = server.peak_rss_mb()
        final_sid = driver.last_touched(driver.cycles)
        # The reference replay is untimed; it overlaps the server's final
        # cold query, which is not a reported figure.
        reference = (pool.submit(_reference, spec, driver, final_sid)
                     if check_reference else None)
        answer = driver.query(final_sid)[1]
        expected = reference.result() if reference is not None else None
        _closing_phase(driver, result, final_sid)
        server.stop(driver.client, graceful=traced)
        server = None
        if spans_path is not None:
            import tracing

            result.server_spans = tracing.load_spans(spans_path)
        if expected is not None:
            _compare(driver, result, final_sid, answer, expected)
    except Exception as exc:  # the run is reported, never silently dropped
        result.fail(f"{type(exc).__name__}: {exc}")
    finally:
        pool.shutdown(wait=True)
        if server is not None:
            server.kill()
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def _timed_phase(driver: _Driver, result: RunResult, seconds: float,
                 client_recorder) -> None:
    for i in range(driver.spec.warmup_cycles):
        driver.cycle(i)
    for samples in (result.write_ms, result.hot_write_ms, result.cold_query_ms,
                    result.cached_query_ms, result.pull_state_ms):
        samples.clear()
    undo = _trace_client(client_recorder) if client_recorder is not None else None
    try:
        w0 = time.monotonic()
        t0 = time.perf_counter()
        cycles = driver.spec.warmup_cycles
        events = 0
        while True:
            c0 = time.perf_counter()
            events += driver.cycle(cycles)
            cycles += 1
            # Whole cycles only: stop once another one would overshoot the
            # budget by more than this one falls short of it.
            now = time.perf_counter()
            if now - t0 + (now - c0) / 2 >= seconds:
                break
        result.timed_s = time.perf_counter() - t0
        result.timed_window = (w0, time.monotonic())
        result.timed_events = events
        driver.cycles = cycles
    finally:
        if undo is not None:
            undo()


def _trace_client(recorder):
    """Wrap ``ServiceClient.request`` in this process; returns an undo."""
    import tracing
    from repro.service import client as client_mod

    original = client_mod.ServiceClient.request
    tracing.install(recorder, tracing.CLIENT_TARGETS)

    def undo():
        client_mod.ServiceClient.request = original
    return undo


def _closing_phase(driver: _Driver, result: RunResult, sid) -> None:
    """Memoized-query probe and the ledger check against ``stats``."""
    if driver.last_pull is not None:
        # Reply size as framed on the wire (the server's encode_message).
        result.state_bytes = len(json.dumps(driver.last_pull, separators=(",", ":"))) + 1
    for _ in range(CACHED_PROBE):
        ms, again = driver.query(sid)
        if not again["cache_hit"]:
            raise RuntimeError("a repeated query missed the result cache")
        result.cached_query_ms.append(ms)
    stats = driver._request("stats", sid)["stats"]
    result.events_per_shard = list(stats["events_per_shard"])
    result.server_config = {"num_shards": stats["num_shards"], "mode": stats["mode"],
                            "seed": stats["seed"]}
    expected = driver.windows[sid].ledger.expected_counters()
    got = {key: stats[key] for key in expected}
    if got != expected:
        result.fail(f"stats counters {got} != ledger {expected} for {sid!r}")
    # Tenants other than the queried one: their last pulled state carries
    # the ingest counters (reading stats would restore them from disk).
    for other, state in driver.last_state.items():
        if other == sid:
            continue
        ing = state["ingest"]
        counters = {"events": sum(ing["events_per_shard"]),
                    "insertions": ing["num_insertions"],
                    "deletions": ing["num_deletions"]}
        counters["live_points"] = counters["insertions"] - counters["deletions"]
        expected = driver.windows[other].ledger.expected_counters()
        if counters != expected:
            result.fail(f"pulled counters {counters} != ledger {expected} for {other!r}")


def base_config(spec: Spec):
    """The server's base :class:`ServiceConfig`: the defaults plus the
    problem shape, seed and backend the benchmark passes on the command
    line."""
    from repro.service import ServiceConfig

    return ServiceConfig(k=K, d=D, delta=spec.delta, seed=SERVER_SEED,
                         backend=spec.backend)


def _tenant_name(sid) -> str:
    return "default" if sid is None else sid


def _reference(spec: Spec, driver: _Driver, final_sid) -> dict:
    """Replay every acknowledged request into in-process services.

    Returns, per tenant, its config seed, the final answer (queried tenant
    only) and the state payload (tenants whose state was pulled).
    """
    from repro.service import ClusteringService, TenantRegistry

    registry = TenantRegistry(base_config(spec))
    out = {}
    try:
        for sid, win in driver.windows.items():
            config = registry.tenant_config(_tenant_name(sid))
            ref = ClusteringService(config)
            try:
                for op, rows in win.ledger.requests:
                    (ref.insert if op == "insert" else ref.delete)(rows)
                entry = {"seed": config.seed, "answer": None, "state": None}
                if sid == final_sid:
                    answer, _ = ref.query()
                    entry["answer"] = json.loads(json.dumps(answer.to_dict()))
                if sid in driver.last_state:
                    entry["state"] = json.loads(json.dumps(ref.state_payload()))
                out[sid] = entry
            finally:
                ref.close()
    finally:
        registry.close()
    return out


def _compare(driver: _Driver, result: RunResult, final_sid, answer: dict,
             expected: dict) -> None:
    """The correctness gate: answers and pulled states equal the reference's."""
    name = _tenant_name(final_sid)
    want = expected[final_sid]
    if result.server_config.get("seed") != want["seed"]:
        result.fail(f"tenant {name!r} seed differs from the reference config")
    got = {k: v for k, v in answer.items() if k != "cache_hit"}
    if got != want["answer"]:
        result.fail(f"final query on {name!r} differs from the reference: "
                    f"{got} != {want['answer']}")
    for sid, pulled in driver.last_state.items():
        got = {k: v for k, v in pulled.items() if k != "tenant"}
        if (pulled.get("tenant", {}).get("stream_id") != _tenant_name(sid)
                or got != expected[sid]["state"]):
            result.fail(f"pulled state of {_tenant_name(sid)!r} differs from the reference")
