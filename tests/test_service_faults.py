"""Fault injection, supervised recovery, and client resilience.

The robustness story rests on the same linearity the paper's theory does: a
shard's state is a deterministic function of ``(params, seed)`` plus the
events routed to it, so any component that dies can be rebuilt from its
last checkpoint and replayed *bit-identically* — which these tests assert
at the serialized-state level (the same oracle style as
``test_vectorized_identity.py``), not just "it didn't crash".

Covered here: the seeded :class:`FaultPlan` engine itself, crash-safe
checkpoint writes, worker SIGKILL / soft-crash recovery in
:class:`SupervisedWorkerPool`, ``close()`` escalation on wedged workers,
the resilient client (typed :class:`ServiceUnavailable`, reconnects,
sequence-numbered idempotent retries), abrupt-disconnect handling, and the
per-tenant circuit breaker with its ``degraded`` wire envelope.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time

import numpy as np
import pytest

from repro.core import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream
from repro.service import (
    ClusteringService,
    ServiceClient,
    ServiceConfig,
    ServiceDegraded,
    ServiceError,
    ServiceUnavailable,
    SupervisedWorkerPool,
    TenantRegistry,
    WorkerDied,
    WorkerPoolIngest,
    faults,
    start_async_server,
)
from repro.service.faults import FaultPlan, FaultRule, InjectedFault, fault_point
from repro.service.protocol import IdempotencyCache, ProtocolError, parse_idempotency
from repro.service.supervisor import CircuitBreaker
from repro.streaming.stream import events_to_arrays
from tests.shard_oracle import routed_state


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-wide plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def world():
    pts = np.unique(gaussian_mixture(700, 2, 64, k=3, seed=11), axis=0)
    stream = list(churn_stream(pts, delete_fraction=0.3, seed=5))
    params = CoresetParams.practical(k=3, d=2, delta=64)
    return stream, params


def _canonical(state_dict: dict) -> str:
    return json.dumps(state_dict, sort_keys=True)


def _chunks(seq, size):
    return [seq[i: i + size] for i in range(0, len(seq), size)]


def _reference(params, stream, batches):
    """The state of an unfaulted 2-worker pool fed ``batches``."""
    rows, signs = events_to_arrays(stream, d=2)
    return routed_state(params, rows, signs, 2, version=len(batches), seed=9)


# =========================================================== the plan engine
class TestFaultPlan:
    def test_no_plan_is_a_noop(self):
        assert fault_point("worker.kill", shard=0) is None

    def test_rules_fire_deterministically(self):
        spec = {"seed": 42, "rules": [
            {"point": "server.reset", "after": 1, "times": 3, "prob": 0.5},
        ]}
        schedules = []
        for _ in range(2):
            plan = faults.plan_from_spec(spec)
            fired = [plan.decide("server.reset", {"op": "insert"}) is not None
                     for _ in range(40)]
            schedules.append(fired)
        assert schedules[0] == schedules[1]
        assert sum(schedules[0]) == 3  # times bound respected
        assert schedules[0][0] is False  # 'after' skips the first hit

    def test_match_filters_and_counts(self):
        plan = FaultPlan([FaultRule(point="worker.kill", mode="hard",
                                    match={"shard": 1})], seed=0)
        assert plan.decide("worker.kill", {"shard": 0}) is None
        act = plan.decide("worker.kill", {"shard": 1})
        assert act is not None and act.mode == "hard"
        assert plan.decide("worker.kill", {"shard": 1}) is None  # times=1
        assert plan.fire_counts() == {"worker.kill": 1}
        assert plan.fired[0]["ctx"] == {"shard": 1}

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="unknown keys"):
            faults.plan_from_spec({"rules": [{"point": "x", "bogus": 1}]})
        with pytest.raises(ValueError, match="non-empty 'rules'"):
            faults.plan_from_spec({"rules": []})
        with pytest.raises(ValueError, match="'prob'"):
            FaultRule(point="x", prob=1.5)
        with pytest.raises(ValueError, match="'after'"):
            FaultRule(point="x", after=-1)

    def test_load_plan_inline_and_file(self, tmp_path):
        spec = '{"seed": 3, "rules": [{"point": "server.slow", "delay_s": 0.01}]}'
        inline = faults.load_plan(spec)
        path = tmp_path / "plan.json"
        path.write_text(spec, encoding="utf-8")
        from_file = faults.load_plan(str(path))
        assert inline.seed == from_file.seed == 3
        assert inline.rules[0].delay_s == from_file.rules[0].delay_s == 0.01

    def test_install_from_env(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_FAULT_PLAN,
                           '{"rules": [{"point": "checkpoint.write"}]}')
        plan = faults.install_from_env()
        assert plan is faults.active_plan()
        assert fault_point("checkpoint.write", path="x") is not None

    def test_injected_fault_carries_point(self):
        exc = InjectedFault("worker.kill", "soft")
        assert exc.point == "worker.kill"
        assert "worker.kill" in str(exc)


# ===================================================== crash-safe checkpoints
class TestCheckpointFaults:
    def test_injected_write_failure_preserves_previous_checkpoint(
            self, world, tmp_path):
        stream, _ = world
        path = tmp_path / "svc.ckpt.json"
        with ClusteringService(ServiceConfig(k=3, d=2, delta=64, seed=7)) as svc:
            svc.apply_events(stream[:100])
            svc.checkpoint(path)
            before = path.read_bytes()
            svc.apply_events(stream[100:200])
            faults.install(FaultPlan([FaultRule(point="checkpoint.write")]))
            with pytest.raises(OSError, match="injected checkpoint write"):
                svc.checkpoint(path)
            # The old checkpoint survives byte-for-byte, and no temp file
            # litters the directory.
            assert path.read_bytes() == before
            assert list(tmp_path.iterdir()) == [path]
            # The rule is exhausted (times=1): the retry lands.
            info = svc.checkpoint(path)
            assert path.read_bytes() != before
        twin = ClusteringService.restore(path)
        assert twin.ingest.version == info["version"]
        twin.close()


# ====================================================== supervised recovery
class TestSupervisedRecovery:
    def test_sigkilled_worker_recovers_bit_identically(self, world):
        """SIGKILL a shard worker mid-stream; the respawned shard replays
        its journal and the final serialized state equals an unfaulted
        in-process reference, byte for byte."""
        stream, params = world
        batches = _chunks(stream, 60)
        with SupervisedWorkerPool(params, num_workers=2, seed=9,
                                  checkpoint_every_batches=3) as pool:
            for i, batch in enumerate(batches):
                pool.apply_batch(batch)
                if i == len(batches) // 2:
                    victim = pool._procs[0]
                    os.kill(victim.pid, signal.SIGKILL)
                    victim.join(10.0)
            got = pool.to_state_dict()
            assert sum(pool.restart_counts) >= 1
            assert pool.recovery_events
            event = pool.recovery_events[0]
            assert event["shard"] == 0
            assert event["exitcode"] == -signal.SIGKILL
        assert _canonical(got) == _canonical(_reference(params, stream, batches))

    def test_soft_crash_via_fault_plan_recovers(self, world):
        """A worker that errors out and exits (the poisoned-shard shape)
        recovers exactly like a SIGKILL'd one."""
        stream, params = world
        faults.install(FaultPlan([FaultRule(point="worker.kill", mode="soft",
                                            after=4)]))
        batches = _chunks(stream, 50)
        with SupervisedWorkerPool(params, num_workers=2, seed=9) as pool:
            for batch in batches:
                pool.apply_batch(batch)
            got = pool.to_state_dict()
            assert sum(pool.restart_counts) == 1
        assert faults.active_plan().fire_counts() == {"worker.kill": 1}
        assert _canonical(got) == _canonical(_reference(params, stream, batches))

    def test_unsupervised_pool_raises_worker_died(self, world):
        _, params = world
        pool = WorkerPoolIngest(params, num_workers=2, seed=9)
        try:
            os.kill(pool._procs[1].pid, signal.SIGKILL)
            pool._procs[1].join(10.0)
            with pytest.raises(WorkerDied) as info:
                for batch in _chunks(np.array([[1, 1], [2, 3], [5, 8],
                                               [13, 21]]), 1):
                    pool.insert_points(batch)
                    pool.to_state_dict()  # force a round trip
            assert info.value.shard == 1
        finally:
            pool.close()

    def test_restart_budget_gives_up(self, world):
        """A shard that keeps dying must surface WorkerDied, not loop."""
        _, params = world
        faults.install(FaultPlan([FaultRule(point="worker.kill", mode="hard",
                                            times=None)]))
        with SupervisedWorkerPool(params, num_workers=1, seed=9,
                                  max_restarts=2) as pool:
            with pytest.raises(WorkerDied, match="exceeded 2 restarts"):
                for _ in range(8):
                    pool.insert_points(np.array([[1, 2]]))
                    pool.to_state_dict()

    def test_supervised_config_roundtrips_through_engine(self, world, tmp_path):
        """workers > 0 builds the supervised pool, which survives
        checkpoint/restore and surfaces in stats."""
        stream, _ = world
        path = tmp_path / "sup.ckpt.json"
        with ClusteringService(ServiceConfig(k=3, d=2, delta=64, workers=2,
                                             seed=17)) as svc:
            assert isinstance(svc.ingest, SupervisedWorkerPool)
            svc.apply_events(stream[:80])
            stats = svc.stats()
            assert stats["supervised"] is True
            assert stats["restarts"] == 0
            assert "recovery_events" in stats
            svc.checkpoint(path)
        twin = ClusteringService.restore(path)
        try:
            assert isinstance(twin.ingest, SupervisedWorkerPool)
        finally:
            twin.close()


# ========================================================= close escalation
class TestCloseEscalation:
    def test_wedged_worker_is_force_killed(self, world):
        """SIGSTOP a worker (SIGTERM won't be delivered); close() must
        escalate to SIGKILL and report it rather than leak the child."""
        _, params = world
        pool = WorkerPoolIngest(params, num_workers=1, seed=3)
        proc = pool._procs[0]
        os.kill(proc.pid, signal.SIGSTOP)
        report = pool.close(timeout=1.0)
        assert report["killed"] == 1
        assert pool.forced_kills == 1
        assert not proc.is_alive()
        assert pool.last_close_report == report

    def test_clean_close_reports_stopped(self, world):
        _, params = world
        pool = WorkerPoolIngest(params, num_workers=2, seed=3)
        report = pool.close()
        assert report == {"stopped": 2, "terminated": 0, "killed": 0}


# ============================================================ wire plumbing
class TestIdempotencyPlumbing:
    def test_parse_idempotency(self):
        assert parse_idempotency({}) is None
        assert parse_idempotency({"client_id": "c", "seq": 0}) == ("c", 0)
        for bad in ({"client_id": "c"}, {"seq": 1},
                    {"client_id": "", "seq": 1},
                    {"client_id": "c", "seq": -1},
                    {"client_id": "c", "seq": True},
                    {"client_id": "a\x00b", "seq": 1},
                    {"client_id": "x" * 65, "seq": 1}):
            with pytest.raises(ProtocolError):
                parse_idempotency(bad)

    def test_cache_replay_and_stale_seq(self):
        cache = IdempotencyCache()
        assert cache.check("c", 0) is None
        cache.record("c", 0, {"ok": True, "applied": 4})
        replay = cache.check("c", 0)
        assert replay == {"ok": True, "applied": 4, "replayed": True}
        assert cache.check("c", 1) is None  # next seq proceeds
        cache.record("c", 1, {"ok": True, "applied": 2})
        with pytest.raises(ProtocolError, match="stale seq"):
            cache.check("c", 0)

    def test_cache_lru_eviction(self):
        cache = IdempotencyCache(max_clients=2)
        cache.record("a", 0, {"ok": True})
        cache.record("b", 0, {"ok": True})
        cache.record("c", 0, {"ok": True})
        assert cache.check("a", 0) is None  # evicted
        assert cache.check("c", 0) is not None


# ===================================================== resilient client I/O
def _serve(config):
    registry = TenantRegistry(config)
    server, thread = start_async_server(registry)
    host, port = server.address
    return registry, server, thread, host, port


def _stop(registry, server, thread):
    server.shutdown()
    thread.join(10)
    registry.close()


class TestResilientClient:
    CONFIG = ServiceConfig(k=2, d=2, delta=32, seed=13)

    def test_unreachable_raises_typed_error(self):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        cli = ServiceClient("127.0.0.1", dead_port, retries=1,
                            backoff_s=0.01, timeout=2.0)
        with pytest.raises(ServiceUnavailable) as info:
            cli.ping()
        assert info.value.op == "ping"
        cli.close()  # close() never raises, connected or not

    def test_server_death_mid_session_raises_typed_error(self):
        registry, server, thread, host, port = _serve(self.CONFIG)
        cli = ServiceClient(host, port, retries=1, backoff_s=0.01, timeout=5.0)
        try:
            assert cli.ping()
            # Kill the server under the live connection: the shutdown op
            # closes this connection and the listener, so the reconnect
            # attempt fails outright.
            cli.shutdown()
            thread.join(10)
            assert not thread.is_alive()
            with pytest.raises(ServiceUnavailable):
                cli.stats()
        finally:
            cli.close()
            registry.close()

    def test_context_manager_always_closes(self):
        registry, server, thread, host, port = _serve(self.CONFIG)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with ServiceClient(host, port) as cli:
                    assert cli.ping()
                    raise RuntimeError("boom")
            assert cli._sock is None
        finally:
            _stop(registry, server, thread)

    def test_abrupt_disconnects_do_not_wedge_servers(self):
        """Half a request frame, then a slammed connection mid-reply — the
        server must keep serving other clients through both."""
        registry, server, thread, host, port = _serve(self.CONFIG)
        try:
            # Mid-request: partial JSON, no newline, then close.
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(b'{"op": "ins')
            # Mid-reply: send a query, close without reading the answer.
            with socket.create_connection((host, port), timeout=5.0) as raw:
                raw.sendall(b'{"op": "stats"}\n')
            time.sleep(0.1)
            with ServiceClient(host, port, timeout=10.0) as cli:
                assert cli.ping()
                assert cli.insert(np.array([[1, 2], [3, 4]])) == 2
                assert cli.stats()["events"] == 2
        finally:
            _stop(registry, server, thread)

    def test_idempotent_retry_does_not_double_count(self):
        """Drop the reply of one insert *after* it was applied (the worst
        case for retries); the client's seq-numbered retry must be answered
        from the replay cache, leaving the event count exact."""
        faults.install(FaultPlan([FaultRule(point="server.reset", after=1,
                                            match={"op": "insert"})]))
        registry, server, thread, host, port = _serve(self.CONFIG)
        try:
            with ServiceClient(host, port, retries=3, backoff_s=0.01,
                               timeout=10.0) as cli:
                assert cli.insert(np.array([[1, 1], [2, 2]])) == 2
                assert cli.insert(np.array([[3, 3], [4, 4]])) == 2  # reply dropped
                assert cli.insert(np.array([[5, 5]])) == 1
                assert cli.reconnects >= 1
                stats = cli.stats()
                assert stats["events"] == 5
                assert stats["insertions"] == 5
                assert stats["fault_plan"]["fire_counts"] == {"server.reset": 1}
        finally:
            _stop(registry, server, thread)

    def test_pre_reset_drops_request_before_execution(self):
        """'pre' mode models a cut before the server reads the request:
        nothing is applied, and the retry (same seq) applies it once."""
        faults.install(FaultPlan([FaultRule(point="server.reset", mode="pre",
                                            match={"op": "insert"})]))
        registry, server, thread, host, port = _serve(self.CONFIG)
        try:
            with ServiceClient(host, port, retries=3, backoff_s=0.01,
                               timeout=10.0) as cli:
                assert cli.insert(np.array([[7, 7]])) == 1
                assert cli.stats()["events"] == 1
        finally:
            _stop(registry, server, thread)

    def test_short_and_slow_replies(self):
        """A truncated reply is a poisoned connection (typed retry); a slow
        reply is just slow."""
        faults.install(FaultPlan([
            FaultRule(point="server.short", match={"op": "stats"}),
            FaultRule(point="server.slow", delay_s=0.05, match={"op": "ping"}),
        ]))
        registry, server, thread, host, port = _serve(self.CONFIG)
        try:
            with ServiceClient(host, port, retries=3, backoff_s=0.01,
                               timeout=10.0) as cli:
                assert cli.stats()["events"] == 0  # retried past the short read
                t0 = time.monotonic()
                assert cli.ping()
                assert time.monotonic() - t0 >= 0.05
        finally:
            _stop(registry, server, thread)


# ========================================================== circuit breaker
class TestCircuitBreaker:
    def test_state_machine_with_fake_clock(self):
        now = [0.0]
        br = CircuitBreaker(failure_threshold=2, cooldown_s=10.0,
                            clock=lambda: now[0])
        assert br.allow() and br.state == "closed"
        br.record_failure()
        assert br.allow()  # one failure is below threshold
        br.record_failure()
        assert br.state == "open" and br.times_opened == 1
        assert not br.allow()
        assert br.retry_after_s() == pytest.approx(10.0)
        now[0] = 10.5
        assert br.allow()  # the half-open probe
        assert br.state == "half-open"
        assert not br.allow()  # single probe at a time
        br.record_failure()  # probe failed: re-open immediately
        assert br.state == "open" and br.times_opened == 2
        now[0] = 21.0
        assert br.allow()
        br.record_success()
        assert br.state == "closed"
        assert br.snapshot()["consecutive_failures"] == 0

    def test_degraded_envelope_over_the_wire(self, tmp_path):
        """Trip a tenant's breaker (failing restores), then watch the
        structured degraded envelope, the tenants-row flag, and recovery
        after cooldown."""
        registry = TenantRegistry(
            ServiceConfig(k=2, d=2, delta=32, seed=13),
            breaker_threshold=2, breaker_cooldown_s=0.5)
        server, _ = start_async_server(registry)
        host, port = server.address
        try:
            with ServiceClient(host, port, stream_id="shaky",
                               timeout=10.0) as cli:
                cli.insert(np.array([[1, 1]]))
                missing = str(tmp_path / "nope.ckpt.json")
                for _ in range(2):
                    with pytest.raises(ServiceError):
                        cli.restore(missing)
                with pytest.raises(ServiceDegraded) as info:
                    cli.insert(np.array([[2, 2]]))
                assert info.value.stream_id == "shaky"
                assert info.value.retry_after_s > 0
                rows = {r["stream_id"]: r for r in cli.tenants()}
                assert rows["shaky"]["degraded"] is True
                assert rows["shaky"]["breaker"]["state"] == "open"
                # Other tenants are unaffected — failure isolation.
                cli.request("insert", stream_id="steady",
                            points=[[3, 3]])
                time.sleep(0.6)  # past cooldown: the probe closes it
                assert cli.insert(np.array([[4, 4]])) == 1
                assert cli.stats()["breaker"]["state"] == "closed"
                # Only the two successful inserts landed on "shaky": the
                # degraded one was rejected before touching the sketch.
                assert cli.stats()["events"] == 2
        finally:
            server.shutdown()
            registry.close()

    def test_quota_rejections_do_not_trip_breaker(self):
        from repro.service import TenantQuota

        registry = TenantRegistry(
            ServiceConfig(k=2, d=2, delta=32, seed=13),
            quota=TenantQuota(max_events=1), breaker_threshold=1)
        try:
            registry.insert("t", np.array([[1, 1]]))
            from repro.service import QuotaExceeded
            for _ in range(3):
                with pytest.raises(QuotaExceeded):
                    registry.insert("t", np.array([[2, 2]]))
            # Still closed: quota enforcement is the service working.
            assert registry.insert("u", np.array([[3, 3]]))["applied"] == 1
            rows = {r["stream_id"]: r for r in registry.overview()}
            assert rows["t"]["degraded"] is False
        finally:
            registry.close()


# ===================================================== eviction under faults
class TestEvictionFaults:
    def test_failed_eviction_checkpoint_keeps_tenant_live(self, tmp_path):
        """A full disk at eviction time must not lose the victim's events:
        it stays in memory (budget overshoots) and the failure is surfaced."""
        registry = TenantRegistry(
            ServiceConfig(k=2, d=2, delta=32, seed=13),
            tenants_dir=tmp_path / "tenants", max_live_tenants=1)
        try:
            registry.insert("a", np.array([[1, 1], [2, 2]]))
            faults.install(FaultPlan([FaultRule(point="checkpoint.write")]))
            # Leasing "b" wants to evict "a"; the write fails, "a" survives.
            registry.insert("b", np.array([[3, 3]]))
            assert registry.live_count() == 2
            assert registry.eviction_failures
            assert registry.eviction_failures[0]["stream_id"] == "a"
            # "a" never hit disk and still answers with nothing lost.
            assert registry.stats("a")["events"] == 2
            # The next eviction (rule exhausted) succeeds and heals the
            # budget.
            registry.insert("c", np.array([[4, 4]]))
            assert registry.live_count() <= 2
        finally:
            registry.close()
