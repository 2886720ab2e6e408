"""Tests for the multi-tenant subsystem (repro.service.tenants + aserver).

Covers the load-bearing claims of the tentpole:

1. tenant *isolation* — every named stream answers exactly as a
   single-tenant service built from ``tenant_config(stream_id)`` and fed
   the same events, including through LRU evict → restore cycles;
2. *eviction is invisible* — checkpoint → evict → restore-on-touch is
   bit-identical, for in-process shards and for ``workers > 0``;
3. the asyncio wire front end — ``stream_id`` routing, pre-tenant
   back-compat (no ``stream_id`` → the ``"default"`` tenant), quota
   errors as clean envelopes, the ``tenants`` op, and frame caps;
4. the acceptance bar: one async server hosting 100+ named streams,
   queried while ingest continues, with at least one tenant bounced
   through disk mid-run, every answer matching its reference.
"""

from __future__ import annotations

import json
import socket
import threading
import zlib

import numpy as np
import pytest

from repro.service import (
    ClusteringService,
    QuotaExceeded,
    ServiceClient,
    ServiceConfig,
    TenantQuota,
    TenantRegistry,
    start_async_server,
)
from repro.service.client import ServiceError
from repro.service.protocol import DEFAULT_STREAM_ID
from repro.service.state import (
    tenant_checkpoint_filename,
    tenant_id_from_filename,
)

# Small-but-real problem shape: 4 guess instances instead of 22, so a
# tenant costs ~50 ms to create and ~10 ms to query — cheap enough to host
# a hundred of them in one test.
CHEAP = dict(k=2, d=2, delta=32, seed=11,
             o_range=(1.0, 8.0), restarts=1)


def cheap_config(**overrides) -> ServiceConfig:
    return ServiceConfig(**{**CHEAP, **overrides})


def stream_points(stream_id: str, n: int = 24, delta: int = 32,
                  d: int = 2) -> np.ndarray:
    """Deterministic per-stream workload (distinct across stream ids)."""
    rng = np.random.default_rng(zlib.crc32(stream_id.encode()))
    return rng.integers(0, delta + 1, size=(n, d))


def wire_dict(obj) -> dict:
    """Normalize through JSON so in-process and wire results compare ==."""
    return json.loads(json.dumps(obj))


# --------------------------------------------------------------------------
class TestTenantRegistry:
    def test_lazy_creation_and_derived_seeds(self):
        cfg = cheap_config()
        with TenantRegistry(cfg) as reg:
            assert reg.live_count() == 0
            assert reg.tenant_config(DEFAULT_STREAM_ID) == cfg
            ca, cb = reg.tenant_config("a"), reg.tenant_config("b")
            assert ca.seed != cfg.seed and cb.seed != cfg.seed
            assert ca.seed != cb.seed
            assert ca == reg.tenant_config("a")  # deterministic derivation
            reg.insert("a", stream_points("a"))
            assert reg.live_count() == 1  # "b" was configured, never built

    def test_tenants_are_isolated_from_each_other(self):
        cfg = cheap_config()
        with TenantRegistry(cfg) as reg:
            streams = ["alpha", "beta", DEFAULT_STREAM_ID]
            # Interleave ingest across tenants to catch cross-talk.
            for _ in range(2):
                for sid in streams:
                    reg.insert(sid, stream_points(sid))
            for sid in streams:
                reg.delete(sid, stream_points(sid)[:5])
            for sid in streams:
                ref = ClusteringService(reg.tenant_config(sid))
                ref.insert(stream_points(sid))
                ref.insert(stream_points(sid))
                ref.delete(stream_points(sid)[:5])
                want, _ = ref.query()
                got, _ = reg.query(sid)
                assert got.to_dict() == want.to_dict()
                ref.close()

    def test_event_quota_rejected_atomically(self):
        with TenantRegistry(cheap_config(),
                            quota=TenantQuota(max_events=30)) as reg:
            reg.insert("q", stream_points("q", n=24))
            with pytest.raises(QuotaExceeded) as exc:
                reg.insert("q", stream_points("q", n=10))
            assert exc.value.stream_id == "q"
            stats = reg.stats("q")
            assert stats["events"] == 24  # nothing from the rejected batch
            assert stats["version"] == 1
            reg.insert("q", stream_points("q", n=6))  # exactly at quota: fine

    def test_byte_quota_counts_nominal_volume(self):
        cfg = cheap_config()
        per_event = 8 * cfg.d
        with TenantRegistry(cfg,
                            quota=TenantQuota(max_bytes=20 * per_event)) as reg:
            reg.insert("q", stream_points("q", n=20))
            assert reg.stats("q")["bytes_ingested"] == 20 * per_event
            with pytest.raises(QuotaExceeded, match="byte"):
                reg.insert("q", stream_points("q", n=1))


# --------------------------------------------------------------------------
class TestEvictionAndRestore:
    def test_lru_victim_order(self, tmp_path):
        with TenantRegistry(cheap_config(), tenants_dir=tmp_path,
                            max_live_tenants=2) as reg:
            for sid in ("a", "b", "c"):
                reg.insert(sid, stream_points(sid))
            live = {t["stream_id"] for t in reg.overview() if t["live"]}
            assert live == {"b", "c"}  # "a" was least recently used
            reg.insert("a", stream_points("a"))  # restores a, evicts b
            live = {t["stream_id"] for t in reg.overview() if t["live"]}
            assert live == {"a", "c"}
            assert (tmp_path / tenant_checkpoint_filename("b")).exists()

    def test_evict_restore_answers_bit_identically(self, tmp_path):
        with TenantRegistry(cheap_config(), tenants_dir=tmp_path) as reg:
            reg.insert("t", stream_points("t"))
            reg.delete("t", stream_points("t")[:4])
            before, _ = reg.query("t")
            assert reg.evict("t") is True
            assert reg.live_count() == 0
            assert (tmp_path / tenant_checkpoint_filename("t")).exists()
            after, _ = reg.query("t")  # transparent restore-on-touch
            assert after.to_dict() == before.to_dict()
            stats = reg.stats("t")
            assert stats["evictions"] == 1 and stats["restores"] == 1
            # Restored tenants keep ingesting in lockstep with a reference.
            reg.insert("t", stream_points("t", n=8))
            ref = ClusteringService(reg.tenant_config("t"))
            ref.insert(stream_points("t"))
            ref.delete(stream_points("t")[:4])
            ref.insert(stream_points("t", n=8))
            want, _ = ref.query()
            got, _ = reg.query("t")
            assert got.to_dict() == want.to_dict()
            ref.close()

    @pytest.mark.slow
    def test_evict_restore_with_worker_processes(self, tmp_path):
        cfg = cheap_config(workers=1)
        with TenantRegistry(cfg, tenants_dir=tmp_path) as reg:
            reg.insert("w", stream_points("w"))
            before, _ = reg.query("w")
            assert reg.evict("w") is True
            after, _ = reg.query("w")
            assert after.to_dict() == before.to_dict()
            assert reg.stats("w")["restores"] == 1

    def test_pinned_tenant_is_not_evictable(self, tmp_path):
        with TenantRegistry(cheap_config(), tenants_dir=tmp_path) as reg:
            reg.insert("p", stream_points("p"))
            lease = reg._lease("p")
            lease.__enter__()
            try:
                assert reg.evict("p") is False  # pinned: in-flight op
            finally:
                lease.__exit__(None, None, None)
            assert reg.evict("p") is True  # unpinned: evictable again

    def test_close_persists_and_new_registry_restores(self, tmp_path):
        cfg = cheap_config()
        reg = TenantRegistry(cfg, tenants_dir=tmp_path)
        reg.insert("s", stream_points("s"))
        want, _ = reg.query("s")
        bytes_before = reg.stats("s")["bytes_ingested"]
        reg.close()  # persists every live tenant
        with TenantRegistry(cfg, tenants_dir=tmp_path) as reg2:
            rows = reg2.overview()  # sees the on-disk tenant without loading
            assert [t["stream_id"] for t in rows] == ["s"]
            assert reg2.live_count() == 0
            got, _ = reg2.query("s")
            assert got.to_dict() == want.to_dict()
            # Quota counters survive the disk round-trip too.
            assert reg2.stats("s")["bytes_ingested"] == bytes_before

    def test_mislabeled_checkpoint_rejected(self, tmp_path):
        with TenantRegistry(cheap_config(), tenants_dir=tmp_path) as reg:
            reg.insert("real", stream_points("real"))
            assert reg.evict("real")
            src = tmp_path / tenant_checkpoint_filename("real")
            dst = tmp_path / tenant_checkpoint_filename("impostor")
            dst.write_bytes(src.read_bytes())
            with pytest.raises(ValueError, match="stamped for stream"):
                reg.query("impostor")

    def test_filename_codec_roundtrips_weird_ids(self):
        for sid in ("plain", "with space", "slash/../../evil", "utf-δ",
                    "dots..", "%2e%2e"):
            name = tenant_checkpoint_filename(sid)
            assert "/" not in name  # no traversal, whatever the id says
            assert tenant_id_from_filename(name) == sid
        assert tenant_id_from_filename("unrelated.json") is None


# --------------------------------------------------------------------------
class TestAsyncWire:
    def test_stream_routing_and_default_compat(self, tmp_path):
        reg = TenantRegistry(cheap_config())
        server, thread = start_async_server(reg)
        host, port = server.address
        try:
            with ServiceClient(host, port, stream_id="named") as cli:
                resp = cli.request("insert",
                                   points=stream_points("named").tolist())
                assert resp["stream_id"] == "named"
                assert resp["applied"] == len(stream_points("named"))
                # No stream_id on the wire → the "default" tenant, which
                # an explicit "default" addresses too.
                cli.stream_id = None
                assert cli.stats()["events"] == 0
                cli.insert(stream_points(DEFAULT_STREAM_ID, n=6))
                cli.stream_id = DEFAULT_STREAM_ID
                assert cli.stats()["events"] == 6
                cli.stream_id = "named"
                assert cli.stats()["events"] == len(stream_points("named"))
                tenants = {t["stream_id"] for t in cli.tenants()}
                assert tenants == {"named", DEFAULT_STREAM_ID}
                cli.shutdown()
            thread.join(10)
            assert not thread.is_alive()
        finally:
            reg.close()

    def test_concurrent_clients_stay_isolated(self):
        reg = TenantRegistry(cheap_config())
        server, thread = start_async_server(reg)
        host, port = server.address
        errors: list[BaseException] = []

        def drive(sid: str) -> None:
            try:
                with ServiceClient(host, port, stream_id=sid) as cli:
                    for _ in range(3):
                        cli.insert(stream_points(sid))
                    assert cli.stats()["events"] == 3 * len(stream_points(sid))
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        try:
            threads = [threading.Thread(target=drive, args=(f"c{i}",))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
            assert not errors
            for i in range(8):
                ref = ClusteringService(reg.tenant_config(f"c{i}"))
                for _ in range(3):
                    ref.insert(stream_points(f"c{i}"))
                want, _ = ref.query()
                got, _ = reg.query(f"c{i}")
                assert got.to_dict() == want.to_dict()
                ref.close()
        finally:
            server.shutdown()
            thread.join(10)
            reg.close()

    def test_quota_violation_is_clean_error_envelope(self):
        reg = TenantRegistry(cheap_config(), quota=TenantQuota(max_events=5))
        server, thread = start_async_server(reg)
        host, port = server.address
        try:
            with ServiceClient(host, port, stream_id="q") as cli:
                with pytest.raises(ServiceError, match="quota exceeded"):
                    cli.request("insert",
                                points=stream_points("q", n=6).tolist())
                # The connection survives the rejected batch.
                assert cli.ping()
                assert cli.stats()["events"] == 0
        finally:
            server.shutdown()
            thread.join(10)
            reg.close()

    def test_oversized_frame_answered_then_closed(self):
        reg = TenantRegistry(cheap_config())
        server, thread = start_async_server(reg, max_request_bytes=2048)
        host, port = server.address
        try:
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(b'{"op": "insert", "points": [' +
                             b"[1, 1], " * 1024 + b"[1, 1]]}\n")
                f = sock.makefile("rb")
                resp = json.loads(f.readline())
                assert resp["ok"] is False
                assert "exceeds" in resp["error"]
                assert f.readline() == b""  # server closed the connection
        finally:
            server.shutdown()
            thread.join(10)
            reg.close()

    def test_bad_stream_ids_rejected(self):
        reg = TenantRegistry(cheap_config())
        server, thread = start_async_server(reg)
        host, port = server.address
        try:
            with ServiceClient(host, port) as cli:
                for bad in ["", "x" * 200, "new\nline", 7]:
                    with pytest.raises(ServiceError, match="stream_id"):
                        cli.request("stats", stream_id=bad)
                assert cli.ping()  # connection intact throughout
        finally:
            server.shutdown()
            thread.join(10)
            reg.close()


# --------------------------------------------------------------------------
class TestThousandKnownTenants:
    """O(live) scans: 1000 known-but-cold tenants must cost nothing."""

    def test_overview_and_eviction_scan_are_o_live(self, tmp_path):
        reg = TenantRegistry(cheap_config(), tenants_dir=tmp_path,
                             max_live_tenants=4)
        # 1000 cold tenants known only from their on-disk checkpoints.  The
        # payloads are deliberately invalid JSON, so if any code path loads
        # (or even reads) a cold tenant, the test fails loudly.
        for i in range(1000):
            path = tmp_path / tenant_checkpoint_filename(f"cold-{i:04d}")
            path.write_text("!not json!")

        # Spy on the eviction policy: the candidate list handed to it must
        # be the *live* population (<= budget + 1 pinned), never the 1000
        # known tenants.
        scans: list[int] = []
        orig_victims = reg._policy.victims

        def spying_victims(evictable, excess):
            scans.append(len(evictable))
            return orig_victims(evictable, excess)

        reg._policy.victims = spying_victims
        try:
            for i in range(6):  # 6 tenants through a budget of 4: evicts
                reg.insert(f"hot-{i}", stream_points(f"hot-{i}", n=4))
        finally:
            reg._policy.victims = orig_victims

        assert reg.live_count() == 4
        assert scans, "eviction never consulted the policy"
        assert max(scans) <= 5, \
            f"victim scan saw {max(scans)} candidates; should be O(live)"

        # live_only overview: exactly the resident tenants, no disk scan.
        live = reg.overview(live_only=True)
        assert len(live) == 4
        assert all(row["live"] for row in live)
        assert not any(row["stream_id"].startswith("cold-") for row in live)

        # Full overview still enumerates all 1006 known tenants (6 touched
        # + 1000 disk stubs) without loading any of them.
        full = reg.overview()
        assert len(full) == 1006
        assert sum(row["live"] for row in full) == 4
        reg.close(persist=False)


# --------------------------------------------------------------------------
class TestHundredStreams:
    """The acceptance bar for the multi-tenant subsystem."""

    N_STREAMS = 100
    MAX_LIVE = 16

    @pytest.mark.slow
    def test_hundred_streams_with_mid_run_eviction(self, tmp_path):
        cfg = cheap_config()
        reg = TenantRegistry(cfg, tenants_dir=tmp_path,
                             max_live_tenants=self.MAX_LIVE)
        server, thread = start_async_server(reg)
        host, port = server.address
        streams = [f"s{i:03d}" for i in range(self.N_STREAMS)]
        stop = threading.Event()
        bg_applied = [0]
        bg_errors: list[BaseException] = []

        def background_ingest() -> None:
            """Keep one tenant ingesting while the main thread queries."""
            try:
                with ServiceClient(host, port, stream_id="background") as cli:
                    while not stop.is_set():
                        bg_applied[0] += cli.insert(
                            stream_points("background", n=8))
            except BaseException as exc:
                bg_errors.append(exc)

        try:
            # Phase 1: ingest all streams over the wire.  With 100 streams
            # against a budget of 16, LRU eviction must run mid-ingest.
            with ServiceClient(host, port) as cli:
                for sid in streams:
                    cli.stream_id = sid
                    cli.insert(stream_points(sid))
                    cli.delete(stream_points(sid)[:4])
            assert reg.live_count() <= self.MAX_LIVE

            # Phase 2: query every stream while another keeps ingesting.
            bg = threading.Thread(target=background_ingest)
            bg.start()
            answers = {}
            with ServiceClient(host, port) as cli:
                for sid in streams:
                    cli.stream_id = sid
                    answers[sid] = cli.query()
            stop.set()
            bg.join(60)
            assert not bg.is_alive() and not bg_errors
            assert bg_applied[0] > 0  # ingest really ran during the queries

            # Mid-run eviction and restore actually happened (not just
            # possible): most streams were bounced through disk and back.
            rows = {t["stream_id"]: t for t in reg.overview()}
            assert sum(t.get("evictions", 0) for t in rows.values()) \
                >= self.N_STREAMS - self.MAX_LIVE
            assert sum(t.get("restores", 0) for t in rows.values()) >= 1
            assert sum(t["live"] for t in rows.values()) <= self.MAX_LIVE

            # Isolation: every stream's wire answer is bit-identical to a
            # single-tenant service fed the same events, eviction and all.
            for sid in streams:
                ref = ClusteringService(reg.tenant_config(sid))
                ref.insert(stream_points(sid))
                ref.delete(stream_points(sid)[:4])
                want, _ = ref.query()
                got = dict(answers[sid])
                got.pop("cache_hit")
                assert got == wire_dict(want.to_dict()), sid
                ref.close()
        finally:
            stop.set()
            server.shutdown()
            thread.join(10)
            reg.close()
