"""Long-lived clustering service over dynamic streams.

The paper's sketches are *linear*, which is exactly what a production
service needs: state can be ingested in-process
(:mod:`repro.service.shards`) or sharded across worker processes
(:mod:`repro.service.workers`), persisted and restored bit-identically
(:mod:`repro.service.state`), folded on demand and queried with result
memoization (:mod:`repro.service.engine`), multiplexed across any number
of named streams with cold-tenant eviction (:mod:`repro.service.tenants` /
:mod:`repro.service.eviction`), and exposed over a wire protocol
(:mod:`repro.service.aserver` / :mod:`repro.service.client`).

Layering: ``state`` (codec) → ``shards`` (ingest) → ``engine`` (queries)
→ ``tenants`` (multi-stream registry) → ``protocol``/``aserver``/``client``
(wire).  Everything below the wire layer is importable and testable
without opening a socket.

Robustness rides across every layer: :mod:`repro.service.faults` injects
deterministic, seeded failures at named points throughout the stack,
:mod:`repro.service.supervisor` respawns dead shard workers and replays
their journaled batches bit-identically, the client retries transport
faults with sequence-numbered idempotent mutations, and the registry's
per-tenant circuit breakers degrade failing tenants instead of letting
them brown out the rest.
"""

from repro.service import faults
from repro.service.aserver import (
    AsyncClusteringServer,
    serve_forever_async,
    start_async_server,
)
from repro.service.client import (
    ServiceClient,
    ServiceDegraded,
    ServiceError,
    ServiceUnavailable,
)
from repro.service.engine import ClusteringService, QueryResult, ServiceConfig
from repro.service.eviction import EvictionPolicy, LRUEvictionPolicy
from repro.service.faults import FaultPlan, FaultRule, InjectedFault
from repro.service.shards import ShardedIngest
from repro.service.state import (
    sharded_state_from_dict,
    sharded_state_to_dict,
    streaming_state_from_dict,
    streaming_state_to_dict,
    write_checkpoint,
)
from repro.service.supervisor import CircuitBreaker, SupervisedWorkerPool
from repro.service.tenants import (
    QuotaExceeded,
    TenantDegraded,
    TenantQuota,
    TenantRegistry,
)
from repro.service.workers import WorkerDied, WorkerPoolIngest

__all__ = [
    "AsyncClusteringServer",
    "CircuitBreaker",
    "ClusteringService",
    "EvictionPolicy",
    "FaultPlan",
    "FaultRule",
    "InjectedFault",
    "LRUEvictionPolicy",
    "QueryResult",
    "QuotaExceeded",
    "ServiceClient",
    "ServiceConfig",
    "ServiceDegraded",
    "ServiceError",
    "ServiceUnavailable",
    "ShardedIngest",
    "SupervisedWorkerPool",
    "TenantDegraded",
    "TenantQuota",
    "TenantRegistry",
    "WorkerDied",
    "WorkerPoolIngest",
    "faults",
    "serve_forever_async",
    "sharded_state_from_dict",
    "sharded_state_to_dict",
    "start_async_server",
    "streaming_state_from_dict",
    "streaming_state_to_dict",
    "write_checkpoint",
]
