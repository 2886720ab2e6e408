#!/usr/bin/env python
"""Distributed coreset across a fleet of machines (Theorem 4.7) — twice.

Scenario: log events with spatial features are collected on s edge machines;
a coordinator must compute a *balanced* clustering of the global data (e.g.
assigning event regions to equally-provisioned processing pipelines) without
shipping all raw points.  The paper's distributed protocol leaves a strong
capacitated-clustering coreset at the coordinator using
s·poly(ε⁻¹η⁻¹kd·logΔ) bits.

Act 1 — the in-process simulation (`repro.distributed.protocol`):
partitions one dataset two ways — randomly, and adversarially by spatial
slabs so no machine sees the global structure — and shows both give the
same coreset (the protocol's sketches are linear) with exact
communication accounting.

Act 2 — the *real* deployment (`repro.distributed.fleet`): each site is
an actual ``repro serve`` subprocess fed over TCP; the coordinator pulls
every site's serialized sketch state over the wire (``pull_state``) and
merges through the same linearity.  The merged state and query answer are
bit-identical to a single-process reference, and the measured wire bits
equal the in-process simulation's accounting for the identical partition.

Run:  python examples/distributed_fleet.py
"""

from __future__ import annotations

import numpy as np

from repro import CoresetParams
from repro.data.synthetic import gaussian_mixture
from repro.distributed import Network, distributed_coreset
from repro.metrics.costs import capacitated_cost
from repro.solvers import CapacitatedKClustering
from repro.utils.bits import point_bits


def simulated_protocol() -> None:
    """Act 1: Theorem 4.7 in one process, two adversarial partitions."""
    k, d, delta, s = 3, 2, 1024, 8
    points = np.unique(gaussian_mixture(12000, d, delta, k, spread=0.03, seed=3),
                       axis=0)
    n = len(points)
    raw_kb = n * point_bits(d, delta) / 8000
    print(f"global input: {n} points across {s} machines (raw {raw_kb:.0f} KB)")

    params = CoresetParams.practical(k=k, d=d, delta=delta, eps=0.25, eta=0.25)
    coresets = {}
    shared_o = None  # pilot from the first run; fixing o across partitions
    for mode in ("random", "skewed"):
        net = Network.partition(points, s, seed=4, mode=mode)
        cs = distributed_coreset(net, params, seed=17, o=shared_o)
        shared_o = cs.o  # the sketches are linear given the same guess o
        coresets[mode] = cs
        print(
            f"[{mode:>7}] coreset {len(cs)} points | communication: "
            f"up {net.uplink_bits / 8000:.0f} KB, down {net.downlink_bits / 8000:.0f} KB, "
            f"{net.messages} messages"
        )

    same = sorted(map(tuple, coresets["random"].points.tolist())) == sorted(
        map(tuple, coresets["skewed"].points.tolist())
    )
    print(f"coresets identical across partitions (sketch linearity): {same}")

    # The coordinator solves balanced clustering on its coreset.
    cs = coresets["random"]
    t = n / k * 1.1
    solver = CapacitatedKClustering(k=k, capacity=cs.total_weight / k * 1.1,
                                    r=2.0, seed=5)
    sol = solver.fit(cs.points.astype(float), weights=cs.weights)
    true_cost = capacitated_cost(points, sol.centers, t, r=2.0)
    est_cost = capacitated_cost(cs.points, sol.centers, 1.25 * t, r=2.0,
                                weights=cs.weights)
    print(f"coordinator solution: capacitated cost {true_cost:.4g} on the "
          f"global data, coreset estimate {est_cost:.4g} "
          f"(ratio {est_cost / true_cost:.3f})")


def real_fleet() -> None:
    """Act 2: the same protocol over real site subprocesses and sockets."""
    from repro.distributed.fleet import run_fleet
    from repro.service import ServiceConfig

    k, d, delta, s = 3, 2, 64, 2
    points = np.unique(
        gaussian_mixture(400, d, delta, k, spread=0.03, seed=6), axis=0)
    print(f"\nspawning {s} real `repro serve` sites for {len(points)} points "
          "(plus a 20% deletion stream)...")
    report = run_fleet(ServiceConfig(k=k, d=d, delta=delta, seed=7,
                                     restarts=1),
                       points, s, batch_size=64, delete_fraction=0.2)
    print(f"fed {report['events']} events in {report['batches']} batches "
          f"({report['events_per_s']} events/s over TCP)")
    print(f"wire bits: up {report['uplink_bits']} "
          f"(simulation: {report['sim_uplink_bits']}), "
          f"down {report['downlink_bits']} "
          f"(simulation: {report['sim_downlink_bits']})")
    print(f"merged state bit-identical to single process: "
          f"{report['state_identical']}; query answer identical: "
          f"{report['answer_identical']}; bits match the E7 simulation: "
          f"{report['bits_match_simulation']}")
    if not report["passed"]:
        raise SystemExit("fleet run diverged from the reference")


def main() -> None:
    simulated_protocol()
    real_fleet()


if __name__ == "__main__":
    main()
