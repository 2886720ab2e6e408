"""E4 — Correctness under deletions (Theorem 4.5's headline novelty).

Claim: "unlike the previous algorithm, our algorithm handles both insertions
and deletions".  Figure series: coreset quality on the *survivor* set after
streams that delete 25/50/75% of points, after deleting entire clusters
(which changes the optimum's structure, the hardest dynamic case), and
after a noise-then-delete trace (uniform noise, then the clustered
survivors, then every noise point deleted: a transient live set several
times the final one).  The three-pass baseline of [BBLM14] cannot run
these streams at all.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from common import print_table, standard_params
from repro.data.synthetic import gaussian_mixture
from repro.data.workloads import churn_stream, deletion_heavy_stream
from repro.metrics.evaluation import evaluate_coreset_quality
from repro.solvers.kmeanspp import kmeans_plusplus
from repro.solvers.pilot import estimate_opt_cost
from repro.streaming import StreamingCoreset, materialize
from repro.streaming.stream import DELETE, Stream


def _quality_after(stream, k, eps=0.25, eta=0.25, seed=17):
    params = standard_params(k, 2, 1024, eps=eps, eta=eta)
    survivors = materialize(stream, d=2)
    pilot = estimate_opt_cost(survivors, k, r=2.0, seed=seed)
    sc = StreamingCoreset(params, seed=seed, backend="exact",
                          o_range=(pilot / 64, pilot / 4))
    sc.process(stream)
    cs = sc.finalize()
    n = len(survivors)
    Zs = [kmeans_plusplus(survivors.astype(float), k, seed=s) for s in (1, 2)]
    rep = evaluate_coreset_quality(survivors, cs, Zs, [n / k, math.inf],
                                   r=2.0, eps=eps, eta=eta)
    return survivors, cs, rep


@pytest.mark.benchmark(group="E4")
def test_e4_churn_fractions(benchmark):
    pts = np.unique(gaussian_mixture(6000, 2, 1024, k=3, spread=0.02, seed=21),
                    axis=0)
    rows = []
    worst = []
    for frac in (0.25, 0.5, 0.75):
        stream = churn_stream(pts, delete_fraction=frac, seed=5)
        survivors, cs, rep = _quality_after(stream, 3)
        rows.append([f"{int(frac*100)}%", len(stream), len(survivors), len(cs),
                     round(rep.worst_ratio, 4), "<= 1.25",
                     "PASS" if rep.holds(slack=1.1) else "FAIL"])
        worst.append(rep.worst_ratio)
    print_table(
        "E4a: coreset quality after interleaved deletions (k=3, d=2)",
        ["deleted", "events", "survivors", "|Q'|", "worst ratio", "bound", "verdict"],
        rows,
    )
    assert max(worst) <= 1.25 * 1.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="E4")
def test_e4_whole_cluster_deletion(benchmark):
    """Delete an entire planted cluster: the heavy cells of the survivor set
    differ structurally from the full history's."""
    pts, means, labels = gaussian_mixture(6000, 2, 1024, k=4, spread=0.02,
                                          seed=23, return_truth=True)
    rows = []
    worst = []
    for clusters in ([0], [0, 1]):
        stream = deletion_heavy_stream(pts, labels, delete_clusters=clusters, seed=7)
        k_left = 4 - len(clusters)
        survivors, cs, rep = _quality_after(stream, k_left)
        rows.append([f"deleted clusters {clusters}", len(survivors), len(cs),
                     round(rep.worst_ratio, 4),
                     "PASS" if rep.holds(slack=1.1) else "FAIL"])
        worst.append(rep.worst_ratio)
    print_table(
        "E4b: whole-cluster deletions (structure of OPT changes)",
        ["workload", "survivors", "|Q'|", "worst ratio", "verdict"],
        rows,
    )
    assert max(worst) <= 1.25 * 1.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="E4")
def test_e4_noise_then_delete(benchmark):
    """Insert uniform noise, then the clustered survivors, then delete all
    the noise: the survivors' coreset must not remember the noise."""
    pts = np.unique(gaussian_mixture(3000, 2, 1024, k=3, spread=0.02, seed=27),
                    axis=0)
    rng = np.random.default_rng(27)
    noise = np.unique(rng.integers(0, 1025, size=(9000, 2)), axis=0)
    noise = noise[~np.isin(noise @ [2048, 1], pts @ [2048, 1])]
    noise = noise[rng.permutation(len(noise))]
    stream = (Stream.from_points(noise) + Stream.from_points(pts)
              + Stream.from_points(noise[rng.permutation(len(noise))], sign=DELETE))
    survivors, cs, rep = _quality_after(stream, 3)
    print_table(
        "E4d: noise then delete (uniform noise, survivors, noise deleted; k=3)",
        ["noise", "events", "survivors", "|Q'|", "worst ratio", "bound", "verdict"],
        [[len(noise), len(stream), len(survivors), len(cs),
          round(rep.worst_ratio, 4), "<= 1.25",
          "PASS" if rep.holds(slack=1.1) else "FAIL"]],
    )
    assert len(survivors) == len(pts)
    assert rep.worst_ratio <= 1.25 * 1.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


@pytest.mark.benchmark(group="E4")
def test_e4_baseline_cannot_delete(benchmark):
    """[BBLM14] three-pass mapping coreset: insertion-only by construction."""
    from repro.baselines import ThreePassMappingCoreset

    pts = np.unique(gaussian_mixture(2000, 2, 1024, k=3, seed=25), axis=0)
    stream = churn_stream(pts, delete_fraction=0.3, seed=9)
    bl = ThreePassMappingCoreset(k=3, num_representatives=64, seed=1)
    bl.start_pass(1)
    failed = False
    try:
        for ev in stream:
            bl.update(ev)
    except NotImplementedError:
        failed = True
    print_table(
        "E4c: deletion support",
        ["algorithm", "passes", "handles deletions"],
        [["this paper (Algorithm 4)", 1, "yes"],
         ["[BBLM14] mapping coreset", 3, "no (raises)"]],
    )
    assert failed
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
