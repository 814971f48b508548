"""Recommendation scenario: maximum-inner-product search (MIPS) with JUNO.

Recommendation models and transformer attention rank items by inner product,
not L2 distance.  This example uses the TTI-like surrogate (200-d embeddings
with varying norms, searched with the inner-product metric) and demonstrates
the extra-dimension-free MIPS mapping of Sec. 4.2: spheres are enlarged per
entry offline, and online the inner product is computed from the squared
in-plane distance the sphere test already holds and the sphere's enlarged
radius (the paper's hit shader decodes the same value from the hit time).

Run with::

    python examples/mips_recommendation.py
"""

from __future__ import annotations

import numpy as np

from repro import CostModel, IVFPQIndex, JunoIndex, make_tti_like, recall_at
from repro.metrics.distances import Metric


def main() -> None:
    dataset = make_tti_like(num_points=6_000, num_queries=48)
    ground_truth = dataset.ensure_ground_truth(k=100)
    print(f"dataset: {dataset.name}  N={dataset.num_points}  D={dataset.dim}  metric={dataset.metric.value}")

    juno = JunoIndex.for_dataset(dataset, num_clusters=48, num_entries=96)
    juno.train(dataset.points)
    # The MIPS mapping enlarges each entry's sphere by its norm: report the range.
    radii = np.sqrt(juno.scene.leaf_radii_sq[juno.scene.leaf_radii_sq > 0])  # empty lanes hold -1
    print(f"base radius R={juno.sphere_radius:.2f}; enlarged sphere radii span "
          f"[{radii.min():.2f}, {radii.max():.2f}]")

    baseline = IVFPQIndex(
        num_clusters=48,
        num_subspaces=dataset.dim // 2,
        num_entries=96,
        metric=Metric.INNER_PRODUCT,
    ).train(dataset.points)

    cost_model = CostModel("rtx4090")
    print(f"\n{'system':<18} {'nprobs':>6} {'recall R1@100':>14} {'modelled QPS':>13}")
    for nprobs in (2, 4, 8):
        juno_result = juno.search(dataset.queries, k=100, nprobs=nprobs, quality_mode="juno-h")
        base_result = baseline.search(dataset.queries, k=100, nprobs=nprobs)
        juno_recall = recall_at(juno_result.ids, ground_truth, 100)
        base_recall = recall_at(base_result.ids, ground_truth, 100)
        juno_qps = cost_model.qps(juno_result.work, pipelined=True)
        base_qps = cost_model.qps(base_result.work)
        print(f"{'JUNO-H (MIPS)':<18} {nprobs:>6} {juno_recall:>14.3f} {juno_qps:>13.3g}")
        print(f"{'IVFPQ baseline':<18} {nprobs:>6} {base_recall:>14.3f} {base_qps:>13.3g}")

    # Show one concrete recommendation list.
    result = juno.search(dataset.queries[:1], k=5, nprobs=8)
    print("\ntop-5 recommendations for the first query (item id, inner product):")
    for item_id, score in zip(result.ids[0], result.scores[0]):
        print(f"  item {item_id:>6d}   IP = {score:.3f}")


if __name__ == "__main__":
    main()
