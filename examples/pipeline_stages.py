"""Staged query execution: custom stages, per-stage costs, sharded rerank.

Run with::

    python examples/pipeline_stages.py

The script demonstrates the three faces of the staged query pipeline:

1. the default pipeline's per-stage wall-clock and modelled-GPU breakdown
   (where does a JUNO search actually spend its time?);
2. a custom stage inserted mid-pipeline (a candidate cap between scoring
   and top-k selection) without touching any core code;
3. a sharded deployment whose merged results are exactly reranked,
   recovering single-index recall at an aggressive threshold scale where
   plain shard merging degrades.
"""

from __future__ import annotations

from repro import (
    CostModel,
    ServingEngine,
    ShardedJunoIndex,
    default_search_pipeline,
    make_deep_like,
    recall_at,
)

K = 10
NPROBS = 8


class CandidateCap:
    """Example custom stage: keep at most ``cap`` candidates per query."""

    name = "candidate_cap"

    def __init__(self, cap: int) -> None:
        self.cap = cap

    def run(self, ctx) -> None:
        ctx.candidates = [
            None if pair is None else (pair[0][: self.cap], pair[1][: self.cap])
            for pair in ctx.candidates
        ]


def main() -> None:
    dataset = make_deep_like(num_points=4_000, num_queries=48)
    ground_truth = dataset.ensure_ground_truth(k=K)
    cost_model = CostModel("rtx4090")

    # 1. Default pipeline with per-stage breakdowns through the engine.
    from repro import JunoIndex

    index = JunoIndex.for_dataset(dataset, num_clusters=32).train(dataset.points)
    with ServingEngine(index, cost_model=cost_model) as engine:
        result = engine.search(dataset.queries, k=K, nprobs=NPROBS)
        print(f"default pipeline  R@{K}: {recall_at(result.ids, ground_truth, K):.3f}")
        print(f"  {'stage':<14} {'measured':>12} {'modelled GPU':>14}")
        modelled = engine.modelled_stage_latencies(result)
        for stage, seconds in engine.stage_seconds(result).items():
            print(f"  {stage:<14} {seconds * 1e3:>10.2f}ms {modelled[stage] * 1e6:>12.2f}us")

    # 2. A custom stage between scoring and top-k selection.
    capped = default_search_pipeline().with_stage_after("score", CandidateCap(32))
    result = index.search(dataset.queries, k=K, nprobs=NPROBS, pipeline=capped)
    print(
        f"\ncapped pipeline   R@{K}: {recall_at(result.ids, ground_truth, K):.3f}"
        f"  (stages: {', '.join(result.extra['stage_seconds'])})"
    )

    # 3. Sharded deployment + exact rerank.
    sharded = ShardedJunoIndex.from_dim(dataset.dim, num_shards=4, num_clusters=32)
    with sharded:
        sharded.train(dataset.points)
        # JUNO-L hit counts are shard-local scales: at a generous threshold
        # scale the merged ranking mixes incomparable scores, which the
        # exact rerank repairs.
        search_args = dict(k=K, nprobs=NPROBS, quality_mode="juno-l", threshold_scale=2.0)
        plain = sharded.search(dataset.queries, **search_args)
        sharded.enable_exact_rerank(dataset.points)
        reranked = sharded.search(dataset.queries, **search_args)
        print(
            "\nsharded JUNO-L @ threshold_scale=2.0: "
            f"plain merge R@{K}: {recall_at(plain.ids, ground_truth, K):.3f}  ->  "
            f"exact rerank R@{K}: {recall_at(reranked.ids, ground_truth, K):.3f}"
        )
        rerank_work = reranked.extra["stage_work"]["exact_rerank"]
        rerank_modelled = cost_model.stage_latency("exact_rerank", rerank_work)
        print(
            f"rerank cost: {rerank_work.rerank_flops:.0f} flops, "
            f"modelled {rerank_modelled * 1e6:.2f}us on top of the merge"
        )


if __name__ == "__main__":
    main()
