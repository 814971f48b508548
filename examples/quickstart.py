"""Quickstart: index a synthetic corpus with JUNO and compare it to the baseline.

Run with::

    python examples/quickstart.py

The script trains a JUNO index and a FAISS-style IVFPQ baseline on a
DEEP-like surrogate dataset, searches the same queries with both, and prints
recall plus the modelled throughput on an RTX 4090.
"""

from __future__ import annotations

from repro import CostModel, IVFPQIndex, JunoIndex, make_deep_like, recall_at


def main() -> None:
    # 1. Build a clustered dataset (a scaled-down DEEP1M surrogate) and its
    #    exact ground truth.
    dataset = make_deep_like(num_points=10_000, num_queries=64)
    ground_truth = dataset.ensure_ground_truth(k=100)
    print(f"dataset: {dataset.name}  N={dataset.num_points}  D={dataset.dim}")

    # 2. Train JUNO (offline phase: IVF, PQ codebooks, density maps, threshold
    #    regressor, traversable RT scene).
    juno = JunoIndex.for_dataset(dataset, num_clusters=64, num_entries=128)
    juno.train(dataset.points)
    layers, spheres = juno.scene.entry_slots.shape  # one row of entry slots per layer
    print(f"JUNO trained: sphere radius R={juno.sphere_radius:.3f}, "
          f"{layers * spheres} spheres in {layers} subspace layers")

    # 3. Train the FAISS-style IVFPQ baseline with the same IVF/PQ settings.
    baseline = IVFPQIndex(num_clusters=64, num_subspaces=dataset.dim // 2, num_entries=128)
    baseline.train(dataset.points)

    # 4. Search with both and compare recall and modelled throughput.
    cost_model = CostModel("rtx4090")
    print(f"\n{'system':<22} {'recall R1@100':>14} {'modelled QPS':>14} {'entries selected':>18}")
    for mode in ("juno-h", "juno-l"):
        result = juno.search(dataset.queries, k=100, nprobs=8, quality_mode=mode)
        recall = recall_at(result.ids, ground_truth, 100)
        qps = cost_model.qps(result.work, pipelined=True)
        print(f"{'JUNO ' + mode:<22} {recall:>14.3f} {qps:>14.3g} "
              f"{result.selected_entry_fraction:>17.1%}")

    base_result = baseline.search(dataset.queries, k=100, nprobs=8)
    base_recall = recall_at(base_result.ids, ground_truth, 100)
    base_qps = cost_model.qps(base_result.work)
    print(f"{'IVFPQ baseline':<22} {base_recall:>14.3f} {base_qps:>14.3g} {'100.0%':>18}")


if __name__ == "__main__":
    main()
