"""Tests for the streaming-update subsystem (delta / tombstones / WAL / compaction).

Covers the tentpole acceptance criteria of the mutable-index layer:

* unmutated pass-through -- a mutable wrapper with no pending mutation is
  bit-identical to its base index;
* read-your-writes -- an upserted vector is retrievable (exact-scored) by
  the very next search; deletes (of trained *and* buffered points) never
  surface again, before or after compaction;
* the A->B parity oracle -- an index trained on corpus A then mutated to
  corpus B returns no tombstoned id ever, and its recall@10 over B stays
  within tolerance of an index trained directly on B;
* WAL replay -- an epoch-stamped snapshot plus the log tail reproduces the
  mutated index's results bit-identically, across upserts, deletes and
  compactions;
* the online compactor -- drains the buffer retrain-free, purges
  tombstones, and leaves search results consistent;
* the rebuild policy -- auto-compaction at the capacity threshold, drift
  accounting for the retrain signal.

These tests run in the tier-1 CI matrix by path (no ``slow`` marker).
"""

from __future__ import annotations

import numpy as np
import pytest
from rt_reference import assert_cells_address_codes

from repro.core.config import JunoConfig
from repro.core.index import JunoIndex
from repro.datasets.ground_truth import compute_ground_truth
from repro.datasets.synthetic import make_clustered_dataset
from repro.metrics.distances import Metric
from repro.metrics.recall import recall_k_at_n
from repro.serving.persistence import (
    PersistenceError,
    load_index,
    load_mutable_index,
    save_index,
    save_mutable_index,
    search_results_equal,
)
from repro.updates import (
    DeltaIndex,
    MutableJunoIndex,
    RebuildPolicy,
    TombstoneSet,
    WalError,
    WriteAheadLog,
)


def _settings():
    return dict(
        num_clusters=8,
        num_subspaces=4,
        num_entries=8,
        num_threshold_samples=16,
        threshold_top_k=20,
        kmeans_iters=4,
        density_grid=10,
        seed=3,
    )


def _corpus(num_points=600, seed=5, metric=Metric.L2):
    return make_clustered_dataset(
        name=f"updates-{num_points}-{seed}-{metric.value}",
        num_points=num_points,
        num_queries=8,
        dim=8,
        num_components=8,
        query_jitter=0.2,
        metric=metric,
        seed=seed,
    )


def _train_base(points, metric=Metric.L2):
    return JunoIndex(JunoConfig(metric=metric, **_settings())).train(points)


def _mutable(points, metric=Metric.L2, **kwargs):
    return MutableJunoIndex(_train_base(points, metric), points, **kwargs)


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


@pytest.fixture(scope="module")
def base_index(corpus):
    return _train_base(corpus.points)


class TestDeltaIndex:
    def test_upsert_search_and_replace(self):
        delta = DeltaIndex(dim=2)
        delta.upsert([10, 11], [[0.0, 0.0], [5.0, 5.0]])
        ids, scores = delta.search(np.array([[0.1, 0.0]]), k=2)
        assert list(ids[0]) == [10, 11]
        assert scores[0, 0] < scores[0, 1]
        # replacing id 10 moves it away; insertion order is preserved
        delta.upsert([10], [[100.0, 100.0]])
        assert list(delta.ids) == [10, 11]
        ids, _ = delta.search(np.array([[0.1, 0.0]]), k=2)
        assert list(ids[0]) == [11, 10]

    def test_duplicate_ids_in_one_call_resolve_last_wins(self):
        delta = DeltaIndex(dim=2)
        delta.upsert([7, 7], [[1.0, 0.0], [2.0, 0.0]])
        assert len(delta) == 1
        np.testing.assert_array_equal(delta.vectors, [[2.0, 0.0]])

    def test_discard_reports_buffered_subset(self):
        delta = DeltaIndex(dim=2)
        delta.upsert([1, 2], [[0.0, 0.0], [1.0, 1.0]])
        hit = delta.discard([2, 99])
        assert list(hit) == [2]
        assert list(delta.ids) == [1]

    def test_empty_search_returns_zero_width(self):
        ids, scores = DeltaIndex(dim=2).search(np.zeros((3, 2)), k=5)
        assert ids.shape == (3, 0) and scores.shape == (3, 0)


class TestTombstoneSet:
    def test_mask_and_membership(self):
        tombs = TombstoneSet([5, 3])
        assert 3 in tombs and 4 not in tombs
        assert [i in tombs for i in np.array([1, 3, 5, 7])] == [False, True, True, False]
        np.testing.assert_array_equal(tombs.to_array(), [3, 5])
        tombs.discard([3])
        assert len(tombs) == 1 and list(tombs.to_array()) == [5]


class TestWriteAheadLog:
    def test_append_replay_round_trip_preserves_floats(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal")
        vector = [0.1 + 0.2, 1e-17, -3.5]
        wal.append("upsert", ids=[5], vectors=[vector])
        wal.append("delete", ids=[5])
        wal.close()
        with WriteAheadLog(tmp_path / "ops.wal") as reopened:
            records = list(reopened.replay())
            assert [r["op"] for r in records] == ["upsert", "delete"]
            assert records[0]["vectors"].dtype == np.float64
            assert records[0]["ids"].tolist() == [5]
            assert records[0]["vectors"].tolist() == [vector]  # the bytes the caller upserted
            assert reopened.last_seq == 2
            assert reopened.append("compact") == 3

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "ops.wal"
        wal = WriteAheadLog(path)
        wal.append("delete", ids=[1])
        wal.close()
        frame = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(frame[: len(frame) // 2])  # crash mid-append
        assert [r["seq"] for r in WriteAheadLog(path).replay()] == [1]

    def test_append_validates_before_writing(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal")
        with pytest.raises(ValueError):
            wal.append("frobnicate")
        with pytest.raises(ValueError, match="vectors"):
            wal.append("delete", ids=[1], vectors=[[0.5]])
        with pytest.raises(ValueError, match="vectors"):
            wal.append("upsert", ids=[1])
        with pytest.raises(ValueError, match="one vector per id"):
            wal.append("upsert", ids=[1, 2], vectors=[[0.5]])
        assert wal.last_seq == 0 and not wal.path.exists()

    def test_corrupt_middle_record_is_typed(self, tmp_path):
        path = tmp_path / "ops.wal"
        path.write_text('not json\n{"seq": 2, "op": "delete", "ids": [1]}\n')
        with pytest.raises(WalError, match="corrupt WAL record"):
            list(WriteAheadLog(path).replay())

    def test_non_monotonic_sequence_is_typed(self, tmp_path):
        path = tmp_path / "ops.wal"
        path.write_text(
            '{"seq": 2, "op": "compact"}\n{"seq": 2, "op": "compact"}\n{"seq": 3, "op": "compact"}\n'
        )
        with pytest.raises(WalError, match="non-monotonic"):
            list(WriteAheadLog(path).replay())


class TestMutableSearch:
    def test_unmutated_wrapper_is_bit_identical_to_base(self, corpus, base_index):
        mutable = MutableJunoIndex(_train_base(corpus.points), corpus.points)
        expected = base_index.search(corpus.queries, 5, nprobs=4)
        observed = mutable.search(corpus.queries, 5, nprobs=4)
        assert search_results_equal(expected, observed)

    def test_upsert_is_visible_to_the_next_search(self, corpus):
        mutable = _mutable(corpus.points)
        new_id = 10_000
        mutable.upsert([new_id], corpus.queries[:1])
        result = mutable.search(corpus.queries[:1], 5, nprobs=4)
        # exact delta scoring: the inserted clone is its own L2 top-1
        assert result.ids[0, 0] == new_id
        assert result.scores[0, 0] == 0.0
        assert result.extra["reranked"] is True

    def test_upsert_updates_an_existing_id(self, corpus):
        mutable = _mutable(corpus.points)
        target = 42
        far = corpus.points[target] + 100.0
        mutable.upsert([target], far[None, :])
        result = mutable.search(corpus.points[target][None, :], 5, nprobs=4)
        # the stale trained copy (exact distance 0) must not surface
        assert not np.any((result.ids == target) & (result.scores == 0.0))

    def test_delete_never_surfaces_and_backfills_to_k(self, corpus):
        mutable = _mutable(corpus.points)
        reference = mutable.search(corpus.queries, 10, nprobs=4)
        victims = np.unique(reference.ids[:, 0])
        mutable.delete(victims)
        result = mutable.search(corpus.queries, 10, nprobs=4)
        assert not np.isin(result.ids, victims).any()
        # the over-fetch keeps full rows despite the tombstone masking
        assert (result.ids >= 0).all()

    def test_delete_of_buffered_insert(self, corpus):
        mutable = _mutable(corpus.points)
        mutable.upsert([9999], corpus.queries[:1])
        mutable.delete([9999])
        result = mutable.search(corpus.queries[:1], 5, nprobs=4)
        assert 9999 not in result.ids
        assert len(mutable.delta) == 0

    def test_delete_unknown_id_raises_before_logging(self, corpus, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal")
        mutable = _mutable(corpus.points, wal=wal)
        with pytest.raises(KeyError, match="not live"):
            mutable.delete([123_456])
        assert wal.last_seq == 0  # failed ops never enter the log

    def test_dead_rows_mask_is_the_tombstone_set_by_row(self, corpus, tmp_path):
        """The merge stage filters with ``_dead_rows[local]``; it must say
        what ``isin(global ids, tombstones)`` said, through every op."""
        mutable = _mutable(corpus.points, policy=RebuildPolicy(auto_compact=False))
        queries = corpus.queries

        def check(index):
            expected = np.isin(index._global_ids, index.tombstones.to_array())
            np.testing.assert_array_equal(index._dead_rows, expected)
            ids = index.search(queries, 10, nprobs=8).ids
            live = set(index.live_ids().tolist())
            assert set(ids[ids >= 0].tolist()) <= live

        check(mutable)
        mutable.upsert([70_000, 70_001], queries[:2])
        check(mutable)
        mutable.upsert([3, 4], queries[2:4])  # supersede two trained points
        mutable.delete([5, 70_000])  # one trained, one buffered
        check(mutable)
        assert int(mutable._dead_rows.sum()) == len(mutable.tombstones) == 3
        restored = load_mutable_index(mutable.save(tmp_path / "snap"))
        check(restored)
        assert restored.state_digest() == mutable.state_digest()
        mutable.compact()
        assert not mutable._dead_rows.any()
        assert mutable._dead_rows.shape == mutable._global_ids.shape
        mutable.delete([3, 9])
        check(mutable)
        mutable.retrain()
        check(mutable)

    def test_mips_metric_supported(self):
        corpus = _corpus(metric=Metric.INNER_PRODUCT)
        mutable = _mutable(corpus.points, metric=Metric.INNER_PRODUCT)
        huge = corpus.queries[0] * 50.0
        mutable.upsert([7777], huge[None, :])
        result = mutable.search(corpus.queries[:1], 5, nprobs=4)
        assert result.ids[0, 0] == 7777  # dominant inner product wins

    def test_state_digest_changes_with_every_mutation(self, corpus):
        """Each upsert, delete and compaction changes what the digest names;
        a no-op compaction and a search change nothing."""
        mutable = _mutable(corpus.points)
        digests = [mutable.state_digest()]
        mutable.upsert([5000], corpus.queries[:1])
        digests.append(mutable.state_digest())
        assert mutable.search(corpus.queries[:1], 5, nprobs=4).ids[0, 0] == 5000
        mutable.delete([0])
        digests.append(mutable.state_digest())
        mutable.compact()
        digests.append(mutable.state_digest())
        assert len(set(digests)) == len(digests)
        mutable.compact()
        mutable.search(corpus.queries, 5, nprobs=4)
        assert mutable.state_digest() == digests[-1]


class TestCompaction:
    def test_compact_drains_buffer_purges_tombstones(self, corpus):
        mutable = _mutable(corpus.points)
        rng = np.random.default_rng(11)
        fresh = corpus.points[:6] + 0.01 * rng.standard_normal((6, corpus.dim))
        fresh_ids = np.arange(20_000, 20_006)
        mutable.upsert(fresh_ids, fresh)
        mutable.delete([0, 1, 2])
        before = mutable.search(corpus.queries, 10, nprobs=4)
        mutable.compact()
        assert len(mutable.delta) == 0 and len(mutable.tombstones) == 0
        assert mutable.base.num_points == corpus.num_points + 6 - 3
        after = mutable.search(corpus.queries, 10, nprobs=4)
        assert not np.isin(after.ids, [0, 1, 2]).any()
        # the drained inserts remain retrievable through the trained path
        # (now PQ-scored like any trained point, hence k=20 rather than top-1)
        self_hits = mutable.search(fresh, 20, nprobs=4)
        assert all(fid in self_hits.ids[row] for row, fid in enumerate(fresh_ids))
        # compaction is approximate only through PQ assignment; the merged
        # top-10 stays close to the pre-compaction (exact-delta) ranking
        overlap = np.mean(
            [
                len(set(a) & set(b)) / len(set(a))
                for a, b in zip(before.ids.tolist(), after.ids.tolist())
            ]
        )
        assert overlap >= 0.7

    def test_flat_layout_is_prebuilt_after_build_load_and_compact(
        self, corpus, base_index, tmp_path
    ):
        """No search builds the score kernel's layout: ``build()`` already did.

        A lazily built layout made the first request of every freshly booted
        or compacted shard pay for it, and shard threads could race to build
        it twice.
        """

        def prebuilt(index):
            layout = index.subspace_index._flat_layout
            assert layout is not None
            assert index.subspace_index.flat_layout() is layout
            # ... against the scene the index traces: one owner builds the
            # gather cells wherever the layout or the scene is (re)built
            assert_cells_address_codes(index)
            return layout

        prebuilt(base_index)
        bundle = save_index(base_index, tmp_path / "bundle", layout="npy")
        prebuilt(load_index(bundle))
        prebuilt(load_index(bundle, mmap=True))
        prebuilt(
            JunoIndex(base_index.config).assemble(
                corpus.points,
                base_index.ivf.centroids,
                base_index.ivf.labels,
                base_index.pq.codebooks,
                base_index.codes,
            )
        )
        mutable = _mutable(corpus.points)
        before = prebuilt(mutable.base)
        mutable.upsert([30_000], corpus.points[:1] + 0.01)
        mutable.compact()
        after = prebuilt(mutable.base)
        assert after is not before
        assert after.members.shape[0] == before.members.shape[0] + 1

    def test_compact_keeps_the_scene(self, corpus, tmp_path):
        """The scene depends on codebooks and radius only: compaction keeps the
        object and searches as if it had rebuilt it."""
        wal_path = tmp_path / "ops.wal"
        mutable = _mutable(corpus.points, wal=WriteAheadLog(wal_path))
        save_mutable_index(mutable, tmp_path / "epoch0")
        scene, tracer = mutable.base.scene, mutable.base.tracer
        mutable.upsert([30_000, 30_001], corpus.points[:2] + 0.01)
        mutable.delete([4, 9])
        mutable.compact()
        mutable.wal.close()
        assert mutable.base.scene is scene and mutable.base.tracer is tracer
        kept = [
            mutable.search(corpus.queries, 10, nprobs=4, quality_mode=mode)
            for mode in ("juno-h", "juno-m", "juno-l")
        ]
        digest = mutable.state_digest()

        mutable.base.rebuild_scene()
        assert mutable.base.scene is not scene
        assert mutable.state_digest() == digest
        for mode, result in zip(("juno-h", "juno-m", "juno-l"), kept):
            rebuilt = mutable.search(corpus.queries, 10, nprobs=4, quality_mode=mode)
            assert search_results_equal(result, rebuilt)
            assert rebuilt.ids.tobytes() == result.ids.tobytes()
            assert rebuilt.scores.tobytes() == result.scores.tobytes()

        replayed = load_mutable_index(tmp_path / "epoch0", wal=wal_path)
        replayed.wal.close()
        assert replayed.state_digest() == digest

    def test_compact_noop_without_pending_state(self, corpus, tmp_path):
        wal = WriteAheadLog(tmp_path / "ops.wal")
        mutable = _mutable(corpus.points, wal=wal)
        mutable.compact()
        assert wal.last_seq == 0  # a no-op compaction is not logged

    def test_maybe_compact_drains_at_capacity(self, corpus):
        """Mutations only buffer; the explicit maintenance step compacts
        exactly when the ``delta_capacity`` trigger has fired (so a
        supervisor can schedule it between batches instead of an unlucky
        client paying for it inside an upsert)."""
        mutable = _mutable(corpus.points, policy=RebuildPolicy(delta_capacity=4))
        rng = np.random.default_rng(13)
        for i in range(3):
            mutable.upsert(
                [30_000 + i], corpus.points[i][None, :] + 0.01 * rng.standard_normal((1, corpus.dim))
            )
        assert not mutable.maybe_compact()  # under capacity: not due yet
        assert len(mutable.delta) == 3  # the upserts themselves never compact
        mutable.upsert([30_003], corpus.points[3][None, :])
        assert len(mutable.delta) == 4
        assert mutable.maintenance_due() == "compact"
        assert mutable.maybe_compact()
        assert len(mutable.delta) == 0  # capacity hit -> drained on request
        assert mutable.base.num_points == corpus.num_points + 4
        assert not mutable.maybe_compact()  # idempotent once drained

    def test_maybe_compact_respects_auto_compact_off(self, corpus):
        mutable = _mutable(
            corpus.points, policy=RebuildPolicy(delta_capacity=2, auto_compact=False)
        )
        mutable.upsert([31_000, 31_001], corpus.queries[:2])
        assert mutable.maintenance_due() == "compact"
        assert not mutable.maybe_compact()  # opted out: only explicit compact()
        assert len(mutable.delta) == 2

    def test_drift_and_retrain_signal(self, corpus):
        mutable = _mutable(
            corpus.points, policy=RebuildPolicy(delta_capacity=1000, max_drift=0.01)
        )
        assert mutable.maintenance_due() == "none"
        mutable.delete(np.arange(10))
        assert mutable.drift == pytest.approx(10 / corpus.num_points)
        assert mutable.retrain_due
        assert mutable.maintenance_due() == "retrain"
        mutable.retrain()
        assert mutable.drift == 0.0
        assert mutable.num_points == corpus.num_points - 10
        result = mutable.search(corpus.queries, 10, nprobs=4)
        assert not np.isin(result.ids, np.arange(10)).any()


class TestParityOracle:
    """Acceptance: train on A, mutate to B, compare against training on B."""

    def test_mutated_index_matches_direct_training_on_b(self, corpus):
        rng = np.random.default_rng(29)
        points_a = corpus.points
        num_removed = 40
        removed = rng.choice(corpus.num_points, size=num_removed, replace=False)
        added = points_a[rng.choice(corpus.num_points, size=30, replace=False)]
        added = added + 0.05 * rng.standard_normal(added.shape)
        added_ids = np.arange(50_000, 50_030)

        keep_mask = np.ones(corpus.num_points, dtype=bool)
        keep_mask[removed] = False
        points_b = np.concatenate([points_a[keep_mask], added])
        ids_b = np.concatenate([np.flatnonzero(keep_mask), added_ids])
        truth_rows = compute_ground_truth(points_b, corpus.queries, k=10)
        truth = ids_b[truth_rows]  # exact top-10 over B in mutated-id space

        mutated = _mutable(points_a)
        mutated.upsert(added_ids, added)
        mutated.delete(removed)

        direct = _train_base(points_b)
        direct_result = direct.search(corpus.queries, 10, nprobs=4)
        direct_recall = recall_k_at_n(ids_b[direct_result.ids], truth, 10, 10)

        for label, index in (("pre-compaction", mutated), ("post-compaction", mutated)):
            result = index.search(corpus.queries, 10, nprobs=4)
            # deletes are exact: no tombstoned id ever surfaces
            assert not np.isin(result.ids, removed).any(), label
            recall = recall_k_at_n(result.ids, truth, 10, 10)
            # inserts are within tolerance of an index trained directly on B
            assert recall >= direct_recall - 0.15, (label, recall, direct_recall)
            mutated.compact()


class TestWalReplayAndSnapshots:
    def _mutate(self, mutable, corpus):
        rng = np.random.default_rng(17)
        mutable.upsert(
            np.arange(40_000, 40_010),
            corpus.points[:10] + 0.01 * rng.standard_normal((10, corpus.dim)),
        )
        mutable.delete([3, 7])
        mutable.upsert([5], corpus.points[5][None, :] * 1.1)
        mutable.compact()
        mutable.upsert([40_100], corpus.queries[:1])

    def test_snapshot_plus_wal_replay_is_bit_identical(self, corpus, tmp_path):
        wal_path = tmp_path / "ops.wal"
        mutable = _mutable(corpus.points, wal=WriteAheadLog(wal_path))
        save_mutable_index(mutable, tmp_path / "epoch0")  # snapshot before any op
        self._mutate(mutable, corpus)
        mutable.wal.close()
        expected = mutable.search(corpus.queries, 10, nprobs=4)

        replayed = load_mutable_index(tmp_path / "epoch0", wal=wal_path)
        replayed.wal.close()
        observed = replayed.search(corpus.queries, 10, nprobs=4)
        assert search_results_equal(expected, observed)
        assert replayed.num_points == mutable.num_points
        assert sorted(replayed.live_ids()) == sorted(mutable.live_ids())

    def test_mid_stream_snapshot_replays_only_the_tail(self, corpus, tmp_path):
        wal_path = tmp_path / "ops.wal"
        mutable = _mutable(corpus.points, wal=WriteAheadLog(wal_path))
        self._mutate(mutable, corpus)
        save_mutable_index(mutable, tmp_path / "epochN")  # epoch-stamped mid-stream
        mutable.delete([40_100])
        mutable.wal.close()
        expected = mutable.search(corpus.queries, 10, nprobs=4)

        replayed = load_mutable_index(tmp_path / "epochN", wal=wal_path)
        observed = replayed.search(corpus.queries, 10, nprobs=4)
        assert search_results_equal(expected, observed)
        # the reloaded index keeps appending to the same log
        assert replayed.wal is not None
        with replayed.wal:
            replayed.upsert([40_200], corpus.queries[1:2])
        assert replayed.wal.last_seq > mutable.wal.last_seq

    def test_replayed_retrain_is_deterministic(self, corpus, tmp_path):
        wal_path = tmp_path / "ops.wal"
        mutable = _mutable(corpus.points, wal=WriteAheadLog(wal_path))
        save_mutable_index(mutable, tmp_path / "epoch0")
        mutable.delete(np.arange(5))
        mutable.retrain()
        mutable.wal.close()
        expected = mutable.search(corpus.queries, 10, nprobs=4)
        replayed = load_mutable_index(tmp_path / "epoch0", wal=wal_path)
        replayed.wal.close()
        assert search_results_equal(expected, replayed.search(corpus.queries, 10, nprobs=4))

    def test_unknown_op_record_is_rejected(self, corpus):
        mutable = _mutable(corpus.points)
        with pytest.raises(ValueError, match="unknown mutable-index op"):
            mutable.apply_record({"op": "frobnicate"})

    def test_wal_pickles_by_path_without_handle(self, corpus, tmp_path):
        import pickle

        with WriteAheadLog(tmp_path / "ops.wal") as wal:
            wal.append("delete", ids=[1])
        clone = pickle.loads(pickle.dumps(wal))
        assert clone.path == wal.path and clone.last_seq == 1
        assert [r["seq"] for r in clone.replay()] == [1]

    def test_maintenance_due_reports_compact(self, corpus):
        mutable = _mutable(
            corpus.points, policy=RebuildPolicy(delta_capacity=2, auto_compact=False)
        )
        mutable.upsert([70_000, 70_001], corpus.queries[:2])
        assert mutable.maintenance_due() == "compact"

    def test_snapshot_round_trip_without_wal(self, corpus, tmp_path):
        mutable = _mutable(corpus.points)
        mutable.upsert([60_000], corpus.queries[:1])
        mutable.delete([9])
        save_mutable_index(mutable, tmp_path / "snap")
        reloaded = load_mutable_index(tmp_path / "snap")
        assert search_results_equal(
            mutable.search(corpus.queries, 10, nprobs=4),
            reloaded.search(corpus.queries, 10, nprobs=4),
        )

    def test_missing_updates_npz_is_typed(self, corpus, tmp_path):
        mutable = _mutable(corpus.points)
        save_mutable_index(mutable, tmp_path / "snap")
        [updates_file] = (tmp_path / "snap").glob("updates-*.npz")
        updates_file.unlink()
        with pytest.raises(PersistenceError, match="updates-"):
            load_mutable_index(tmp_path / "snap")

    def test_untrained_save_is_typed(self, corpus, tmp_path):
        mutable = _mutable(corpus.points)
        mutable.base.scene = None  # simulate an untrained base
        with pytest.raises(PersistenceError, match="untrained"):
            save_mutable_index(mutable, tmp_path / "snap")
