"""Tests for the asyncio batching front-end.

The deterministic-clock suite pins the acceptance criteria of the async
front-end: max-wait flush, max-size flush and cancellation on close, all
driven by an injected clock (``poll()`` applies one wait-policy check
without real sleeping).

These tests run in the tier-1 CI matrix by path (no ``slow`` marker) and use
``asyncio.run`` directly, so no async test plugin is required.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.serving import AsyncBatchingScheduler, ServingEngine


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class _EchoIndex:
    """Minimal engine: returns each query's first component as its id."""

    def __init__(self):
        self.batches = []

    def search(self, queries, k, **_):
        self.batches.append(np.asarray(queries))
        ids = np.tile(np.arange(k), (queries.shape[0], 1))
        ids[:, 0] = queries[:, 0].astype(np.int64)
        return ids, np.zeros_like(ids, dtype=np.float64)


class _FailingIndex:
    def search(self, queries, k, **_):
        raise RuntimeError("backend exploded")


async def _submit_task(scheduler, query):
    """Start a submit and let it enqueue before returning the task."""
    task = asyncio.ensure_future(scheduler.submit(query))
    await asyncio.sleep(0)
    return task


class TestAsyncBatchingScheduler:
    def test_flushes_when_batch_is_full(self):
        async def scenario():
            clock = FakeClock()
            scheduler = AsyncBatchingScheduler(
                _EchoIndex(), k=3, max_batch_size=2, max_wait_s=10.0, clock=clock
            )
            first = await _submit_task(scheduler, [7.0, 0.0])
            assert scheduler.num_pending == 1 and not first.done()
            second = await _submit_task(scheduler, [9.0, 0.0])
            ids_a, scores_a = await first
            ids_b, _ = await second
            assert scheduler.num_pending == 0
            assert ids_a[0] == 7 and ids_b[0] == 9
            assert scores_a.shape == (3,)
            await scheduler.close()

        asyncio.run(scenario())

    def test_max_wait_flush_with_deterministic_clock(self):
        async def scenario():
            clock = FakeClock()
            scheduler = AsyncBatchingScheduler(
                _EchoIndex(), k=2, max_batch_size=100, max_wait_s=0.5, clock=clock
            )
            pending = await _submit_task(scheduler, [1.0, 0.0])
            assert scheduler.poll() == 0  # policy not yet due
            clock.advance(0.4)
            assert scheduler.poll() == 0
            clock.advance(0.11)
            assert scheduler.poll() == 1  # oldest query aged past max_wait_s
            ids, _ = await pending
            assert ids[0] == 1
            # a submit arriving after the deadline flushes immediately
            clock.advance(10.0)
            opened = await _submit_task(scheduler, [2.0, 0.0])
            clock.advance(0.6)
            ids, _ = await scheduler.submit([3.0, 0.0])
            assert ids[0] == 3
            assert (await opened)[0][0] == 2
            await scheduler.close()

        asyncio.run(scenario())

    def test_cancellation_on_close(self):
        async def scenario():
            scheduler = AsyncBatchingScheduler(
                _EchoIndex(), k=2, max_batch_size=8, max_wait_s=10.0, clock=FakeClock()
            )
            pending = await _submit_task(scheduler, [1.0, 0.0])
            await scheduler.close()
            with pytest.raises(asyncio.CancelledError):
                await pending
            assert scheduler.closed
            with pytest.raises(RuntimeError, match="closed"):
                await scheduler.submit([2.0, 0.0])
            await scheduler.close()  # idempotent

        asyncio.run(scenario())

    def test_background_flusher_drives_wait_policy_in_real_time(self):
        async def scenario():
            async with AsyncBatchingScheduler(
                _EchoIndex(), k=2, max_batch_size=100, max_wait_s=0.005
            ) as scheduler:
                ids, _ = await scheduler.submit([5.0, 0.0])
                assert ids[0] == 5
                assert scheduler.stats().num_batches == 1

        asyncio.run(scenario())

    def test_result_rows_are_read_only_views(self):
        async def scenario():
            clock = FakeClock()
            scheduler = AsyncBatchingScheduler(
                _EchoIndex(), k=3, max_batch_size=2, max_wait_s=10.0, clock=clock
            )
            first = await _submit_task(scheduler, [7.0, 0.0])
            second = await _submit_task(scheduler, [9.0, 0.0])
            ids_a, scores_a = await first
            ids_b, _ = await second
            with pytest.raises(ValueError, match="read-only"):
                ids_a[0] = 42
            with pytest.raises(ValueError, match="read-only"):
                scores_a[:] = 0.0
            assert ids_b[0] == 9  # batch-mate rows were never corrupted
            await scheduler.close()

        asyncio.run(scenario())

    def test_engine_failure_reaches_every_waiting_client(self):
        async def scenario():
            scheduler = AsyncBatchingScheduler(
                _FailingIndex(), k=2, max_batch_size=2, max_wait_s=10.0, clock=FakeClock()
            )
            first = await _submit_task(scheduler, [1.0, 0.0])
            second = await _submit_task(scheduler, [2.0, 0.0])
            for task in (first, second):
                with pytest.raises(RuntimeError, match="backend exploded"):
                    await task
            await scheduler.close()

        asyncio.run(scenario())

    def test_stats_match_sync_scheduler_semantics(self):
        async def scenario():
            clock = FakeClock()
            index = _EchoIndex()
            real_search = index.search

            def timed_search(queries, k, **kw):
                clock.advance(0.25)
                return real_search(queries, k, **kw)

            index.search = timed_search
            scheduler = AsyncBatchingScheduler(
                index, k=2, max_batch_size=2, max_wait_s=10.0, clock=clock
            )
            tasks = [await _submit_task(scheduler, [float(v), 0.0]) for v in range(4)]
            await asyncio.gather(*tasks)
            stats = scheduler.stats()
            assert stats.num_batches == 2
            assert stats.num_queries == 4
            assert stats.mean_batch_size == 2.0
            assert stats.qps == pytest.approx(4 / 0.5)
            await scheduler.close()

        asyncio.run(scenario())

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError, match="k must be positive"):
            AsyncBatchingScheduler(_EchoIndex(), k=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            AsyncBatchingScheduler(_EchoIndex(), max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_s"):
            AsyncBatchingScheduler(_EchoIndex(), max_wait_s=-1.0)
        with pytest.raises(ValueError, match="poll_interval_s"):
            AsyncBatchingScheduler(_EchoIndex(), poll_interval_s=0.0)


class TestServeAsyncEngineWiring:
    def test_serve_async_matches_direct_search(self, juno_l2, l2_dataset):
        engine = ServingEngine(juno_l2)
        direct = engine.search(l2_dataset.queries[:4], k=5, nprobs=6)

        async def scenario():
            async with engine.serve_async(k=5, max_batch_size=4, nprobs=6) as scheduler:
                tasks = [
                    await _submit_task(scheduler, query)
                    for query in l2_dataset.queries[:4]
                ]
                return [await task for task in tasks]

        rows = asyncio.run(scenario())
        for row, (ids, scores) in enumerate(rows):
            np.testing.assert_array_equal(ids, direct.ids[row])
            np.testing.assert_array_equal(scores, direct.scores[row])

    def test_repeated_batches_are_served_like_direct_search(self, juno_l2, l2_dataset):
        """The same 8-query batch, three times over: every batch is searched
        afresh and every row matches the direct search."""
        engine = ServingEngine(juno_l2)
        direct = engine.search(l2_dataset.queries[:8], k=5, nprobs=6)

        async def scenario():
            async with engine.serve_async(k=5, max_batch_size=8, nprobs=6) as scheduler:
                rounds = []
                for _ in range(3):
                    rounds.append(
                        await asyncio.gather(
                            *(scheduler.submit(query) for query in l2_dataset.queries[:8])
                        )
                    )
                return rounds, scheduler.stats()

        rounds, stats = asyncio.run(scenario())
        assert stats.num_queries == 24 and stats.num_batches == 3
        for rows in rounds:
            for row, (ids, scores) in enumerate(rows):
                np.testing.assert_array_equal(ids, direct.ids[row])
                np.testing.assert_array_equal(scores, direct.scores[row])

    def test_serve_async_validates_search_params(self, ivfpq_l2):
        engine = ServingEngine(ivfpq_l2)
        with pytest.raises(ValueError, match="does not accept"):
            engine.serve_async(k=5, quality_mode="juno-h")
