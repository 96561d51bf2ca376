"""RelaxedTaskHeap: two-choice semantics and the rank-error bound."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.heap import RelaxedTaskHeap, TaskHeap
from repro.runtime.task import Task, TaskState


def make_task(tid: int) -> Task:
    task = Task(tid, "k", implementations=("cpu",))
    task.state = TaskState.READY
    return task


class TestBasics:
    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            RelaxedTaskHeap(0)

    def test_empty(self):
        heap = RelaxedTaskHeap(4)
        assert len(heap) == 0
        assert heap.best() is None
        assert heap.top_candidates(5) == []

    def test_k1_is_exact(self):
        """One sub-heap degenerates to the exact TaskHeap ordering."""
        relaxed = RelaxedTaskHeap(1)
        exact = TaskHeap()
        gains = [0.3, 0.9, 0.1, 0.7, 0.5]
        for i, g in enumerate(gains):
            relaxed.insert(make_task(i), g, 0.0)
            exact.insert(make_task(i), g, 0.0)
        assert relaxed.best().gain == exact.best().gain == 0.9

    def test_insert_balances_sub_heaps(self):
        heap = RelaxedTaskHeap(4, seed=1)
        for i in range(64):
            heap.insert(make_task(i), i / 64, 0.0)
        sizes = sorted(len(s) for s in heap._subs)
        assert sum(sizes) == 64
        # Two-choice insertion keeps the spread far below worst-case.
        assert sizes[-1] - sizes[0] <= 16

    def test_remove_routes_to_owner(self):
        heap = RelaxedTaskHeap(3, seed=2)
        entries = [heap.insert(make_task(i), i / 10, 0.0) for i in range(10)]
        heap.remove(entries[4])
        assert len(heap) == 9
        assert all(e.task.tid != 4 for e in heap)
        heap.check_invariants()

    def test_top_candidates_full_window_is_exact(self):
        """n >= len must return every entry (the liveness contract)."""
        heap = RelaxedTaskHeap(4, seed=3)
        for i in range(20):
            heap.insert(make_task(i), i / 20, 0.0)
        window = heap.top_candidates(len(heap))
        assert {e.task.tid for e in window} == set(range(20))

    def test_best_falls_back_to_exact_scan(self):
        """Even if the sampled pair is empty, a lone entry is found."""
        heap = RelaxedTaskHeap(8, seed=4)
        heap.insert(make_task(0), 0.5, 0.0)
        for _ in range(50):  # whatever the draws, best never misses it
            assert heap.best().task.tid == 0

    def test_determinism_per_seed(self):
        def fill(seed):
            heap = RelaxedTaskHeap(4, seed=seed)
            for i in range(32):
                heap.insert(make_task(i), (i * 7 % 32) / 32, 0.0)
            return [heap.best().task.tid for _ in range(16)]

        assert fill(5) == fill(5)
        assert fill(5) != fill(6)  # different stream, different draws

    def test_purge_stale_spans_sub_heaps(self):
        heap = RelaxedTaskHeap(4)
        entries = [heap.insert(make_task(i), i / 12, 0.0) for i in range(12)]
        for e in entries[::2]:
            e.dead = True
        assert heap.purge_stale() == 6
        assert len(heap) == 6
        heap.check_invariants()


class TestRankErrorBound:
    @settings(max_examples=60, deadline=None)
    @given(
        gains=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1, max_size=120,
        ),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_query_rank_error_is_bounded(self, gains, k, seed):
        """A two-choice query returns the exact max of the sampled pair
        A ∪ B, so at most n - |A| - |B| entries can rank above it."""
        heap = RelaxedTaskHeap(k, seed=seed)
        for i, g in enumerate(gains):
            heap.insert(make_task(i), g, 0.0)
        best = heap.best()
        assert best is not None
        n_better = sum(
            1 for e in heap if e.sort_key > best.sort_key
        )
        size_a, size_b = heap.last_sample
        assert n_better <= len(gains) - size_a - size_b

    @settings(max_examples=25, deadline=None)
    @given(
        gains=st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1, max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_k1_queries_are_rank_exact(self, gains, seed):
        heap = RelaxedTaskHeap(1, seed=seed)
        for i, g in enumerate(gains):
            heap.insert(make_task(i), g, 0.0)
        best = heap.best()
        assert all(e.sort_key <= best.sort_key for e in heap)
