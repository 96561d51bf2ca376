"""Tombstone (lazy-deletion) property tests for :class:`TaskHeap`.

MultiPrio's hot path marks superseded duplicate entries dead
(``entry.dead = True``) instead of eagerly removing them from every
sibling heap; the heap purges tombstones when they surface at the root
or inside a candidate window. These properties pin the contract: lazy
deletion is observationally equivalent to eager removal.
"""

from hypothesis import given, strategies as st

from repro.core.heap import TaskHeap
from repro.runtime.task import Task, TaskState


def make_task(tid: int) -> Task:
    task = Task(tid, "k", implementations=("cpu",))
    task.state = TaskState.READY
    return task


class TestTombstones:
    def test_dead_root_skipped_by_best(self):
        heap = TaskHeap()
        top = heap.insert(make_task(0), 0.9, 0.0)
        live = heap.insert(make_task(1), 0.5, 0.0)
        top.dead = True
        assert heap.best() is live
        assert len(heap) == 1  # tombstone physically purged at encounter

    def test_dead_entries_excluded_from_window(self):
        heap = TaskHeap()
        entries = [heap.insert(make_task(i), 0.5 + i / 100, 0.0) for i in range(6)]
        entries[3].dead = True
        entries[5].dead = True
        window = heap.top_candidates(6)
        assert len(window) == 4
        assert all(not e.dead for e in window)

    def test_all_dead_yields_empty(self):
        heap = TaskHeap()
        entries = [heap.insert(make_task(i), i / 10, 0.0) for i in range(5)]
        for e in entries:
            e.dead = True
        assert heap.best() is None
        assert len(heap) == 0

    def test_purge_stale_collects_tombstones(self):
        discarded = []
        heap = TaskHeap(on_discard=discarded.append)
        entries = [heap.insert(make_task(i), i / 10, 0.0) for i in range(5)]
        entries[0].dead = True
        entries[4].dead = True
        assert heap.purge_stale() == 2
        assert len(heap) == 3
        assert len(discarded) == 2


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=1),
            st.floats(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=50,
    ),
    st.randoms(use_true_random=False),
)
def test_lazy_deletion_equals_eager_removal(scores, rng):
    """Property: under any interleaving of inserts, deletions and pops,
    a heap using tombstones pops the exact sequence an eager-removal
    heap pops."""
    lazy = TaskHeap()
    eager = TaskHeap()
    # Parallel entry lists: index i holds the same logical task in both.
    lazy_entries: dict[int, object] = {}
    eager_entries: dict[int, object] = {}
    for i, (gain, prio) in enumerate(scores):
        lazy_entries[i] = lazy.insert(make_task(i), gain, prio)
        eager_entries[i] = eager.insert(make_task(i), gain, prio)
        action = rng.random()
        if action < 0.3 and lazy_entries:
            victim = rng.choice(sorted(lazy_entries))
            lazy_entries.pop(victim).dead = True
            eager.remove(eager_entries.pop(victim))
        elif action < 0.5:
            a = lazy.best()
            b = eager.best()
            assert (a is None) == (b is None)
            if a is not None:
                assert a.key() == b.key()
                lazy.remove(a)
                eager.remove(b)
                lazy_entries.pop(a.task.tid)
                eager_entries.pop(b.task.tid)
        lazy.check_invariants()
    # Drain both; pop sequences must match key-for-key.
    while True:
        a = lazy.best()
        b = eager.best()
        assert (a is None) == (b is None)
        if a is None:
            break
        assert a.key() == b.key()
        lazy.remove(a)
        eager.remove(b)
