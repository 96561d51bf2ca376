"""The paper's contribution: the MultiPrio scheduler and its heuristics.

* :mod:`repro.core.heap` — per-memory-node binary max-heaps with two-key
  scores, position-tracked removal (for eviction) and lazy invalidation
  of duplicated entries (Section III-B / IV-B).
* :mod:`repro.core.gain` — the gain (affinity) heuristic, Eq. (1).
* :mod:`repro.core.criticality` — Normalized Out-Degree, Eq. (2).
* :mod:`repro.core.locality` — the LS_SDH² locality score, Eq. (3).
The scheduler itself — Alg. 1 (PUSH), Alg. 2 (POP), the pop condition
and the eviction mechanism — lives with the other policies in
:mod:`repro.schedulers.multiprio`.
"""

from repro.core.heap import TaskHeap, HeapEntry, RelaxedTaskHeap
from repro.core.gain import GainTracker, gain_scores, pairwise_gain
from repro.core.criticality import nod, NODTracker
from repro.core.locality import ls_sdh2

__all__ = [
    "TaskHeap",
    "HeapEntry",
    "RelaxedTaskHeap",
    "GainTracker",
    "gain_scores",
    "pairwise_gain",
    "nod",
    "NODTracker",
    "ls_sdh2",
]

