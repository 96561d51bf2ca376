"""Outcomes of one cluster simulation: placements, node stats, jobs.

:class:`ClusterResult` carries three layers: the global tier's ledger
(:class:`PlacementRecord` provenance, rejections, cross-node
:class:`CrossTransfer` charges, fixed-point convergence), per-node
rollups (:class:`NodeStats` with utilization against the cluster-wide
horizon, plus the full per-node
:class:`~repro.runtime.engine.SimResult`), and the per-job results and
aggregates of :class:`~repro.workload.results.StreamResult` —
latency, queueing, slowdown-vs-isolated, Jain fairness, deadline
misses, busy energy — built by the same code, so cluster and
single-node experiments read identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.workload.results import JobAggregates, JobResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.engine import SimResult


@dataclass(frozen=True)
class PlacementRecord:
    """Why one job landed on one node.

    ``scores`` is the policy's per-node cost vector in cluster node
    order (empty for policies that do not score); ``reason`` a readable
    account of the winning criterion.
    """

    jid: int
    node: str
    policy: str
    est_work_us: float
    reason: str = ""
    scores: tuple[float, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping."""
        return {
            "jid": self.jid,
            "node": self.node,
            "policy": self.policy,
            "est_work_us": self.est_work_us,
            "reason": self.reason,
            "scores": list(self.scores),
        }


@dataclass(frozen=True)
class CrossTransfer:
    """One cross-node ``after``-dependency data movement, as charged to
    the fabric: the predecessor's output bytes leaving its node at
    completion and arriving at the successor's node."""

    pred_jid: int
    succ_jid: int
    src: str
    dst: str
    nbytes: int
    depart_us: float
    arrive_us: float
    hops: int

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping."""
        return {
            "pred_jid": self.pred_jid,
            "succ_jid": self.succ_jid,
            "src": self.src,
            "dst": self.dst,
            "nbytes": self.nbytes,
            "depart_us": self.depart_us,
            "arrive_us": self.arrive_us,
            "hops": self.hops,
        }


@dataclass(frozen=True)
class ClusterJobResult(JobResult):
    """A stream :class:`~repro.workload.results.JobResult` plus the node
    the job was placed on."""

    node: str = ""

    def as_dict(self) -> dict[str, Any]:
        out = super().as_dict()
        out["node"] = self.node
        return out


@dataclass(frozen=True)
class NodeStats:
    """One node's share of the cluster run.

    ``utilization`` is busy worker-µs over ``n_workers`` × the *cluster*
    makespan (not the node's own), so lightly-loaded nodes read low even
    if they finished their little work efficiently — that asymmetry is
    what ``ClusterResult.imbalance`` measures.
    """

    name: str
    n_workers: int
    n_jobs: int
    n_tasks: int
    makespan_us: float
    busy_us: float
    utilization: float

    def as_dict(self) -> dict[str, Any]:
        """Flat JSON-ready mapping."""
        return {
            "name": self.name,
            "n_workers": self.n_workers,
            "n_jobs": self.n_jobs,
            "n_tasks": self.n_tasks,
            "makespan_us": self.makespan_us,
            "busy_us": self.busy_us,
            "utilization": self.utilization,
        }


@dataclass
class ClusterResult(JobAggregates):
    """Outcome of one :func:`~repro.cluster.sim.simulate_cluster` run.

    ``jobs`` are built per node by the same
    :func:`~repro.workload.results.assemble_jobs` as a single-node
    stream run, and every per-job aggregate (latency, slowdown,
    fairness, deadline misses, energy, per-tenant rollups) comes from
    :class:`~repro.workload.results.JobAggregates`.
    """

    cluster_name: str
    policy: str
    scheduler: str
    jobs: list[ClusterJobResult]
    nodes: list[NodeStats]
    placements: dict[int, PlacementRecord]
    transfers: list[CrossTransfer]
    #: ``(jid, tenant, reason)`` of jobs shed by global admission.
    rejected: list[tuple[int, str, str]]
    rounds: int
    converged: bool
    #: Global-tier provenance events (JobPlaced / NodeLoad / JobRejected).
    events: tuple
    #: Per-fabric-link traffic counters after the final charge pass.
    link_stats: tuple[dict, ...]
    #: Full per-node engine results, keyed by node name.
    node_sims: dict[str, "SimResult"] = field(repr=False, default_factory=dict)
    #: Per-node ``(tid, wid, start, end)`` task records, in tid order.
    _task_records: dict[str, tuple] = field(repr=False, default_factory=dict)

    # -- cluster-level aggregates ---------------------------------------

    @property
    def makespan_us(self) -> float:
        """Completion time of the whole cluster run (max over nodes)."""
        return max((n.makespan_us for n in self.nodes), default=0.0)

    @property
    def mean_utilization(self) -> float:
        """Mean per-node utilization against the cluster makespan."""
        if not self.nodes:
            return 0.0
        return sum(n.utilization for n in self.nodes) / len(self.nodes)

    @property
    def imbalance(self) -> float:
        """Max over mean per-node utilization (1.0 = perfectly even).

        Degenerate inputs (no nodes, zero mean) report 1.0 — an empty
        cluster is trivially balanced.
        """
        if not self.nodes:
            return 1.0
        mean = self.mean_utilization
        if mean <= 0.0:
            return 1.0
        return max(n.utilization for n in self.nodes) / mean

    @property
    def total_inter_node_bytes(self) -> int:
        """Bytes charged to the fabric (each hop counted once)."""
        return sum(int(s["bytes_moved"]) for s in self.link_stats)

    def jobs_on(self, node: str) -> list[ClusterJobResult]:
        """Completed jobs placed on the named node."""
        return [j for j in self.jobs if j.node == node]

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready report: cluster stats, nodes, placements, jobs."""
        return {
            "cluster": self.cluster_name,
            "policy": self.policy,
            "scheduler": self.scheduler,
            "n_nodes": len(self.nodes),
            "n_jobs": len(self.jobs),
            "n_rejected": len(self.rejected),
            "makespan_us": self.makespan_us,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "mean_utilization": self.mean_utilization,
            "imbalance": self.imbalance,
            "mean_latency_us": self.mean_latency_us,
            "p95_latency_us": self.p95_latency_us,
            "mean_queueing_us": self.mean_queueing_us,
            "mean_slowdown": self.mean_slowdown,
            "max_slowdown": self.max_slowdown,
            "fairness": self.fairness,
            "rounds": self.rounds,
            "converged": self.converged,
            "total_inter_node_bytes": self.total_inter_node_bytes,
            "n_cross_transfers": len(self.transfers),
            "nodes": [n.as_dict() for n in self.nodes],
            "placements": [
                self.placements[jid].as_dict() for jid in sorted(self.placements)
            ],
            "transfers": [t.as_dict() for t in self.transfers],
            "rejected": [
                {"jid": jid, "tenant": tenant, "reason": reason}
                for jid, tenant, reason in self.rejected
            ],
            "link_stats": list(self.link_stats),
            "jobs": [j.as_dict() for j in self.jobs],
        }
