"""Outside-in tracer: times calls into each layer of ``repro`` from here.

Nothing in ``src/`` knows about this module. :class:`Tracer` patches the
public callables of each layer for the duration of one traced iteration
and restores them afterwards, so the untraced iterations run the
program exactly as users do.

Accounting works on one frame stack. Every patched call pushes a frame,
and on return adds its wall time to its layer's inclusive seconds and
its self seconds (the wall time minus what nested patched calls took).
So a ``pop`` that calls ``estimate`` is charged for ``pop`` only, and
every layer's self seconds plus ``other`` add up to the traced wall
time. Garbage-collector pauses (``gc.callbacks``) are a layer of their
own and are taken out of whichever frame they interrupted.

Coarse layers (iteration, build, merge, engine run, isolated baseline,
assembly, cluster round and node run) also record a span each: name,
start, end and parent span id. Per-call layers (scheduler, perf model,
memory, control plane, ledgers, obs) are aggregated only, since they
run hundreds of thousands of times.

Patches go on the class wherever the engine binds a method once per run
or builds the object inside ``Simulator.run`` (the perf model, the
overhead/resource/power ledgers, the control plane, ``Observability``).
Schedulers are patched per instance when their engine run starts.
"""

from __future__ import annotations

import gc
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

_MISSING = object()

#: Layers that record one span per call (the rest only aggregate).
SPAN_LAYERS = frozenset({
    "iteration", "build", "merge", "engine.run", "isolated", "assemble",
    "cluster.round", "cluster.node_run",
})


class ProgramProbe:
    """The one hook untraced iterations carry: ``Simulator.run`` entry.

    Records when the first engine run of an iteration starts (the end of
    set-up) and which merged stream programs the engine ran, so their
    per-task records can be fingerprinted. It costs one clock read per
    engine run.
    """

    def __init__(self) -> None:
        self.first_run_at: float | None = None
        self.stream_programs: list[Any] = []

    def reset(self) -> None:
        self.first_run_at = None
        self.stream_programs = []

    @contextmanager
    def installed(self):
        from repro.runtime.engine import Simulator
        from repro.workload.merge import StreamProgram

        original = Simulator.__dict__["run"]
        probe = self

        def run(sim, program):
            if probe.first_run_at is None:
                probe.first_run_at = time.perf_counter()
            if isinstance(program, StreamProgram):
                probe.stream_programs.append(program)
            return original(sim, program)

        Simulator.run = run
        try:
            yield self
        finally:
            Simulator.run = original


class NullTracer:
    """The untraced stand-in: every hook is a no-op."""

    @contextmanager
    def span(self, layer: str):
        yield

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer:
    """In-memory per-layer accounting for one or more traced iterations."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        #: (span id, parent span id or None, layer, start, end)
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        # Each frame is [child seconds, span id or None].
        self._stack: list[list] = []
        self._span_ids: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._gc_t0 = 0.0
        # Depth of stream/cluster facade calls: a plain (non-stream)
        # program run inside one is an isolated baseline.
        self._in_stream = 0
        self._node_records: dict[str, Any] = {}

    # -- frames -------------------------------------------------------------

    def _enter(self, layer: str) -> tuple[list, float]:
        span_id = None
        if layer in SPAN_LAYERS:
            span_id = len(self.spans) + len(self._span_ids)
            self._span_ids.append(span_id)
        frame = [0.0, span_id]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _exit(self, layer: str, frame: list, t0: float) -> None:
        t1 = time.perf_counter()
        dt = t1 - t0
        self._stack.pop()
        self.self_s[layer] += dt - frame[0]
        self.incl_s[layer] += dt
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][0] += dt
        if frame[1] is not None:
            self._span_ids.pop()
            parent = self._span_ids[-1] if self._span_ids else None
            self.spans.append((frame[1], parent, layer, t0, t1))

    @contextmanager
    def span(self, layer: str):
        """Time a block of the benchmark's own code as ``layer``."""
        frame, t0 = self._enter(layer)
        try:
            yield
        finally:
            self._exit(layer, frame, t0)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def timed(
        self,
        layer: str,
        fn: Callable,
        after: Callable[[Any, tuple], None] | None = None,
    ) -> Callable:
        """``fn`` wrapped to account its calls to ``layer``; ``after``
        (when given) sees each call's result and arguments."""
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame, t0 = enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(layer, frame, t0)
            if after is not None:
                after(result, args)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        return wrapper

    # -- garbage collector ----------------------------------------------------

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_t0 = time.perf_counter()
            return
        dt = time.perf_counter() - self._gc_t0
        self.self_s["gc"] += dt
        self.incl_s["gc"] += dt
        self.calls["gc"] += 1
        if info.get("generation") == 2:
            self.counters["gc.gen2"] += 1
        if self._stack:
            # The pause interrupted this frame: it is not the frame's work.
            self._stack[-1][0] += dt

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(current))

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        """Patch every layer; restore all of them on exit."""
        try:
            self._install()
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            self._restore()

    def _install(self) -> None:
        import repro.api as api
        import repro.cluster.sim as cluster_sim
        import repro.workload.merge as merge_mod
        from repro.cluster.placement import GlobalScheduler
        from repro.control.plane import ControlPlane
        from repro.obs.bus import Observability
        from repro.runtime.engine import Simulator
        from repro.runtime.memory import TransferEngine
        from repro.runtime.overhead import OverheadLedger
        from repro.runtime.perfmodel import AnalyticalPerfModel
        from repro.runtime.power import PowerLedger
        from repro.runtime.resources import ResourceLedger

        timed, patch = self.timed, self._patch

        def merged(result, args):
            self.count("merge.tasks", len(result.tasks))

        # merge_stream: api.run_stream imports it per call from its module;
        # the cluster tier bound it at import time.
        patch(merge_mod, "merge_stream", lambda f: timed("merge", f, merged))
        patch(cluster_sim, "merge_stream", lambda f: timed("merge", f, merged))

        patch(api.SimSpec, "run", lambda f: timed("assemble", f))
        for name in ("run_stream", "run_cluster"):
            patch(api.SimSpec, name, lambda f: self._streaming(timed("assemble", f)))

        patch(Simulator, "run", self._engine_run)

        patch(AnalyticalPerfModel, "estimate",
              lambda f: timed("perfmodel.estimate", f))
        patch(AnalyticalPerfModel, "sample",
              lambda f: timed("perfmodel.sample", f))
        patch(TransferEngine, "fetch", lambda f: timed("memory.fetch", f))
        patch(TransferEngine, "touch", lambda f: timed("memory.touch", f))

        def decided(decision, args):
            if decision.action == "accept":
                self.count("control.accepts")

        patch(ControlPlane, "decide", lambda f: timed("control.decide", f, decided))
        for name in ("push", "pop", "flush"):
            patch(OverheadLedger, name, lambda f: timed("ledger.overhead", f))
        for name in ("gate", "book"):
            patch(ResourceLedger, name, lambda f: timed("ledger.resources", f))
        for name in ("admit", "book", "charge"):
            patch(PowerLedger, name, lambda f: timed("ledger.power", f))
        patch(Observability, "emit", lambda f: timed("obs.emit", f))

        patch(GlobalScheduler, "place", lambda f: timed("cluster.place", f))
        patch(cluster_sim, "job_work_us", lambda f: timed("cluster.work", f))
        patch(cluster_sim, "_node_cell", self._node_cell)
        patch(cluster_sim, "run_tasks", self._run_tasks)

    # -- layer-specific wrappers ----------------------------------------------

    def _streaming(self, facade: Callable) -> Callable:
        def streaming(*args, **kwargs):
            self._in_stream += 1
            try:
                return facade(*args, **kwargs)
            finally:
                self._in_stream -= 1

        return streaming

    def _engine_run(self, run: Callable) -> Callable:
        from repro.workload.merge import StreamProgram

        tracer = self

        def engine_run(sim, program):
            isolated = tracer._in_stream > 0 and not isinstance(program, StreamProgram)
            layer = "isolated" if isolated else "engine.run"
            undo = tracer._patch_scheduler(sim.scheduler)
            frame, t0 = tracer._enter(layer)
            try:
                res = run(sim, program)
            finally:
                tracer._exit(layer, frame, t0)
                undo()
            if not isolated:
                tracer.count("engine.tasks", res.n_tasks)
                tracer.count("sched.skips", res.scheduler_stats.get("skips", 0.0))
                tracer.count("memory.bytes", res.bytes_transferred)
            return res

        return engine_run

    def _patch_scheduler(self, sched: Any) -> Callable[[], None]:
        """Instance-level wrappers on one scheduler for one engine run."""
        count = self.count

        def popped(task, args):
            if task is not None:
                count("sched.pop.hits")

        def batched(result, args):
            count("sched.push_batch.tasks", len(args[0]))

        wrappers = {
            "push": self.timed("sched.push", sched.push),
            "pop": self.timed("sched.pop", sched.pop, popped),
            "push_batch": self.timed("sched.push_batch", sched.push_batch, batched),
            "retract": self.timed("sched.retract", sched.retract),
        }
        vars(sched).update(wrappers)

        def undo() -> None:
            for name in wrappers:
                vars(sched).pop(name, None)

        return undo

    def _node_cell(self, cell: Callable) -> Callable:
        tracer = self

        def node_cell(node_name, *args, **kwargs):
            frame, t0 = tracer._enter("cluster.node_run")
            try:
                payload = cell(node_name, *args, **kwargs)
            finally:
                tracer._exit("cluster.node_run", frame, t0)
            # A re-run is useful only if it changed the node's job records.
            if tracer._node_records.get(node_name) != payload["job_records"]:
                tracer.count("cluster.node_runs_useful")
            tracer._node_records[node_name] = payload["job_records"]
            return payload

        return node_cell

    def _run_tasks(self, run_tasks: Callable) -> Callable:
        tracer = self

        def traced_run_tasks(cells, *args, **kwargs):
            cells = list(cells)
            if not cells or cells[0].fn is not _current_node_cell():
                return run_tasks(cells, *args, **kwargs)
            tracer.count("cluster.rounds")
            frame, t0 = tracer._enter("cluster.round")
            try:
                return run_tasks(cells, *args, **kwargs)
            finally:
                tracer._exit("cluster.round", frame, t0)

        return traced_run_tasks

    def begin_iteration(self) -> None:
        """Forget per-iteration state (cluster node records)."""
        self._node_records = {}

    # -- report ---------------------------------------------------------------

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per layer: self seconds, inclusive seconds, calls."""
        return {
            layer: {
                "self_s": self.self_s[layer],
                "incl_s": self.incl_s[layer],
                "calls": self.calls[layer],
            }
            for layer in sorted(self.self_s)
        }


def _current_node_cell() -> Callable:
    import repro.cluster.sim as cluster_sim

    return cluster_sim._node_cell
