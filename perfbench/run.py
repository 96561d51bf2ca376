"""Repository benchmark: host speed and schedule quality on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-dag --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--workload`` is one of ``paper-dag``, ``light-stream``, ``tenant-mix``,
``cluster-chains`` or ``all`` (every workload in turn, in this one
process). The benchmark repeats whole iterations of the workload for
``--seconds`` and reports medians over them.

With ``--trace 0`` every iteration is untraced and the last stdout line
is a JSON object whose ``metrics`` are the end-to-end metrics. With
``--trace 1`` untraced and traced iterations alternate: the traced ones
run under :class:`perfbench.tracer.Tracer`, the ``metrics`` are the
per-layer ones, and the tracing overhead is traced minus untraced
iteration time. Either way the lines before the JSON object give the
run manifest, every metric with its unit and sample count, every
correctness check and the schedule fingerprint; ``--out`` (default
``perfbench/results``) receives the same as one JSON file, with the
per-layer table and spans of traced runs.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

#: End-to-end metrics of the JSON result line: name -> unit.
END_TO_END = {
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_makespan_us": "us",
    "sim_latency_p50_us": "us",
    "sim_latency_tail_us": "us",
    "sim_energy_j": "J",
    "completed_frac": "ratio",
}

#: Per-layer metrics of the traced JSON result line (units: unit_of). Times
#: are listed only for layers that run on every workload (a layer that
#: is idle on a workload reads 0 s on every run there); idle-prone
#: layers are represented by their call counts. Every per-layer metric,
#: times included, is printed above the JSON line and written to --out.
PER_LAYER = (
    "build.s",
    "build.tasks",
    "merge.calls",
    "merge.tasks",
    "engine.run.s",
    "engine.self_s",
    "engine.runs",
    "engine.tasks_per_s",
    "sched.push.s",
    "sched.push.calls",
    "sched.pop.s",
    "sched.pop.calls",
    "sched.pop.hit_frac",
    "sched.push_batch.calls",
    "sched.push_batch.tasks",
    "sched.retract.calls",
    "sched.skips",
    "perfmodel.estimate.s",
    "perfmodel.estimate.calls",
    "perfmodel.sample.calls",
    "memory.fetch.calls",
    "memory.touch.calls",
    "memory.bytes",
    "control.decide.calls",
    "control.admit_frac",
    "ledger.overhead.calls",
    "ledger.resources.calls",
    "ledger.power.calls",
    "obs.emit.calls",
    "isolated.runs",
    "assemble.s",
    "cluster.place.calls",
    "cluster.work.calls",
    "cluster.rounds",
    "cluster.node_runs",
    "cluster.node_run_useful_frac",
    "gc.s",
    "gc.collections",
    "gc.gen2",
    "other.s",
    "trace.overhead_s",
)


def _import_program() -> bool:
    """Put the checkout's ``src/`` and root on ``sys.path``."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    return True


def git_rev(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` (None outside a clone)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args: argparse.Namespace, workloads: list) -> dict[str, Any]:
    import numpy

    return {
        "git_rev": git_rev(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {wl.name: wl.manifest() for wl in workloads},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, n: int) -> dict[str, float]:
    """Every named per-layer metric, per traced iteration (mean of ``n``)."""
    s, inc, calls, k = tracer.self_s, tracer.incl_s, tracer.calls, tracer.counters

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "build.s": s["build"], "build.tasks": k["build.tasks"],
        "merge.s": s["merge"], "merge.calls": calls["merge"], "merge.tasks": k["merge.tasks"],
        "engine.run.s": inc["engine.run"], "engine.self_s": s["engine.run"],
        "engine.runs": calls["engine.run"],
        "sched.push.s": s["sched.push"], "sched.push.calls": calls["sched.push"],
        "sched.pop.s": s["sched.pop"], "sched.pop.calls": calls["sched.pop"],
        "sched.push_batch.s": s["sched.push_batch"],
        "sched.push_batch.calls": calls["sched.push_batch"],
        "sched.push_batch.tasks": k["sched.push_batch.tasks"],
        "sched.retract.calls": calls["sched.retract"], "sched.skips": k["sched.skips"],
        "perfmodel.estimate.s": s["perfmodel.estimate"],
        "perfmodel.estimate.calls": calls["perfmodel.estimate"],
        "perfmodel.sample.calls": calls["perfmodel.sample"],
        "memory.fetch.s": s["memory.fetch"], "memory.fetch.calls": calls["memory.fetch"],
        "memory.touch.calls": calls["memory.touch"], "memory.bytes": k["memory.bytes"],
        "control.decide.s": s["control.decide"],
        "control.decide.calls": calls["control.decide"],
        "ledger.overhead.s": s["ledger.overhead"],
        "ledger.overhead.calls": calls["ledger.overhead"],
        "ledger.resources.s": s["ledger.resources"],
        "ledger.resources.calls": calls["ledger.resources"],
        "ledger.power.s": s["ledger.power"], "ledger.power.calls": calls["ledger.power"],
        "obs.emit.s": s["obs.emit"], "obs.emit.calls": calls["obs.emit"],
        "isolated.s": inc["isolated"], "isolated.runs": calls["isolated"],
        "assemble.s": s["assemble"],
        "cluster.place.s": s["cluster.place"], "cluster.place.calls": calls["cluster.place"],
        "cluster.work.s": s["cluster.work"], "cluster.work.calls": calls["cluster.work"],
        "cluster.rounds": k["cluster.rounds"], "cluster.node_runs": calls["cluster.node_run"],
        "gc.s": s["gc"], "gc.collections": calls["gc"], "gc.gen2": k["gc.gen2"],
        "other.s": s["iteration"],
    }
    m = {name: value / n for name, value in m.items()}
    # Ratios of sums, not means of ratios.
    m["engine.tasks_per_s"] = ratio(k["engine.tasks"], inc["engine.run"])
    m["sched.pop.hit_frac"] = ratio(k["sched.pop.hits"], calls["sched.pop"])
    m["control.admit_frac"] = ratio(k["control.accepts"], calls["control.decide"])
    m["cluster.node_run_useful_frac"] = ratio(
        k["cluster.node_runs_useful"], calls["cluster.node_run"]
    )
    return m


def unit_of(name: str) -> str:
    """The unit of an end-to-end or per-layer metric, from its name."""
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("tasks_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "memory.bytes":
        return "B"
    return "count"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_workload(wl, args, say) -> dict[str, Any]:
    """Iterate one workload for ``args.seconds``; return its report."""
    from perfbench.tracer import NullTracer, ProgramProbe, Tracer

    wl.prepare()
    probe = ProgramProbe()
    tracer = Tracer() if args.trace else None
    tracer_off = NullTracer()
    plain, traced = [], []  # (seconds, setup_s, tasks_per_s) / seconds
    first = None
    attempted = failed = 0
    correct = True
    failures: list[str] = []
    with probe.installed():
        t_start = time.perf_counter()
        i = 0
        while True:
            tracing = tracer is not None and i % 2 == 1
            tr = tracer if tracing else tracer_off
            if tracing:
                tracer.begin_iteration()
            gc.collect()
            probe.reset()
            try:
                with tracer.installed() if tracing else nullcontext():
                    t0 = time.perf_counter()
                    with tr.span("iteration"):
                        raw = wl.execute(args.seed, tr)
                    t1 = time.perf_counter()
                out = wl.evaluate(raw, probe)
            except Exception:  # a crashed iteration fails the whole run
                traceback.print_exc()
                failed += first.n_jobs if first is not None else 1
                attempted += first.n_jobs if first is not None else 1
                correct = False
                failures.append(f"iteration {i} raised")
                break
            del raw
            attempted += out.n_jobs
            bad = [name for name, ok in out.checks.items() if not ok]
            if first is not None and out.fingerprint != first.fingerprint:
                bad.append("deterministic")
            if bad:
                failed += out.n_jobs
                correct = False
                failures.extend(f"iteration {i}: {name}" for name in bad)
            if first is None:
                first = out
            dt = t1 - t0
            if tracing:
                traced.append(dt)
                kind = "traced"
            else:
                setup = probe.first_run_at - t0
                plain.append((dt, setup, out.n_tasks / dt))
                kind = f"setup {setup:.3f} s"
            say(f"iteration {i}: {dt:.3f} s ({kind}) fingerprint {out.fingerprint}")
            i += 1
            enough = plain and (tracer is None or traced)
            if enough and time.perf_counter() - t_start >= args.seconds:
                break
    report: dict[str, Any] = {
        "workload": wl.name,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "iterations": {"untraced_s": [p[0] for p in plain], "traced_s": traced},
    }
    if first is None:
        return report
    report["fingerprint"] = first.fingerprint
    report["checks"] = first.checks
    rates = [p[2] for p in plain]
    setups = [p[1] for p in plain]
    n = len(plain)
    e2e = {
        "tasks_per_s": (statistics.median(rates), f"median of {n} iterations"),
        "setup_s": (statistics.median(setups), f"median of {n} iterations"),
        "peak_rss_mb": (peak_rss_mb(), "process peak"),
        **{k: (m.value, m.samples) for k, m in first.sim.items()},
        "completed_frac": (
            first.n_completed / first.n_jobs,
            f"{first.n_completed} of {first.n_jobs} jobs",
        ),
    }
    report["end_to_end"] = {
        k: {"value": v, "unit": END_TO_END[k], "samples": s} for k, (v, s) in e2e.items()
    }
    report["quartiles"] = {"tasks_per_s": quartiles(rates), "setup_s": quartiles(setups)}
    report["extras"] = {
        k: {"value": m.value, "unit": m.unit, "samples": m.samples}
        for k, m in first.extras.items()
    }
    if tracer is not None and traced:
        layers = layer_metrics(tracer, len(traced))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(
            p[0] for p in plain
        )
        report["per_layer"] = {
            k: {"value": v, "unit": unit_of(k), "samples": f"mean of {len(traced)} traced"}
            for k, v in layers.items()
        }
        table = tracer.layer_table()
        report["layer_table"] = table
        report["traced_end_to_end_s"] = tracer.incl_s["iteration"] / len(traced)
        report["layer_self_sum_s"] = (
            sum(row["self_s"] for row in table.values()) / len(traced)
        )
        report["spans"] = tracer.spans
    return report


def print_report(report: dict[str, Any], say) -> None:
    for section in ("end_to_end", "extras", "per_layer"):
        for name, m in report.get(section, {}).items():
            say(f"{name} = {m['value']!r} {m['unit']} ({m['samples']})")
    for name, ok in report.get("checks", {}).items():
        say(f"check {name}: {'ok' if ok else 'FAILED'}")
    for failure in report["failures"]:
        say(f"failure: {failure}")
    if "fingerprint" in report:
        say(f"fingerprint {report['fingerprint']}")
    if "layer_table" in report:
        n = len(report["iterations"]["traced_s"])
        say("layer                      self_s     incl_s      calls  (per traced iteration)")
        for layer, row in report["layer_table"].items():
            say(f"{layer:24s} {row['self_s'] / n:9.4f} {row['incl_s'] / n:9.4f} "
                f"{row['calls'] / n:10.0f}")
        say(f"layer self seconds (other.s included) sum to "
            f"{report['layer_self_sum_s']!r} s; traced end-to-end "
            f"{report['traced_end_to_end_s']!r} s")


def result_line(reports: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The final JSON object (one workload: exactly the contract's names)."""
    names = PER_LAYER if trace else tuple(END_TO_END)
    section = "per_layer" if trace else "end_to_end"
    metrics: dict[str, Any] = {}
    for report in reports:
        prefix = f"{report['workload']}." if len(reports) > 1 else ""
        values = report.get(section, {})
        for name in names:
            if name in values:
                metrics[prefix + name] = {"value": values[name]["value"], "unit": unit_of(name)}
    return {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="workload size (tiny is for the self-tests)")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "results"),
                        help="directory for the JSON report")
    args = parser.parse_args(argv)

    if not _import_program():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: all, {', '.join(WORKLOADS)}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workloads = [WORKLOADS[name](args.size) for name in names]
    man = manifest(args, workloads)
    print("manifest " + json.dumps(man), flush=True)

    reports = []
    for wl in workloads:
        def say(line: str, _name: str = wl.name) -> None:
            print(f"[{_name}] {line}", flush=True)

        report = run_workload(wl, args, say)
        print_report(report, say)
        reports.append(report)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"manifest": man, "reports": reports}, indent=1) + "\n")
    print(f"report written to {out_file}", flush=True)
    print(json.dumps(result_line(reports, bool(args.trace))), flush=True)
    return 0 if all(r.get("end_to_end") for r in reports) else 1


if __name__ == "__main__":
    raise SystemExit(main())
