"""The traced run: per-layer metrics, the layer-share report and premises.

Each per-layer value is the layer's cost in one traced set-up plus one
timed unit (the mean over the traced units); ratios are taken over that
same work.  The report splits every value into its set-up and per-unit
parts and gives the per-unit part's share of the traced unit's wall time.

The premises are the reasons each workload exists (see ``BENCHMARK.json``);
a premise that fails makes the run incorrect, because the workload no
longer loads the layer it is meant to load.
"""

from __future__ import annotations

import gc
import json
import pathlib
import sys
from typing import Dict, List, Tuple

import tracing

__all__ = ["benchmark", "premises", "traced_run", "write_report"]

BENCHMARK_JSON = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def benchmark() -> dict:
    """``BENCHMARK.json``: the metric names and units a run reports."""
    return json.loads(BENCHMARK_JSON.read_text())


def premises(workload: str, setup: Dict[str, float], unit: Dict[str, float]) -> List[Tuple[str, bool]]:
    """``(statement, holds)`` for each premise of ``workload``.

    ``setup`` and ``unit`` are :func:`tracing.phase_sums` of the traced
    set-up and of all traced units.
    """
    wall = unit.get("#wall", 0.0)
    scheme_a_calls = sum(
        phase.get(f"scheme_a.{part}#calls", 0.0)
        for phase in (setup, unit)
        for part in ("init", "flow")
    )
    checks: List[Tuple[str, bool]] = []
    if workload == "strong":
        scheme_a = unit.get("scheme_a.flow#incl", 0.0) + unit.get("scheme_a.init#incl", 0.0)
        checks.append(("scheme A is the majority of the unit", scheme_a > 0.5 * wall))
    elif workload in ("infra", "store"):
        checks.append(("scheme A is never called", scheme_a_calls == 0))
    if workload == "infra":
        checks.append(
            (
                "batched kernels and the backbone are called",
                all(
                    unit.get(f"{span}#calls", 0.0) > 0
                    for span in ("batched.access", "batched.attach", "backbone.spread")
                ),
            )
        )
    if workload == "store":
        checks.append(("the set-up writes the journal", setup.get("store.put#calls", 0.0) > 0))
        checks.append(("the timed unit writes no journal line", unit.get("store.put#calls", 0.0) == 0))
        gets = unit.get("store#gets", 0.0)
        checks.append(
            (
                "the timed unit reads the journal and every read hits",
                gets > 0 and unit.get("store#hits", 0.0) == gets,
            )
        )
        checks.append(
            (
                "the timed unit queries the index",
                all(
                    unit.get(f"{span}#calls", 0.0) > 0
                    for span in ("serve.refresh", "serve.query", "serve.regress")
                ),
            )
        )
    if workload == "packet":
        checks.append(
            (
                "the packet simulator is the majority of the unit",
                unit.get("engine.run#incl", 0.0) > 0.5 * wall,
            )
        )
        checks.append(
            (
                "the scheduler, mobility and neighbour index are called",
                all(
                    unit.get(f"{span}#calls", 0.0) > 0
                    for span in ("wireless.schedule", "mobility.step", "geometry.pairs")
                ),
            )
        )
    return checks


def traced_run(args, workload, inputs, workdir, blocks: List[int], untraced) -> dict:
    """Set up once more with every probe installed, then run each block of
    units untraced (into the tally ``untraced``, on ``inputs``) and traced.

    The two alternate block by block, so that a host speed phase falls on
    both alike; the probes are installed only around the traced parts.
    """
    tracer = tracing.Tracer(spill_dir=workdir / "worker-spans")
    tally = type(untraced)()
    with tracing.Patcher(tracer):
        index = tracer.begin("setup")
        traced_inputs = workload.setup(args.seed, workdir / "traced")
        tracer.end(index)
    gc.collect()
    for count in blocks:
        untraced.run(workload, inputs, workdir, count)
        with tracing.Patcher(tracer):
            tally.run(workload, traced_inputs, workdir, count, tracer)
    tracer.collect_workers()
    units = sum(blocks)
    phases = tracing.phase_sums(tracer.spans)
    setup, unit = phases.get("setup", {}), phases.get("unit", {})
    metrics = _per_layer(tracing.combine(setup, unit, units))
    checks = premises(args.workload, setup, unit)
    problems = tally.problems + [
        f"premise failed: {statement}" for statement, holds in checks if not holds
    ]
    return {
        "run_s": tally.run_s,
        "digests": tally.digests,
        "problems": problems,
        "metrics": metrics,
        "phases": phases,
        "premises": checks,
        "tracer": tracer,
    }


def write_report(args, traced: dict, metrics: Dict[str, float], untraced_run_s: float, units: int) -> None:
    """Print the layer-share table to stderr and write the spans to a file."""
    phases = traced["phases"]
    setup, unit = phases.get("setup", {}), phases.get("unit", {})
    setup_only = _per_layer(tracing.combine(setup, {}, units))
    unit_only = _per_layer(tracing.combine({}, unit, units))
    traced_run_s = traced["run_s"]
    out = sys.stderr
    print(
        f"== {args.workload} seed {args.seed}: {units} traced unit(s), "
        f"run_s {untraced_run_s:.4f} untraced / {traced_run_s:.4f} traced, "
        f"trace.overhead_frac {metrics['trace.overhead_frac']:+.4f}",
        file=out,
    )
    print(f"{'metric':26s} {'value':>13s} {'set-up':>13s} {'per unit':>13s} {'share':>7s}", file=out)
    for entry in benchmark()["per_layer"]:
        name = entry["name"]
        if name not in setup_only or not (setup_only[name] or unit_only[name]):
            continue
        share = ""
        if entry["unit"] == "s" and traced_run_s > 0:
            share = f"{unit_only[name] / traced_run_s:7.1%}"
        print(
            f"{name:26s} {metrics[name]:13.6g} {setup_only[name]:13.6g} "
            f"{unit_only[name]:13.6g} {share:>7s}",
            file=out,
        )
    for statement, holds in traced["premises"]:
        print(f"premise {'holds' if holds else 'FAILS'}: {statement}", file=out)
    path = tracing_path(args)
    path.parent.mkdir(exist_ok=True)
    spans = [
        [s.name, s.start, s.end, s.parent, s.attrs or None]
        for s in traced["tracer"].spans
    ]
    path.write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "units": units,
                "run_s_untraced": untraced_run_s,
                "run_s_traced": traced_run_s,
                "metrics": metrics,
                "phases": phases,
                "premises": traced["premises"],
                "span_fields": ["name", "start", "end", "parent", "attrs"],
                "spans": spans,
            }
        )
    )


def _per_layer(raw: Dict[str, float]) -> Dict[str, float]:
    """The ``BENCHMARK.json`` per-layer metrics (bar ``trace.overhead_frac``)
    from raw sums; a layer the work never called reads 0."""
    metrics = tracing.layer_metrics(raw)
    return {
        entry["name"]: metrics.get(entry["name"], 0.0)
        for entry in benchmark()["per_layer"]
        if entry["name"] != "trace.overhead_frac"
    }


def tracing_path(args) -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parent / "out" / f"trace-{args.workload}-{args.seed}.json"
