"""Span tracing of the program's layers, from outside the program.

The traced run wraps each layer's public entry points (listed in
:data:`PROBES`) so that every call records one span -- name, start, end,
parent -- in memory.  No layer code changes: a wrapper replaces the
function object under *every* name that refers to it (the defining module
and each module that imported it, e.g. ``routing.scheme_a.pairwise_distances``
as well as ``geometry.torus.pairwise_distances``), and for methods the
attribute on the class and on every subclass that overrides it.
:meth:`Patcher.uninstall` puts every original back.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A forked worker starts an empty trace and appends each finished
top-level span tree to a file of its own; :meth:`Tracer.collect_workers`
merges those trees back, each under the span that was open in the traced
process when the worker was forked (the ``runner.run`` that created the
pool).  A layer's seconds on a pool therefore sum over its workers.

:func:`layer_metrics` turns the spans into the per-layer metrics named in
``BENCHMARK.json``.  A span counts towards its metric only when no
ancestor span has the same name (a recursive or nested call of the same
layer is not counted twice).  Metrics marked *self* report a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import pathlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "PROBES",
    "Patcher",
    "Probe",
    "Span",
    "Tracer",
    "combine",
    "layer_metrics",
    "phase_sums",
    "self_time",
    "time_metric",
    "union_length",
    "wrapped_names",
]


@dataclass
class Span:
    """One timed call: ``parent`` is the index of the enclosing span."""

    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder of one thread.

    ``spill_dir`` is where forked pool workers write their spans; without
    it, spans recorded in a worker are lost with the worker.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        spill_dir: Optional[pathlib.Path] = None,
    ):
        self.clock = clock
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self._stack: List[int] = []
        self._spill = None  # in a forked worker: the file its spans go to
        self._forked_under: Optional[int] = None

    def forked(self) -> None:
        """Called in a forked child: start an empty trace that spills."""
        self._forked_under = self._stack[-1] if self._stack else None
        self.spans, self._stack = [], []
        if self.spill_dir is not None:
            path = self.spill_dir / f"worker-{os.getpid()}.jsonl"
            self._spill = open(path, "a")

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: Optional[Callable[[], Dict[str, float]]] = None) -> None:
        """Close ``spans[index]``; ``attrs()``, read after the clock, adds
        its counts to the span."""
        span = self.spans[index]
        span.end = self.clock()
        if attrs is not None:
            span.attrs.update(attrs())
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if self._spill is not None and not self._stack:
            rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
            tree = {"under": self._forked_under, "spans": rows}
            # flushed at once: a pool worker ends without closing its files
            self._spill.write(json.dumps(tree) + "\n")
            self._spill.flush()
            self.spans.clear()

    def collect_workers(self) -> int:
        """Merge the span trees forked workers spilled; returns their count.

        A tree's root goes under the span that was open here when its
        worker was forked.
        """
        if self.spill_dir is None or not self.spill_dir.is_dir():
            return 0
        trees = 0
        for path in sorted(self.spill_dir.glob("worker-*.jsonl")):
            for line in path.read_text().splitlines():
                tree = json.loads(line)
                offset = len(self.spans)
                for name, start, end, parent, attrs in tree["spans"]:
                    parent = tree["under"] if parent is None else parent + offset
                    self.spans.append(Span(name, start, end, parent, attrs))
                trees += 1
            path.unlink()
        return trees


#: The tracer whose wrappers are installed; a forked child resets it.
_ACTIVE: Optional[Tracer] = None


def _after_fork_in_child() -> None:
    if _ACTIVE is not None:
        _ACTIVE.forked()


os.register_at_fork(after_in_child=_after_fork_in_child)


# ----------------------------------------------------------------------
# what is traced
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Probe:
    """One public entry point of a layer and the span it records.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``;
    ``attrs(args, kwargs, result, extra)`` returns counts to attach, keyed
    by the per-layer metric they add to (a key with ``#`` is an input of a
    derived metric, not a metric), where ``extra`` is what the span's
    ``_BEFORE`` hook read before the call.
    """

    target: str
    span: str
    attrs: Optional[Callable] = None


def _sessions(args, kwargs, result, extra):
    return {"scheme_a.sessions": args[1].session_count}


def _width(args, kwargs, result, extra):
    return {"batched#width": len(args[0]), "batched#batches": 1}


def _distance_bytes(args, kwargs, result, extra):
    # computed, not measured: the float64 output the kernel materialises
    return {"geometry.distance_bytes": 8 * int(getattr(result, "size", 0))}


def _pairs(args, kwargs, result, extra):
    return {"geometry.pairs": len(result[0])}


def _one(key):
    def attrs(args, kwargs, result, extra):
        return {key: 1}

    return attrs


def _runner(args, kwargs, result, extra):
    stats = args[0].last_stats
    workers = stats.workers or 1
    fresh = sum(r.duration for r in result if not r.cached and r.ok)
    return {
        "runner.trials": stats.trials,
        "runner.cache_hits": stats.cache_hits,
        "runner.failures": stats.failures,
        "runner.retries": stats.retries,
        "runner.trial_s": fresh,
        # wall the trials would take on the run's workers, fully busy
        "runner#busy_s": fresh / workers,
        "runner#capacity_s": stats.elapsed_seconds * workers,
    }


def _journal_size(args, kwargs):
    try:
        return os.path.getsize(args[0].journal_path)
    except OSError:
        return 0


def _put(args, kwargs, result, extra):
    return {"store.puts": 1, "store.journal_bytes": _journal_size(args, kwargs) - extra}


def _get(args, kwargs, result, extra):
    return {"store#gets": 1, "store#hits": int(result is not None)}


def _parsed(args, kwargs, result, extra):
    return {"serve.parsed": result.parsed}


def _engine(args, kwargs, result, extra):
    slots = args[1] if len(args) > 1 else kwargs["slots"]
    return {"engine.slots": slots, "engine.delivered": result.delivered}


def _schedule(args, kwargs, result, extra):
    return {"wireless.enabled_pairs": len(result.pairs)}


#: Every traced entry point.  The span name is the stem of its time
#: metric (see :func:`time_metric`).
PROBES: Tuple[Probe, ...] = (
    Probe("repro.routing.scheme_a:SchemeA.__init__", "scheme_a.init"),
    Probe("repro.routing.scheme_a:SchemeA.sustainable_rate", "scheme_a.flow", _sessions),
    Probe("repro.routing.scheme_b:SchemeB.zone_access_vector", "scheme_b.access"),
    Probe("repro.routing.scheme_b:SchemeB.sustainable_rate", "scheme_b.flow"),
    Probe("repro.routing.scheme_c:SchemeC.__init__", "scheme_c.init"),
    Probe("repro.routing.scheme_c:SchemeC.sustainable_rate", "scheme_c.flow"),
    Probe("repro.routing.batched:batched_zone_access", "batched.access", _width),
    Probe("repro.routing.batched:scheme_b_flow", "batched.flow"),
    Probe("repro.routing.batched:batched_scheme_c_attach", "batched.attach", _width),
    Probe("repro.infrastructure.backbone:Backbone.spread_flow", "backbone.spread", _one("backbone.spread_calls")),
    Probe("repro.geometry.torus:pairwise_distances", "geometry.distance", _distance_bytes),
    Probe("repro.geometry.torus:batched_pairwise_distances", "geometry.distance", _distance_bytes),
    Probe("repro.geometry.neighbors:CellGridIndex.pairs_within", "geometry.pairs", _pairs),
    Probe("repro.simulation.network:HybridNetwork.build", "network.build", _one("network.builds")),
    Probe("repro.parallel.runner:TrialRunner.run", "runner.run", _runner),
    Probe("repro.parallel.runner:TrialRunner.run_batched", "runner.run", _runner),
    Probe("repro.store.runstore:RunStore.put", "store.put", _put),
    Probe("repro.store.runstore:RunStore.get", "store.get", _get),
    Probe("repro.store.runstore:RunStore.record_run", "store.manifest"),
    Probe("repro.store.keys:trial_key", "store.key"),
    Probe("repro.serve.index:RunIndex.refresh", "serve.refresh", _parsed),
    Probe("repro.serve.query:run_query", "serve.query"),
    Probe("repro.serve.regress:detect_regressions", "serve.regress"),
    Probe("repro.simulation.engine:SlottedSimulator.run", "engine.run", _engine),
    Probe("repro.wireless.scheduler:PolicySStar.schedule", "wireless.schedule", _schedule),
    Probe("repro.mobility.processes:MobilityProcess.step", "mobility.step"),
    Probe("repro.mobility.processes:MobilityProcess.step_moved", "mobility.step"),
    Probe("repro.experiments.scaling:sweep_capacity", "experiments"),
    Probe("repro.experiments.delay:compare_delays", "experiments"),
)

#: Extra state a probe needs from before the call (journal size for put).
_BEFORE = {"store.put": _journal_size}

#: Spans whose metric is self time (duration minus what children cover).
SELF_TIMED = frozenset(
    {"scheme_c.flow", "engine.run", "experiments", "serve.query", "serve.regress"}
)

#: A span's time metric is ``<span>_s``, except for these.
_TIME_METRIC = {"runner.run": "runner.wall_s", "experiments": "driver.self_s"}


def time_metric(span: str) -> str:
    return _TIME_METRIC.get(span, span + "_s")

# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def _resolve(target: str):
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _wrap(function: Callable, tracer: Tracer, probe: Probe) -> Callable:
    before = _BEFORE.get(probe.span)

    @functools.wraps(function)
    def traced(*args, **kwargs):
        extra = before(args, kwargs) if before is not None else None
        index = tracer.begin(probe.span)
        try:
            result = function(*args, **kwargs)
        except BaseException:
            tracer.end(index)
            raise
        attrs = None
        if probe.attrs is not None:
            attrs = functools.partial(probe.attrs, args, kwargs, result, extra)
        tracer.end(index, attrs)
        return result

    traced.__wrapped_by_perfbench__ = True
    return traced


def _is_wrapper(value) -> bool:
    value = getattr(value, "__func__", value)
    return getattr(value, "__wrapped_by_perfbench__", False) is True


def wrapped_names() -> List[str]:
    """Every ``module.name`` or ``module.Class.name`` still bound to a wrapper."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for name, value in list(vars(module).items()):
            if _is_wrapper(value):
                found.append(f"{module_name}.{name}")
            elif inspect.isclass(value) and value.__module__ == module_name:
                found.extend(
                    f"{module_name}.{name}.{attr}"
                    for attr, member in vars(value).items()
                    if _is_wrapper(member)
                )
    return found


def _subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


class Patcher:
    """Install wrappers for :data:`PROBES` and restore every original.

    ``install`` records each ``(owner, name, original)`` it replaces;
    ``uninstall`` puts them back in reverse order and checks that none is
    left wrapped.  Use as a context manager.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.patched: List[Tuple[object, str, object]] = []

    def _set(self, owner, name: str, value) -> None:
        self.patched.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Patcher":
        global _ACTIVE
        if self.patched:
            raise RuntimeError("wrappers already installed")
        if self.tracer.spill_dir is not None:
            self.tracer.spill_dir.mkdir(parents=True, exist_ok=True)
        _ACTIVE = self.tracer
        for probe in PROBES:
            module, owner, name = _resolve(probe.target)
            if inspect.isclass(owner):
                self._install_method(owner, name, probe)
            else:
                self._install_function(getattr(module, name), probe)
        return self

    def _install_function(self, function, probe: Probe) -> None:
        traced = _wrap(function, self.tracer, probe)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is function:
                    self._set(module, name, traced)

    def _install_method(self, cls: type, name: str, probe: Probe) -> None:
        for klass in _subclasses(cls):
            if name not in klass.__dict__:
                continue
            raw = klass.__dict__[name]
            if isinstance(raw, (staticmethod, classmethod)):
                traced = type(raw)(_wrap(raw.__func__, self.tracer, probe))
            elif getattr(raw, "__isabstractmethod__", False):
                continue
            else:
                traced = _wrap(raw, self.tracer, probe)
            self._set(klass, name, traced)

    def uninstall(self) -> None:
        global _ACTIVE
        _ACTIVE = None
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)
        left = wrapped_names()
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def __enter__(self) -> "Patcher":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_time(spans: Sequence[Span], index: int, children=None) -> float:
    """``spans[index]``'s duration minus the time its children cover."""
    if children is None:
        children = _children(spans)
    span = spans[index]
    covered = union_length(
        [
            (max(spans[c].start, span.start), min(spans[c].end, span.end))
            for c in children.get(index, ())
        ]
    )
    return span.duration - covered


def _children(spans: Sequence[Span]) -> Dict[int, List[int]]:
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span.parent is not None:
            children.setdefault(span.parent, []).append(index)
    return children


def _outermost(spans: Sequence[Span], index: int) -> bool:
    """True when no ancestor of ``spans[index]`` has the same name."""
    name = spans[index].name
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name == name:
            return False
        parent = spans[parent].parent
    return True


def _root(spans: Sequence[Span], index: int) -> int:
    while spans[index].parent is not None:
        index = spans[index].parent
    return index


def phase_sums(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per root-span name (the phase), the raw sums the metrics need.

    Keys: ``#wall`` (the phase's own duration); the time metric of each
    span (:func:`time_metric`: inclusive or self seconds, see
    :data:`SELF_TIMED`); ``<span>#incl`` (inclusive seconds) and
    ``<span>#calls``; and every attribute key of the spans.
    """
    children = _children(spans)
    sums: Dict[str, Dict[str, float]] = {}

    def add(phase, key, value):
        phase[key] = phase.get(key, 0.0) + value

    for index, span in enumerate(spans):
        if span.parent is None:
            add(sums.setdefault(span.name, {}), "#wall", span.duration)
            continue
        if not _outermost(spans, index):
            continue
        phase = sums.setdefault(spans[_root(spans, index)].name, {})
        seconds = (
            self_time(spans, index, children)
            if span.name in SELF_TIMED
            else span.duration
        )
        add(phase, time_metric(span.name), seconds)
        add(phase, span.name + "#incl", span.duration)
        add(phase, span.name + "#calls", 1)
        for key, value in span.attrs.items():
            add(phase, key, value)
    return sums


def layer_metrics(raw: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metrics (without ``trace.overhead_frac``) from raw sums:
    every key without ``#``, plus the metrics derived from several sums."""
    metrics = {key: value for key, value in raw.items() if "#" not in key}
    batches = raw.get("batched#batches", 0.0)
    metrics["batched.width"] = raw.get("batched#width", 0.0) / batches if batches else 0.0
    wall = metrics.get("runner.wall_s", 0.0)
    capacity = raw.get("runner#capacity_s", 0.0)
    metrics["runner.overhead_s"] = wall - raw.get("runner#busy_s", 0.0) if wall else 0.0
    metrics["runner.utilisation"] = (
        metrics.get("runner.trial_s", 0.0) / capacity if capacity else 0.0
    )
    gets = raw.get("store#gets", 0.0)
    metrics["store.hit_ratio"] = raw.get("store#hits", 0.0) / gets if gets else 0.0
    return metrics


def combine(setup: Dict[str, float], unit: Dict[str, float], units: int) -> Dict[str, float]:
    """Raw sums of one set-up plus one unit (the mean of ``units`` units)."""
    keys = set(setup) | set(unit)
    return {
        key: setup.get(key, 0.0) + unit.get(key, 0.0) / max(units, 1)
        for key in keys
    }
