"""The benchmark's four workloads, built from a seed.

Each workload has a *set-up* (what a user pays before the work: building
the inputs, and for ``store`` populating the store with cold sweeps) and a
fixed timed *unit* that goes through the program's public entry points
(``sweep_capacity``, ``compare_delays``, ``RunStore``, ``RunIndex``).  A
unit returns the digests of its results; every unit of a run must
reproduce the first unit's digests, and for the default seed they must
equal the pinned values below.

Importing this module imports the program (``repro``); the set-up time
measured in a fresh interpreter therefore includes that import.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pathlib
import shutil
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro  # noqa: F401  (the import a user pays is part of set-up)
from repro.experiments import delay, scaling
from repro.experiments.table1 import TABLE1_ROWS
from repro import serve
from repro.store import RunStore, content_digest

__all__ = ["DEFAULT_SEED", "PINNED", "WORKLOADS", "Unit", "Workload", "check_digests"]

DEFAULT_SEED = 1

_ROWS = {row.label: row for row in TABLE1_ROWS}
STRONG = _ROWS["strong mobility, with BSs"]
WEAK = _ROWS["weak mobility, with BSs"]
TRIVIAL = _ROWS["trivial mobility, with BSs"]


@dataclass(frozen=True)
class Sweep:
    """One ``sweep_capacity`` call of a workload."""

    parameters: object
    n_values: Tuple[int, ...]
    scheme: str
    trials: int
    generic: bool
    seed: int
    batch_trials: Optional[int] = None
    workers: Optional[int] = None

    def run(self, store=None):
        # through the module attribute, so a traced run sees the call
        return scaling.sweep_capacity(
            self.parameters,
            self.n_values,
            scheme=self.scheme,
            trials=self.trials,
            seed=self.seed,
            generic=self.generic,
            batch_trials=self.batch_trials,
            workers=self.workers,
            store=store,
        )


@dataclass
class Unit:
    """What one timed unit produced."""

    digests: Tuple[str, ...]
    attempted: int
    failed: int
    #: Workload-specific correctness problems (empty when all is well).
    problems: List[str] = dataclasses.field(default_factory=list)


def _check_sweep(result, problems: List[str]) -> None:
    if not all(math.isfinite(rate) and rate > 0 for rate in result.rates):
        problems.append(f"{result.scheme}: non-positive rate in {list(result.rates)}")


def _sweep_unit(sweeps: Sequence[Sweep]) -> Unit:
    digests, attempted, failed, problems = [], 0, 0, []
    for sweep in sweeps:
        result = sweep.run()
        _check_sweep(result, problems)
        digests.append(result.digest())
        attempted += result.stats.trials
        failed += result.stats.failures
    return Unit(tuple(digests), attempted, failed, problems)


# ----------------------------------------------------------------------
# strong / infra: inline sweeps
# ----------------------------------------------------------------------
def strong_inputs(seed: int) -> List[Sweep]:
    return [
        Sweep(STRONG.parameters, (2000, 4000, 8000), "optimal", 1, False, seed)
    ]


def infra_inputs(seed: int) -> List[Sweep]:
    return [
        Sweep(WEAK.parameters, (8000,), "B", 8, True, seed, batch_trials=4),
        Sweep(TRIVIAL.parameters, (8000,), "C", 2, True, seed, batch_trials=2),
    ]


# ----------------------------------------------------------------------
# store: cold pool sweeps in set-up, a cache-hit resume plus queries timed
# ----------------------------------------------------------------------
STORE_SEEDS = 3


@dataclass
class StoreInputs:
    sweeps: List[Sweep]
    #: The populated store every timed unit resumes from.
    golden: pathlib.Path
    cold_digests: Tuple[str, ...]
    #: Manifest files of the cold sweeps; ``store_prepare`` removes the rest.
    manifests: frozenset = dataclasses.field(init=False)

    def __post_init__(self):
        self.manifests = frozenset(os.listdir(self.golden / RunStore.RUNS_DIR))


def store_sweeps(seed: int) -> List[Sweep]:
    # Many cheap trials per sweep: a resume's per-trial reads (keys, journal,
    # cache hits) then outweigh its per-sweep manifest write, whose git
    # subprocess swings with host load and made smaller stores unsteady.
    return [
        Sweep(WEAK.parameters, (100, 200), "B", 200, True, seed + j, workers=2)
        for j in range(STORE_SEEDS)
    ]


def store_inputs(seed: int, workdir: pathlib.Path) -> StoreInputs:
    """Populate ``workdir/golden`` with the cold sweeps (journal writes)."""
    sweeps = store_sweeps(seed)
    golden = workdir / "golden"
    with RunStore(golden) as store:
        digests = tuple(sweep.run(store=store).digest() for sweep in sweeps)
    return StoreInputs(sweeps, golden, digests)


def store_prepare(inputs: StoreInputs, workdir: pathlib.Path) -> pathlib.Path:
    """Return the store to its cold state: drop the manifests and index a
    resume added (the journal is only read by a resume)."""
    runs = inputs.golden / RunStore.RUNS_DIR
    for name in os.listdir(runs):
        if name not in inputs.manifests:
            os.unlink(runs / name)
    shutil.rmtree(inputs.golden / serve.RunIndex.SERVE_DIR, ignore_errors=True)
    return inputs.golden


def store_unit(inputs: StoreInputs, root: pathlib.Path) -> Unit:
    problems: List[str] = []
    attempted = failed = 0
    digests = []
    with RunStore(root) as store:
        for sweep in inputs.sweeps:
            result = sweep.run(store=store)
            digests.append(result.digest())
            attempted += result.stats.trials
            failed += result.stats.failures
            if result.stats.cache_hits != result.stats.trials:
                problems.append(
                    f"resume of seed {sweep.seed} hit the cache "
                    f"{result.stats.cache_hits}/{result.stats.trials} times"
                )
    if tuple(digests) != inputs.cold_digests:
        problems.append("resumed digests differ from the cold sweeps'")
    # entry points through their module, so a traced run sees the calls
    index = serve.RunIndex(root)
    index.refresh()
    runs = serve.run_query(index, serve.QuerySpec(command="sweep", status="completed"))
    if len(runs) != 2 * len(inputs.sweeps):
        problems.append(f"query found {len(runs)} runs, expected {2 * len(inputs.sweeps)}")
    report = serve.detect_regressions(index)
    if not report.ok:
        problems.append(f"regression scan: {report.summary()}")
    return Unit(tuple(digests), attempted, failed, problems)


# ----------------------------------------------------------------------
# packet: the slotted packet simulator
# ----------------------------------------------------------------------
PACKET_N = 1000
PACKET_SLOTS = 250


def packet_inputs(seed: int) -> dict:
    return {"n": PACKET_N, "seed": seed, "slots": PACKET_SLOTS}


def packet_unit(inputs: dict) -> Unit:
    comparison = delay.compare_delays(
        inputs["n"], seed=inputs["seed"], slots=inputs["slots"]
    )
    problems = [
        f"{label} delivered nothing"
        for label in delay.DELAY_SCHEMES
        if comparison.delivered.get(label, 0) <= 0
    ]
    attempted = len(delay.DELAY_SCHEMES)
    failed = attempted - len(comparison.delivered)
    return Unit(
        (content_digest(dataclasses.asdict(comparison)),), attempted, failed, problems
    )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A named set-up plus timed unit.

    ``setup(seed, workdir)`` builds the inputs; ``prepare(inputs, workdir)``
    runs untimed before each unit; ``unit(inputs, prepared)`` is the timed
    work.  ``unit_seconds`` is the unit's wall time on the reference host
    (2-core x86-64 VM), used only to size a run's fixed number of units.
    """

    name: str
    setup: Callable
    unit: Callable
    unit_seconds: float
    prepare: Callable = lambda inputs, workdir: None


def _sweeps_workload(name, inputs, unit_seconds) -> Workload:
    return Workload(
        name,
        setup=lambda seed, workdir: inputs(seed),
        unit=lambda sweeps, prepared: _sweep_unit(sweeps),
        unit_seconds=unit_seconds,
    )


WORKLOADS: Dict[str, Workload] = {
    "strong": _sweeps_workload("strong", strong_inputs, 2.8),
    "infra": _sweeps_workload("infra", infra_inputs, 2.8),
    "store": Workload(
        "store",
        setup=store_inputs,
        unit=store_unit,
        unit_seconds=0.12,
        prepare=store_prepare,
    ),
    "packet": Workload(
        "packet",
        setup=lambda seed, workdir: packet_inputs(seed),
        unit=lambda inputs, prepared: packet_unit(inputs),
        unit_seconds=2.0,
    ),
}

#: Digests of one unit at :data:`DEFAULT_SEED`, per workload.
PINNED: Dict[str, Tuple[str, ...]] = {
    "strong": ("9f5149cb0bec0db8bfaa8032da2ae2c16f7975d72d0dabc0a509d7647dd047d4",),
    "infra": (
        "919ee0cf686d7afc6985c5ab7d12215ad3cdc7771c63354ed0f86eea6d3d3dad",
        "509ba681d886975f3090779465a63650481a7919085f7277ef4f94433c75fc23",
    ),
    "store": (
        "e0efec98e9422f175586418686c57e6f381a85a244f2a75571b172234ba49dd0",
        "0a604a2dd3d102e89c6808dc083e78f78dc8943d8bc28bef73983b0657a59931",
        "679176020d59e5116877b20d3d490efc5eed2f3124ba192e0e20efe3906e4ca9",
    ),
    "packet": ("79eec3e0be31ced6661355661466b48f5752161f78c08ec90df9163ce2643d4d",),
}


def check_digests(
    name: str, seed: int, first: Sequence[str], all_units: Sequence[Sequence[str]]
) -> List[str]:
    """Problems with a run's digests: a unit that disagrees with the first
    unit, or (default seed only) a first unit that differs from the pin."""
    problems = []
    for position, digests in enumerate(all_units):
        if tuple(digests) != tuple(first):
            problems.append(f"unit {position} digests differ from the first unit's")
    if seed == DEFAULT_SEED and tuple(first) != PINNED.get(name):
        problems.append(f"digests {list(first)} differ from the pinned {list(PINNED.get(name, ()))}")
    return problems
