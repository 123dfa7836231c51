"""Options and modules removed from the packet path stay removed.

The packet simulation reaches policy ``S*`` by one route: a cell-grid
index per slot.  The schedulers' loop (``reference=``) and dense-matrix
(``distances=``) paths now live in ``tests/test_scheduler_equivalence.py``
as oracles, the incremental index's rebuild threshold is a class constant,
and the shared-memory trial state is gone.  Each removed option must raise
``TypeError``, and a delay comparison must leave nothing in ``/dev/shm``
and start no resource-tracker process.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.parallel
from repro.experiments.delay import compare_delays
from repro.geometry.neighbors import IncrementalCellGridIndex
from repro.parallel import BatchedTrialPlan, TrialRunner
from repro.simulation.engine import SlottedSimulator
from repro.wireless.physical_model import GreedySINRScheduler
from repro.wireless.protocol_model import ProtocolModel
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    TDMACellScheduler,
    VariableRangeScheduler,
)

SRC = Path(__file__).resolve().parent.parent / "src"
POSITIONS = np.random.default_rng(0).random((40, 2))
DISTANCES = np.zeros((40, 40))


def _trial(rng, payload):
    return payload


def _batch(seeds, payloads):
    return list(payloads)


class TestRemovedSharedMemory:
    def test_shm_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.parallel.shm")

    @pytest.mark.parametrize(
        "name",
        ["SharedArrayHandle", "SharedArrays", "resolve_array", "share_arrays"],
    )
    def test_no_reexport(self, name):
        assert not hasattr(repro.parallel, name)

    def test_run_takes_no_shared(self):
        with pytest.raises(TypeError):
            TrialRunner(_trial).run([1], shared=None)

    def test_run_batched_takes_no_shared(self):
        plan = BatchedTrialPlan.group([1, 2], lambda payload: "all", 2)
        with pytest.raises(TypeError):
            TrialRunner(_trial).run_batched([1, 2], _batch, plan, shared=None)

    def test_run_values_takes_no_shared(self):
        with pytest.raises(TypeError):
            TrialRunner(_trial).run_values([1], shared=None)


class TestRemovedSchedulerPaths:
    @pytest.mark.parametrize(
        "factory",
        [
            lambda: PolicySStar(40, reference=True),
            lambda: VariableRangeScheduler(0.1, reference=True),
            lambda: GreedyMatchingScheduler(0.1, reference=True),
        ],
        ids=["sstar", "variable", "greedy"],
    )
    def test_schedulers_take_no_reference(self, factory):
        with pytest.raises(TypeError):
            factory()

    @pytest.mark.parametrize(
        "scheduler",
        [
            PolicySStar(40),
            VariableRangeScheduler(0.1),
            GreedyMatchingScheduler(0.1),
            TDMACellScheduler(np.zeros(40, dtype=int), np.zeros(1), 40, 0.1),
            GreedySINRScheduler(0.1),
        ],
        ids=["sstar", "variable", "greedy", "tdma", "sinr"],
    )
    def test_schedule_takes_no_distances(self, scheduler):
        with pytest.raises(TypeError):
            scheduler.schedule(POSITIONS, distances=DISTANCES)

    @pytest.mark.parametrize(
        "option", [{"distances": DISTANCES}, {"reference": True}]
    )
    def test_strict_pairs_takes_no_dense_or_loop_path(self, option):
        with pytest.raises(TypeError):
            ProtocolModel().strict_pairs(POSITIONS, 0.1, **option)

    def test_simulator_takes_no_reference(self):
        with pytest.raises(TypeError):
            SlottedSimulator(None, None, None, None, 0.1, None, reference=True)

    def test_incremental_index_takes_no_rebuild_fraction(self):
        with pytest.raises(TypeError):
            IncrementalCellGridIndex(POSITIONS, rebuild_fraction=1.0)
        assert IncrementalCellGridIndex.REBUILD_FRACTION == 0.5


def _repro_segments():
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("repro_")}
    except FileNotFoundError:
        return set()


class TestDelayComparisonSharesNothing:
    @pytest.mark.parametrize("workers", [None, 2], ids=["inline", "workers2"])
    def test_no_shm_segment_left(self, workers):
        before = _repro_segments()
        compare_delays(40, seed=1, slots=30, arrival_prob=0.01, workers=workers)
        assert _repro_segments() - before == set()

    def test_inline_run_starts_no_resource_tracker(self):
        """A fresh interpreter runs one inline comparison: nothing may
        start multiprocessing's resource tracker (shared-memory blocks
        did)."""
        script = (
            "from multiprocessing import resource_tracker\n"
            "from repro.experiments.delay import compare_delays\n"
            "compare_delays(40, seed=1, slots=30, arrival_prob=0.01)\n"
            "print(resource_tracker._resource_tracker._fd is None)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        assert out.stdout.strip().splitlines()[-1] == "True"
