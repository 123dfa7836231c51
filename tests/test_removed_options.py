"""Options and modules removed from the packet path stay removed.

The packet simulation reaches policy ``S*`` by one route: a cell-grid
index per slot.  The schedulers' loop (``reference=``) and dense-matrix
(``distances=``) paths now live in ``tests/test_scheduler_equivalence.py``
as oracles, and the shared-memory trial state is gone.  The incremental
index is gone too, with the mobility processes' ``step_moved`` mask that
fed it and the ``index=`` option through which the simulator passed it to
the schedulers: every range-based scheduler builds its own index.  Each
removed option must raise ``TypeError``, and a delay comparison must leave
nothing in ``/dev/shm`` and start no resource-tracker process.

The experiment drivers share one recorded-run path, so
``repro.resilience.successful_values`` has no caller left and is gone; and
``runs gc`` always compacts the journal, so its no-op ``--compact`` flag is
gone too.

Every command opens at most one store: the multi-store merge
(``repro.store.merged``, ``MergedRunIndex``, ``RunStore.keys``) is gone,
and a repeated ``--store`` exits 2 instead of letting the last value win.

The runner keeps only the failure handling a sweep can reach: the
per-trial timeout (and with it the ``hang`` fault kind) is gone, the
backoff's growth factor and cap are constants, the crash-storm threshold
is a pair of class constants, and the one-shot ``run_trials`` wrapper is
gone.

Scheme B is built from its access vector only: the dense ``n x k``
``SchemeB.access_matrix`` and the ``from_access_vector`` bypass are gone,
and the one constructor rejects an access matrix instead of taking the
minimum and median over all of its entries.

A trial is a pure function of its payload, which carries the trial's seed:
the runner derives no seeds (no ``seed=`` on ``run``/``run_values``/
``run_batched`` or ``run_recorded``, no test-only ``submission_order=``),
``run_batched`` takes plain index batches instead of a
``BatchedTrialPlan``, and the unused ``make_rng``/``spawn_rngs`` helpers
are gone.  The per-batch scheme B/C entry points take no ``chunk_size``.
"""

import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.geometry
import repro.geometry.neighbors
import repro.mobility.processes
import repro.parallel
import repro.resilience
import repro.serve
import repro.store
import repro.utils
from repro.__main__ import main
from repro.experiments.delay import compare_delays
from repro.geometry.neighbors import CellGridIndex
from repro.experiments.recorded import run_recorded
from repro.infrastructure.backbone import Backbone
from repro.parallel import TrialRunner
from repro.resilience import FaultPlan, FaultSpecError, ResilienceConfig, RetryPolicy
from repro.routing.batched import batched_scheme_c_attach, batched_zone_access
from repro.routing.scheme_b import SchemeB
from repro.store import RunStore
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


def _trial(payload):
    return payload


def _batch(payloads):
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
        with pytest.raises(TypeError):
            TrialRunner(_trial).run_batched([1, 2], _batch, [(0, 1)], shared=None)

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
    def test_schedule_takes_no_index(self, scheduler):
        with pytest.raises(TypeError):
            scheduler.schedule(POSITIONS, index=CellGridIndex(POSITIONS))

    @pytest.mark.parametrize(
        "option",
        [
            {"distances": DISTANCES},
            {"reference": True},
            {"index": CellGridIndex(POSITIONS)},
        ],
    )
    def test_strict_pairs_takes_no_dense_or_loop_path(self, option):
        with pytest.raises(TypeError):
            ProtocolModel().strict_pairs(POSITIONS, 0.1, **option)

    def test_simulator_takes_no_reference(self):
        with pytest.raises(TypeError):
            SlottedSimulator(None, None, None, None, 0.1, None, reference=True)



class TestRemovedIncrementalIndex:
    @pytest.mark.parametrize(
        "module", [repro.geometry, repro.geometry.neighbors], ids=lambda m: m.__name__
    )
    def test_no_incremental_index(self, module):
        assert not hasattr(module, "IncrementalCellGridIndex")
        assert "IncrementalCellGridIndex" not in module.__all__

    @pytest.mark.parametrize("name", repro.mobility.processes.__all__)
    def test_processes_report_no_moved_mask(self, name):
        assert not hasattr(getattr(repro.mobility.processes, name), "step_moved")


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


class TestRemovedDriverPlumbing:
    def test_successful_values_is_gone(self):
        assert not hasattr(repro.resilience, "successful_values")
        validation = importlib.import_module("repro.resilience.validation")
        assert not hasattr(validation, "successful_values")


class TestRemovedGcCompact:
    def test_compact_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["runs", "gc", "--compact", "--store", str(tmp_path / "s")])
        assert exit_info.value.code == 2
        assert "--compact" in capsys.readouterr().err

    def test_gc_still_quarantines_a_corrupt_journal_line(self, tmp_path, capsys):
        store = RunStore(tmp_path / "s")
        store.put("k1", 1.0, 0.1)
        store.close()
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write("{truncated garbag\n")
        assert main(["runs", "gc", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "quarantine sidecar" in out
        with open(store.journal_path, "r", encoding="utf-8") as handle:
            assert "garbag" not in handle.read()
        with open(store.corrupt_path, "r", encoding="utf-8") as handle:
            assert handle.read().strip() == "{truncated garbag"


class TestRemovedMergedStore:
    def test_merged_module_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.store.merged")

    @pytest.mark.parametrize(
        "module, name",
        [
            (repro.store, "MergedStore"),
            (repro.store, "open_merged_store"),
            (repro.serve, "MergedRunIndex"),
            (importlib.import_module("repro.serve.index"), "MergedRunIndex"),
            (RunStore, "keys"),
        ],
    )
    def test_no_merge_surface(self, module, name):
        assert not hasattr(module, name)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--grid", "100", "--trials", "1"],
            ["reproduce", "--grid", "100"],
            ["runs", "list"],
            ["serve", "query"],
        ],
        ids=["sweep", "reproduce", "runs-list", "serve-query"],
    )
    def test_repeated_store_exits_2(self, tmp_path, capsys, argv):
        first, second = tmp_path / "a", tmp_path / "b"
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--store", str(first), "--store", str(second)])
        assert exit_info.value.code == 2
        assert "--store" in capsys.readouterr().err
        assert not first.exists() and not second.exists()


class TestRemovedTrialTimeout:
    @pytest.mark.parametrize(
        "option",
        [
            {"timeout": 1.0},
            {"max_rebuilds": 3},
            {"rebuild_window_seconds": 60.0},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_trial_runner_takes_no_option(self, option):
        with pytest.raises(TypeError):
            TrialRunner(_trial, **option)

    def test_storm_threshold_is_a_class_constant(self):
        assert TrialRunner.MAX_REBUILDS == 3
        assert TrialRunner.REBUILD_WINDOW_SECONDS == 60.0

    @pytest.mark.parametrize(
        "name", ["HARD_TIMEOUT_GRACE", "_terminate_workers"]
    )
    def test_no_hard_deadline(self, name):
        assert not hasattr(TrialRunner, name)

    @pytest.mark.parametrize(
        "option",
        [
            {"jitter": 0.5},
            {"retry_on": frozenset({"exception"})},
            {"backoff_cap": 5.0},
            {"backoff_multiplier": 3.0},
        ],
        ids=lambda option: next(iter(option)),
    )
    def test_retry_policy_takes_no_option(self, option):
        with pytest.raises(TypeError):
            RetryPolicy(**option)

    def test_delay_takes_no_seed_seq(self):
        with pytest.raises(TypeError):
            RetryPolicy(backoff_base=1.0).delay(1, np.random.SeedSequence(0))

    @pytest.mark.parametrize(
        "option",
        [{"max_rebuilds": 3}, {"rebuild_window_seconds": 60.0}],
        ids=lambda option: next(iter(option)),
    )
    def test_resilience_config_takes_no_option(self, option):
        with pytest.raises(TypeError):
            ResilienceConfig(**option)

    def test_hang_fault_is_gone(self):
        with pytest.raises(FaultSpecError):
            FaultPlan.parse("hang@0")
        assert not hasattr(FaultPlan, "has_hang")

    def test_sweep_rejects_hang_fault_and_creates_nothing(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--grid", "100", "--trials", "1", "--store", "st"]
        assert main(argv + ["--inject-faults", "hang@0"]) == 2
        assert "unknown fault kind 'hang'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_run_trials_is_gone(self):
        runner = importlib.import_module("repro.parallel.runner")
        assert not hasattr(repro.parallel, "run_trials")
        assert not hasattr(runner, "run_trials")


class TestRemovedSchemeBMatrix:
    @pytest.mark.parametrize("name", ["access_matrix", "from_access_vector"])
    def test_no_matrix_surface(self, name):
        assert not hasattr(SchemeB, name)

    @pytest.mark.parametrize(
        "access", [np.ones((6, 3)), np.ones((6, 1)), np.float64(1.0)],
        ids=["n-by-k", "n-by-1", "scalar"],
    )
    def test_constructor_rejects_anything_but_one_entry_per_ms(self, access):
        with pytest.raises(ValueError, match="one entry per MS"):
            SchemeB(np.zeros(6, int), np.zeros(3, int), access, Backbone(3, 1.0))


class TestRemovedRunnerSeeding:
    CALLS = {
        "run": lambda runner, **option: runner.run([1, 2], **option),
        "run_values": lambda runner, **option: runner.run_values([1, 2], **option),
        "run_batched": lambda runner, **option: runner.run_batched(
            [1, 2], _batch, [(0, 1)], **option
        ),
    }

    @pytest.mark.parametrize("method", sorted(CALLS))
    @pytest.mark.parametrize(
        "option",
        [{"seed": 0}, {"submission_order": [1, 0]}],
        ids=lambda option: next(iter(option)),
    )
    def test_runner_takes_no_seeding_option(self, method, option):
        with pytest.raises(TypeError):
            self.CALLS[method](TrialRunner(_trial), **option)

    def test_run_recorded_takes_no_seed(self):
        assert "seed" not in inspect.signature(run_recorded).parameters

    def test_batch_plan_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.parallel.batch")

    @pytest.mark.parametrize("name", ["BatchedTrialPlan", "TrialBatch"])
    def test_no_plan_reexport(self, name):
        assert not hasattr(repro.parallel, name)

    def test_rng_helpers_are_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.utils.rng")

    @pytest.mark.parametrize("name", ["make_rng", "spawn_rngs"])
    def test_no_rng_reexport(self, name):
        assert not hasattr(repro.utils, name)
        assert name not in repro.utils.__all__

    @pytest.mark.parametrize(
        "entry", [batched_zone_access, batched_scheme_c_attach],
        ids=lambda entry: entry.__name__,
    )
    def test_batched_entry_takes_no_chunk_size(self, entry):
        assert "chunk_size" not in inspect.signature(entry).parameters

    def test_scheme_b_has_one_flow_entry(self):
        assert not hasattr(SchemeB, "_flow")
