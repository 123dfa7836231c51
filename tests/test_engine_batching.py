"""Engine vectorisation satellites: arrival prefetch, combined buffer and
the persistent neighbor index.

``run()`` now draws the whole ``(slots, n)`` Bernoulli arrival matrix up
front (when the simulator's RNG is not shared with the mobility process),
reuses one preallocated MS+BS position buffer per slot, and keeps one
:class:`~repro.geometry.neighbors.IncrementalCellGridIndex` for the whole
run.  All are pure optimisations: every test here pins bit-identity
against the step-by-step path, which still draws arrivals per slot, or
against a scheduler handed a fresh ``CellGridIndex`` every slot.
"""

import numpy as np
import pytest

from repro.geometry.neighbors import CellGridIndex
from repro.mobility.processes import (
    IIDAroundHome,
    MetropolisWalkAroundHome,
    StaticProcess,
)
from repro.mobility.shapes import TruncatedGaussianShape, UniformDiskShape
from repro.observability import RecordingTelemetry
from repro.observability.events import SlotBatch, using_telemetry
from repro.simulation.engine import PacketRouter, SlottedSimulator
from repro.simulation.traffic import permutation_traffic
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    Scheduler,
    VariableRangeScheduler,
)


class FIFORouter(PacketRouter):
    def select_transfer(self, queue, holder, peer):
        return queue[0] if queue else None


PROCESSES = {
    "iid": lambda homes, rng: IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, rng),
    # long proposals under a Gaussian shape: ~20% of nodes move per slot
    "metropolis": lambda homes, rng: MetropolisWalkAroundHome(
        homes, TruncatedGaussianShape(), 0.3, rng, step_fraction=1.0, burn_in=4
    ),
}


def make_sim(
    seed,
    n=50,
    arrival=0.2,
    shared_rng=True,
    static=None,
    mobile=True,
    scheduler=None,
    mobility="iid",
):
    """One simulator; ``shared_rng`` shares the engine RNG with mobility."""
    rng = np.random.default_rng(seed)
    homes = rng.random((n, 2))
    if mobile:
        process_rng = rng if shared_rng else np.random.default_rng(seed + 1000)
        process = PROCESSES[mobility](homes, process_rng)
    else:
        process = StaticProcess(homes)
    total = n + (0 if static is None else len(static))
    traffic = permutation_traffic(rng, n)
    return SlottedSimulator(
        process=process,
        scheduler=scheduler or PolicySStar(node_count=total, c_t=0.4, delta=0.5),
        router=FIFORouter(),
        traffic=traffic,
        arrival_prob=arrival,
        rng=rng,
        static_positions=static,
    )


def metrics_digest(metrics):
    return (
        metrics.created,
        metrics.delivered,
        metrics.in_flight,
        tuple(np.asarray(metrics.delays).tolist()),
        tuple(np.asarray(metrics.hop_counts).tolist()),
    )


class TestArrivalPrefetch:
    @pytest.mark.parametrize("shared_rng", [True, False])
    def test_run_matches_step_loop(self, shared_rng):
        """The prefetched arrival stream equals the per-slot stream."""
        run_sim = make_sim(3, shared_rng=shared_rng)
        step_sim = make_sim(3, shared_rng=shared_rng)
        run_metrics = run_sim.run(40)
        for _ in range(40):
            step_sim.step()
        assert metrics_digest(run_metrics) == metrics_digest(step_sim._metrics())

    def test_prefetch_skipped_when_rng_shared(self):
        sim = make_sim(4, shared_rng=True)
        sim._prefetch_arrivals(10)
        assert sim._arrival_rows is None

    def test_prefetch_used_when_rng_separate(self):
        sim = make_sim(4, shared_rng=False)
        sim._prefetch_arrivals(10)
        assert sim._arrival_rows is not None
        assert sim._arrival_rows.shape == (10, sim.ms_count)
        sim._clear_arrivals()
        assert sim._arrival_rows is None

    def test_static_process_prefetches(self):
        run_sim = make_sim(5, mobile=False)
        step_sim = make_sim(5, mobile=False)
        run_metrics = run_sim.run(25)
        for _ in range(25):
            step_sim.step()
        assert metrics_digest(run_metrics) == metrics_digest(step_sim._metrics())

    def test_consecutive_runs_continue_the_stream(self):
        """Two prefetched run() calls == one long run (stream continuity)."""
        split = make_sim(6, shared_rng=False)
        whole = make_sim(6, shared_rng=False)
        split.run(15)
        split_metrics = split.run(15)
        whole_metrics = whole.run(30)
        assert metrics_digest(split_metrics) == metrics_digest(whole_metrics)


def scheduled_positions(sim):
    """Record ``(array, snapshot)`` of the positions each slot schedules on."""
    seen = []
    schedule = sim._scheduler.schedule

    def spy(positions, **kwargs):
        seen.append((positions, positions.copy()))
        return schedule(positions, **kwargs)

    sim._scheduler.schedule = spy
    return seen


class TestCombinedBuffer:
    def test_static_rows_preserved_across_slots(self):
        static = np.random.default_rng(0).random((7, 2))
        sim = make_sim(8, static=static)
        seen = scheduled_positions(sim)
        for _ in range(5):
            sim.step()
        assert len(seen) == 5
        for _positions, snapshot in seen:
            assert np.array_equal(snapshot[sim.ms_count :], static)

    def test_run_with_static_matches_step_loop(self):
        static = np.random.default_rng(1).random((5, 2))
        run_sim = make_sim(9, static=static, shared_rng=False)
        step_sim = make_sim(9, static=static, shared_rng=False)
        run_metrics = run_sim.run(30)
        for _ in range(30):
            step_sim.step()
        assert metrics_digest(run_metrics) == metrics_digest(step_sim._metrics())

    def test_buffer_is_reused(self):
        static = np.random.default_rng(2).random((4, 2))
        sim = make_sim(10, static=static)
        seen = scheduled_positions(sim)
        sim.step()
        sim.step()
        (first, _), (second, _) = seen
        assert first is second  # one preallocated MS+BS buffer

    def test_no_static_passthrough(self):
        sim = make_sim(11)
        seen = scheduled_positions(sim)
        sim.step()
        (positions, _), = seen
        assert positions.shape == (sim.ms_count, 2)


SCHEDULERS = {
    "sstar": None,
    "variable": lambda: VariableRangeScheduler(0.1, delta=0.5),
    "greedy": lambda: GreedyMatchingScheduler(0.12, delta=0.5),
}


class TestIndependentSimulators:
    """Simulators share no hidden state: stepping several of them slot by
    slot in round robin gives each the metrics it gets running alone."""

    @pytest.mark.parametrize("with_static", [False, True])
    @pytest.mark.parametrize("kind", sorted(SCHEDULERS))
    def test_interleaved_steps_match_solo_runs(self, kind, with_static):
        static = np.random.default_rng(99).random((6, 2)) if with_static else None
        factory = SCHEDULERS[kind]

        def sim(seed):
            scheduler = factory() if factory else None
            return make_sim(seed, static=static, scheduler=scheduler)

        seeds = (1, 2, 3)
        interleaved = [sim(seed) for seed in seeds]
        for _ in range(20):
            for each in interleaved:
                each.step()
        for seed, each in zip(seeds, interleaved):
            solo = sim(seed).run(20)
            assert metrics_digest(each._metrics()) == metrics_digest(solo)

    def test_run_emits_one_slot_batch_per_call(self):
        sim = make_sim(12)
        sink = RecordingTelemetry()
        with using_telemetry(sink):
            sim.run(10)
            sim.run(5)
        batches = sink.of_type(SlotBatch)
        assert [b.slots for b in batches] == [10, 5]
        assert [b.total_slots for b in batches] == [10, 15]


class FreshIndexScheduler(Scheduler):
    """Runs ``inner`` on a fresh :class:`CellGridIndex` every slot,
    ignoring the index the simulator passes in."""

    def __init__(self, inner):
        self._inner = inner

    def transmission_range(self, node_count=None):
        return self._inner.transmission_range(node_count)

    def schedule(self, positions, index=None):
        return self._inner.schedule(positions, index=CellGridIndex(positions))


class TestPersistentIndex:
    """The simulator's one incremental index, diffed forward with the
    mobility process's moved mask (padded for the static BSs), schedules
    what a fresh index per slot schedules: IID redraws take the index's
    rebuild path, the Metropolis walk its diff path."""

    SLOTS = 150

    @pytest.mark.parametrize("with_static", [False, True])
    @pytest.mark.parametrize("mobility", sorted(PROCESSES))
    @pytest.mark.parametrize("kind", ["sstar", "greedy"])
    def test_matches_fresh_index_per_slot(self, kind, mobility, with_static):
        static = np.random.default_rng(98).random((12, 2)) if with_static else None
        factory = SCHEDULERS[kind]

        def sim(fresh):
            scheduler = factory() if factory else None
            if fresh:
                # make_sim's default S*, wrapped
                total = 50 + (0 if static is None else len(static))
                inner = scheduler or PolicySStar(node_count=total, c_t=0.4, delta=0.5)
                scheduler = FreshIndexScheduler(inner)
            return make_sim(13, static=static, scheduler=scheduler, mobility=mobility)

        persistent_sim = sim(fresh=False)
        persistent = persistent_sim.run(self.SLOTS)
        fresh = sim(fresh=True).run(self.SLOTS)
        index = persistent_sim._index
        assert index.updates == self.SLOTS - 1
        if mobility == "metropolis":
            assert index.rebuilds < index.updates // 2  # mostly the diff path
        assert persistent.delivered > 0  # the comparison is not vacuous
        assert metrics_digest(persistent) == metrics_digest(fresh)
