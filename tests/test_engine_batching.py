"""Engine vectorisation satellites: arrival prefetch and the static BS block.

``run()`` draws the whole ``(slots, n)`` Bernoulli arrival matrix up front
(when the simulator's RNG is not shared with the mobility process).  That is
a pure optimisation: every test here pins bit-identity against the
step-by-step path, which still draws arrivals per slot.  The BS block is
appended after the MS rows every slot, and simulators share no state.
"""

import numpy as np
import pytest

from repro.mobility.processes import IIDAroundHome, StaticProcess
from repro.mobility.shapes import UniformDiskShape
from repro.observability import RecordingTelemetry
from repro.observability.events import SlotBatch, using_telemetry
from repro.simulation.engine import PacketRouter, SlottedSimulator
from repro.simulation.traffic import permutation_traffic
from repro.wireless.scheduler import (
    GreedyMatchingScheduler,
    PolicySStar,
    VariableRangeScheduler,
)


class FIFORouter(PacketRouter):
    def select_transfer(self, queue, holder, peer):
        return queue[0] if queue else None


def make_sim(
    seed,
    n=50,
    arrival=0.2,
    shared_rng=True,
    static=None,
    mobile=True,
    scheduler=None,
):
    """One simulator; ``shared_rng`` shares the engine RNG with mobility."""
    rng = np.random.default_rng(seed)
    homes = rng.random((n, 2))
    if mobile:
        process_rng = rng if shared_rng else np.random.default_rng(seed + 1000)
        process = IIDAroundHome(homes, UniformDiskShape(1.0), 0.3, process_rng)
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

    def spy(positions):
        seen.append((positions, positions.copy()))
        return schedule(positions)

    sim._scheduler.schedule = spy
    return seen


class TestStaticBlock:
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
