"""Integration tests: the persistent store beneath the trial runner and the
experiment drivers (cache hit/miss, resume-after-kill, determinism)."""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import (
    _sweep_trial_key,
    sweep_capacity,
    sweep_trial_payloads,
)
from repro.infrastructure.backbone import BackboneTopology
from repro.mobility.shapes import ConeShape, QuadraticDecayShape, UniformDiskShape
from repro.parallel import TrialRunner
from repro.resilience import RetryPolicy
from repro.store import RunStore, TrialSeed, trial_key

PARAMS = NetworkParameters(alpha="1/4", cluster_exponent=1)


# ----------------------------------------------------------------------
# TrialRunner cache plumbing (with a fake in-memory cache)
# ----------------------------------------------------------------------
class FakeHit:
    def __init__(self, value, duration=0.5):
        self.value = value
        self.duration = duration


class FakeCache:
    def __init__(self, entries=None):
        self.entries = dict(entries or {})
        self.gets = []
        self.puts = []

    def get(self, key):
        self.gets.append(key)
        value = self.entries.get(key)
        return None if value is None else FakeHit(value)

    def put(self, key, value, duration):
        self.puts.append(key)
        self.entries[key] = value


def _double(payload):
    return payload * 2


def _fail_on_odd(payload):
    if payload % 2:
        raise RuntimeError("odd payload")
    return payload


class TestRunnerCache:
    def test_hits_skip_execution(self):
        cache = FakeCache({"k1": 11})
        runner = TrialRunner(_double)
        results = runner.run([5, 6], cache=cache, keys=["k1", "k2"])
        assert results[0].value == 11 and results[0].cached
        assert results[0].attempts == 0
        assert results[1].value == 12 and not results[1].cached
        assert runner.last_stats.cache_hits == 1
        assert runner.last_stats.cache_misses == 1

    def test_fresh_successes_are_journaled(self):
        cache = FakeCache()
        TrialRunner(_double).run([1, 2], cache=cache, keys=["a", "b"])
        assert cache.puts == ["a", "b"]
        assert cache.entries == {"a": 2, "b": 4}

    def test_failures_not_journaled(self):
        cache = FakeCache()
        runner = TrialRunner(_fail_on_odd, retry_policy=RetryPolicy(max_attempts=1))
        results = runner.run([1, 2], cache=cache, keys=["a", "b"])
        assert not results[0].ok and results[1].ok
        assert cache.puts == ["b"]

    def test_none_key_is_uncacheable(self):
        cache = FakeCache({"a": 99})
        results = TrialRunner(_double).run([1, 2], cache=cache, keys=[None, "b"])
        assert results[0].value == 2  # executed despite a would-be hit
        assert cache.gets == ["b"]

    def test_key_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TrialRunner(_double).run([1, 2], cache=FakeCache(), keys=["a"])

    def test_all_cached_skips_pool_entirely(self):
        cache = FakeCache({"a": 1, "b": 2})
        runner = TrialRunner(_double, workers=2)  # pool would be expensive
        results = runner.run([10, 20], cache=cache, keys=["a", "b"])
        assert [r.value for r in results] == [1, 2]
        assert runner.last_stats.cache_hits == 2

    def test_partial_cache_preserves_seeding(self):
        """Trial i computes the same value from its payload's seed whether
        or not the other trials were served from cache."""

        def draw(seed):
            return float(seed.rng().random())

        payloads = [TrialSeed(0, index) for index in range(3)]
        cold = TrialRunner(draw).run(payloads)
        cache = FakeCache({"k0": cold[0].value, "k2": cold[2].value})
        warm = TrialRunner(draw).run(payloads, cache=cache, keys=["k0", "miss", "k2"])
        assert warm[1].value == cold[1].value
        assert warm[1].attempts == 1 and warm[0].cached and warm[2].cached

    def test_summary_mentions_cache(self):
        cache = FakeCache({"a": 1})
        runner = TrialRunner(_double)
        runner.run([1], cache=cache, keys=["a"])
        assert "cache_hits=1/1" in runner.last_stats.summary()


# ----------------------------------------------------------------------
# explicit trial seeds
# ----------------------------------------------------------------------
class TestTrialSeed:
    def test_matches_runner_spawn_exactly(self):
        """``TrialSeed(e, i)`` equals ``SeedSequence(e).spawn(n)[i]``: trials
        journaled when the stream was derived from list position keep
        their values -- the equivalence stored journals rest on."""
        children = np.random.SeedSequence(123).spawn(5)
        for index in range(5):
            explicit = TrialSeed(123, index).rng().random(16)
            spawned = np.random.default_rng(children[index]).random(16)
            assert np.array_equal(explicit, spawned)

    def test_payloads_carry_seeds(self):
        payloads = sweep_trial_payloads(PARAMS, [100, 200], "A", 2, seed=9)
        assert [p[5] for p in payloads] == [TrialSeed(9, i) for i in range(4)]

    def test_sweep_result_records_seeds(self):
        result = sweep_capacity(PARAMS, [100], scheme="A", trials=2, seed=9)
        assert result.seed == 9
        assert result.trial_seeds == (TrialSeed(9, 0), TrialSeed(9, 1))


# ----------------------------------------------------------------------
# sweep_capacity + RunStore end to end
# ----------------------------------------------------------------------
def run_sweep(store=None, seed=3, n_values=(100, 200), workers=None, **kwargs):
    return sweep_capacity(
        PARAMS, list(n_values), scheme="A", trials=2, seed=seed,
        workers=workers, store=store, **kwargs
    )


class TestSweepStore:
    def test_store_does_not_change_results(self, tmp_path):
        baseline = run_sweep()
        stored = run_sweep(store=tmp_path / "s")
        assert np.array_equal(stored.rates, baseline.rates)
        assert stored.digest() == baseline.digest()

    def test_second_run_all_hits_same_digest(self, tmp_path):
        first = run_sweep(store=tmp_path / "s")
        second = run_sweep(store=tmp_path / "s")
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits == 4
        assert second.digest() == first.digest()

    @pytest.mark.parametrize(
        "perturbation",
        [{"seed": 4}, {"n_values": (150, 250)}],
        ids=["seed", "grid"],
    )
    def test_parameter_perturbation_misses(self, tmp_path, perturbation):
        run_sweep(store=tmp_path / "s")
        perturbed = run_sweep(store=tmp_path / "s", **perturbation)
        assert perturbed.stats.cache_hits == 0

    def test_different_family_misses(self, tmp_path):
        run_sweep(store=tmp_path / "s")
        other = sweep_capacity(
            NetworkParameters(alpha="1/8", cluster_exponent=1),
            [100, 200], scheme="A", trials=2, seed=3, store=tmp_path / "s",
        )
        assert other.stats.cache_hits == 0

    def test_superset_grid_partially_hits(self, tmp_path):
        """Trials are keyed by content, not run membership: growing the
        grid reuses nothing only where the (n, seed-index) slots moved."""
        run_sweep(store=tmp_path / "s", n_values=(100, 200))
        wider = run_sweep(store=tmp_path / "s", n_values=(100, 200, 400))
        # n=100,200 trials keep spawn indices 0..3, so all four hit
        assert wider.stats.cache_hits == 4

    def test_resume_after_kill_replays_only_missing(self, tmp_path):
        """The acceptance scenario: a SIGKILLed --store sweep leaves a
        journal with some complete lines and possibly one truncated tail;
        re-invoking completes using cached trials for finished work with a
        digest bit-identical to a cold run at any worker count."""
        cold = run_sweep()  # no store: the reference digest
        store_dir = tmp_path / "s"
        run_sweep(store=store_dir)
        journal = RunStore(store_dir).journal_path
        lines = journal.read_text().splitlines()
        assert len(lines) == 4
        # keep 2 completed trials + a truncated tail, as a kill would
        journal.write_text("\n".join(lines[:2]) + '\n{"schema":1,"key":"x","val')
        resumed = run_sweep(store=store_dir)
        assert resumed.stats.cache_hits == 2
        assert resumed.digest() == cold.digest()

    def test_resume_with_pool_workers_bit_identical(self, tmp_path):
        cold = run_sweep()
        store_dir = tmp_path / "s"
        run_sweep(store=store_dir)
        journal = RunStore(store_dir).journal_path
        journal.write_text("\n".join(journal.read_text().splitlines()[:1]) + "\n")
        resumed = run_sweep(store=store_dir, workers=2)
        assert resumed.stats.cache_hits == 1
        assert resumed.digest() == cold.digest()

    def test_no_cache_recomputes_but_journals(self, tmp_path):
        store_dir = tmp_path / "s"
        run_sweep(store=store_dir)
        refreshed = run_sweep(store=RunStore(store_dir, use_cache=False))
        assert refreshed.stats.cache_hits == 0
        # journal refreshed: a cached run still sees every trial
        warm = run_sweep(store=store_dir)
        assert warm.stats.cache_hits == 4

    @pytest.mark.parametrize(
        "scheme, build_kwargs",
        [
            ("A", {"shape": UniformDiskShape(2.0)}),
            ("B", {"backbone_topology": BackboneTopology.RING}),
        ],
        ids=["shape", "topology"],
    )
    def test_build_kwargs_sweep_reruns_as_hits(self, tmp_path, scheme, build_kwargs):
        params = NetworkParameters(
            alpha="1/4", cluster_exponent=1, bs_exponent="7/8", backbone_exponent=1
        )

        def sweep(store=None):
            return sweep_capacity(
                params, [100, 200], scheme=scheme, trials=2, seed=3,
                build_kwargs=build_kwargs, store=store,
            )

        cold = sweep()
        first = sweep(store=tmp_path / "s")
        second = sweep(store=tmp_path / "s")
        assert first.stats.cache_hits == 0
        assert second.stats.cache_hits == 4
        assert first.digest() == second.digest() == cold.digest()

    def test_unencodable_build_kwargs_create_no_store(self, tmp_path):
        class Custom(UniformDiskShape):
            pass

        with pytest.raises(TypeError):
            run_sweep(store=tmp_path / "s", build_kwargs={"shape": Custom(1.0)})
        assert not (tmp_path / "s").exists()

    def test_shape_enters_the_trial_key(self):
        def key(build_kwargs):
            payload = sweep_trial_payloads(PARAMS, [100], "A", 1, build_kwargs)[0]
            return _sweep_trial_key(payload)

        assert key({"shape": ConeShape(1.0)}) != key({"shape": QuadraticDecayShape(1.0)})
        assert key({"shape": ConeShape(1)}) == key({"shape": ConeShape(1.0)})

    def test_default_shape_key_unchanged(self):
        # a sweep that names no shape keeps the key it had before shapes
        # became encodable, so existing journals still hit
        payload = sweep_trial_payloads(PARAMS, [200], "A", 1, None, seed=11)[0]
        assert _sweep_trial_key(payload) == (
            "42fcd29841e41083ca359609aac55ed84dcced1e9003c03797cc92c1137d8a6b"
        )

    def test_manifest_recorded_with_provenance_and_timing(self, tmp_path):
        store_dir = tmp_path / "s"
        result = run_sweep(store=store_dir)
        manifest = RunStore(store_dir).list_runs()[0]
        assert manifest["command"] == "sweep"
        assert manifest["digest"] == result.digest()
        assert len(manifest["durations"]) == 4
        assert sum(manifest["durations"]) > 0
        assert manifest["stats"]["trials"] == 4
        assert manifest["provenance"]["schema_version"]


# ----------------------------------------------------------------------
# the other experiment drivers
# ----------------------------------------------------------------------
class TestExperimentStores:
    def test_figure1_panels_cached(self, tmp_path):
        from repro.experiments.figure1 import UNIFORM_PARAMS, make_panels

        specs = [(UNIFORM_PARAMS, "uniform")]
        first = make_panels(specs, 100, seed=42, grid_side=8, store=tmp_path / "s")
        store = RunStore(tmp_path / "s")
        second = make_panels(specs, 100, seed=42, grid_side=8, store=store)
        assert np.array_equal(first[0].positions, second[0].positions)
        assert np.array_equal(first[0].field.values, second[0].field.values)
        runs = store.list_runs()
        assert [run["command"] for run in runs].count("figure1") == 2

    def test_figure3_spot_checks_cached(self, tmp_path):
        from repro.experiments.figure3 import simulated_spot_checks

        points = [("1/4", "1/4", "0")]
        first = simulated_spot_checks(points, n=300, seed=3, store=tmp_path / "s")
        second = simulated_spot_checks(points, n=300, seed=3, store=tmp_path / "s")
        assert first[0] == second[0]

    def test_figure2_sessions_match_serial_trace(self, tmp_path):
        from repro.experiments.figure2 import (
            trace_scheme_b,
            trace_scheme_b_sessions,
        )

        serial = trace_scheme_b(200, np.random.default_rng(5))
        (traced,) = trace_scheme_b_sessions(200, seed=5, store=tmp_path / "s")
        assert traced.session == serial.session
        assert traced.per_node_rate == serial.per_node_rate
        assert traced.bottleneck == serial.bottleneck
        (cached,) = trace_scheme_b_sessions(200, seed=5, store=tmp_path / "s")
        assert cached.session == serial.session
        assert cached.per_node_rate == serial.per_node_rate

    def test_delay_pool_matches_inline(self, tmp_path):
        from repro.experiments.delay import compare_delays

        inline = compare_delays(80, seed=1, slots=300)
        pooled = compare_delays(80, seed=1, slots=300, workers=2,
                                store=tmp_path / "s")
        assert pooled.mean_delay == inline.mean_delay
        assert pooled.mean_hops == inline.mean_hops
        assert pooled.delivered == inline.delivered
        cached = compare_delays(80, seed=1, slots=300, store=tmp_path / "s")
        assert cached.mean_delay == inline.mean_delay
        manifest = RunStore(tmp_path / "s").list_runs()[0]
        assert manifest["command"] == "delay"
        assert manifest["stats"]["cache_hits"] == 3

    def test_convergence_shares_sweep_cache(self, tmp_path):
        from repro.experiments.convergence import windowed_slopes

        store_dir = tmp_path / "s"
        sweep_capacity(PARAMS, [100, 200, 400], scheme="A", trials=1, seed=0,
                       store=store_dir)
        study = windowed_slopes(PARAMS, [100, 200, 400], scheme="A", window=2,
                                trials=1, seed=0, store=store_dir)
        # every trial of the study was journaled by the sweep
        runs = RunStore(store_dir).list_runs()
        manifest = next(run for run in runs if run["command"] == "convergence")
        assert manifest["stats"]["cache_hits"] == 3
        assert study.window_slopes.shape[0] == 2
