"""Unit tests for the delay-comparison experiment driver."""

from dataclasses import asdict

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.delay import DelayComparison, _scheme_b_router, compare_delays
from repro.simulation.network import HybridNetwork
from repro.store import RunStore, content_digest


class TestCompareDelays:
    @pytest.fixture(scope="class")
    def comparison(self):
        # small and short: this is a smoke-level correctness check; the
        # full-size comparison lives in benchmarks/test_delay.py
        return compare_delays(80, seed=1, slots=800, arrival_prob=0.01)

    def test_all_three_schemes_present(self, comparison):
        assert set(comparison.mean_delay) == {"scheme-A", "two-hop", "scheme-B"}

    def test_some_delivery_everywhere(self, comparison):
        for scheme, count in comparison.delivered.items():
            assert count > 0, scheme

    def test_two_hop_bounded_hops(self, comparison):
        assert comparison.mean_hops["two-hop"] <= 2.0

    def test_lines_render(self, comparison):
        lines = comparison.lines()
        assert len(lines) == 3
        assert all("delay=" in line for line in lines)

    def test_delays_non_negative(self, comparison):
        for scheme, delay in comparison.mean_delay.items():
            assert delay >= 0 or np.isnan(delay), scheme


def _journaled_values(root):
    """The values a stored delay run journaled, in trial order."""
    store = RunStore(root)
    (manifest,) = store.list_runs()
    return manifest, [store.get(key).value for key in manifest["trial_keys"]]


class TestJournaledValues:
    ARGS = dict(n=60, seed=1, slots=40, arrival_prob=0.01)

    def test_cold_runs_journal_equal_values(self, tmp_path):
        compare_delays(**self.ARGS, store=tmp_path / "a")
        compare_delays(**self.ARGS, store=tmp_path / "b")
        _, first = _journaled_values(tmp_path / "a")
        _, second = _journaled_values(tmp_path / "b")
        assert content_digest(first) == content_digest(second)
        assert all("elapsed_seconds" not in value for value in first)

    def test_values_journaled_with_elapsed_seconds_still_replay(self, tmp_path):
        """Older runs journaled a wall-clock ``elapsed_seconds`` key; a
        store holding such values replays them to the same comparison and
        the same manifest digest."""
        cold = compare_delays(**self.ARGS, store=tmp_path / "cold")
        manifest, values = _journaled_values(tmp_path / "cold")
        old = RunStore(tmp_path / "old")
        for key, value in zip(manifest["trial_keys"], values):
            old.put(key, dict(value, elapsed_seconds=1.25), 0.1)
        old.close()
        replayed = compare_delays(**self.ARGS, store=tmp_path / "old")
        # NaN delays (nothing delivered) compare unequal; digests do not
        assert content_digest(asdict(replayed)) == content_digest(asdict(cold))
        (resumed,) = RunStore(tmp_path / "old").list_runs()
        assert resumed["stats"]["cache_hits"] == 3
        assert resumed["digest"] == manifest["digest"]


def test_scheme_b_router_needs_infrastructure():
    params = NetworkParameters(alpha="1/4", cluster_exponent=1)
    net = HybridNetwork.build(params, 40, np.random.default_rng(1))
    with pytest.raises(ValueError, match="infrastructure"):
        _scheme_b_router(net)
