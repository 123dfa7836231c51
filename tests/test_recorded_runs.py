"""Every experiment driver runs its trials through one recorded-run path.

The six Monte-Carlo drivers share the store/resilience/manifest sequence of
:func:`repro.experiments.recorded.run_recorded`.  Two properties pin it:

- **identity** -- each driver's completed manifest keeps the ``command``,
  ``config``, trial keys, ``cached`` mask, ``status`` and serve family it
  has always had, so stored runs keep their cache hits and families;
- **drain** -- a ``KeyboardInterrupt`` mid-run leaves exactly one
  ``status="interrupted"`` manifest carrying the full trial keys, and
  re-running on the same store resumes from the journal to the values
  and manifest digest of an uninterrupted run.

Every completed manifest carries a result digest, so ``serve regress``
can flag drift in any driver's results.
"""

import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.convergence import windowed_slopes
from repro.experiments.delay import compare_delays
from repro.experiments.figure1 import CLUSTERED_PARAMS, UNIFORM_PARAMS, make_panels
from repro.experiments.figure2 import trace_scheme_b_sessions
from repro.experiments.figure3 import simulated_spot_checks
from repro.experiments.scaling import sweep_capacity
from repro.serve.index import family_key
from repro.store import RunStore, content_digest

PARAMS = NetworkParameters(alpha="1/4", cluster_exponent=1)


def _sweep(store):
    return sweep_capacity(
        PARAMS, [100, 200], scheme="A", trials=1, seed=11, store=store
    ).digest()


def _convergence(store):
    study = windowed_slopes(
        PARAMS, [100, 200], scheme="A", window=2, trials=1, seed=11, store=store
    )
    return content_digest([study.rates, study.window_slopes])


def _figure1(store):
    specs = [(CLUSTERED_PARAMS, "clustered"), (UNIFORM_PARAMS, "uniform")]
    return content_digest(make_panels(specs, 100, seed=42, grid_side=8, store=store))


def _figure2(store):
    traces = trace_scheme_b_sessions(200, seed=5, session_indices=(0, 1), store=store)
    return content_digest(traces)


def _figure3(store):
    points = [("1/4", "1/4", "0"), ("3/8", "7/8", "1")]
    return content_digest(simulated_spot_checks(points, n=200, seed=3, store=store))


def _delay(store):
    comparison = compare_delays(60, seed=1, slots=40, arrival_prob=0.01, store=store)
    return content_digest(
        [comparison.mean_delay, comparison.mean_hops, comparison.delivered]
    )


#: command -> driver call at small inputs (returns a digest of its values)
DRIVERS = {
    "sweep": _sweep,
    "convergence": _convergence,
    "figure1": _figure1,
    "figure2": _figure2,
    "figure3-spot-checks": _figure3,
    "delay": _delay,
}

#: Each driver's completed manifest on a fresh store: the identity stored
#: runs already carry.  Any drift here splits them from their cache hits or
#: their serve families.
PINNED = {
    "sweep": {
        "config": {
            "scheme": "A", "n_values": [100, 200], "trials": 1, "seed": 11,
            "build_kwargs": {}, "generic": False, "workers": None,
            "batch_trials": None,
        },
        "trial_keys": [
            "9d4a2ce6c18b56a8ecfa507f967809b3f501a692350cc8bfcadf40470386e65e",
            "d5d55a1c9f944a07c4c81c6eccc8ab176fddfce1080a7a8ed4e452d8f1dddce3",
        ],
        "family": "93a166e1e3576c7bfa22ae0a1ea283c3578b1931a71646d8445f2726c75dde09",
    },
    "convergence": {
        "config": {
            "scheme": "A", "n_values": [100, 200], "window": 2, "trials": 1,
            "seed": 11, "build_kwargs": {}, "generic": False, "workers": None,
        },
        "trial_keys": [
            "9d4a2ce6c18b56a8ecfa507f967809b3f501a692350cc8bfcadf40470386e65e",
            "d5d55a1c9f944a07c4c81c6eccc8ab176fddfce1080a7a8ed4e452d8f1dddce3",
        ],
        "family": "aa2e973c1ec7f6f2728570cbfe50dab3be23872c1688df47155a73884f16b54e",
    },
    "figure1": {
        "config": {
            "labels": ["clustered", "uniform"], "n": 100, "seed": 42,
            "grid_side": 8, "workers": None,
        },
        "trial_keys": [
            "e97627023b7237034c4a1eacd309b3ba8158e93dc2e3b8950872eff59081a016",
            "a998712596b7b7a1441ef5777f5dcdbbd10c86b51267f5c8476d7c8a2eb91783",
        ],
        "family": "577fe7454b5433f1a505dfd8649cde95b1f264b3d69fb14e895838a77a7e3016",
    },
    "figure2": {
        "config": {"n": 200, "seed": 5, "session_indices": [0, 1], "workers": None},
        "trial_keys": [
            "f785da5a3bd39c08f5994a5098e11ed1aa773f405d76798891b394edee0efd47",
            "9ffcc5f491b5dc75a3f0c682b9841685fde474ee572ed13338ddcd0ebde99e86",
        ],
        "family": "711c049af20872036b8cfa3bcf431ef7bb897fc4b6a15b55edece39b4e9986f6",
    },
    "figure3-spot-checks": {
        "config": {
            "points": [["1/4", "1/4", "0"], ["3/8", "7/8", "1"]], "n": 200,
            "seed": 3, "workers": None,
        },
        "trial_keys": [
            "08418b19954d3f8cdf32afd7dcbf51c402abba7672c6159a0fa2f56337e9cf61",
            "464ea9863f3c1fce25a99105551836c58f79676de4a80b5541481d004b609ab5",
        ],
        "family": "33bae1606c31c716033ed9de24cb0d261202b452171b2da9bcbc6d7d8005a079",
    },
    "delay": {
        "config": {
            "n": 60, "seed": 1, "slots": 40, "arrival_prob": 0.01, "workers": None,
        },
        "trial_keys": [
            "14bad6498554d3811e6bf205f02294e9e02b9d67f8b04e27e9cc99be54c07c27",
            "1e89d24aa0a6ebf0521f928864811b27610e5e9bf7efc43c25ea759b8f517ce4",
            "9cace52737561f4e8b48bd396ecdc3258dc57d25fff2b3b1181cf3cfa752d1d0",
        ],
        "family": "092edfe38c00266de8113d923620fa3c2610b332a9a7003190c7d9c52bf8df4d",
    },
}


class _InterruptingStore(RunStore):
    """Delivers a keyboard interrupt on the second journal write."""

    def __init__(self, root):
        super().__init__(root)
        self.puts = 0

    def put(self, key, value, duration):
        self.puts += 1
        if self.puts >= 2:
            raise KeyboardInterrupt
        super().put(key, value, duration)


@pytest.mark.parametrize("command", list(DRIVERS))
def test_manifest_identity_is_pinned(tmp_path, command):
    store = RunStore(tmp_path / "store")
    DRIVERS[command](store)
    (manifest,) = store.list_runs()
    pinned = PINNED[command]
    assert manifest["command"] == command
    assert manifest["status"] == "completed"
    assert manifest["config"] == pinned["config"]
    assert manifest["trial_keys"] == pinned["trial_keys"]
    assert manifest["cached"] == [False] * len(pinned["trial_keys"])
    assert family_key(manifest) == pinned["family"]
    assert isinstance(manifest["digest"], str) and len(manifest["digest"]) == 64


@pytest.mark.parametrize("command", list(DRIVERS))
def test_interrupt_records_manifest_and_resumes(tmp_path, command):
    driver = DRIVERS[command]
    reference = driver(None)
    store_dir = tmp_path / "store"

    with pytest.raises(KeyboardInterrupt):
        driver(_InterruptingStore(store_dir))
    runs = RunStore(store_dir).list_runs()
    assert [run["status"] for run in runs] == ["interrupted"]
    assert runs[0]["command"] == command
    assert runs[0]["trial_keys"] == PINNED[command]["trial_keys"]

    store = RunStore(store_dir)
    assert driver(store) == reference
    resumed = next(run for run in store.list_runs() if run["status"] == "completed")
    assert resumed["stats"]["cache_hits"] >= 1
    assert any(resumed["cached"])

    cold_store = RunStore(tmp_path / "cold")
    driver(cold_store)
    (cold,) = cold_store.list_runs()
    assert resumed["digest"] == cold["digest"] is not None
