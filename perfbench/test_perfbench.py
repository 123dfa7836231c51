"""Tests of the benchmark's own machinery.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_trace():
    """unit [0, 10] > experiments [1, 9] > runner.run [2, 8] > two children."""
    clock = FakeClock()
    tracer = Tracer(clock)
    unit = tracer.begin("unit")
    clock.now = 1.0
    sweep = tracer.begin("experiments")
    clock.now = 2.0
    runner = tracer.begin("runner.run")
    clock.now = 3.0
    child = tracer.begin("scheme_c.flow")
    clock.now = 4.0
    inner = tracer.begin("backbone.spread")
    clock.now = 5.5
    tracer.end(inner)
    clock.now = 6.0
    tracer.end(child)
    clock.now = 8.0
    tracer.end(runner)
    clock.now = 9.0
    tracer.end(sweep)
    clock.now = 10.0
    tracer.end(unit)
    return tracer


def test_self_time_subtracts_child_coverage():
    spans = _nested_trace().spans
    assert tracing.self_time(spans, 1) == pytest.approx(8.0 - 6.0)  # experiments
    assert tracing.self_time(spans, 3) == pytest.approx(3.0 - 1.5)  # scheme_c.flow
    assert tracing.self_time(spans, 4) == pytest.approx(1.5)  # leaf


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("experiments", 0.0, 10.0),
        Span("a", 1.0, 4.0, parent=0),
        Span("b", 3.0, 6.0, parent=0),
    ]
    assert tracing.self_time(spans, 0) == pytest.approx(10.0 - 5.0)
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_phase_sums_use_self_time_and_skip_nested_same_name():
    tracer = _nested_trace()
    sums = tracing.phase_sums(tracer.spans)["unit"]
    assert sums["#wall"] == pytest.approx(10.0)
    assert sums["driver.self_s"] == pytest.approx(2.0)  # self time
    assert sums["runner.wall_s"] == pytest.approx(6.0)  # inclusive
    assert sums["scheme_c.flow_s"] == pytest.approx(1.5)  # self time
    assert sums["scheme_c.flow#incl"] == pytest.approx(3.0)
    assert sums["backbone.spread_s"] == pytest.approx(1.5)
    # a span nested in one of the same name is not counted again
    spans = [
        Span("unit", 0.0, 4.0),
        Span("geometry.distance", 0.0, 3.0, parent=0, attrs={"geometry.distance_bytes": 8}),
        Span("geometry.distance", 1.0, 2.0, parent=1, attrs={"geometry.distance_bytes": 8}),
    ]
    sums = tracing.phase_sums(spans)["unit"]
    assert sums["geometry.distance_s"] == pytest.approx(3.0)
    assert sums["geometry.distance_bytes"] == 8


def test_layer_metrics_ratios():
    # a 2-worker run: 4 s wall, 6 s of trials
    raw = {
        "runner.wall_s": 4.0,
        "runner.trial_s": 6.0,
        "runner#busy_s": 3.0,
        "runner#capacity_s": 8.0,
        "store#gets": 4,
        "store#hits": 3,
    }
    metrics = tracing.layer_metrics(raw)
    assert metrics["runner.utilisation"] == pytest.approx(6.0 / (4.0 * 2))
    assert metrics["runner.overhead_s"] == pytest.approx(4.0 - 6.0 / 2)
    assert metrics["store.hit_ratio"] == pytest.approx(0.75)
    assert not any("#" in name for name in metrics)
    combined = tracing.combine({"store.put_s": 1.0}, {"store.put_s": 4.0}, units=4)
    assert combined["store.put_s"] == pytest.approx(2.0)


def test_worker_spans_merge_under_the_span_open_at_fork(tmp_path):
    clock = FakeClock()
    tracer = Tracer(clock, spill_dir=tmp_path)
    unit = tracer.begin("unit")
    clock.now = 1.0
    runner = tracer.begin("runner.run")
    clock.now = 9.0
    tracer.end(runner)
    clock.now = 10.0
    tracer.end(unit)
    # what a worker forked inside runner.run spills: one tree per top-level span
    tree = {
        "under": runner,
        "spans": [
            ["network.build", 2.0, 5.0, None, {"network.builds": 1}],
            ["geometry.distance", 3.0, 4.0, 0, {}],
        ],
    }
    (tmp_path / "worker-7.jsonl").write_text(json.dumps(tree) + "\n")
    assert tracer.collect_workers() == 1
    build, distance = tracer.spans[2], tracer.spans[3]
    assert (build.name, build.parent) == ("network.build", runner)
    assert (distance.name, distance.parent) == ("geometry.distance", 2)
    sums = tracing.phase_sums(tracer.spans)["unit"]
    assert sums["network.build_s"] == pytest.approx(3.0)
    assert sums["network.builds"] == 1
    assert list(tmp_path.iterdir()) == []


def test_wrappers_patch_every_import_and_restore_it():
    import repro.geometry.torus as torus
    import repro.routing.scheme_a as scheme_a
    from repro.simulation.network import HybridNetwork

    originals = {
        "torus": torus.pairwise_distances,
        "scheme_a": scheme_a.pairwise_distances,
        "build": HybridNetwork.__dict__["build"],
        "rate": scheme_a.SchemeA.__dict__["sustainable_rate"],
    }
    tracer = Tracer()
    patcher = tracing.Patcher(tracer).install()
    try:
        assert scheme_a.pairwise_distances is not originals["scheme_a"]
        assert torus.pairwise_distances is not originals["torus"]
        assert isinstance(HybridNetwork.__dict__["build"], classmethod)
        workloads.scaling.sweep_capacity(
            workloads.STRONG.parameters, [300], scheme="optimal", trials=1, seed=3
        )
    finally:
        patcher.uninstall()
    assert tracing.wrapped_names() == []
    assert torus.pairwise_distances is originals["torus"]
    assert scheme_a.pairwise_distances is originals["scheme_a"]
    assert HybridNetwork.__dict__["build"] is originals["build"]
    assert scheme_a.SchemeA.__dict__["sustainable_rate"] is originals["rate"]
    names = {span.name for span in tracer.spans}
    for expected in ("experiments", "runner.run", "network.build", "scheme_a.flow", "geometry.distance"):
        assert expected in names
    assert tracer._stack == []


def test_wrappers_are_removed_when_the_traced_call_raises():
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracing.Patcher(tracer):
            workloads.scaling.sweep_capacity(
                workloads.STRONG.parameters, [300], scheme="no-such-scheme"
            )
    assert tracing.wrapped_names() == []


def test_digest_gate_rejects_a_perturbed_digest():
    pinned = workloads.PINNED["strong"]
    seed = workloads.DEFAULT_SEED
    assert workloads.check_digests("strong", seed, pinned, [pinned, pinned]) == []
    perturbed = (("0" if pinned[0][0] != "0" else "1") + pinned[0][1:],)
    assert workloads.check_digests("strong", seed, perturbed, [perturbed])
    assert workloads.check_digests("strong", seed, pinned, [pinned, perturbed])
    # other seeds are only held to the first unit's digests
    assert workloads.check_digests("strong", seed + 1, perturbed, [perturbed]) == []
    assert workloads.check_digests("strong", seed + 1, perturbed, [pinned])


def test_every_workload_has_a_pin():
    assert set(workloads.PINNED) == set(workloads.WORKLOADS)


def _trace_every_layer(tmp_path):
    """Small calls through every probe, a 2-worker pool sweep among them."""
    from repro import serve
    from repro.experiments import delay
    from repro.store import RunStore

    sweep = workloads.scaling.sweep_capacity
    tracer = Tracer(spill_dir=tmp_path / "spans")
    with tracing.Patcher(tracer):
        root = tracer.begin("unit")
        sweep(workloads.STRONG.parameters, [300], scheme="optimal", trials=1, seed=3)
        for parameters, scheme in ((workloads.WEAK.parameters, "B"), (workloads.TRIVIAL.parameters, "C")):
            sweep(parameters, [300], scheme=scheme, trials=2, seed=3, generic=True, batch_trials=2)
        with RunStore(tmp_path / "store") as store:
            for _ in range(2):  # cold in a pool, then all cache hits
                sweep(workloads.WEAK.parameters, [100], scheme="B", trials=4, seed=3,
                      generic=True, workers=2, store=store)
        index = serve.RunIndex(tmp_path / "store")
        index.refresh()
        serve.run_query(index, serve.QuerySpec(command="sweep"))
        serve.detect_regressions(index)
        delay.compare_delays(100, seed=3, slots=20)
        tracer.end(root)
    own = len(tracer.spans)
    assert tracer.collect_workers() > 0
    return tracer, own


def test_traced_metrics_are_those_of_benchmark_json(tmp_path):
    tracer, own = _trace_every_layer(tmp_path)
    metrics = tracing.layer_metrics(tracing.phase_sums(tracer.spans)["unit"])
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(metrics) | {"trace.overhead_frac"} == per_layer
    assert layers.benchmark() == BENCHMARK
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb"}
    # the 4 pooled trials' network builds were merged under the pool sweep
    spans = tracer.spans
    pooled = [s for s in spans[own:] if s.name == "network.build"]
    assert len(pooled) == 4
    assert all(spans[s.parent].name == "runner.run" for s in pooled)


def test_premises_name_the_failing_layer():
    unit = {"#wall": 10.0, "scheme_a.flow#incl": 4.0, "scheme_a.init#incl": 0.5}
    assert layers.premises("strong", {}, unit) == [
        ("scheme A is the majority of the unit", False)
    ]
    checks = dict(layers.premises("store", {"store.put#calls": 3}, {"store.put#calls": 1}))
    assert checks["the set-up writes the journal"]
    assert not checks["the timed unit writes no journal line"]
    assert not dict(layers.premises("infra", {}, {"scheme_a.flow#calls": 1}))[
        "scheme A is never called"
    ]
