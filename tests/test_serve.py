"""Unit tests for the serve layer: index, query, regression scan, report.

Most tests fabricate manifests directly (JSON files under ``runs/``) so
they can control ``created`` / ``created_ts`` / ``digest`` / ``durations``
/ ``cached`` exactly -- including the legacy shapes recorded before those
fields existed -- without paying for real sweeps.
"""

import html.parser
import json
import os

import pytest

from repro.serve import (
    QuerySpec,
    RunIndex,
    build_report,
    detect_regressions,
    family_key,
    render_html,
    render_json,
    run_query,
    scan_records,
    write_report,
)
from repro.serve.index import VOLATILE_CONFIG_KEYS, RunRecord
from repro.store import RunStore, content_digest


def manifest(run_id, **overrides):
    """A plausible modern manifest; keyword overrides replace whole fields
    (pass ``key=None`` via overrides to simulate its absence with
    ``{"field": REMOVE}``-style deletes handled by ``write_manifest``)."""
    base = {
        "run_id": run_id,
        "command": "sweep",
        "status": "completed",
        "created": "2026-08-08T12:00:00+0000",
        "created_ts": 1_900_000_000.0,
        "provenance": {"git_sha": "cafe" * 10, "schema_version": 1},
        "parameters": {"alpha": {"__repro__": "fraction", "value": "1/4"}},
        "config": {
            "scheme": "A",
            "n_values": [100, 200],
            "trials": 2,
            "seed": 3,
            "workers": None,
        },
        "trial_keys": ["k0", "k1"],
        "digest": "a" * 64,
        "durations": [1.0, 1.0],
        "cached": [False, False],
        "stats": {
            "trials": 2,
            "failures": 0,
            "retries": 0,
            "cache_hits": 0,
            "elapsed_seconds": 2.0,
            "workers": 1,
        },
    }
    base.update(overrides)
    return {key: value for key, value in base.items() if value is not REMOVE}


#: Sentinel: drop this field from the fabricated manifest entirely
#: (simulating manifests written before the field existed).
REMOVE = object()


def write_manifest(root, run_id, **overrides):
    runs_dir = root / RunStore.RUNS_DIR
    runs_dir.mkdir(parents=True, exist_ok=True)
    data = manifest(run_id, **overrides)
    (runs_dir / f"{run_id}.json").write_text(json.dumps(data, indent=2))
    return data


def record(run_id, **overrides):
    """An in-memory RunRecord straight from a fabricated manifest."""
    return RunRecord.from_manifest(manifest(run_id, **overrides), 0.0, 0)


class TestRunIndex:
    def test_refresh_parses_all_then_nothing(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        write_manifest(tmp_path, "run-b", created_ts=1_900_000_100.0)
        index = RunIndex(tmp_path)
        first = index.refresh()
        assert first.manifests == 2 and first.parsed == 2
        second = index.refresh()
        assert second.parsed == 0 and second.removed == 0
        assert not second.changed
        assert len(index) == 2

    def test_records_newest_first_by_created_ts(self, tmp_path):
        # DST fall-back: the *string* order contradicts the epoch order
        # ("01:15:00-0500" is 45 wall-clock minutes after "01:30:00-0400").
        write_manifest(
            tmp_path, "run-early",
            created="2026-11-01T01:30:00-0400", created_ts=1000.0,
        )
        write_manifest(
            tmp_path, "run-late",
            created="2026-11-01T01:15:00-0500", created_ts=3700.0,
        )
        index = RunIndex(tmp_path)
        index.refresh()
        assert [r.run_id for r in index.records()] == ["run-early", "run-late"][::-1]

    def test_new_manifest_parsed_incrementally(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        index = RunIndex(tmp_path)
        index.refresh()
        write_manifest(tmp_path, "run-b")
        stats = index.refresh()
        assert stats.parsed == 1 and stats.manifests == 2

    def test_vanished_manifest_dropped(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        write_manifest(tmp_path, "run-b")
        index = RunIndex(tmp_path)
        index.refresh()
        (tmp_path / RunStore.RUNS_DIR / "run-a.json").unlink()
        stats = index.refresh()
        assert stats.removed == 1
        assert [r.run_id for r in index.records()] == ["run-b"]

    def test_modified_manifest_reparsed(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        index = RunIndex(tmp_path)
        index.refresh()
        path = tmp_path / RunStore.RUNS_DIR / "run-a.json"
        write_manifest(tmp_path, "run-a", digest="b" * 64)
        os.utime(path, (path.stat().st_atime, path.stat().st_mtime + 5))
        stats = index.refresh()
        assert stats.parsed == 1
        assert index.get("run-a").digest == "b" * 64

    def test_persisted_index_reloads_without_parsing(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        write_manifest(tmp_path, "run-b")
        RunIndex(tmp_path).refresh()
        assert (tmp_path / "serve" / "index.json").exists()
        fresh = RunIndex(tmp_path)
        stats = fresh.refresh()
        assert stats.parsed == 0 and len(fresh) == 2

    def test_persist_false_writes_nothing(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        RunIndex(tmp_path, persist=False).refresh()
        assert not (tmp_path / "serve" / "index.json").exists()

    def test_stale_persisted_version_rebuilt(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        index_path = tmp_path / "serve" / "index.json"
        index_path.parent.mkdir(parents=True)
        index_path.write_text(json.dumps({"version": -1, "entries": {}}))
        index = RunIndex(tmp_path)
        stats = index.refresh()
        assert stats.parsed == 1 and len(index) == 1

    def test_index_from_before_the_backend_removal_rebuilt(self, tmp_path):
        # version-1 records carried ``backend`` and a family that still
        # hashed ``"backend": "numpy64"``; a reload must recompute both
        data = write_manifest(
            tmp_path, "run-a", config={**manifest("run-a")["config"], "backend": "numpy64"}
        )
        RunIndex(tmp_path).refresh()
        index_path = tmp_path / "serve" / "index.json"
        persisted = json.loads(index_path.read_text())
        version_1_family = content_digest(
            {
                "command": data["command"],
                "parameters": data["parameters"],
                "config": {
                    key: value
                    for key, value in data["config"].items()
                    if key not in VOLATILE_CONFIG_KEYS
                },
            }
        )
        persisted["version"] = 1
        persisted["entries"]["run-a"].update(backend="numpy64", family=version_1_family)
        index_path.write_text(json.dumps(persisted))
        index = RunIndex(tmp_path)
        assert index.refresh().parsed == 1
        (rec,) = index.records()
        assert rec.family == family_key(manifest("run-a"))
        assert "backend" not in rec.to_jsonable()

    def test_unparseable_manifest_excluded_and_remembered(self, tmp_path):
        write_manifest(tmp_path, "run-a")
        runs_dir = tmp_path / RunStore.RUNS_DIR
        (runs_dir / "broken.json").write_text("{half a manifest")
        index = RunIndex(tmp_path)
        first = index.refresh()
        assert first.parsed == 2  # attempted both
        assert [r.run_id for r in index.records()] == ["run-a"]
        second = index.refresh()
        assert second.parsed == 0  # the broken one is not retried

    def test_resolve_exact_prefix_missing_ambiguous(self, tmp_path):
        write_manifest(tmp_path, "20260808-aaaa")
        write_manifest(tmp_path, "20260808-bbbb")
        index = RunIndex(tmp_path)
        index.refresh()
        assert index.resolve("20260808-aaaa") == "20260808-aaaa"
        assert index.resolve("20260808-b") == "20260808-bbbb"
        with pytest.raises(KeyError, match="no stored run matches"):
            index.resolve("nope")
        with pytest.raises(KeyError, match="ambiguous"):
            index.resolve("20260808-")

    def test_family_ignores_worker_count_and_batch_width(self, tmp_path):
        serial = manifest("run-a")
        pooled = manifest(
            "run-b",
            config={**serial["config"], "workers": 8, "batch_trials": 64},
        )
        other_scheme = manifest(
            "run-c", config={**serial["config"], "scheme": "B"}
        )
        # older manifests recorded the execution substrate; new ones (like
        # ``serial``) carry no ``executor`` key and must share their family
        legacy_fabric = manifest(
            "run-d", config={**serial["config"], "executor": "fabric"}
        )
        legacy_local = manifest(
            "run-e", config={**serial["config"], "executor": None}
        )
        assert "executor" not in serial["config"]
        assert family_key(serial) == family_key(pooled)
        assert family_key(serial) == family_key(legacy_fabric)
        assert family_key(serial) == family_key(legacy_local)
        assert family_key(serial) != family_key(other_scheme)

    def test_fresh_throughput_excludes_cached_trials(self):
        rec = record(
            "run-a",
            durations=[2.0, 100.0],  # the 100s entry replays a cached trial
            cached=[False, True],
        )
        assert rec.fresh_trials == 1
        assert rec.cached_trials == 1
        assert rec.fresh_trials_per_second == pytest.approx(0.5)

    def test_fully_cached_run_has_no_throughput(self):
        rec = record("run-a", durations=[1.0, 1.0], cached=[True, True])
        assert rec.fresh_trials == 0
        assert rec.fresh_trials_per_second is None

    def test_legacy_manifest_without_hits_counts_all_fresh(self):
        rec = record(
            "run-a",
            cached=REMOVE,
            durations=[1.0, 1.0],
        )
        assert rec.fresh_trials == 2
        assert rec.fresh_trials_per_second == pytest.approx(1.0)

    def test_legacy_manifest_with_hits_is_unknowable(self):
        stats = manifest("x")["stats"] | {"cache_hits": 1}
        rec = record("run-a", cached=REMOVE, stats=stats)
        assert rec.fresh_trials is None
        assert rec.fresh_trials_per_second is None
        assert rec.cached_trials == 1

    def test_legacy_manifest_without_created_ts_parses_created(self, tmp_path):
        import datetime

        write_manifest(
            tmp_path, "run-legacy",
            created="2026-08-08T10:00:00+0000", created_ts=REMOVE,
        )
        index = RunIndex(tmp_path)
        index.refresh()
        rec = index.get("run-legacy")
        expected = datetime.datetime(
            2026, 8, 8, 10, 0, 0, tzinfo=datetime.timezone.utc
        ).timestamp()
        assert rec.created_ts == pytest.approx(expected)

    def test_parameter_decodes_tagged_fraction(self):
        from fractions import Fraction

        rec = record("run-a")
        assert rec.parameter("alpha") == Fraction(1, 4)
        assert rec.parameter("missing") is None


class TestQuery:
    def populate(self, tmp_path):
        write_manifest(tmp_path, "run-a", created_ts=100.0)
        write_manifest(
            tmp_path, "run-b",
            created_ts=200.0,
            config={"scheme": "B", "n_values": [4000, 8000], "seed": 3},
            parameters={
                "alpha": {"__repro__": "fraction", "value": "1/4"},
                "bs_exponent": {"__repro__": "fraction", "value": "1/2"},
            },
            digest="b" * 64,
        )
        write_manifest(
            tmp_path, "run-c",
            created_ts=300.0,
            command="figure1",
            status="partial",
            config={"n": 500, "seed": 0},
            provenance={"git_sha": "f00d" * 10, "schema_version": 2},
            digest="c" * 64,
        )
        index = RunIndex(tmp_path)
        index.refresh()
        return index

    def ids(self, index, spec):
        return [r.run_id for r in run_query(index, spec)]

    def test_empty_spec_matches_everything_newest_first(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec()) == ["run-c", "run-b", "run-a"]

    def test_command_filter(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(command="figure1")) == ["run-c"]

    def test_scheme_filter(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(scheme="B")) == ["run-b"]

    def test_status_filter(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(status="partial")) == ["run-c"]

    def test_alpha_compares_as_fraction(self, tmp_path):
        index = self.populate(tmp_path)
        # "0.25" and "1/4" are the same filter value
        assert self.ids(index, QuerySpec(alpha="0.25")) == [
            "run-c", "run-b", "run-a",
        ]
        assert self.ids(index, QuerySpec(alpha="1/2")) == []

    def test_parameter_filter(self, tmp_path):
        index = self.populate(tmp_path)
        spec = QuerySpec(parameters={"bs_exponent": "0.5"})
        assert self.ids(index, spec) == ["run-b"]

    def test_min_max_n_need_one_grid_point_in_range(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(min_n=4000)) == ["run-b"]
        assert self.ids(index, QuerySpec(min_n=150, max_n=600)) == [
            "run-c", "run-a",
        ]
        assert self.ids(index, QuerySpec(min_n=10_000)) == []

    def test_min_n_excludes_runs_without_grid_info(self, tmp_path):
        write_manifest(tmp_path, "run-gridless", config={"seed": 1})
        index = RunIndex(tmp_path)
        index.refresh()
        assert self.ids(index, QuerySpec(min_n=1)) == []
        assert self.ids(index, QuerySpec()) == ["run-gridless"]

    def test_digest_prefix_filter(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(digest="bbbb")) == ["run-b"]

    def test_latest_schema_filter(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(latest_schema=True)) == ["run-c"]

    def test_limit_truncates_newest_first(self, tmp_path):
        index = self.populate(tmp_path)
        assert self.ids(index, QuerySpec(limit=2)) == ["run-c", "run-b"]

    @pytest.mark.parametrize("populated", [True, False], ids=["runs", "empty"])
    @pytest.mark.parametrize(
        "spec",
        [{"alpha": "not-a-number"}, {"parameters": {"bs_exponent": "xyz"}}],
        ids=["alpha", "param"],
    )
    def test_malformed_fraction_raises(self, tmp_path, populated, spec):
        index = self.populate(tmp_path) if populated else RunIndex(tmp_path)
        with pytest.raises(ValueError, match="not a fraction"):
            run_query(index, QuerySpec(**spec))

    def test_query_sees_runs_recorded_after_indexing(self, tmp_path):
        index = self.populate(tmp_path)
        write_manifest(tmp_path, "run-d", created_ts=400.0)
        assert self.ids(index, QuerySpec())[0] == "run-d"

    def test_spec_to_jsonable_drops_dont_cares(self):
        spec = QuerySpec(command="sweep", min_n=4000)
        assert spec.to_jsonable() == {"command": "sweep", "min_n": 4000}

    def test_spec_takes_no_backend(self):
        with pytest.raises(TypeError):
            QuerySpec(backend="numpy64")

    def test_family_filter_spans_the_backend_removal(self, tmp_path):
        config = manifest("run-new")["config"]
        write_manifest(
            tmp_path, "run-f64", created_ts=100.0,
            config={**config, "backend": "numpy64"},
        )
        write_manifest(
            tmp_path, "run-f32", created_ts=200.0,
            config={**config, "backend": "numpy32"}, digest="f" * 64,
        )
        write_manifest(tmp_path, "run-new", created_ts=300.0)
        index = RunIndex(tmp_path)
        index.refresh()
        spec = QuerySpec(family=family_key(manifest("run-new")))
        assert self.ids(index, spec) == ["run-new", "run-f64"]


class TestRegress:
    def test_identical_digests_report_ok(self):
        report = scan_records([
            record("run-a", created_ts=100.0),
            record("run-b", created_ts=200.0),
        ])
        assert report.ok
        assert report.families == 1 and report.runs == 2

    def test_digest_drift_flagged(self):
        report = scan_records([
            record("run-a", created_ts=100.0, digest="a" * 64),
            record("run-b", created_ts=200.0, digest="b" * 64),
        ])
        assert not report.ok
        (finding,) = report.regressions
        assert finding.kind == "digest-drift"
        assert finding.baseline_run == "run-a"
        assert finding.current_run == "run-b"
        assert "digest drifted" in finding.detail

    def test_different_families_never_compared(self):
        report = scan_records([
            record("run-a", created_ts=100.0, digest="a" * 64),
            record(
                "run-b", created_ts=200.0, digest="b" * 64,
                config={"scheme": "B", "n_values": [100, 200], "seed": 3},
            ),
        ])
        assert report.ok and report.families == 0

    def test_float64_run_from_before_the_backend_removal_compared(self):
        base = manifest("x")["config"]
        report = scan_records([
            record(
                "run-a", created_ts=100.0, digest="a" * 64,
                config={**base, "backend": "numpy64"},
            ),
            record("run-b", created_ts=200.0, digest="b" * 64),
        ])
        assert len(report.of_kind("digest-drift")) == 1

    def test_float32_run_never_compared_with_float64_runs(self):
        base = manifest("x")["config"]
        report = scan_records([
            record(
                "run-a", created_ts=100.0, digest="f" * 64,
                config={**base, "backend": "numpy32"},
            ),
            record("run-b", created_ts=200.0, digest="b" * 64),
        ])
        assert report.ok and report.families == 0

    def test_worker_count_change_still_compared(self):
        base = manifest("x")["config"]
        report = scan_records([
            record("run-a", created_ts=100.0, digest="a" * 64),
            record(
                "run-b", created_ts=200.0, digest="b" * 64,
                config={**base, "workers": 8},
            ),
        ])
        assert len(report.of_kind("digest-drift")) == 1

    def test_slowdown_flagged(self):
        report = scan_records([
            record("run-a", created_ts=100.0, durations=[0.1, 0.1]),  # 10 t/s
            record("run-b", created_ts=200.0, durations=[1.0, 1.0]),  # 1 t/s
        ])
        (finding,) = report.regressions
        assert finding.kind == "slowdown"
        assert "cached trials excluded" in finding.detail

    def test_mild_slowdown_not_flagged(self):
        report = scan_records([
            record("run-a", created_ts=100.0, durations=[0.1, 0.1]),
            record("run-b", created_ts=200.0, durations=[0.15, 0.15]),
        ])
        assert report.ok

    def test_fully_cached_rerun_is_not_a_speedup_or_slowdown(self):
        """The acceptance case: a rerun whose trials all replay the journal
        carries the *original* run's seconds in ``durations`` -- naively
        that reads as identical (or, for legacy 0.0 entries, as an
        infinite speedup) and must be excluded entirely."""
        report = scan_records([
            record("run-a", created_ts=100.0, durations=[1.0, 1.0]),
            record(
                "run-b", created_ts=200.0,
                durations=[1.0, 1.0], cached=[True, True],
                stats=manifest("x")["stats"] | {"cache_hits": 2},
            ),
        ])
        assert report.ok

    def test_cached_rerun_does_not_dilute_the_baseline(self):
        """A fully-cached middle run contributes nothing to the throughput
        baseline; a later genuinely slow run is still flagged against the
        original fresh run."""
        report = scan_records([
            record("run-a", created_ts=100.0, durations=[0.1, 0.1]),
            record(
                "run-b", created_ts=200.0,
                durations=[0.1, 0.1], cached=[True, True],
                stats=manifest("x")["stats"] | {"cache_hits": 2},
            ),
            record("run-c", created_ts=300.0, durations=[1.0, 1.0]),
        ])
        (finding,) = report.of_kind("slowdown")
        assert finding.baseline_run == "run-a"
        assert finding.current_run == "run-c"

    def test_legacy_manifest_with_hits_excluded_from_throughput(self):
        legacy_stats = manifest("x")["stats"] | {"cache_hits": 1}
        report = scan_records([
            record("run-a", created_ts=100.0, durations=[0.1, 0.1]),
            record(
                "run-b", created_ts=200.0,
                durations=[0.0, 5.0], cached=REMOVE, stats=legacy_stats,
            ),
        ])
        assert report.ok  # fresh subset unknowable: no throughput claim

    def test_single_run_families_skipped(self):
        report = scan_records([record("run-a")])
        assert report.ok and report.families == 0 and report.runs == 0

    def test_non_completed_runs_excluded_by_default(self):
        report = scan_records([
            record("run-a", created_ts=100.0, digest="a" * 64),
            record(
                "run-b", created_ts=200.0, digest="b" * 64,
                status="interrupted",
            ),
        ])
        assert report.ok and report.families == 0

    def test_statuses_none_compares_everything(self):
        report = scan_records(
            [
                record("run-a", created_ts=100.0, digest="a" * 64),
                record(
                    "run-b", created_ts=200.0, digest="b" * 64,
                    status="interrupted",
                ),
            ],
            statuses=None,
        )
        assert len(report.of_kind("digest-drift")) == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError, match="slowdown_threshold"):
            scan_records([], slowdown_threshold=1.5)

    def test_detect_regressions_over_index(self, tmp_path):
        write_manifest(tmp_path, "run-a", created_ts=100.0, digest="a" * 64)
        write_manifest(tmp_path, "run-b", created_ts=200.0, digest="b" * 64)
        report = detect_regressions(RunIndex(tmp_path))
        assert len(report.of_kind("digest-drift")) == 1

    def test_report_summary_mentions_counts(self):
        report = scan_records([
            record("run-a", created_ts=100.0, digest="a" * 64),
            record("run-b", created_ts=200.0, digest="b" * 64),
        ])
        assert "1 digest drift(s)" in report.summary()
        assert report.to_jsonable()["ok"] is False


class _StrictHTML(html.parser.HTMLParser):
    """Collects the tag stream so tests can assert structural sanity."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.opened = []
        self.closed = []
        self.text = []

    def handle_starttag(self, tag, attrs):
        self.opened.append(tag)

    def handle_endtag(self, tag):
        self.closed.append(tag)

    def handle_data(self, data):
        self.text.append(data)


class TestReport:
    def populate(self, tmp_path):
        write_manifest(tmp_path, "run-a", created_ts=100.0)
        write_manifest(tmp_path, "run-b", created_ts=200.0)
        index = RunIndex(tmp_path)
        index.refresh()
        return index

    def test_json_report_is_strict_json(self, tmp_path):
        report = build_report(self.populate(tmp_path))
        parsed = json.loads(render_json(report))
        assert parsed["total_runs"] == 2
        assert parsed["regressions"]["ok"] is True
        assert len(parsed["families"]) == 1
        assert {run["run_id"] for run in parsed["families"][0]["runs"]} == {
            "run-a", "run-b",
        }

    def test_report_scopes_regressions_to_the_query(self, tmp_path):
        index = self.populate(tmp_path)
        write_manifest(
            tmp_path, "run-drift", created_ts=300.0, digest="b" * 64
        )
        full = build_report(index)
        assert full["regressions"]["ok"] is False
        scoped = build_report(index, QuerySpec(digest="aaaa"))
        assert scoped["regressions"]["ok"] is True

    def test_html_report_parses_and_balances(self, tmp_path):
        report = build_report(self.populate(tmp_path))
        page = render_html(report)
        parser = _StrictHTML()
        parser.feed(page)
        parser.close()
        text = "".join(parser.text)
        assert "run-a" in text and "run-b" in text
        for tag in ("html", "table", "body"):
            assert parser.opened.count(tag) == parser.closed.count(tag)

    def test_html_escapes_hostile_values(self, tmp_path):
        write_manifest(
            tmp_path, "run-evil",
            command="<script>alert(1)</script>",
        )
        index = RunIndex(tmp_path)
        index.refresh()
        page = render_html(build_report(index))
        assert "<script>alert(1)</script>" not in page
        assert "&lt;script&gt;" in page

    def test_write_report_infers_format_from_suffix(self, tmp_path):
        report = build_report(self.populate(tmp_path))
        html_path = write_report(report, tmp_path / "out" / "report.html")
        json_path = write_report(report, tmp_path / "out" / "report.json")
        assert html_path.read_text().startswith("<!DOCTYPE html>")
        assert json.loads(json_path.read_text())["title"] == "repro results"

    def test_write_report_rejects_unknown_format(self, tmp_path):
        report = build_report(self.populate(tmp_path))
        with pytest.raises(ValueError, match="format"):
            write_report(report, tmp_path / "report.json", fmt="pdf")


class TestStoreIntegration:
    """The serve layer over manifests written by the real RunStore."""

    def test_store_serve_index_is_shared_and_resolves(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run("sweep", digest="a" * 64)
        index = store.serve_index()
        assert index is store.serve_index()
        index.refresh()
        assert index.resolve(run_id[:14]) == run_id

    def test_recorded_cached_mask_reaches_the_index(self, tmp_path):
        store = RunStore(tmp_path)
        run_id = store.record_run(
            "sweep",
            durations=[0.5, 3.0],
            cached=[False, True],
        )
        index = store.serve_index()
        index.refresh()
        rec = index.get(run_id)
        assert rec.fresh_trials == 1
        assert rec.fresh_trials_per_second == pytest.approx(2.0)
