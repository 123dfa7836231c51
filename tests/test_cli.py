"""Unit tests for the command-line interface."""

import json
import logging

import pytest

from repro.__main__ import main


class TestAnalyze:
    def test_default_family(self, capsys):
        assert main(["analyze"]) == 0
        out = capsys.readouterr().out
        assert "regime=strong" in out
        assert "Theta" in out

    def test_with_infrastructure(self, capsys):
        assert main(["analyze", "--bs", "7/8", "--phi", "1"]) == 0
        out = capsys.readouterr().out
        assert "infrastructure term" in out

    def test_invalid_parameters_exit_code(self, capsys):
        assert main(["analyze", "--alpha", "3/4"]) == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_no_validate_bypasses(self, capsys):
        assert main(["analyze", "--alpha", "3/4", "--no-validate",
                     "--clusters", "1/4", "--radius", "1/4"]) == 0
        assert "trivial" in capsys.readouterr().out


class TestTable1:
    def test_renders_all_rows(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "strong mobility" in out
        assert "trivial mobility" in out


class TestPhase:
    def test_renders_regions(self, capsys):
        assert main(["phase", "--phi", "0", "--grid", "7"]) == 0
        out = capsys.readouterr().out
        assert "M" in out and "I" in out

    def test_negative_phi(self, capsys):
        # argparse needs the = form for option values starting with '-'
        assert main(["phase", "--phi=-1/4", "--grid", "5"]) == 0


class TestSimulate:
    def test_runs_small_network(self, capsys):
        assert main(["simulate", "--n", "150", "--bs", "7/8"]) == 0
        out = capsys.readouterr().out
        assert "flow-level rate" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReproduce:
    def test_writes_report(self, tmp_path, capsys):
        assert main([
            "reproduce", "--out", str(tmp_path), "--grid", "120,240",
        ]) == 0
        report = (tmp_path / "reproduction.md").read_text()
        assert "Table I (closed form)" in report
        assert "measured slope" in report
        assert "phase 2" in report  # figure 2 trace
        assert "Quick mode" in report


SWEEP_ARGS = ["sweep", "--grid", "100,200", "--trials", "1",
              "--scheme", "A", "--seed", "3"]


def sweep_output(capsys, extra):
    assert main(SWEEP_ARGS + extra) == 0
    return capsys.readouterr().out


def digest_line(out):
    return next(line for line in out.splitlines() if line.startswith("digest:"))


class TestSweepStore:
    def test_second_invocation_hits_with_identical_digest(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        cold = sweep_output(capsys, ["--store", store])
        warm = sweep_output(capsys, ["--store", store])
        assert "cache: 0 hit(s), 2 miss(es)" in cold
        assert "cache: 2 hit(s), 0 miss(es)" in warm
        assert digest_line(warm) == digest_line(cold)

    def test_store_matches_storeless_digest(self, tmp_path, capsys):
        bare = sweep_output(capsys, [])
        stored = sweep_output(capsys, ["--store", str(tmp_path / "results")])
        assert digest_line(stored) == digest_line(bare)
        assert "cache:" not in bare

    def test_no_cache_forces_recompute(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        sweep_output(capsys, ["--store", store])
        refreshed = sweep_output(capsys, ["--store", store, "--no-cache"])
        assert "cache: 0 hit(s), 2 miss(es)" in refreshed


class TestRuns:
    def seed_store(self, tmp_path, capsys):
        store = str(tmp_path / "results")
        sweep_output(capsys, ["--store", store])
        return store

    def test_list_shows_recorded_run(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "list", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out and "run id" in out
        assert "1 run(s), 2 journaled trial(s)" in out

    def test_list_empty_store(self, tmp_path, capsys):
        assert main(["runs", "list", "--store", str(tmp_path / "empty")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show_dumps_manifest(self, tmp_path, capsys):
        import json

        store = self.seed_store(tmp_path, capsys)
        from repro.store import RunStore

        run_id = RunStore(store).list_runs()[0]["run_id"]
        assert main(["runs", "show", run_id[:12], "--store", store]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["command"] == "sweep"
        assert manifest["provenance"]["schema_version"] == 1

    def test_show_missing_id_errors(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "show", "nope", "--store", store]) == 2
        assert "no stored run" in capsys.readouterr().err

    def test_show_without_id_errors(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "show", "--store", store]) == 2
        assert "requires" in capsys.readouterr().err

    def test_gc_reports_and_keeps_cache_warm(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["runs", "gc", "--store", store]) == 0
        assert "2 entries kept" in capsys.readouterr().out
        warm = sweep_output(capsys, ["--store", store])
        assert "cache: 2 hit(s)" in warm

    def test_store_path_is_a_file_errors_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(SWEEP_ARGS + ["--store", str(blocker)]) == 2
        assert "store error" in capsys.readouterr().err


class TestServe:
    def seed_store(self, tmp_path, capsys, runs=2):
        """Two identical sweeps into one store: the second replays the
        journal, so the pair is digest-identical with the rerun fully
        cached -- the canonical regression-scan population."""
        store = str(tmp_path / "results")
        for _ in range(runs):
            sweep_output(capsys, ["--store", store])
        return store

    def test_query_finds_both_runs_with_identical_digests(
        self, tmp_path, capsys
    ):
        store = self.seed_store(tmp_path, capsys)
        assert main(["serve", "query", "--store", store, "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 2
        assert records[0]["digest"] == records[1]["digest"]
        assert records[0]["family"] == records[1]["family"]
        # the fully-cached rerun (newest first) makes no throughput claim
        assert records[0]["fresh_trials"] == 0
        assert records[1]["fresh_trials"] == 2

    def test_query_table_output(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main([
            "serve", "query", "--store", store,
            "--command", "sweep", "--scheme", "A", "--min-n", "150",
        ]) == 0
        out = capsys.readouterr().out
        assert "run id" in out and "family" in out
        assert "2 of 2 run(s) matched" in out

    def test_query_without_matches_says_so(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "query", "--store", store, "--command", "figure1",
        ]) == 0
        assert "match the query" in capsys.readouterr().out

    def test_malformed_param_filter_exits_2(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "query", "--store", store, "--param", "alpha",
        ]) == 2
        assert "NAME=FRACTION" in capsys.readouterr().err

    def test_regress_clean_pair_exits_0(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        assert main(["serve", "regress", "--store", store]) == 0
        assert "no regressions" in capsys.readouterr().out

    def inject_drift(self, store):
        """Rewrite the newest manifest's digest, simulating a behaviour
        change that landed without a schema bump."""
        import pathlib

        from repro.store import RunStore

        run = RunStore(store).list_runs()[0]
        path = pathlib.Path(store) / RunStore.RUNS_DIR / f"{run['run_id']}.json"
        run["digest"] = "b" * 64
        path.write_text(json.dumps(run, indent=2))

    def test_regress_flags_injected_drift_with_exit_3(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        self.inject_drift(store)
        assert main(["serve", "regress", "--store", store]) == 3
        out = capsys.readouterr().out
        assert "digest-drift" in out
        assert "1 regression(s)" in out

    def test_regress_json_output(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        self.inject_drift(store)
        assert main(["serve", "regress", "--store", store, "--json"]) == 3
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        assert report["regressions"][0]["kind"] == "digest-drift"

    def test_report_writes_valid_json(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys)
        out_path = tmp_path / "report.json"
        assert main([
            "serve", "report", "--store", store,
            "--format", "json", "--out", str(out_path),
        ]) == 0
        report = json.loads(out_path.read_text())
        assert report["total_runs"] == 2
        assert report["regressions"]["ok"] is True

    def test_report_default_path_is_html_in_store(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main(["serve", "report", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        page = (tmp_path / "results" / "serve" / "report.html").read_text()
        assert page.startswith("<!DOCTYPE html>")

    def test_invalid_slowdown_threshold_exits_2(self, tmp_path, capsys):
        store = self.seed_store(tmp_path, capsys, runs=1)
        assert main([
            "serve", "regress", "--store", store, "--slowdown", "2",
        ]) == 2
        assert "invalid arguments" in capsys.readouterr().err


def read_trace(directory):
    """Parse the single trace file in ``directory`` into records."""
    files = sorted(directory.glob("trace-*.jsonl"))
    assert len(files) == 1, files
    return [json.loads(line) for line in files[0].read_text().splitlines()]


class TestObservability:
    @pytest.fixture(autouse=True)
    def _drop_configured_handlers(self):
        # main() installs a stderr handler bound to capsys's stream; strip
        # it afterwards so later tests never log into a stale capture
        yield
        root = logging.getLogger("repro")
        for handler in list(root.handlers):
            if getattr(handler, "_repro_configured", False):
                root.removeHandler(handler)

    def test_trace_covers_every_trial(self, tmp_path, capsys):
        trace_dir = tmp_path / "traces"
        assert main(SWEEP_ARGS + ["--trace", str(trace_dir)]) == 0
        err = capsys.readouterr().err
        assert "trace:" in err
        records = read_trace(trace_dir)
        started = {r["index"] for r in records if r["event"] == "trial_started"}
        ended = {
            r["index"]
            for r in records
            if r["event"] in ("trial_finished", "trial_cached", "trial_failed")
        }
        # two grid points x one trial: both announced and both resolved
        assert started == ended == {0, 1}
        assert any(r["event"] == "sweep_progress" for r in records)
        assert any(r["event"] == "span" for r in records)
        assert all("ts" in r for r in records)

    def test_bare_trace_lands_next_to_store(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(SWEEP_ARGS + ["--store", str(store), "--trace"]) == 0
        records = read_trace(store)
        # journaled trials show up in the trace alongside the lifecycle
        assert any(r["event"] == "journal_appended" for r in records)

    def test_warm_run_traces_cache_hits(self, tmp_path, capsys):
        store = tmp_path / "results"
        assert main(SWEEP_ARGS + ["--store", str(store)]) == 0
        trace_dir = tmp_path / "traces"
        assert main(SWEEP_ARGS + ["--store", str(store),
                                  "--trace", str(trace_dir)]) == 0
        records = read_trace(trace_dir)
        cached = [r for r in records if r["event"] == "trial_cached"]
        assert {r["index"] for r in cached} == {0, 1}
        progress = [r for r in records if r["event"] == "sweep_progress"]
        assert progress[-1]["cached"] == 2

    def test_progress_forced_on_non_tty(self, capsys):
        assert main(SWEEP_ARGS + ["--progress"]) == 0
        err = capsys.readouterr().err
        assert "trials/s" in err
        assert "2/2" in err

    def test_no_progress_is_silent(self, capsys):
        assert main(SWEEP_ARGS + ["--no-progress"]) == 0
        assert "trials/s" not in capsys.readouterr().err

    def test_log_level_info_writes_to_stderr(self, capsys):
        assert main(["--log-level", "INFO"] + SWEEP_ARGS) == 0
        err = capsys.readouterr().err
        assert "INFO" in err
        assert "repro" in err

    def test_log_json_lines_parse(self, capsys):
        assert main(["--log-level", "INFO", "--log-json"] + SWEEP_ARGS) == 0
        lines = [l for l in capsys.readouterr().err.splitlines() if l]
        records = [json.loads(line) for line in lines]
        assert all(r["logger"].startswith("repro") for r in records)

    def test_unknown_log_level_exits_2(self, capsys):
        assert main(["--log-level", "LOUD", "table1"]) == 2
        assert "unknown log level" in capsys.readouterr().err


class TestMultiStore:
    def test_sweep_reads_replica_and_writes_primary(self, tmp_path, capsys):
        replica = str(tmp_path / "agent")
        primary = str(tmp_path / "coord")
        seeded = sweep_output(capsys, ["--store", replica])
        merged = sweep_output(
            capsys, ["--store", primary, "--store", replica]
        )
        assert "cache: 2 hit(s), 0 miss(es)" in merged
        assert digest_line(merged) == digest_line(seeded)
        from repro.store import RunStore

        assert RunStore(primary).keys() == []  # replica served every hit
        assert len(RunStore(primary).list_runs()) == 1  # manifest is primary's

    def test_runs_list_merges_stores(self, tmp_path, capsys):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        sweep_output(capsys, ["--store", first])
        sweep_output(capsys, ["--store", second])
        assert main(["runs", "list", "--store", first, "--store", second]) == 0
        out = capsys.readouterr().out
        assert "2 run(s)" in out

    def test_serve_query_merges_stores(self, tmp_path, capsys):
        first = str(tmp_path / "a")
        second = str(tmp_path / "b")
        sweep_output(capsys, ["--store", first])
        sweep_output(capsys, ["--store", second])
        assert main(
            ["serve", "query", "--store", first, "--store", second]
        ) == 0
        out = capsys.readouterr().out
        assert "2 match(es)" in out or "2 run(s)" in out
