"""Merged multi-store views: ``MergedStore`` and ``MergedRunIndex``.

Sweeps run on different hosts leave journals in several directories;
these tests pin the merge semantics the CLI relies on when ``--store``
is repeated: primary-first reads, primary-only
writes, newest-first manifest interleaving, cross-store run-id
resolution, and regression families that span stores.
"""

import numpy as np
import pytest

from repro.core.regimes import NetworkParameters
from repro.experiments.scaling import sweep_capacity
from repro.serve import MergedRunIndex
from repro.store import MergedStore, RunStore, open_merged_store

PARAMS = NetworkParameters(alpha="1/4", bs_exponent="1/2")
GRID = [64, 128]


def _sweep(store, seed=3, scheme="B"):
    return sweep_capacity(
        PARAMS, GRID, scheme=scheme, trials=2, seed=seed, store=store
    )


class TestMergedCache:
    def test_replica_hit_is_a_cache_hit_for_the_next_sweep(self, tmp_path):
        replica = tmp_path / "agent"
        want = _sweep(str(replica))
        merged = MergedStore(tmp_path / "primary", [replica])
        got = _sweep(merged)
        assert got.digest() == want.digest()
        assert got.stats.cache_hits == len(GRID) * 2
        # the replays were served from the replica; nothing was written
        assert len(RunStore(tmp_path / "agent")) == len(GRID) * 2
        with RunStore(tmp_path / "primary") as primary:
            assert primary.keys() == []

    def test_primary_wins_when_both_stores_hold_a_key(self, tmp_path):
        primary = RunStore(tmp_path / "primary")
        replica = RunStore(tmp_path / "replica")
        primary.put("k", "from-primary", 1.0)
        replica.put("k", "from-replica", 1.0)
        merged = MergedStore(primary, [replica])
        assert merged.get("k").value == "from-primary"
        assert merged.get("missing") is None

    def test_put_lands_in_the_primary_only(self, tmp_path):
        primary = RunStore(tmp_path / "primary")
        replica = RunStore(tmp_path / "replica")
        merged = MergedStore(primary, [replica])
        merged.put("fresh", 42, 0.1)
        assert primary.get("fresh").value == 42
        assert replica.get("fresh") is None

    def test_len_counts_distinct_keys(self, tmp_path):
        primary = RunStore(tmp_path / "primary")
        replica = RunStore(tmp_path / "replica")
        primary.put("a", 1, 0.1)
        replica.put("a", 1, 0.1)  # shared
        replica.put("b", 2, 0.1)
        assert len(MergedStore(primary, [replica])) == 2


class TestMergedManifests:
    def test_list_runs_interleaves_newest_first(self, tmp_path):
        left = RunStore(tmp_path / "left")
        right = RunStore(tmp_path / "right")
        ids = [
            left.record_run("sweep one"),
            right.record_run("sweep two"),
            left.record_run("sweep three"),
        ]
        merged = MergedStore(left, [right])
        listed = [run["run_id"] for run in merged.list_runs()]
        assert listed == list(reversed(ids))

    def test_load_run_resolves_prefixes_across_stores(self, tmp_path):
        left = RunStore(tmp_path / "left")
        right = RunStore(tmp_path / "right")
        run_id = right.record_run("sweep")
        merged = MergedStore(left, [right])
        assert merged.load_run(run_id[:12])["run_id"] == run_id
        with pytest.raises(KeyError, match="no stored run"):
            merged.load_run("zzzz")

    def test_same_manifest_in_two_stores_is_not_ambiguous(self, tmp_path):
        # e.g. a replica store rsynced into the primary's directory
        left = RunStore(tmp_path / "left")
        run_id = left.record_run("sweep")
        import shutil

        shutil.copytree(tmp_path / "left", tmp_path / "copy")
        merged = MergedStore(left, [tmp_path / "copy"])
        assert merged.load_run(run_id)["run_id"] == run_id


class TestOpenMergedStore:
    def test_zero_one_many(self, tmp_path):
        assert open_merged_store([]) is None
        single = open_merged_store([str(tmp_path / "only")])
        assert isinstance(single, RunStore)
        many = open_merged_store(
            [str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert isinstance(many, MergedStore)
        assert many.root == (tmp_path / "a")


class TestMergedRunIndex:
    def _two_stores(self, tmp_path):
        a = tmp_path / "coord"
        b = tmp_path / "agent"
        _sweep(str(a), seed=3)
        _sweep(str(b), seed=3)  # same experiment -> same family
        _sweep(str(b), seed=4, scheme="A")  # different family
        return a, b

    def test_records_merge_newest_first(self, tmp_path):
        a, b = self._two_stores(tmp_path)
        index = MergedRunIndex([str(a), str(b)])
        stats = index.refresh()
        assert stats.manifests == 3
        records = index.records()
        assert len(records) == len(index) == 3
        stamps = [(r.created_ts, r.created) for r in records]
        assert stamps == sorted(stamps, reverse=True)
        assert index.roots == [a, b]
        assert index.root == a

    def test_resolution_and_families_span_stores(self, tmp_path):
        a, b = self._two_stores(tmp_path)
        index = MergedRunIndex([str(a), str(b)])
        index.refresh()
        records = index.records()
        for record in records:
            assert index.resolve(record.run_id) == record.run_id
            assert index.get(record.run_id).run_id == record.run_id
        with pytest.raises(KeyError, match="no stored run"):
            index.resolve("zzzz")
        # the shared date stamp matches every run, across both stores
        with pytest.raises(KeyError, match="ambiguous"):
            index.resolve(records[0].run_id[:8])
        families = index.families()
        sizes = sorted(len(group) for group in families.values())
        assert sizes == [1, 2]  # the seed-3 runs pair up across stores
        for group in families.values():
            stamps = [(r.created_ts, r.created) for r in group]
            assert stamps == sorted(stamps)  # oldest first within a family

    def test_rejects_empty_member_list(self):
        with pytest.raises(ValueError, match="at least one store"):
            MergedRunIndex([])


class TestMergedQueries:
    def test_run_query_spans_stores(self, tmp_path):
        from repro.serve import run_query

        a, b = tmp_path / "coord", tmp_path / "agent"
        want = _sweep(str(a))
        _sweep(str(b))
        merged = MergedStore(a, [b])
        records = run_query(merged.serve_index())
        assert len(records) == 2
        assert {record.digest for record in records} == {want.digest()}
