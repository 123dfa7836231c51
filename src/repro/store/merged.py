"""A merged, multi-directory view over several run stores.

Sweeps run on different hosts, or at different times into different
directories, leave their trial journals in several
:class:`~repro.store.runstore.RunStore` directories.  :class:`MergedStore`
presents that collection as one cache/manifest surface:

- ``get`` consults the primary first, then each replica in order -- a
  trial journaled in *any* store is a cache hit for the next sweep;
- ``put`` and ``record_run`` always write to the primary (replicas are
  read-only here: they belong to the sweeps that wrote them);
- ``list_runs`` merges every store's manifests newest-first.

The merged view composes with everything that duck-types the cache
interface (``TrialRunner``, ``sweep_capacity``) and is what the CLI
builds when ``--store`` is passed more than once.
"""

from __future__ import annotations

import pathlib
from typing import Any, List, Optional, Sequence, Union

from ..observability.log import get_logger
from .runstore import CachedTrial, RunStore, manifest_sort_key, open_store

__all__ = ["MergedStore", "open_merged_store"]

_log = get_logger(__name__)


class MergedStore:
    """One primary store plus read-only replicas (see module docstring)."""

    def __init__(
        self,
        primary: Union[str, pathlib.Path, RunStore],
        replicas: Sequence[Union[str, pathlib.Path, RunStore]] = (),
        use_cache: bool = True,
    ):
        self.primary = open_store(primary, use_cache=use_cache)
        if self.primary is None:
            raise ValueError("a merged store needs a primary store")
        self.replicas: List[RunStore] = [
            open_store(replica, use_cache=use_cache) for replica in replicas
        ]
        self.use_cache = use_cache

    @property
    def root(self) -> pathlib.Path:
        """The primary's directory (where writes land)."""
        return self.primary.root

    @property
    def stores(self) -> List[RunStore]:
        """Primary first, then the replicas, in lookup order."""
        return [self.primary, *self.replicas]

    # ------------------------------------------------------------------
    # cache interface (duck-typed against RunStore)
    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[CachedTrial]:
        """First store (primary-first) holding ``key``, or ``None``."""
        for store in self.stores:
            hit = store.get(key)
            if hit is not None:
                return hit
        return None

    def put(self, key: str, value: Any, duration: float) -> None:
        """Journal to the primary only; replicas stay read-only."""
        self.primary.put(key, value, duration)

    def close(self) -> None:
        for store in self.stores:
            store.close()

    def reload(self) -> None:
        for store in self.stores:
            store.reload()

    def __enter__(self) -> "MergedStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        """Distinct cached keys across every member store."""
        keys = set()
        for store in self.stores:
            keys.update(store.keys())
        return len(keys)

    # ------------------------------------------------------------------
    # manifests
    # ------------------------------------------------------------------
    def record_run(self, *args, **kwargs) -> str:
        return self.primary.record_run(*args, **kwargs)

    def list_runs(self) -> List[dict]:
        """Manifests of every member store, merged newest-first."""
        runs: List[dict] = []
        for store in self.stores:
            runs.extend(store.list_runs())
        runs.sort(key=manifest_sort_key, reverse=True)
        return runs

    def load_run(self, run_id: str) -> dict:
        """One manifest by id/prefix, searched primary-first.

        A prefix matching runs in several member stores is ambiguous
        only when it resolves to *different* run ids.
        """
        resolved: List[tuple] = []
        for store in self.stores:
            try:
                run = store.load_run(run_id)
            except KeyError:
                continue
            resolved.append((store, run))
        ids = {run["run_id"] for _store, run in resolved}
        if not resolved:
            raise KeyError(f"no stored run matches {run_id!r}")
        if len(ids) > 1:
            raise KeyError(
                f"run id {run_id!r} is ambiguous across merged stores: "
                f"{', '.join(sorted(ids))}"
            )
        return resolved[0][1]

    def serve_index(self):
        """A merged serve index spanning every member store."""
        from ..serve.index import MergedRunIndex

        return MergedRunIndex(
            [store.serve_index() for store in self.stores]
        )


def open_merged_store(
    stores: Sequence[Union[str, pathlib.Path, RunStore]],
    use_cache: bool = True,
) -> Union[None, RunStore, MergedStore]:
    """Normalise a repeated ``--store`` list.

    Zero paths -> ``None`` (no store); one -> a plain :class:`RunStore`
    (bit-identical to the historical single-store behaviour); several ->
    a :class:`MergedStore` with the first as primary.
    """
    stores = list(stores or [])
    if not stores:
        return None
    if len(stores) == 1:
        return open_store(stores[0], use_cache=use_cache)
    _log.info(
        "merging %d stores (primary: %s)", len(stores), stores[0]
    )
    return MergedStore(stores[0], stores[1:], use_cache=use_cache)
