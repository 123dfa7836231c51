"""A persistent, incrementally-refreshed index over run manifests.

The run store records one JSON manifest per sweep (provenance, parameters,
trial keys, per-trial timings, result digest -- see
:mod:`repro.store.runstore`), but answering "which runs?" by re-reading
every manifest per question is O(runs) file reads.  :class:`RunIndex`
reconciles a compact summary of every manifest -- a :class:`RunRecord` --
against the ``runs/`` directory by *stat* (mtime + size), parsing only new
or changed files, and persists itself to ``<store>/serve/index.json`` so
later processes start from the previous reconciliation instead of a cold
scan.  One index covers one store directory, so records have one
newest-first order and run ids resolve within that store.

Each record carries the run's **cache-key family**
(:func:`family_key`): a content hash of everything that determines the
result -- command, parameters and config minus the throughput-only knobs
(``workers``, ``batch_trials``) -- so two invocations of the same
experiment land in the same family regardless of how they were executed.
Families are what :mod:`repro.serve.regress` compares across runs: same
family + drifted digest = correctness regression; same family + slower
fresh-trial throughput = performance regression.

Throughput fields are computed **only over non-cached trial durations**:
a cached trial's manifest duration replays the *original* execution's
seconds (and legacy manifests recorded ``0.0``), either of which poisons
any mean or percentile computed naively over ``durations``.  Manifests
written before the ``cached`` mask existed fall back to
``stats.cache_hits``: with zero hits every duration is fresh, otherwise
the fresh subset is unknowable and the throughput fields are ``None``
(excluded from comparisons rather than guessed).
"""

from __future__ import annotations

import dataclasses
import json
import os
import pathlib
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

from ..observability.events import IndexRefreshed, get_telemetry
from ..observability.log import get_logger
from ..store.keys import content_digest
from ..store.runstore import RunStore, manifest_sort_key

__all__ = [
    "INDEX_VERSION",
    "RefreshStats",
    "RunIndex",
    "RunRecord",
    "family_key",
]

_log = get_logger(__name__)

#: Bumped when the :class:`RunRecord` shape or :func:`family_key`
#: changes; a persisted index with a different version is discarded and
#: rebuilt from the manifests.
INDEX_VERSION = 2

#: Config keys that change *how fast* a run executes but never its value
#: (results are bit-identical at any worker count or batch width),
#: excluded from the cache-key family so reruns remain comparable.
#: ``executor`` is no longer written; it stays here so stored manifests
#: from sweeps that recorded it (``null``, or ``"fabric"`` for the removed
#: localhost fabric scheduler) still group with new runs.
VOLATILE_CONFIG_KEYS = frozenset({"workers", "batch_trials", "executor"})

#: Sweeps no longer record a float backend: every sweep computes in
#: float64.  Stored manifests from before carry ``"backend": "numpy64"``
#: (the float64 default) and must still group with new runs, so that
#: entry counts as absent; any other stored backend ran in another float
#: precision and keeps its own family.
_FLOAT64_BACKEND = ("backend", "numpy64")


def family_key(manifest: dict) -> str:
    """Content hash naming the experiment a manifest is one run of.

    Folds in the command, the (already JSON-encoded) parameters and the
    config minus :data:`VOLATILE_CONFIG_KEYS`.  Two runs of the same
    experiment -- same scheme, grid, trials, seed -- share a
    family even when executed with different worker counts or batch
    widths, which is exactly the population the regression detector
    compares digests and throughput across.
    """
    config = manifest.get("config") or {}
    stable = {
        key: value
        for key, value in config.items()
        if key not in VOLATILE_CONFIG_KEYS and (key, value) != _FLOAT64_BACKEND
    }
    return content_digest(
        {
            "command": manifest.get("command"),
            "parameters": manifest.get("parameters"),
            "config": stable,
        }
    )


def _throughput_fields(
    manifest: dict,
) -> Tuple[Optional[int], Optional[float], Optional[int]]:
    """``(fresh_trials, fresh_seconds, cached_trials)`` of one manifest.

    ``None`` values mean "unknowable" (legacy manifest with cache hits but
    no ``cached`` mask, or no recorded durations at all) -- callers must
    skip such runs instead of treating them as zero.
    """
    durations = manifest.get("durations") or []
    stats = manifest.get("stats") or {}
    mask = manifest.get("cached")
    if mask is not None and len(mask) == len(durations) and durations:
        flags = [bool(flag) for flag in mask]
    elif not durations:
        hits = stats.get("cache_hits")
        return None, None, int(hits) if hits is not None else None
    elif not int(stats.get("cache_hits") or 0):
        # legacy manifest, but provably all-fresh: nothing was cached
        flags = [False] * len(durations)
    else:
        # legacy manifest with cache hits and no mask: the fresh subset is
        # unknowable (cached entries replay the original run's seconds)
        return None, None, int(stats.get("cache_hits") or 0)
    fresh = [float(d) for d, cached in zip(durations, flags) if not cached]
    return len(fresh), float(sum(fresh)), sum(flags)


@dataclass(frozen=True)
class RunRecord:
    """Queryable summary of one run manifest (see :class:`RunIndex`)."""

    run_id: str
    #: Manifest change detection (the incremental-refresh fingerprint).
    mtime: float
    size: int
    command: str
    status: str
    created: str
    #: Resolved epoch seconds (``created_ts``, or parsed from ``created``
    #: for legacy manifests) -- the primary ordering key.
    created_ts: float
    digest: Optional[str]
    family: str
    schema_version: Optional[int]
    git_sha: Optional[str]
    scheme: Optional[str]
    n_values: Tuple[int, ...]
    trials: int
    cache_hits: int
    #: Raw (tagged-JSON) parameters block, kept for parameter filters.
    parameters: Optional[dict]
    #: Trials actually executed by this run / their summed in-worker
    #: seconds / trials replayed from the journal.  ``None`` = unknowable.
    fresh_trials: Optional[int]
    fresh_seconds: Optional[float]
    cached_trials: Optional[int]
    elapsed_seconds: Optional[float] = None

    @property
    def fresh_trials_per_second(self) -> Optional[float]:
        """Executed trials per summed in-worker second, cached trials
        excluded; ``None`` when the run executed nothing (fully cached)
        or its manifest predates the ``cached`` mask."""
        if not self.fresh_trials or not self.fresh_seconds:
            return None
        if self.fresh_seconds <= 0:
            return None
        return self.fresh_trials / self.fresh_seconds

    def parameter(self, name: str) -> Optional[Fraction]:
        """One exponent from the parameters block as a :class:`Fraction`
        (``None`` when absent or not a number)."""
        value = (self.parameters or {}).get(name)
        if isinstance(value, dict):
            if value.get("__repro__") != "fraction":
                return None
            value = value.get("value")
        if value is None or isinstance(value, bool):
            return None
        try:
            return Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            return None

    def to_jsonable(self) -> dict:
        record = dataclasses.asdict(self)
        record["n_values"] = list(self.n_values)
        return record

    @classmethod
    def from_jsonable(cls, data: dict) -> "RunRecord":
        names = {f.name for f in dataclasses.fields(cls)}
        kwargs = {key: value for key, value in data.items() if key in names}
        kwargs["n_values"] = tuple(int(n) for n in kwargs.get("n_values") or ())
        return cls(**kwargs)

    @classmethod
    def from_manifest(cls, manifest: dict, mtime: float, size: int) -> "RunRecord":
        config = manifest.get("config") or {}
        stats = manifest.get("stats") or {}
        provenance = manifest.get("provenance") or {}
        n_values: Tuple[int, ...] = ()
        if config.get("n_values"):
            n_values = tuple(int(n) for n in config["n_values"])
        elif config.get("n") is not None:
            n_values = (int(config["n"]),)
        trial_keys = manifest.get("trial_keys") or []
        fresh_trials, fresh_seconds, cached_trials = _throughput_fields(manifest)
        return cls(
            run_id=str(manifest.get("run_id", "")),
            mtime=mtime,
            size=size,
            command=str(manifest.get("command", "?")),
            status=str(manifest.get("status", "completed")),
            created=str(manifest.get("created", "")),
            created_ts=manifest_sort_key(manifest)[0],
            digest=manifest.get("digest"),
            family=family_key(manifest),
            schema_version=provenance.get("schema_version"),
            git_sha=provenance.get("git_sha"),
            scheme=config.get("scheme"),
            n_values=n_values,
            trials=int(stats.get("trials", len(trial_keys))),
            cache_hits=int(stats.get("cache_hits") or 0),
            parameters=manifest.get("parameters"),
            fresh_trials=fresh_trials,
            fresh_seconds=fresh_seconds,
            cached_trials=cached_trials,
            elapsed_seconds=stats.get("elapsed_seconds"),
        )


@dataclass(frozen=True)
class RefreshStats:
    """Outcome of one :meth:`RunIndex.refresh` reconciliation pass."""

    manifests: int
    parsed: int
    removed: int
    elapsed_seconds: float

    @property
    def changed(self) -> bool:
        return bool(self.parsed or self.removed)


class RunIndex:
    """Persistent index over a store's run manifests.

    ``refresh()`` reconciles incrementally: the ``runs/`` directory is
    stat-scanned, manifests whose ``(mtime, size)`` fingerprint is already
    indexed are kept as-is, only new or changed files are parsed, and
    entries whose manifests vanished are dropped.  The reconciled index is
    persisted atomically to ``<store>/serve/index.json`` (suppress with
    ``persist=False``), so the next process pays one stat per manifest
    instead of one JSON parse.

    Unparseable manifests are remembered by fingerprint (not re-parsed
    every refresh) but excluded from :meth:`records` and
    :meth:`resolve` -- mirroring ``RunStore.list_runs``, which skips them.
    """

    SERVE_DIR = "serve"
    INDEX_NAME = "index.json"

    def __init__(
        self,
        store: Union[str, pathlib.Path, RunStore],
        persist: bool = True,
    ):
        root = store.root if isinstance(store, RunStore) else pathlib.Path(store)
        self.root = pathlib.Path(root)
        self.runs_dir = self.root / RunStore.RUNS_DIR
        self.index_path = self.root / self.SERVE_DIR / self.INDEX_NAME
        self.persist = persist
        self._entries: Dict[str, RunRecord] = {}
        self._invalid: Dict[str, Tuple[float, int]] = {}
        self._loaded = False

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def _load_persisted(self) -> None:
        self._loaded = True
        try:
            data = json.loads(self.index_path.read_text())
        except (OSError, json.JSONDecodeError):
            return
        if not isinstance(data, dict) or data.get("version") != INDEX_VERSION:
            return
        try:
            self._entries = {
                run_id: RunRecord.from_jsonable(entry)
                for run_id, entry in (data.get("entries") or {}).items()
            }
            self._invalid = {
                stem: (float(mtime), int(size))
                for stem, (mtime, size) in (data.get("invalid") or {}).items()
            }
        except (TypeError, ValueError, KeyError):
            # stale or hand-edited index: rebuild from the manifests
            self._entries = {}
            self._invalid = {}

    def _save(self) -> None:
        payload = {
            "version": INDEX_VERSION,
            "entries": {
                run_id: record.to_jsonable()
                for run_id, record in self._entries.items()
            },
            "invalid": {
                stem: list(fingerprint)
                for stem, fingerprint in self._invalid.items()
            },
        }
        self.index_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.index_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, allow_nan=False) + "\n")
        os.replace(tmp, self.index_path)

    # ------------------------------------------------------------------
    # reconciliation
    # ------------------------------------------------------------------
    def refresh(self) -> RefreshStats:
        """Reconcile against the manifest directory; parse only changes."""
        start = time.perf_counter()
        if not self._loaded:
            self._load_persisted()
        seen = set()
        parsed = 0
        try:
            paths = sorted(self.runs_dir.glob("*.json"))
        except OSError:
            paths = []
        for path in paths:
            stem = path.stem
            try:
                stat = path.stat()
            except OSError:
                continue
            fingerprint = (stat.st_mtime, stat.st_size)
            seen.add(stem)
            known = self._entries.get(stem)
            if known is not None and (known.mtime, known.size) == fingerprint:
                continue
            if self._invalid.get(stem) == fingerprint:
                continue
            parsed += 1
            try:
                manifest = json.loads(path.read_text())
                if not isinstance(manifest, dict):
                    raise ValueError("manifest is not an object")
                record = RunRecord.from_manifest(manifest, *fingerprint)
            except (OSError, json.JSONDecodeError, TypeError, ValueError) as exc:
                _log.warning("serve index: unreadable manifest %s: %s", path, exc)
                self._entries.pop(stem, None)
                self._invalid[stem] = fingerprint
                continue
            self._invalid.pop(stem, None)
            self._entries[stem] = record
        removed = 0
        for stem in list(self._entries):
            if stem not in seen:
                del self._entries[stem]
                removed += 1
        for stem in list(self._invalid):
            if stem not in seen:
                del self._invalid[stem]
        stats = RefreshStats(
            manifests=len(seen),
            parsed=parsed,
            removed=removed,
            elapsed_seconds=time.perf_counter() - start,
        )
        if stats.changed and self.persist:
            try:
                self._save()
            except OSError as exc:
                _log.warning(
                    "serve index: could not persist %s: %s", self.index_path, exc
                )
        sink = get_telemetry()
        if sink.enabled:
            sink.emit(
                IndexRefreshed(
                    manifests=stats.manifests,
                    parsed=stats.parsed,
                    removed=stats.removed,
                    elapsed_seconds=stats.elapsed_seconds,
                )
            )
        if stats.changed:
            _log.debug(
                "serve index refreshed: %d manifest(s), %d parsed, %d removed",
                stats.manifests, stats.parsed, stats.removed,
            )
        return stats

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def records(self) -> List[RunRecord]:
        """All indexed runs, newest first (``created_ts`` primary, the
        ``created`` string as legacy fallback, scan order on full ties)."""
        ordered = sorted(self._entries.values(), key=lambda r: r.run_id)
        ordered.sort(key=lambda r: (r.created_ts, r.created), reverse=True)
        return ordered

    def get(self, run_id: str) -> RunRecord:
        """The record for an exact ``run_id`` (:class:`KeyError` if absent)."""
        try:
            return self._entries[run_id]
        except KeyError:
            raise KeyError(f"no stored run matches {run_id!r}") from None

    def resolve(self, prefix: str) -> str:
        """The unique indexed ``run_id`` starting with ``prefix``.

        Raises :class:`KeyError` when nothing matches or the prefix is
        ambiguous (both phrased like the historical ``RunStore.load_run``
        errors, which the CLI surfaces verbatim).
        """
        if prefix in self._entries:
            return prefix
        matches = sorted(
            run_id for run_id in self._entries if run_id.startswith(prefix)
        )
        if not matches:
            raise KeyError(f"no stored run matches {prefix!r}")
        if len(matches) > 1:
            raise KeyError(
                f"run id {prefix!r} is ambiguous: {', '.join(matches)}"
            )
        return matches[0]

    def families(self) -> Dict[str, List[RunRecord]]:
        """Records grouped by cache-key family, oldest first per family."""
        groups: Dict[str, List[RunRecord]] = {}
        for record in reversed(self.records()):
            groups.setdefault(record.family, []).append(record)
        return groups

