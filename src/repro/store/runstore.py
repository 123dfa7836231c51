"""The on-disk run store: JSONL trial journal plus run manifests.

Layout of a store directory::

    <root>/
        trials.jsonl        append-only journal, one completed trial per line
        journal.corrupt     quarantine sidecar: unparseable journal lines,
                            moved here on load for post-mortem inspection
        runs/<run_id>.json  one manifest per recorded run (provenance,
                            parameters, trial keys, per-trial timing, digest,
                            completion status)

Durability model
----------------
The journal is strictly append-only and every :meth:`RunStore.put` writes a
single complete line followed by ``flush`` + ``fsync``.  A process killed
mid-write can therefore leave at most one truncated line at the *end* of the
file; the loader skips any line that fails to parse (truncated or
corrupted), quarantining it to the ``journal.corrupt`` sidecar, and keeps
everything else, so an interrupted sweep resumes from exactly the set of
trials whose writes completed.  A value the strict encoder refuses (e.g. a
raw non-finite duration) is journaled as a structured *failure record*
rather than crashing the sweep -- see :meth:`RunStore.put`.  Manifests are written to a temporary
file and atomically ``os.replace``-d into place, so a manifest is either
absent or complete -- never half-written.

Entries are keyed by the content hash of
``(parameters, scheme, n, trial seed, schema version)`` (see
:mod:`repro.store.keys`); entries stamped with a different
``SCHEMA_VERSION`` are ignored on load, so schema bumps cold-start the
cache instead of decoding stale shapes.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import pathlib
import time
import uuid
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Optional, Sequence, Union

from ..observability.events import JournalAppended, get_telemetry
from ..observability.log import get_logger
from .provenance import collect_provenance
from .serialize import SCHEMA_VERSION, from_jsonable, to_jsonable

__all__ = [
    "CachedTrial",
    "GCStats",
    "RunStore",
    "UnserializableValue",
    "manifest_sort_key",
    "open_store",
]

_log = get_logger(__name__)


class UnserializableValue(ValueError):
    """A trial value (or its timing) could not be journaled as JSON.

    Raised by :meth:`RunStore.put` *after* a structured failure record has
    been appended in the value's place, so the journal keeps an auditable
    trace of the refusal.  The runner converts this into a
    ``kind="invalid_result"`` :class:`~repro.parallel.TrialError` instead of
    letting one bad float crash the whole sweep.
    """

    def __init__(self, key: str, message: str):
        super().__init__(
            f"value for key {key} could not be serialized: {message}"
        )
        self.key = key


@dataclass(frozen=True)
class CachedTrial:
    """One journaled trial: the decoded value plus its original timing."""

    key: str
    value: Any
    #: In-worker wall-clock seconds of the original (uncached) execution.
    duration: float


@dataclass(frozen=True)
class GCStats:
    """Outcome of one :meth:`RunStore.gc` pass."""

    runs_removed: int
    entries_kept: int
    entries_dropped: int
    #: Corrupt journal lines moved to the ``journal.corrupt`` sidecar
    #: during this pass (already counted in ``entries_dropped``).
    corrupt_quarantined: int = 0

    def summary(self) -> str:
        """One-line human-readable digest."""
        text = (
            f"removed {self.runs_removed} run manifest(s); journal: "
            f"{self.entries_kept} entr{'y' if self.entries_kept == 1 else 'ies'} "
            f"kept, {self.entries_dropped} dropped"
        )
        if self.corrupt_quarantined:
            text += (
                f" ({self.corrupt_quarantined} corrupt line(s) quarantined "
                "to journal.corrupt)"
            )
        return text


def _created_timestamp(run: dict) -> float:
    """Best-effort epoch seconds a manifest was recorded at.

    Prefers the monotonic-enough ``created_ts`` float; legacy manifests
    that predate it fall back to parsing the ``created`` local-time string
    (with its UTC offset when one was recorded).  Unparseable manifests
    sort to the epoch rather than raising.
    """
    ts = run.get("created_ts")
    if ts is not None:
        try:
            return float(ts)
        except (TypeError, ValueError):
            pass
    created = run.get("created") or ""
    for fmt in ("%Y-%m-%dT%H:%M:%S%z", "%Y-%m-%dT%H:%M:%S"):
        try:
            parsed = datetime.datetime.strptime(created, fmt)
        except (TypeError, ValueError):
            continue
        try:
            return parsed.timestamp()
        except (OSError, OverflowError, ValueError):
            return 0.0
    return 0.0


def manifest_sort_key(run: dict) -> tuple:
    """Sort key ordering run manifests oldest-to-newest.

    The ``created_ts`` epoch float is the primary key -- unlike the
    ``created`` local-time string it is immune to DST jumps, timezone
    changes and hosts with different local clocks.  The string is only a
    fallback for legacy manifests that lack the float; ties (same resolved
    timestamp and string) are left to the caller's stable sort, so
    same-second manifests keep their scan order.
    """
    return (_created_timestamp(run), run.get("created") or "")


class RunStore:
    """Content-addressed trial cache + run manifests in one directory.

    Implements the duck-typed cache interface consumed by
    :meth:`repro.parallel.TrialRunner.run`:

    - ``get(key) -> Optional[CachedTrial]`` -- lookup before submission;
    - ``put(key, value, duration)`` -- durable journal-on-completion.

    ``use_cache=False`` turns ``get`` into a constant miss while ``put``
    keeps journaling, i.e. ``--no-cache`` forces recomputation but still
    refreshes the store (last write wins on load).
    """

    JOURNAL_NAME = "trials.jsonl"
    CORRUPT_NAME = "journal.corrupt"
    RUNS_DIR = "runs"

    def __init__(self, root: Union[str, pathlib.Path], use_cache: bool = True):
        self.root = pathlib.Path(root)
        self.use_cache = use_cache
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / self.RUNS_DIR).mkdir(exist_ok=True)
        self._index: Optional[Dict[str, CachedTrial]] = None
        self._skipped_lines = 0
        self._last_quarantined = 0
        self._journal_handle: Optional[IO[str]] = None
        self._serve_index: Optional[Any] = None

    # ------------------------------------------------------------------
    # cache interface (used by TrialRunner)
    # ------------------------------------------------------------------
    @property
    def journal_path(self) -> pathlib.Path:
        """Path of the append-only trial journal."""
        return self.root / self.JOURNAL_NAME

    @property
    def corrupt_path(self) -> pathlib.Path:
        """Path of the quarantine sidecar for unparseable journal lines."""
        return self.root / self.CORRUPT_NAME

    @property
    def skipped_lines(self) -> int:
        """Journal lines dropped on the most recent load (corrupt/stale)."""
        self._ensure_index()
        return self._skipped_lines

    @property
    def quarantined_lines(self) -> int:
        """Corrupt lines moved to the sidecar on the most recent load."""
        self._ensure_index()
        return self._last_quarantined

    def get(self, key: str) -> Optional[CachedTrial]:
        """The cached trial for ``key``, or ``None`` (always ``None`` when
        ``use_cache`` is off)."""
        if not self.use_cache:
            return None
        self._ensure_index()
        return self._index.get(key)

    def put(self, key: str, value: Any, duration: float) -> None:
        """Durably journal one completed trial (single atomic-enough line:
        complete-or-truncated, never interleaved -- the runner journals from
        the parent process only).

        A value (or duration) the journal cannot represent -- an unregistered
        type, or a raw non-finite float the strict ``allow_nan=False``
        encoder rejects -- does **not** crash the sweep: a structured failure
        record is appended in its place (auditable, skipped by the loader)
        and :class:`UnserializableValue` is raised for the runner to convert
        into a per-trial ``invalid_result`` error.
        """
        try:
            record = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "duration": float(duration),
                "value": to_jsonable(value),
            }
            line = json.dumps(record, separators=(",", ":"), allow_nan=False)
        except (TypeError, ValueError) as exc:
            failure = {
                "schema": SCHEMA_VERSION,
                "key": key,
                "error": "unserializable-value",
                "message": f"{type(exc).__name__}: {exc}",
            }
            self._append_line(
                json.dumps(failure, separators=(",", ":"), allow_nan=False)
            )
            _log.warning(
                "journaled failure record for key %s instead of its value "
                "(%s: %s)",
                key,
                type(exc).__name__,
                exc,
            )
            raise UnserializableValue(key, f"{type(exc).__name__}: {exc}") from exc
        self._append_line(line)
        sink = get_telemetry()
        if sink.enabled:
            sink.emit(
                JournalAppended(
                    key=key, bytes=len(line) + 1, duration=float(duration)
                )
            )
        if self._index is not None:
            self._index[key] = CachedTrial(key=key, value=from_jsonable(
                json.loads(line)["value"]), duration=float(duration))

    def _append_line(self, line: str) -> None:
        """Append one complete line to the journal (flush + fsync)."""
        if self._journal_handle is None:
            self._journal_handle = open(self.journal_path, "a", encoding="utf-8")
        self._journal_handle.write(line + "\n")
        self._journal_handle.flush()
        os.fsync(self._journal_handle.fileno())

    def close(self) -> None:
        """Close the journal append handle (reopened lazily on demand)."""
        if self._journal_handle is not None:
            self._journal_handle.close()
            self._journal_handle = None

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # journal loading
    # ------------------------------------------------------------------
    def _ensure_index(self) -> None:
        if self._index is None:
            self._index, self._skipped_lines = self._load_journal()

    def reload(self) -> None:
        """Drop the in-memory index; the next lookup re-reads the journal."""
        self._index = None

    def _load_journal(self) -> tuple:
        index: Dict[str, CachedTrial] = {}
        skipped = 0
        corrupt: List[str] = []
        self._last_quarantined = 0
        if not self.journal_path.exists():
            return index, skipped
        with open(self.journal_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                    if not isinstance(record, dict):
                        raise ValueError("journal line is not an object")
                    if record.get("schema") != SCHEMA_VERSION:
                        # stale schema: expected after a version bump, not
                        # corruption -- dropped but not quarantined
                        skipped += 1
                        continue
                    if record.get("error"):
                        # structured failure record left by put(): the trial
                        # produced an unserializable value; nothing to cache.
                        skipped += 1
                        continue
                    key = record["key"]
                    trial = CachedTrial(
                        key=key,
                        value=from_jsonable(record["value"]),
                        duration=float(record.get("duration", 0.0)),
                    )
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    # truncated tail (killed mid-write) or bit rot: skip the
                    # line (the owning trial simply reruns) and quarantine it
                    # to the sidecar for post-mortem inspection.
                    skipped += 1
                    corrupt.append(line)
                    continue
                index[key] = trial  # duplicate keys: last write wins
        self._last_quarantined = self._quarantine(corrupt)
        if skipped:
            _log.warning(
                "skipped %d corrupt, stale-schema or failure-record line(s) "
                "loading journal %s (%d quarantined to %s; the owning trials "
                "will simply rerun)",
                skipped,
                self.journal_path,
                self._last_quarantined,
                self.corrupt_path.name,
            )
        return index, skipped

    def _quarantine(self, lines: Sequence[str]) -> int:
        """Append corrupt journal lines to the sidecar, deduplicated by
        content so repeated loads do not grow it; returns the number of
        *fresh* lines written."""
        if not lines:
            return 0
        existing = set()
        if self.corrupt_path.exists():
            with open(self.corrupt_path, "r", encoding="utf-8") as handle:
                existing = {line.rstrip("\n") for line in handle}
        fresh = []
        for line in lines:
            if line not in existing:
                existing.add(line)
                fresh.append(line)
        if fresh:
            with open(self.corrupt_path, "a", encoding="utf-8") as handle:
                for line in fresh:
                    handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
        return len(fresh)

    def __len__(self) -> int:
        self._ensure_index()
        return len(self._index)

    # ------------------------------------------------------------------
    # run manifests
    # ------------------------------------------------------------------
    def record_run(
        self,
        command: str,
        config: Optional[dict] = None,
        parameters: Any = None,
        trial_keys: Optional[Sequence[Optional[str]]] = None,
        digest: Optional[str] = None,
        durations: Optional[Sequence[float]] = None,
        cached: Optional[Sequence[bool]] = None,
        stats: Any = None,
        status: str = "completed",
    ) -> str:
        """Write one run manifest (atomic) and return its ``run_id``.

        ``stats`` accepts a :class:`repro.parallel.TrialStats`;
        ``durations`` are the per-trial wall-clock seconds aligned with
        ``trial_keys``, and ``cached`` is the parallel mask marking trials
        served from the journal instead of executed (a cached trial's
        duration replays the *original* execution's seconds, so throughput
        statistics must exclude masked entries -- see
        :mod:`repro.serve.regress`).  ``status`` records how the run ended:
        ``"completed"``, ``"partial"`` (failures tolerated under
        ``min_success_fraction``) or ``"interrupted"`` (drained on
        SIGINT/SIGTERM; the journaled trials make the re-invocation a
        resume).  Non-finite durations are recorded as 0.0 -- the manifest
        is strict JSON and must never be the thing that crashes a drain.
        """
        run_id = time.strftime("%Y%m%d-%H%M%S") + "-" + uuid.uuid4().hex[:8]
        clean_durations = []
        for duration in durations or []:
            duration = float(duration)
            clean_durations.append(duration if math.isfinite(duration) else 0.0)
        cached_mask: Optional[List[bool]] = None
        if cached is not None:
            cached_mask = [bool(flag) for flag in cached]
            if len(cached_mask) != len(clean_durations):
                raise ValueError(
                    f"cached mask length {len(cached_mask)} does not match "
                    f"{len(clean_durations)} duration(s)"
                )
        manifest = {
            "run_id": run_id,
            "command": command,
            "status": status,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            # sub-second tiebreak so list_runs() order is well defined even
            # for manifests recorded within the same wall-clock second
            "created_ts": time.time(),
            "provenance": collect_provenance(),
            "parameters": to_jsonable(parameters),
            "config": to_jsonable(config or {}),
            "trial_keys": list(trial_keys or []),
            "digest": digest,
            "durations": clean_durations,
        }
        if cached_mask is not None:
            manifest["cached"] = cached_mask
        if stats is not None:
            manifest["stats"] = {
                "trials": stats.trials,
                "failures": stats.failures,
                "retries": stats.retries,
                "cache_hits": getattr(stats, "cache_hits", 0),
                "elapsed_seconds": stats.elapsed_seconds,
                "workers": stats.workers,
                "pool_rebuilds": getattr(stats, "pool_rebuilds", 0),
                "degraded": getattr(stats, "degraded", False),
            }
        path = self.root / self.RUNS_DIR / f"{run_id}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n")
        os.replace(tmp, path)
        _log.info(
            "recorded run manifest %s (command=%s, %d trial key(s))",
            run_id,
            command,
            len(manifest["trial_keys"]),
        )
        return run_id

    def list_runs(self) -> List[dict]:
        """All readable manifests, newest first.

        Ordered by :func:`manifest_sort_key`: the ``created_ts`` epoch
        float is primary (stable across DST changes, timezone changes and
        differing host clocks), the local-time ``created`` string only a
        fallback for legacy manifests, and full ties keep the
        deterministic filename scan order (the sort is stable).
        """
        runs = []
        for path in sorted((self.root / self.RUNS_DIR).glob("*.json")):
            try:
                runs.append(json.loads(path.read_text()))
            except (json.JSONDecodeError, OSError):
                continue
        runs.sort(key=manifest_sort_key, reverse=True)
        return runs

    def serve_index(self):
        """The lazily-built serve index over this store's manifests
        (:class:`repro.serve.index.RunIndex`), shared across calls."""
        if self._serve_index is None:
            # lazy import: repro.serve layers *above* the store and imports
            # it at module scope; importing it here avoids the cycle.
            from ..serve.index import RunIndex

            self._serve_index = RunIndex(self.root)
        return self._serve_index

    def load_run(self, run_id: str) -> dict:
        """One manifest by id (prefix match accepted when unambiguous).

        Prefixes resolve through the serve index -- an incremental stat
        scan plus a parse of only the new or changed manifests -- and the
        resolved manifest is the *single* JSON file read, instead of the
        historical re-read-and-re-sort of every manifest per call.
        """
        index = self.serve_index()
        index.refresh()
        resolved = index.resolve(run_id)
        path = self.root / self.RUNS_DIR / f"{resolved}.json"
        try:
            return json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise KeyError(
                f"no stored run matches {run_id!r} (manifest unreadable: {exc})"
            ) from exc

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def gc(self, keep: Optional[int] = None, drop_orphans: bool = False) -> GCStats:
        """Prune old manifests and compact the journal.

        ``keep`` retains only the newest ``keep`` manifests.  Compaction
        always drops corrupt lines (quarantining them to the
        ``journal.corrupt`` sidecar), stale-schema lines and failure
        records, and collapses duplicate keys; ``drop_orphans=True``
        additionally drops entries referenced by no remaining manifest.
        (Orphans are *kept* by default: a killed run writes no manifest,
        and its journaled trials are exactly what makes the re-invocation
        resumable.)  The compacted journal is swapped in atomically.
        """
        runs = self.list_runs()
        removed = 0
        if keep is not None:
            if keep < 0:
                raise ValueError(f"keep must be >= 0, got {keep}")
            survivors = runs[:keep]
            for run in runs[keep:]:
                path = self.root / self.RUNS_DIR / f"{run['run_id']}.json"
                try:
                    path.unlink()
                    removed += 1
                except FileNotFoundError:
                    # already gone (concurrent gc): nothing was removed by
                    # this pass, and there is nothing left to reference.
                    continue
                except OSError as exc:
                    # the manifest is still on disk: do NOT count it as
                    # removed, and keep its trial keys referenced so a
                    # drop_orphans pass cannot strand a live manifest.
                    _log.warning(
                        "gc could not remove manifest %s: %s", path, exc
                    )
                    survivors.append(run)
            runs = survivors
        referenced = set()
        for run in runs:
            referenced.update(key for key in run.get("trial_keys", []) if key)

        self.close()
        total_lines = 0
        if self.journal_path.exists():
            with open(self.journal_path, "r", encoding="utf-8") as handle:
                total_lines = sum(1 for line in handle if line.strip())
        index, _ = self._load_journal()
        kept: Dict[str, CachedTrial] = {}
        for key, trial in index.items():
            if drop_orphans and key not in referenced:
                continue
            kept[key] = trial
        # corrupt + stale + duplicate-superseded + orphaned lines all count
        dropped = total_lines - len(kept)
        tmp = self.journal_path.with_suffix(".jsonl.tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            for key, trial in kept.items():
                record = {
                    "schema": SCHEMA_VERSION,
                    "key": key,
                    "duration": trial.duration,
                    "value": to_jsonable(trial.value),
                }
                handle.write(
                    json.dumps(record, separators=(",", ":"), allow_nan=False) + "\n"
                )
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.journal_path)
        quarantined = self._last_quarantined
        self._index = None
        stats = GCStats(
            runs_removed=removed,
            entries_kept=len(kept),
            entries_dropped=dropped,
            corrupt_quarantined=quarantined,
        )
        _log.info("gc %s: %s", self.root, stats.summary())
        return stats


def open_store(
    store: Union[None, str, pathlib.Path, RunStore], use_cache: bool = True
) -> Optional[RunStore]:
    """Normalise a ``store=`` argument: path-like values open a
    :class:`RunStore`; ``None`` and existing store objects pass through."""
    if store is None or not isinstance(store, (str, pathlib.Path)):
        return store
    return RunStore(store, use_cache=use_cache)
