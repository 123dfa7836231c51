"""The one recorded-run path every experiment driver takes.

A driver (a sweep, a figure panel set, the delay comparison) hands its
payloads here.  :func:`run_recorded` opens the store, keys each payload,
runs the trials under the driver's span with its resilience settings, and
records the run manifest: ``status="interrupted"`` when a
``KeyboardInterrupt`` (SIGINT, or SIGTERM under
:func:`repro.resilience.interruptible`) drains the run, else
``completed``/``partial`` once the driver calls
:meth:`RecordedRun.record`.  Re-running a drained driver on the same store
replays its journaled trials as cache hits.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from ..observability.log import get_logger
from ..observability.timing import span
from ..parallel import TrialResult, TrialRunner, TrialStats
from ..resilience import ResilienceConfig, check_min_success
from ..store import content_digest, open_store

__all__ = ["RecordedRun", "run_recorded"]

_log = get_logger(__name__)


@dataclass
class RecordedRun:
    """The trial results of one driver run, awaiting its manifest."""

    results: List[TrialResult]
    failures: List[TrialResult]
    stats: Optional[TrialStats]
    _manifest: Optional[Callable[..., Any]]

    @property
    def values(self) -> list:
        """The successful trials' values, in trial-index order."""
        return [result.value for result in self.results if result.ok]

    def record(self, digest: Optional[str] = None) -> None:
        """Write the ``completed``/``partial`` manifest (no-op without a
        store).

        With no ``digest``, the manifest records the content digest of
        every trial's value in trial-index order (``None`` for a failed
        trial), so ``serve regress`` can flag drift in any driver's
        results.  Every stored value has already passed the journal's
        strict encoder, so digesting it cannot fail.
        """
        if self._manifest is None:
            return
        if digest is None:
            digest = content_digest(
                [result.value if result.ok else None for result in self.results]
            )
        self._manifest(
            digest=digest,
            durations=[result.duration for result in self.results],
            cached=[result.cached for result in self.results],
            stats=self.stats,
            status="partial" if self.failures else "completed",
        )


def run_recorded(
    trial_fn: Callable,
    payloads: Sequence[Any],
    key_fn: Callable[[Any], str],
    *,
    command: str,
    config: dict,
    span_name: str,
    workers: Optional[int],
    store,
    resilience: Optional[ResilienceConfig],
    parameters: Any = None,
    validator: Optional[Callable[[Any], Optional[str]]] = None,
    batched: Optional[tuple] = None,
) -> RecordedRun:
    """Run ``trial_fn`` over ``payloads`` durably; see the module docstring.

    ``key_fn(payload)`` is the payload's content-hash cache key (computed
    only when a store is open).  ``batched`` is a ``(batch_fn, batches)``
    pair routing execution through :meth:`TrialRunner.run_batched`.
    Raises :class:`~repro.parallel.TrialFailed` when fewer trials succeed
    than ``resilience.min_success_fraction`` allows.
    """
    # keys first: a payload the store cannot encode fails before the
    # store directory is created
    keys = [key_fn(payload) for payload in payloads] if store is not None else None
    store = open_store(store)
    _log.info(
        "%s: %d trial(s), store=%s, config=%s",
        command, len(payloads), getattr(store, "root", None), config,
    )
    resilience = resilience if resilience is not None else ResilienceConfig()
    runner = TrialRunner(
        trial_fn, workers=workers, validator=validator, **resilience.runner_kwargs()
    )
    manifest = None
    if store is not None:
        manifest = functools.partial(
            store.record_run,
            command=command,
            config=config,
            parameters=parameters,
            trial_keys=keys,
        )
    try:
        with span(span_name, logger=_log):
            if batched is not None:
                results = runner.run_batched(
                    payloads, *batched, cache=store, keys=keys
                )
            else:
                results = runner.run(payloads, cache=store, keys=keys)
    except KeyboardInterrupt:
        # graceful drain: every completed trial is already journaled; leave
        # a resumable manifest behind and let the interrupt propagate.
        if store is not None:
            store.close()
            manifest(status="interrupted")
            _log.warning(
                "%s interrupted; completed trials remain journaled in %s "
                "-- re-running the same command resumes from them",
                command,
                store.root,
            )
        raise
    failures = check_min_success(
        results, resilience.min_success_fraction, context=command
    )
    return RecordedRun(results, failures, runner.last_stats, manifest)
