"""The programmatic query API over the serve index.

A :class:`QuerySpec` is a conjunction of filters -- "all sweeps with
``alpha=1/4`` at ``n >= 4000``, latest schema, completed status" is::

    QuerySpec(command="sweep", alpha="1/4", min_n=4000,
              latest_schema=True, status="completed")

and :func:`run_query` evaluates it against a refreshed
:class:`~repro.serve.index.RunIndex`, returning matching
:class:`~repro.serve.index.RunRecord` summaries newest first.  Parameter
filters compare as exact :class:`fractions.Fraction` values, so
``alpha="0.25"`` and ``alpha="1/4"`` are the same filter; ``min_n`` /
``max_n`` match runs whose grid contains at least one point inside the
requested range.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import List, Mapping, Optional

from ..observability.events import QueryExecuted, get_telemetry
from ..observability.log import get_logger
from .index import RunIndex, RunRecord

__all__ = ["QuerySpec", "run_query"]

_log = get_logger(__name__)


def _as_fraction(text: str) -> Fraction:
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a fraction: {text!r} ({exc})") from exc


@dataclass(frozen=True)
class QuerySpec:
    """One conjunction of run filters (``None`` / empty = don't care).

    Raises :class:`ValueError` when ``alpha`` or a ``parameters`` value is
    not a fraction.
    """

    #: Exact experiment command (``"sweep"``, ``"figure1"``, ...).
    command: Optional[str] = None
    #: Exact routing scheme recorded in the run config.
    scheme: Optional[str] = None
    #: Exact completion status (``completed`` / ``partial`` / ``interrupted``).
    status: Optional[str] = None
    #: Network-extension exponent, as fraction text (``"1/4"`` == ``"0.25"``).
    alpha: Optional[str] = None
    #: Additional exponent filters by parameter name, fraction-compared
    #: (e.g. ``{"bs_exponent": "1/2"}``).
    parameters: Mapping[str, str] = field(default_factory=dict)
    #: Grid-coverage window: match runs with at least one grid point in
    #: ``[min_n, max_n]``; runs without grid info never match when set.
    min_n: Optional[int] = None
    max_n: Optional[int] = None
    #: Result-digest prefix.
    digest: Optional[str] = None
    #: Cache-key-family prefix (see :func:`repro.serve.index.family_key`).
    family: Optional[str] = None
    #: Keep only runs stamped with the newest schema version in the index.
    latest_schema: bool = False
    #: Truncate the (newest-first) result list.
    limit: Optional[int] = None

    def to_jsonable(self) -> dict:
        """JSON-ready form with the don't-care filters dropped."""
        data = asdict(self)
        data["parameters"] = dict(self.parameters)
        return {
            key: value
            for key, value in data.items()
            if value not in (None, False, {}, ())
        }

    def __post_init__(self) -> None:
        # parse the fraction filters once, so a malformed one is rejected
        # when the spec is built -- even against a store with no runs.
        filters = {
            name: _as_fraction(value)
            for name, value in dict(self.parameters).items()
        }
        if self.alpha is not None:
            filters["alpha"] = _as_fraction(self.alpha)
        object.__setattr__(self, "_fraction_filters", filters)

    def matches(
        self,
        record: RunRecord,
        latest_schema_version: Optional[int] = None,
    ) -> bool:
        """Whether one record satisfies every filter.

        ``latest_schema_version`` is the newest version present in the
        index (supplied by :func:`run_query` when ``latest_schema`` is
        set), so the spec itself stays index-independent.
        """
        if self.command is not None and record.command != self.command:
            return False
        if self.scheme is not None and record.scheme != self.scheme:
            return False
        if self.status is not None and record.status != self.status:
            return False
        if self.digest is not None:
            if not record.digest or not record.digest.startswith(self.digest):
                return False
        if self.family is not None and not record.family.startswith(self.family):
            return False
        if self.latest_schema and latest_schema_version is not None:
            if record.schema_version != latest_schema_version:
                return False
        for name, wanted in self._fraction_filters.items():
            if record.parameter(name) != wanted:
                return False
        if self.min_n is not None or self.max_n is not None:
            in_range = [
                n
                for n in record.n_values
                if (self.min_n is None or n >= self.min_n)
                and (self.max_n is None or n <= self.max_n)
            ]
            if not in_range:
                return False
        return True


def run_query(
    index: RunIndex, spec: Optional[QuerySpec] = None, refresh: bool = True
) -> List[RunRecord]:
    """Evaluate ``spec`` against ``index``; matches newest first.

    ``refresh=True`` (the default) reconciles the index against the
    manifest directory first, so a query always sees runs recorded since
    the index was last persisted.
    """
    if refresh:
        index.refresh()
    spec = spec if spec is not None else QuerySpec()
    start = time.perf_counter()
    records = index.records()
    latest_schema_version = None
    if spec.latest_schema:
        versions = [
            r.schema_version for r in records if r.schema_version is not None
        ]
        latest_schema_version = max(versions, default=None)
    matched = [
        record
        for record in records
        if spec.matches(record, latest_schema_version)
    ]
    if spec.limit is not None:
        matched = matched[: max(spec.limit, 0)]
    elapsed = time.perf_counter() - start
    sink = get_telemetry()
    if sink.enabled:
        sink.emit(
            QueryExecuted(
                matched=len(matched),
                total=len(records),
                elapsed_seconds=elapsed,
            )
        )
    _log.debug(
        "query matched %d of %d run(s) in %.4fs", len(matched), len(records),
        elapsed,
    )
    return matched
