"""Queryable results service over the run store.

The store (:mod:`repro.store`) holds provenance-stamped run manifests and
fsync'd per-trial journals for every sweep; this package is the front door
that can *ask* it things:

- :mod:`repro.serve.index` -- :class:`RunIndex`, a persistent index over
  the manifests (parameters -> scheme/n-grid -> digest -> artifacts) with
  incremental stat-based refresh, prefix resolution, and per-run
  :class:`RunRecord` summaries whose throughput fields exclude cached
  trials;
- :mod:`repro.serve.query` -- the programmatic query API: a
  :class:`QuerySpec` of conjunctive filters ("all sweeps with alpha=1/4
  at n >= 4000, latest schema, completed status") evaluated by
  :func:`run_query`;
- :mod:`repro.serve.regress` -- cross-run regression detection per
  cache-key family: a drifted result digest is a correctness regression,
  fresh-throughput loss beyond a threshold is a performance regression
  (cached trial durations are excluded, so a fully-cached rerun is never
  a 100x "speedup");
- :mod:`repro.serve.report` -- HTML/JSON report generation per
  figure/experiment family.

The CLI exposes all of it as ``repro serve query|regress|report`` and
routes ``repro runs list|show`` through the same index; each command
reads the one store named by ``--store``.
"""

from .index import (
    RefreshStats,
    RunIndex,
    RunRecord,
    family_key,
)
from .query import QuerySpec, run_query
from .regress import (
    DEFAULT_SLOWDOWN_THRESHOLD,
    Regression,
    RegressionReport,
    detect_regressions,
    scan_records,
)
from .report import build_report, render_html, render_json, write_report

__all__ = [
    "DEFAULT_SLOWDOWN_THRESHOLD",
    "QuerySpec",
    "RefreshStats",
    "Regression",
    "RegressionReport",
    "RunIndex",
    "RunRecord",
    "build_report",
    "detect_regressions",
    "family_key",
    "render_html",
    "render_json",
    "run_query",
    "scan_records",
    "write_report",
]
