"""HTML / JSON report generation over the serve index.

:func:`build_report` evaluates a query (default: everything), groups the
matching runs by cache-key family -- one section per figure/experiment --
runs the regression detector over exactly that population, and returns a
plain JSON-able dict.  :func:`render_json` / :func:`render_html` turn that
dict into the two publishable formats; the HTML is a single
self-contained, dependency-free page (every dynamic value escaped).
"""

from __future__ import annotations

import html
import json
import pathlib
import time
from typing import List, Optional, Union

from ..observability.log import get_logger
from .index import RunIndex, RunRecord
from .query import QuerySpec, run_query
from .regress import DEFAULT_SLOWDOWN_THRESHOLD, scan_records

__all__ = ["build_report", "render_html", "render_json", "write_report"]

_log = get_logger(__name__)


def _run_row(record: RunRecord) -> dict:
    tps = record.fresh_trials_per_second
    return {
        "run_id": record.run_id,
        "created": record.created,
        "created_ts": record.created_ts,
        "status": record.status,
        "digest": record.digest,
        "trials": record.trials,
        "cache_hits": record.cache_hits,
        "fresh_trials": record.fresh_trials,
        "fresh_trials_per_second": None if tps is None else round(tps, 3),
        "git_sha": record.git_sha,
        "schema_version": record.schema_version,
    }


def _family_section(family: str, members: List[RunRecord]) -> dict:
    newest = members[0]
    alpha = newest.parameter("alpha")
    return {
        "family": family,
        "command": newest.command,
        "scheme": newest.scheme,
        "alpha": None if alpha is None else str(alpha),
        "n_values": list(newest.n_values),
        "runs": [_run_row(record) for record in members],
    }


def build_report(
    index: RunIndex,
    spec: Optional[QuerySpec] = None,
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD,
    title: str = "repro results",
    refresh: bool = True,
) -> dict:
    """One JSON-able report over the runs matching ``spec``.

    The regression scan covers exactly the matched population, so a
    report scoped to one experiment reports that experiment's drift and
    slowdown findings only.
    """
    matched = run_query(index, spec, refresh=refresh)
    families: dict = {}
    for record in matched:  # newest first; preserved per family
        families.setdefault(record.family, []).append(record)
    regressions = scan_records(matched, slowdown_threshold=slowdown_threshold)
    now = time.time()
    return {
        "title": title,
        "store": str(index.root),
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z", time.localtime(now)),
        "generated_ts": now,
        "query": spec.to_jsonable() if spec is not None else {},
        "total_runs": len(matched),
        "families": [
            _family_section(family, members)
            for family, members in families.items()
        ],
        "regressions": regressions.to_jsonable(),
        "summary": regressions.summary(),
    }


def render_json(report: dict) -> str:
    """The report as pretty-printed strict JSON."""
    return json.dumps(report, indent=2, allow_nan=False) + "\n"


def _esc(value: object) -> str:
    return html.escape("-" if value is None else str(value), quote=True)


def render_html(report: dict) -> str:
    """The report as one self-contained HTML page."""
    lines = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{_esc(report.get('title'))}</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2rem;color:#222}",
        "table{border-collapse:collapse;margin:0.5rem 0 1.5rem}",
        "th,td{border:1px solid #ccc;padding:0.3rem 0.6rem;"
        "text-align:left;font-size:0.9rem}",
        "th{background:#f0f0f0}",
        "code{font-size:0.85rem}",
        ".regression{color:#a00;font-weight:bold}",
        ".ok{color:#060}",
        "</style>",
        "</head>",
        "<body>",
        f"<h1>{_esc(report.get('title'))}</h1>",
        f"<p>store: <code>{_esc(report.get('store'))}</code> &middot; "
        f"generated {_esc(report.get('generated'))} &middot; "
        f"{_esc(report.get('total_runs'))} run(s)</p>",
    ]
    query = report.get("query") or {}
    if query:
        lines.append(
            f"<p>query: <code>{_esc(json.dumps(query, sort_keys=True))}</code></p>"
        )
    regressions = report.get("regressions") or {}
    css = "ok" if regressions.get("ok", True) else "regression"
    lines.append(f'<p class="{css}">{_esc(report.get("summary"))}</p>')
    findings = regressions.get("regressions") or []
    if findings:
        lines.append("<h2>Regressions</h2>")
        lines.append("<table>")
        lines.append(
            "<tr><th>kind</th><th>family</th><th>baseline</th>"
            "<th>current</th><th>detail</th></tr>"
        )
        for finding in findings:
            lines.append(
                "<tr>"
                f"<td class=\"regression\">{_esc(finding.get('kind'))}</td>"
                f"<td><code>{_esc((finding.get('family') or '')[:12])}</code></td>"
                f"<td><code>{_esc(finding.get('baseline_run'))}</code></td>"
                f"<td><code>{_esc(finding.get('current_run'))}</code></td>"
                f"<td>{_esc(finding.get('detail'))}</td>"
                "</tr>"
            )
        lines.append("</table>")
    for section in report.get("families") or []:
        heading = section.get("command") or "?"
        if section.get("scheme"):
            heading += f" / scheme {section['scheme']}"
        if section.get("alpha") is not None:
            heading += f" / alpha={section['alpha']}"
        lines.append(f"<h2>{_esc(heading)}</h2>")
        lines.append(
            f"<p>family <code>{_esc((section.get('family') or '')[:16])}</code>"
            f" &middot; n grid {_esc(section.get('n_values'))}</p>"
        )
        lines.append("<table>")
        lines.append(
            "<tr><th>run id</th><th>created</th><th>status</th>"
            "<th>digest</th><th>trials</th><th>cache hits</th>"
            "<th>fresh trials/s</th><th>git</th></tr>"
        )
        for run in section.get("runs") or []:
            digest = run.get("digest")
            lines.append(
                "<tr>"
                f"<td><code>{_esc(run.get('run_id'))}</code></td>"
                f"<td>{_esc(run.get('created'))}</td>"
                f"<td>{_esc(run.get('status'))}</td>"
                f"<td><code>{_esc(digest[:12] if digest else None)}</code></td>"
                f"<td>{_esc(run.get('trials'))}</td>"
                f"<td>{_esc(run.get('cache_hits'))}</td>"
                f"<td>{_esc(run.get('fresh_trials_per_second'))}</td>"
                f"<td><code>{_esc((run.get('git_sha') or '')[:12] or None)}</code></td>"
                "</tr>"
            )
        lines.append("</table>")
    lines.extend(["</body>", "</html>"])
    return "\n".join(lines) + "\n"


def write_report(
    report: dict,
    path: Union[str, pathlib.Path],
    fmt: Optional[str] = None,
) -> pathlib.Path:
    """Write the report to ``path`` as ``"json"`` or ``"html"``.

    ``fmt=None`` infers the format from the file suffix (``.html`` /
    ``.htm`` = HTML, anything else JSON).
    """
    path = pathlib.Path(path)
    if fmt is None:
        fmt = "html" if path.suffix.lower() in (".html", ".htm") else "json"
    if fmt not in ("json", "html"):
        raise ValueError(f"format must be 'json' or 'html', got {fmt!r}")
    text = render_html(report) if fmt == "html" else render_json(report)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    _log.info("wrote %s report to %s", fmt, path)
    return path
