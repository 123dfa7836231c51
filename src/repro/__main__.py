"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze``    closed-form capacity of one parameter family
``table1``     the paper's Table I for the built-in representative rows
``phase``      a Figure-3 phase diagram panel for a given phi
``simulate``   realise one finite-n network and measure its flow-level rate
``sweep``      measure a capacity curve lambda(n) and fit its exponent
``reproduce``  regenerate the paper's artifacts into a results directory
``runs``       list/inspect/garbage-collect a persistent experiment store
``serve``      query the store's run manifests, detect cross-run
               regressions, and generate HTML/JSON reports (see
               ``repro.serve``); ``runs list``/``runs show`` resolve
               through the same incremental index

``sweep`` and ``reproduce`` accept ``--workers N`` to fan Monte-Carlo
trials out over ``N`` processes (``0`` = all cores); results are
bit-identical at any worker count (see ``repro.parallel``).

``sweep`` additionally accepts ``--batch-trials N`` (run same-``n``
scheme B/C trials in batches of at most ``N``, the unit the pool
schedules and retries; results do not depend on ``N``).

They also accept ``--store DIR`` to journal every completed trial into a
persistent, content-addressed store (see ``repro.store``): re-invoking the
same command -- including after an interruption -- replays the journaled
trials and only executes the missing ones, with the final digest
bit-identical to an uninterrupted cold run.  ``--no-cache`` forces
recomputation while still refreshing the journal.  ``runs`` and ``serve``
read the store named by ``--store DIR`` (default ``results``) and exit 2
when ``DIR`` holds no store.  Every command opens at most one store:
``--store`` given twice exits 2.

Observability (see ``repro.observability``): the global ``--log-level`` /
``--log-json`` flags configure the package-wide structured logger on
stderr; ``sweep`` and ``reproduce`` additionally accept ``--trace [DIR]``
(write a JSONL telemetry trace of every trial next to the store's run
manifests) and ``--progress`` / ``--no-progress`` (live trials/s + ETA +
cache-hit rendering on stderr; the default shows progress only on a TTY).
``print`` in this package is reserved for the CLI *result* output below --
diagnostics go through the logger.

Resilience (see ``repro.resilience``): ``sweep`` and ``reproduce`` accept
``--retries N`` (extra attempts per failing trial), ``--backoff SECONDS``
(exponential backoff base between attempts, doubling per attempt up to
30 s), ``--min-success FRACTION`` (tolerate failed trials down to this
success fraction instead of aborting; the manifest records
``status="partial"``) and ``--inject-faults SPEC`` (deterministic chaos
testing -- e.g. ``kill@0,raise@2-5,nan@7``; see ``repro.resilience.faults``
for the grammar).  A bad resilience flag exits 2 before any store exists.
SIGINT/SIGTERM drain gracefully wherever trials run -- the
``sweep``, and each Table I row, Figure 1 panel set and Figure 2 trace of
``reproduce`` -- because every experiment driver (also the library's
convergence, Figure 3 spot-check and delay drivers) shares one
recorded-run path (``repro.experiments.recorded``): completed trials stay
journaled, the interrupted driver records a ``status="interrupted"``
manifest, and the exit code is 130.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys

import numpy as np

from .core.capacity import analyze
from .core.phase_diagram import compute_phase_diagram
from .core.regimes import InvalidParameters, NetworkParameters
from .experiments.table1 import closed_form_table
from .observability import (
    CompositeTelemetry,
    ProgressRenderer,
    configure as configure_logging,
    get_logger,
    open_trace,
    using_telemetry,
)
from .simulation.network import HybridNetwork

__all__ = ["main"]

_log = get_logger(__name__)


def _add_family_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--alpha", default="1/4",
        help="network extension exponent (f = n^alpha), e.g. 1/4",
    )
    parser.add_argument(
        "--clusters", default="1", metavar="M",
        help="cluster exponent (m = n^M); 1 = uniform home-points",
    )
    parser.add_argument(
        "--radius", default="0", metavar="R",
        help="cluster radius exponent (r = n^-R)",
    )
    parser.add_argument(
        "--bs", default=None, metavar="K",
        help="base-station exponent (k = n^K); omit for no infrastructure",
    )
    parser.add_argument(
        "--phi", default="1",
        help="backbone exponent (mu_c = k c = n^phi)",
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip the paper's standing-assumption checks",
    )


def _family(args) -> NetworkParameters:
    return NetworkParameters(
        alpha=args.alpha,
        cluster_exponent=args.clusters,
        cluster_radius_exponent=args.radius,
        bs_exponent=args.bs,
        backbone_exponent=args.phi,
        validate=not args.no_validate,
    )


def _cmd_analyze(args) -> int:
    params = _family(args)
    result = analyze(params)
    print(params.describe())
    print(result.summary())
    print(f"  mobility term       : {result.mobility_term}")
    if params.has_infrastructure:
        print(f"  infrastructure term : {result.infrastructure_term}")
    return 0


def _cmd_table1(args) -> int:
    print(closed_form_table())
    return 0


def _cmd_phase(args) -> int:
    diagram = compute_phase_diagram(args.phi, grid_points=args.grid)
    print(f"phi = {args.phi} (M = mobility dominant, I = infrastructure dominant)")
    print(diagram.ascii_render())
    return 0


def _cmd_simulate(args) -> int:
    params = _family(args)
    rng = np.random.default_rng(args.seed)
    net = HybridNetwork.build(params, args.n, rng)
    print(params.describe())
    print(f"realised: n={net.n} k={net.k} f={net.realized.f:.3f}")
    result = net.sustainable_rate()
    print(f"flow-level rate: {result.per_node_rate:.4e} "
          f"(bottleneck: {result.bottleneck})")
    return 0


def _workers(args):
    """CLI --workers value -> TrialRunner workers (None = inline)."""
    from .parallel import TrialRunner

    return TrialRunner.resolve_workers(args.workers)


class _StoreOnce(argparse.Action):
    """``--store DIR``, accepted at most once.

    A command reads and writes exactly one store; argparse's default
    (last value wins) would silently drop every earlier directory.
    """

    def __call__(self, parser, namespace, values, option_string=None):
        if getattr(namespace, self.dest) is not None:
            raise argparse.ArgumentError(
                self, "given more than once (a command uses one store)"
            )
        setattr(namespace, self.dest, values)


def _run_options() -> argparse.ArgumentParser:
    """Parent parser of the trial-running commands (``sweep``,
    ``reproduce``): workers, store, telemetry and resilience flags."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan Monte-Carlo trials out over N processes (0 = all cores; "
        "results are identical at any worker count)",
    )
    parent.add_argument(
        "--store", action=_StoreOnce, default=None, metavar="DIR",
        help="journal completed trials into this persistent store and "
        "replay any already journaled there (resumable runs)",
    )
    parent.add_argument(
        "--no-cache", action="store_true",
        help="with --store: recompute every trial (no replay) but still "
        "refresh the journal",
    )
    parent.add_argument(
        "--trace", nargs="?", const="", default=None, metavar="DIR",
        help="write a JSONL telemetry trace (one event per line: trial "
        "lifecycle, progress, store appends, span timings) into DIR; "
        "with no DIR the trace lands next to the --store run manifests "
        "(or in ./results)",
    )
    parent.add_argument(
        "--progress", action=argparse.BooleanOptionalAction, default=None,
        help="render live progress (trials/s, ETA, cache hits) on stderr "
        "(default: only when stderr is a TTY)",
    )
    parent.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="extra attempts granted to a failing trial (default 1)",
    )
    parent.add_argument(
        "--backoff", type=float, default=0.0, metavar="SECONDS",
        help="exponential backoff base between attempts (default 0: retry "
        "immediately); the delay doubles per attempt, capped at 30 s",
    )
    parent.add_argument(
        "--min-success", type=float, default=1.0, metavar="FRACTION",
        help="tolerate failed trials down to this success fraction "
        "instead of aborting (default 1.0: any failure aborts); partial "
        "runs record status=partial in their manifest",
    )
    parent.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        help="deterministic fault injection for chaos testing, e.g. "
        "'kill@0,raise@2-5,nan@7' (KIND@SELECT[xN]; kinds: raise, kill, "
        "nan, io)",
    )
    return parent


def _store_options() -> argparse.ArgumentParser:
    """Parent parser of the store-reading commands (``runs``, ``serve``)."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(
        "--store", action=_StoreOnce, default=None, metavar="DIR",
        help="store directory (default: results)",
    )
    return parent


def _store(args):
    """CLI --store/--no-cache values -> RunStore (None without --store)."""
    from .store import open_store

    return open_store(args.store, use_cache=not args.no_cache)


def _existing_store(args):
    """The store ``runs``/``serve`` read; never creates one.

    Raises :class:`FileNotFoundError` (exit 2) when the directory holds no
    store, so a mistyped ``--store`` cannot pass as an empty store.
    """
    from .store import RunStore

    root = args.store if args.store is not None else "results"
    if not (pathlib.Path(root) / RunStore.RUNS_DIR).is_dir():
        raise FileNotFoundError(f"no store at {root}")
    return RunStore(root)


def _resilience(args):
    """CLI resilience flags -> ResilienceConfig."""
    from .resilience import FaultPlan, ResilienceConfig, RetryPolicy

    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    return ResilienceConfig(
        retry=RetryPolicy.from_retries(args.retries, backoff_base=args.backoff),
        fault_plan=fault_plan,
        min_success_fraction=args.min_success,
    )


def _telemetry(args):
    """CLI --trace/--progress values -> (sink or None, trace path or None).

    The composite sink is installed process-wide around the command, so
    every instrumented layer (runner, engine, store) reports through it
    without explicit threading.
    """
    sinks = []
    trace_path = None
    trace = getattr(args, "trace", None)
    if trace is not None:
        directory = trace or args.store or "results"
        trace_sink = open_trace(directory)
        trace_path = trace_sink.path
        sinks.append(trace_sink)
    progress = getattr(args, "progress", None)
    if progress is None:
        progress = sys.stderr.isatty()
    if progress:
        sinks.append(ProgressRenderer())
    if not sinks:
        return None, None
    return CompositeTelemetry(sinks), trace_path


def _cmd_sweep(args) -> int:
    from .experiments.scaling import check_sweep_scheme, sweep_capacity

    params = _family(args)
    grid = [int(v) for v in args.grid.split(",")]
    # flags are validated before the store directory is created
    check_sweep_scheme(params, args.scheme)
    resilience = _resilience(args)
    result = sweep_capacity(
        params,
        grid,
        scheme=args.scheme,
        trials=args.trials,
        seed=args.seed,
        workers=_workers(args),
        store=_store(args),
        resilience=resilience,
        batch_trials=args.batch_trials,
    )
    print(params.describe())
    for n, rate in zip(result.n_values, result.rates):
        print(f"  n={int(n):7d}  lambda={rate:.4e}")
    measured = "fit failed" if result.fit is None else f"{result.fit.exponent:+.3f}"
    print(f"theory slope {result.theory_exponent:+.3f}, measured {measured}")
    if result.stats is not None:
        print(result.stats.summary())
        if args.store is not None:
            print(
                f"cache: {result.stats.cache_hits} hit(s), "
                f"{result.stats.cache_misses} miss(es) "
                f"(store: {args.store})"
            )
    print(f"digest: {result.digest()}")
    return 0


def _cmd_runs(args) -> int:
    """Inspect a persistent experiment store (list / show / gc)."""
    from .utils.tables import render_table

    store = _existing_store(args)
    if args.action == "list":
        # rewired through the serve index: one stat per manifest instead of
        # one JSON parse, and newest-first by the created_ts epoch float.
        index = store.serve_index()
        index.refresh()
        records = index.records()
        if not records:
            print(f"no runs recorded in {store.root}")
            return 0
        rows = []
        for record in records:
            tps = record.fresh_trials_per_second
            rows.append(
                [
                    record.run_id,
                    record.command,
                    record.created,
                    record.status,
                    str(record.trials),
                    str(record.cache_hits),
                    "-" if tps is None else f"{tps:.2f}",
                    (record.digest or "-")[:12],
                    (record.git_sha or "?")[:12],
                ]
            )
        print(render_table(
            ["run id", "command", "created", "status", "trials", "hits",
             "fresh t/s", "digest", "git"],
            rows,
        ))
        print(f"{len(records)} run(s), {len(store)} journaled trial(s)")
        return 0
    if args.action == "show":
        if not args.run_id:
            print("runs show requires a RUN_ID", file=sys.stderr)
            return 2
        import json

        try:
            manifest = store.load_run(args.run_id)
        except KeyError as error:
            print(str(error), file=sys.stderr)
            return 2
        print(json.dumps(manifest, indent=2))
        return 0
    stats = store.gc(keep=args.keep, drop_orphans=args.drop_orphans)
    print(stats.summary())
    if store.corrupt_path.exists():
        print(f"quarantine sidecar: {store.corrupt_path}")
    return 0


def _serve_spec(args):
    """CLI serve filter flags -> QuerySpec."""
    from .serve import QuerySpec

    parameters = {}
    for item in args.param or []:
        name, sep, value = item.partition("=")
        if not sep or not name or not value:
            raise ValueError(
                f"--param expects NAME=FRACTION, got {item!r}"
            )
        parameters[name] = value
    return QuerySpec(
        command=args.command_filter,
        scheme=args.scheme,
        status=args.status,
        alpha=args.alpha,
        parameters=parameters,
        min_n=args.min_n,
        max_n=args.max_n,
        digest=args.digest,
        family=args.family,
        latest_schema=args.latest_schema,
        limit=args.limit,
    )


def _cmd_serve(args) -> int:
    """Query the run store, detect regressions, generate reports.

    ``serve regress`` exits 0 when clean and 3 when regressions were
    found, so CI can gate on it directly.
    """
    import json as json_module

    from .serve import build_report, detect_regressions, run_query, write_report
    from .utils.tables import render_table

    store = _existing_store(args)
    index = store.serve_index()
    spec = _serve_spec(args)

    if args.action == "query":
        records = run_query(index, spec)
        if args.json:
            print(json_module.dumps(
                [record.to_jsonable() for record in records], indent=2
            ))
            return 0
        if not records:
            print(f"no runs in {store.root} match the query")
            return 0
        rows = []
        for record in records:
            tps = record.fresh_trials_per_second
            rows.append(
                [
                    record.run_id,
                    record.command,
                    record.scheme or "-",
                    ",".join(str(n) for n in record.n_values) or "-",
                    record.status,
                    str(record.trials),
                    "-" if tps is None else f"{tps:.2f}",
                    (record.digest or "-")[:12],
                    record.family[:12],
                ]
            )
        print(render_table(
            ["run id", "command", "scheme", "n grid", "status", "trials",
             "fresh t/s", "digest", "family"],
            rows,
        ))
        print(f"{len(records)} of {len(index)} run(s) matched")
        return 0

    if args.action == "regress":
        report = detect_regressions(index, slowdown_threshold=args.slowdown)
        if args.json:
            print(json_module.dumps(report.to_jsonable(), indent=2))
        else:
            print(report.summary())
            for finding in report.regressions:
                print(f"  {finding.summary()}")
        return 0 if report.ok else 3

    report = build_report(
        index, spec, slowdown_threshold=args.slowdown,
        title=f"repro results: {store.root}",
    )
    out = args.out
    if out is None:
        suffix = "html" if args.format != "json" else "json"
        out = str(store.root / "serve" / f"report.{suffix}")
    path = write_report(report, out, fmt=args.format)
    print(report["summary"])
    print(f"wrote {path}")
    return 0


def _cmd_reproduce(args) -> int:
    """Regenerate Table I and the figure summaries into ``--out``.

    ``--quick`` uses small grids (a couple of minutes); the full benchmark
    suite (``pytest benchmarks/ --benchmark-only``) remains the reference.
    """
    from .experiments.figure1 import CLUSTERED_PARAMS, UNIFORM_PARAMS, make_panels
    from .experiments.figure2 import trace_scheme_b_sessions
    from .experiments.figure3 import compute_figure3
    from .experiments.table1 import TABLE1_ROWS, measure_row
    from .utils.tables import render_table

    workers = _workers(args)
    resilience = _resilience(args)
    # flags and --grid are validated before the store and --out exist
    if args.grid:
        grid = [int(v) for v in args.grid.split(",")]
    else:
        grid = [400, 1000, 2500] if args.quick else [6400, 14000, 30000]
    store = _store(args)
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    trials = 2 if args.quick or args.grid else 3

    sections = ["# Reproduction artifacts\n"]
    if args.quick or args.grid:
        sections.append(
            "> Quick mode: small n grids are smoke tests only -- the "
            "strong-regime slopes carry large finite-size bias below "
            "n ~ 5000 (see EXPERIMENTS.md); run the benchmark suite for "
            "the reference numbers.\n"
        )
    sections.append("## Table I (closed form)\n")
    sections.append(closed_form_table())

    sections.append("\n## Table I (measured slopes)\n")
    rows = []
    for row in TABLE1_ROWS:
        kwargs = {"mobility": "static"} if row.sweep_scheme == "C" else {}
        result = measure_row(
            row, grid, trials=trials, seed=7, build_kwargs=kwargs,
            workers=workers, store=store, resilience=resilience,
        )
        measured = "fail" if result.fit is None else f"{result.fit.exponent:+.3f}"
        rows.append([row.label, f"{result.theory_exponent:+.3f}", measured])
        cached = ""
        if store is not None and result.stats is not None and result.stats.cache_hits:
            cached = f" ({result.stats.cache_hits} trial(s) from cache)"
        print(f"  measured: {row.label}{cached}")
    sections.append(render_table(["row", "theory slope", "measured slope"], rows))

    sections.append("\n## Figure 1 (density summaries)\n")
    n_fig = 800 if args.quick else 2000
    left, right = make_panels(
        [
            (CLUSTERED_PARAMS, "non-uniformly dense"),
            (UNIFORM_PARAMS, "uniformly dense"),
        ],
        n_fig,
        seed=42,
        workers=workers,
        store=store,
        resilience=resilience,
    )
    sections.append(left.summary())
    sections.append(right.summary())

    sections.append("\n## Figure 2 (scheme B trace)\n")
    # one trial per traced session; [0] matches the historical
    # trace_scheme_b(n, default_rng(5)) output exactly
    trace = trace_scheme_b_sessions(
        400 if args.quick else 600, seed=5, workers=workers, store=store,
        resilience=resilience,
    )[0]
    sections.extend(trace.lines())

    sections.append("\n## Figure 3 (phase diagrams)\n")
    sections.extend(compute_figure3(grid_points=13).lines())

    report_path = out / "reproduction.md"
    report_path.write_text("\n".join(sections) + "\n")
    print(f"wrote {report_path}")
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Capacity scaling in hybrid mobile ad hoc networks "
        "(Huang, Wang & Zhang, ICDCS 2010)",
    )
    parser.add_argument(
        "--log-level", default="WARNING", metavar="LEVEL",
        help="logging threshold for the repro loggers on stderr "
        "(DEBUG/INFO/WARNING/ERROR; default WARNING)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit log records as JSON lines instead of text",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run_options = _run_options()
    store_options = _store_options()

    cmd = commands.add_parser("analyze", help="closed-form capacity of a family")
    _add_family_arguments(cmd)
    cmd.set_defaults(func=_cmd_analyze)

    cmd = commands.add_parser("table1", help="render Table I")
    cmd.set_defaults(func=_cmd_table1)

    cmd = commands.add_parser("phase", help="Figure-3 phase diagram panel")
    cmd.add_argument("--phi", default="0")
    cmd.add_argument("--grid", type=int, default=13)
    cmd.set_defaults(func=_cmd_phase)

    cmd = commands.add_parser("simulate", help="measure one finite-n network")
    _add_family_arguments(cmd)
    cmd.add_argument("--n", type=int, default=500)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.set_defaults(func=_cmd_simulate)

    cmd = commands.add_parser(
        "sweep", parents=[run_options],
        help="measure lambda(n) over an n grid and fit the slope",
    )
    _add_family_arguments(cmd)
    cmd.add_argument("--scheme", default="optimal",
                     choices=["optimal", "A", "B", "C", "static"])
    cmd.add_argument("--grid", default="200,400,800",
                     help="comma-separated n values")
    cmd.add_argument("--trials", type=int, default=3)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--batch-trials", type=int, default=None, metavar="N",
        help="schemes B and C: run same-n trials in batches of at most N, "
        "the unit the pool schedules and retries (results do not depend "
        "on N)",
    )
    cmd.set_defaults(func=_cmd_sweep)

    cmd = commands.add_parser(
        "reproduce", parents=[run_options],
        help="regenerate the paper's artifacts into --out",
    )
    cmd.add_argument("--out", default="results")
    cmd.add_argument(
        "--quick", action="store_true",
        help="small grids (~2 min) instead of the full sweep sizes",
    )
    cmd.add_argument(
        "--grid", default=None,
        help="comma-separated n values overriding the built-in grids",
    )
    cmd.set_defaults(func=_cmd_reproduce)

    cmd = commands.add_parser(
        "runs", parents=[store_options],
        help="list/inspect/garbage-collect a persistent store",
    )
    cmd.add_argument("action", choices=["list", "show", "gc"])
    cmd.add_argument("run_id", nargs="?", default=None,
                     help="manifest id (or unambiguous prefix) for 'show'")
    cmd.add_argument("--keep", type=int, default=None, metavar="N",
                     help="gc: keep only the newest N run manifests")
    cmd.add_argument(
        "--drop-orphans", action="store_true",
        help="gc: also drop journal entries referenced by no kept manifest "
        "(default keeps them -- they are what makes killed runs resumable)",
    )
    cmd.set_defaults(func=_cmd_runs)

    cmd = commands.add_parser(
        "serve", parents=[store_options],
        help="query stored runs, detect regressions, build reports",
    )
    cmd.add_argument("action", choices=["query", "regress", "report"])
    cmd.add_argument("--command", dest="command_filter", default=None,
                     metavar="NAME",
                     help="filter: experiment command (sweep, figure1, ...)")
    cmd.add_argument("--scheme", default=None,
                     help="filter: routing scheme recorded in the run config")
    cmd.add_argument("--status", default=None,
                     choices=["completed", "partial", "interrupted"],
                     help="filter: run completion status")
    cmd.add_argument("--alpha", default=None, metavar="FRACTION",
                     help="filter: network extension exponent "
                     "(fraction-compared: 1/4 == 0.25)")
    cmd.add_argument("--param", action="append", default=None,
                     metavar="NAME=FRACTION",
                     help="filter: any parameter exponent by name "
                     "(repeatable, e.g. --param bs_exponent=1/2)")
    cmd.add_argument("--min-n", type=int, default=None, metavar="N",
                     help="filter: at least one grid point >= N")
    cmd.add_argument("--max-n", type=int, default=None, metavar="N",
                     help="filter: at least one grid point <= N")
    cmd.add_argument("--digest", default=None, metavar="PREFIX",
                     help="filter: result digest prefix")
    cmd.add_argument("--family", default=None, metavar="PREFIX",
                     help="filter: cache-key family prefix")
    cmd.add_argument("--latest-schema", action="store_true",
                     help="filter: only runs on the newest schema version "
                     "present in the index")
    cmd.add_argument("--limit", type=int, default=None, metavar="N",
                     help="truncate the (newest-first) match list")
    cmd.add_argument("--json", action="store_true",
                     help="emit machine-readable JSON instead of a table")
    cmd.add_argument("--slowdown", type=float, default=0.5, metavar="FRACTION",
                     help="regress/report: flag a performance regression "
                     "when fresh trials/s falls below (1 - FRACTION) of the "
                     "prior-run median (default 0.5); cached trials are "
                     "always excluded")
    cmd.add_argument("--out", default=None, metavar="PATH",
                     help="report: output file (default "
                     "STORE/serve/report.html)")
    cmd.add_argument("--format", default=None, choices=["html", "json"],
                     help="report: output format (default: from the --out "
                     "suffix, html otherwise)")
    cmd.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    try:
        configure_logging(args.log_level, json=args.log_json)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    from .parallel import TrialFailed
    from .resilience import FaultSpecError, interruptible

    try:
        telemetry, trace_path = _telemetry(args)
        context = (
            using_telemetry(telemetry)
            if telemetry is not None
            else contextlib.nullcontext()
        )
        with context, interruptible():
            try:
                return args.func(args)
            finally:
                if telemetry is not None:
                    telemetry.close()
                if trace_path is not None:
                    _log.info("telemetry trace written to %s", trace_path)
                    print(f"trace: {trace_path}", file=sys.stderr)
    except InvalidParameters as error:
        print(f"invalid parameters: {error}", file=sys.stderr)
        return 2
    except FaultSpecError as error:
        print(f"invalid --inject-faults spec: {error}", file=sys.stderr)
        return 2
    except TrialFailed as error:
        print(
            f"trial failed for good: {error}\n"
            "(raise --retries, or accept partial results with "
            "--min-success FRACTION)",
            file=sys.stderr,
        )
        return 1
    except KeyboardInterrupt:
        # graceful drain (SIGINT, or SIGTERM via interruptible()): completed
        # trials are already journaled and an interrupted manifest recorded.
        print(
            "interrupted; completed trials remain journaled -- re-running "
            "the same command resumes from them",
            file=sys.stderr,
        )
        return 130
    except OSError as error:
        # e.g. --store pointing at a file or at no store, or an unwritable
        # directory
        print(f"store error: {error}", file=sys.stderr)
        return 2
    except ValueError as error:
        # e.g. --min-success out of range, or a malformed --grid list
        print(f"invalid arguments: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
