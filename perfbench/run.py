"""The repository's benchmark: four workloads through the public entry points.

Usage (from the repository root)::

    python3 perfbench/run.py --workload strong --seed 1 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics (``run_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` sets up a second time with every layer
probe installed (``layers.py``), times the units in blocks that alternate
between untraced and traced, and prints the per-layer metrics plus
``trace.overhead_frac`` (traced over untraced ``run_s``, minus one); it writes the spans to
``perfbench/out/trace-<workload>-<seed>.json`` and the layer-share report to
standard error.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

A run:

1. builds the inputs, runs one untimed warm-up unit, then ``gc.collect()``;
2. times a fixed number of units, ``round(--seconds / unit_seconds)``, and
   reports total wall / units as ``run_s`` (a long fixed amount of work,
   not a best-of-N: the reference host has speed phases longer than one
   unit);
3. times ``SETUP_REPEATS`` set-ups, each in a fresh interpreter (import
   ``repro`` + build the inputs; for ``store`` also the cold sweeps), one
   before the warm-up and the rest spread between the timed units, and
   reports their median as ``setup_s``;
4. checks every unit's digests against the warm-up unit's and, for the
   default seed, against the pinned values.

BLAS/OpenMP pools are pinned to one thread in this process and its children.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: A child set-up that takes longer than this is a failure.
SETUP_TIMEOUT_S = 60
#: Blocks of units a traced run alternates between untraced and traced.
TRACE_BLOCKS = 5


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource-tracker process, if the program
    started one (shared-memory arrays do), and wait for it to end.  Left
    alone it would outlive this process until it noticed the exit."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def _parse(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_setup(workload: str, seed: int, workdir: pathlib.Path) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            str(HERE / "setup_child.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--workdir", str(workdir),
        ],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        cwd=ROOT,
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{completed.stderr}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


class Tally:
    """Wall times, digests and trial counts of the timed units of a run."""

    def __init__(self):
        self.walls, self.digests, self.problems = [], [], []
        self.attempted = self.failed = 0

    @property
    def run_s(self) -> float:
        return sum(self.walls) / len(self.walls)

    def run(self, workload, inputs, workdir, units: int, tracer=None) -> None:
        try:
            for _ in range(units):
                prepared = workload.prepare(inputs, workdir)
                if tracer is None:
                    start = time.perf_counter()
                    unit = workload.unit(inputs, prepared)
                    self.walls.append(time.perf_counter() - start)
                else:
                    index = tracer.begin("unit")
                    unit = workload.unit(inputs, prepared)
                    tracer.end(index)
                    self.walls.append(tracer.spans[index].duration)
                self.digests.append(unit.digests)
                self.attempted += unit.attempted
                self.failed += unit.failed
                self.problems.extend(unit.problems)
                # Keep what earlier units left alive (results, and in a
                # traced run the spans) out of later collections, so the
                # collector's cost does not grow over the run.  Done in
                # untraced and traced runs alike, so that
                # trace.overhead_frac compares like with like.
                gc.freeze()
        finally:
            gc.unfreeze()

    def describe(self, name: str) -> str:
        walls = self.walls
        return (
            f"perfbench: {name}: {len(walls)} unit(s), wall min/median/max "
            f"{min(walls):.4f}/{statistics.median(walls):.4f}/{max(walls):.4f} s"
        )


def _segments(units: int, parts: int):
    """``units`` split into ``parts`` near-equal consecutive counts."""
    return [units * (k + 1) // parts - units * k // parts for k in range(parts)]


def measure(args, workdir: pathlib.Path):
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    units = max(2, round(args.seconds / workload.unit_seconds))
    setups = []
    if args.trace == 0:
        setups.append(_child_setup(args.workload, args.seed, workdir / "setup0"))
    inputs = workload.setup(args.seed, workdir / "inputs")
    warm = workload.unit(inputs, workload.prepare(inputs, workdir))
    gc.collect()
    tally = Tally()
    if args.trace == 0:
        # the remaining set-ups are spread between the timed units, so that
        # both medians sample the whole run rather than one speed phase
        for k, count in enumerate(_segments(units, SETUP_REPEATS)):
            if k:
                setups.append(
                    _child_setup(args.workload, args.seed, workdir / f"setup{k}")
                )
            tally.run(workload, inputs, workdir, count)
    else:
        import layers

        traced = layers.traced_run(
            args, workload, inputs, workdir, _segments(units, TRACE_BLOCKS), tally
        )
    print(tally.describe(args.workload), file=sys.stderr)
    problems = warm.problems + tally.problems
    digests = list(tally.digests)
    if args.trace == 0:
        metrics = {
            "run_s": tally.run_s,
            "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        problems.extend(traced["problems"])
        digests.extend(traced["digests"])
        metrics = traced["metrics"]
        metrics["trace.overhead_frac"] = traced["run_s"] / tally.run_s - 1.0
        layers.write_report(args, traced, metrics, tally.run_s, units)
    problems.extend(
        workloads.check_digests(args.workload, args.seed, warm.digests, digests)
    )
    return metrics, problems, tally.attempted, tally.failed


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {ROOT / 'src' / 'repro'}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    # a terminated run still removes its scratch stores (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    OUT.mkdir(exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics, problems, attempted, failed = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    reported = layers.benchmark()["end_to_end" if args.trace == 0 else "per_layer"]
    units = {entry["name"]: entry["unit"] for entry in reported}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
