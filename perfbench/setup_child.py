"""One set-up in a fresh interpreter: import the program, build the inputs.

Run by ``run.py`` several times per run (the median is ``setup_s``)::

    python3 perfbench/setup_child.py --workload store --seed 1 --workdir DIR

Prints one JSON line with ``import_s`` and ``inputs_s``.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    args = parser.parse_args()
    import workloads  # imports repro: the import a user pays

    imported = time.perf_counter()
    workloads.WORKLOADS[args.workload].setup(args.seed, args.workdir)
    done = time.perf_counter()
    print(json.dumps({"import_s": imported - START, "inputs_s": done - imported}))


if __name__ == "__main__":
    main()
