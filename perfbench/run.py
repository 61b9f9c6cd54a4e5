"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload graphaug-pipeline --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload

The program is imported from ``src/`` of the checkout and nowhere else;
without it the run fails before printing a result.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines
before it stamp the host and report sample counts and check failures.
The exit code is 1 when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("graphaug-pipeline", "zoo-sweep", "serve-read",
                  "serve-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


#: what every workload imports before it can start
IMPORTS = "import numpy, repro, repro.api, repro.models, repro.serve"
IMPORT_REPEATS = 3


def import_program() -> float:
    """Import the program from this checkout's ``src/``.

    Returns the median seconds the imports take in a fresh interpreter,
    over ``IMPORT_REPEATS`` child processes.
    """
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no program at {SRC}/repro; run from "
                         "the root of a full checkout")
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            f"t = time.perf_counter(); {IMPORTS}; "
            "print(time.perf_counter() - t)")
    seconds = sorted(
        float(subprocess.run([sys.executable, "-c", code, SRC], cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=120).stdout)
        for _ in range(IMPORT_REPEATS))
    sys.path.insert(0, SRC)
    import numpy                                             # noqa: F401
    import repro
    import repro.api                                         # noqa: F401
    import repro.models                                      # noqa: F401
    import repro.serve                                       # noqa: F401
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")
    return seconds[len(seconds) // 2]


def finite(value: float):
    return value if math.isfinite(value) else None


def run_one(args) -> int:
    import_s = import_program()
    from hoststamp import host_stamp
    from workloads import (END_TO_END_UNITS, WORKLOADS, Context,
                           per_layer_units)

    print("host: " + json.dumps(host_stamp(), sort_keys=True), flush=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=_workroot())
    try:
        ctx = Context(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), workdir=workdir,
                      import_s=import_s)
        outcome = WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(_workroot())
    units = per_layer_units() if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(outcome.metrics))
    outcome.check("every metric measured", not missing, ", ".join(missing))
    for note in outcome.notes:
        print(f"{args.workload}: {note}")
    for failure in outcome.failures:
        print(f"{args.workload}: FAILED {failure}")
    metrics = {}
    for name, unit in units.items():
        value = finite(float(outcome.metrics.get(name, math.nan)))
        if value is None:
            outcome.check(f"{name} is a number", False)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload}: {name} = {value} {unit}")
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if outcome.correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined line at the end."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {proc.returncode} without a result")
            return proc.returncode or 2
        result = json.loads(lines[-1])
        status = max(status, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return status


def _workroot() -> str:
    """Scratch space inside the checkout (listed in .gitignore)."""
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def _remove_if_empty(path: str) -> None:
    try:
        os.rmdir(path)
    except OSError:
        pass


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
