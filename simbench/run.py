"""The simulator benchmark: three workloads, end-to-end and per-layer metrics.

Usage, from the repository root::

    python3 simbench/run.py --workload serve_steady --seed 1 --seconds 36 \
        --trace 0
    python3 simbench/run.py --workload all --seconds 36   # every workload

Each workload run is one fresh, single-threaded Python process
(``worker.py``); ``SETUP_PROBES`` more processes repeat only its set-up,
and ``setup_s`` is the median over all of them. Host times are scaled by
the speed of a fixed reference loop the worker samples before every pass
(see ``worker.end_to_end``); the unscaled figures are printed beside them.
The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from a separate, traced process) with ``--trace 1``. ``failed / attempted``
is the run's error rate: an op that raises or fails an output check counts
as failed. With ``--workload all`` one such line is printed per workload.

The simulator is imported from ``src/`` next to this directory; without it
the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spec import (
    DEFAULT_SEEDS,
    END_TO_END_UNITS,
    PER_LAYER_UNITS,
    SETUP_PROBES,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must end within this many seconds, workers included.
RUN_LIMIT_S = 170.0
#: Keep every worker on one thread, so a run measures one core's work.
SINGLE_THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                     "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    """A worker process died, hung or printed no result."""


def _worker(args: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; return its set-up seconds and its last stdout line."""
    env = {**os.environ, **SINGLE_THREAD_ENV}
    start = perf_counter()
    with subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = perf_counter() - start
            rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError(f"worker {' '.join(args)} timed out") from None
    if ready.strip() != "ready" or proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} failed "
                          f"(exit {proc.returncode})")
    lines = rest.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run of one workload: the result object, and
    informational figures (name -> (value, unit)) not gated by the run."""
    deadline = perf_counter() + RUN_LIMIT_S
    args = ["--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    if tiny:
        args.append("--tiny")
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(_worker([*args, "--setup-only"], deadline)[0])
    setup_s, line = _worker(args, deadline)
    setup.append(setup_s)
    try:
        report = json.loads(line)
    except json.JSONDecodeError:
        raise WorkerError(f"worker printed no result: {line[:200]!r}") from None
    for failure in report["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    values = report["metrics"]
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if not trace:
        scale, _ = report["info"]["host_scale"]
        values["setup_s"] = statistics.median(setup) * scale
        report["info"]["unscaled_setup_s"] = (statistics.median(setup), "s")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in units.items()},
    }
    return result, report["info"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Simulator benchmark: paper sweep and serving workloads.")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=36.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: a traced run reporting per-layer metrics")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        seed = DEFAULT_SEEDS[name][0] if args.seed is None else args.seed
        try:
            result, info = run_workload(name, seed, args.seconds,
                                        bool(args.trace), tiny=args.tiny)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results.append(result)
        print(f"# {name} seed={seed}")
        print(f"{name} error_rate = "
              f"{result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} ops failed)")
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        for metric, (value, unit) in info.items():
            print(f"{name} {metric} = {value:.6g} {unit} (not gated)")
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
