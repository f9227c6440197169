"""Benchmark of the hcbmeasure pipeline: one named workload per invocation.

    python3 bench/run.py --workload protocol --seed 1 --seconds 10 --trace 0

Run from the repository root.  The command starts fresh worker processes
with BLAS/OpenMP pinned to one thread and ``-B``, so no bytecode is written
and, in a clean checkout, the package is compiled from source in every
process.  With ``--trace 0`` it prints the end-to-end metrics:

* ``wall_s``: the fastest time of a whole round: for each operation of the
  round, its fastest time over the run's rounds, summed.  Rounds repeat
  until ``--seconds`` have passed and at least the workload's ``ROUNDS``
  have run; a round always runs whole;
* ``setup_s``: median over ``SETUP_SAMPLES`` fresh processes of the time
  from process start to the moment the first operation can begin;
* ``peak_rss_mb``: peak resident set of the measuring process, read before
  the correctness checks run.

With ``--trace 1`` one process installs spans around the package's public
functions (see ``tracing.py``) for set-up, runs one untraced round and
then one traced round, and prints the per-layer metrics plus
``trace.overhead_s``.  The last stdout line is always the JSON result;
results and spans are also written under ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (standard library only)
RESULTS = HERE / "results"
WORKLOADS = ("protocol", "variational")
SETUP_SAMPLES = 2
TIME_LIMIT_S = 170.0


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# worker process


def _run_round(workload) -> tuple[list[float], dict, int]:
    """One round: every step in order; a failing step fails the rest.

    Returns the times of the steps that completed, their outputs and the
    number of steps lost.
    """
    out: dict = {}
    times: list[float] = []
    steps = workload.STEPS
    for k, name in enumerate(steps):
        start = time.perf_counter()
        try:
            workload.step(name, out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return times, out, len(steps) - k
        times.append(time.perf_counter() - start)
    return times, out, 0


def fastest_round(step_times: list[list[float]]) -> float:
    """Sum over a round's steps of each step's fastest completed time.

    Other tenants of a shared host slow the same code by up to 1.5 times
    for tens of seconds at a time; the fastest of several repetitions of the
    same call is the estimate such slowdowns move least.
    """
    width = max(len(t) for t in step_times)
    return sum(min(t[k] for t in step_times if len(t) > k) for k in range(width))


def _child(args: argparse.Namespace) -> dict:
    import workloads  # imports hcbmeasure: import time belongs to set-up

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    setup_s = time.perf_counter() - args.t0
    if args.child == "setup":
        return {"setup_s": setup_s}
    if tracer:
        tracer.uninstall()
        setup_end = len(tracer.spans)

    # A traced run only needs the layers of one round and its overhead.
    min_rounds, seconds = (1, 0.0) if tracer else (workload.ROUNDS, args.seconds)
    attempted = failed = 0
    rounds: list[dict] = []
    times: list[list[float]] = []
    begin = time.perf_counter()
    while len(times) < min_rounds or time.perf_counter() - begin < seconds:
        elapsed, out, lost = _run_round(workload)
        times.append(elapsed)
        attempted += len(workload.STEPS)
        failed += lost
        if not lost:
            rounds.append(out)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_times: list[list[float]] = []
    if tracer:
        tracer.install()
        first = len(tracer.spans)
        for _ in times:
            elapsed, out, lost = _run_round(workload)
            traced_times.append(elapsed)
            attempted += len(workload.STEPS)
            failed += lost
            if not lost:
                rounds.append(out)
        tracer.uninstall()

    checker = workloads.Checker()
    if rounds:
        workload.check(rounds, checker)
    for message in checker.failures:
        print(f"check failed: {message}", file=sys.stderr)
    result = {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "setup_s": setup_s,
        "step_s": times,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        metrics = tracer.metrics([(0, setup_end, 1.0),
                                  (first, len(tracer.spans), 1.0 / len(traced_times))])
        metrics["trace.overhead_s"] = fastest_round(traced_times) - fastest_round(times)
        result["layers"] = metrics
        result["traced_step_s"] = traced_times
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    return result


# ---------------------------------------------------------------------------
# launcher


def _spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
        "PYTHONHASHSEED": "0",
        "PYTHONDONTWRITEBYTECODE": "1",
        "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])),
    })
    command = [
        sys.executable, "-B", str(HERE / "run.py"), "--child", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
    ]
    t0 = time.perf_counter()
    done = subprocess.run(
        command + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"{role} process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if args.child:
        print(json.dumps(_child(args)))
        return 0
    if not (SRC / "hcbmeasure" / "__init__.py").is_file():
        print(f"bench: package source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + TIME_LIMIT_S
    try:
        if args.trace:
            run = _spawn(args, "run", deadline)
            metrics = {name: _metric(value, tracing.unit(name))
                       for name, value in run["layers"].items()}
        else:
            setups = [_spawn(args, "setup", deadline)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
            run = _spawn(args, "run", deadline)
            setups.append(run["setup_s"])
            run["setup_samples_s"] = setups
            metrics = {
                "wall_s": _metric(fastest_round(run["step_s"]), "s"),
                "setup_s": _metric(statistics.median(setups), "s"),
                "peak_rss_mb": _metric(run["peak_rss_mb"], "MiB"),
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    result = {"correct": run["correct"], "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    RESULTS.mkdir(exist_ok=True)
    detail = {**result, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "run": {k: v for k, v in run.items() if k != "layers"}}
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
