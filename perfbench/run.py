"""omega-index benchmark: one closed-loop client running CLI workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload dense-index --seed 0 --seconds 30 --trace 0

``--trace 0`` measures what a user waits for. One client runs the workload's
``python -m omega_index.cli ...`` invocation again and again in fresh
processes, each after the previous one exits, until ``--seconds`` is used up.
Every report is checked (see ``workloads.py``). Wall time runs from spawn to
exit; CPU time and peak RSS come from that child's own ``wait4`` rusage, not
from ``RUSAGE_CHILDREN``, whose peak is a running maximum over every earlier
child. ``setup_s`` is the median start-up of fresh processes that only import
the CLI and build its parser.

``--trace 1`` runs the invocation in this process instead, once untraced and
once under the outside-in tracer (``tracer.py``), and reports per-layer
metrics. The traced report must be byte-identical to the untraced one.

The CLI runs at its default thread settings; the thread variables found in
the environment are printed with the results. The last line of stdout is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from tracer import METRIC_UNITS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 15
SETUP_CODE = "import omega_index.cli as cli; cli.build_parser()"
#: a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 120.0


@dataclass
class Sample:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    returncode: int
    stdout: str
    stderr: str


def spawn(args: list[str]) -> Sample:
    """Run ``python <args>`` with ``src`` on the path and wait for it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, *args], cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        err: list[str] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        try:
            out = proc.stdout.read()
            reader.join()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mib=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        returncode=proc.returncode,
        stdout=out,
        stderr=err[0] if err else "",
    )


def closed_loop(step, seconds: float) -> list:
    """Call ``step()`` until the next call would likely overrun ``seconds``.

    At least one call is made. The last call's duration predicts the next.
    """
    results = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step())
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return results


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {
        k: v for k, v in sorted(os.environ.items())
        if k.endswith("_NUM_THREADS") or k == "OMEGA_INDEX_THREADS"
    }
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": threads,
    }


def _line(name: str, value: float, unit: str, how: str) -> str:
    return f"{name:<32} {value:>12.6g} {unit:<8} {how}"


def measure(inv: workloads.Invocation, seconds: float) -> dict:
    """The untraced run: end-to-end metrics over fresh processes."""
    setup = [spawn(["-c", SETUP_CODE]) for _ in range(SETUP_RUNS)]
    samples = closed_loop(
        lambda: spawn(["-m", "omega_index.cli", *inv.argv]), seconds
    )
    return summarize(inv, samples, setup)


def summarize(inv: workloads.Invocation, samples: list[Sample], setup: list[Sample]) -> dict:
    """Check every invocation's report and print and return the result."""
    failed = 0
    for i, s in enumerate(samples):
        problems = workloads.check(inv, s.returncode, s.stdout)
        if problems:
            failed += 1
            print(f"invocation {i} FAILED: " + "; ".join(problems[:5]))
            if s.stderr:
                print(s.stderr.rstrip()[-2000:])
    setup_failed = [s for s in setup if s.returncode != 0]
    for s in setup_failed:
        print(f"setup process FAILED with exit code {s.returncode}: {s.stderr[-2000:]}")

    n = len(samples)
    walls = [s.wall_s for s in samples]
    metrics = {
        "certify_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in samples), "s"),
        "peak_rss_mb": (max(s.peak_rss_mib for s in samples), "MiB"),
        "setup_s": (statistics.median(s.wall_s for s in setup), "s"),
    }
    print(_line("certify_s", metrics["certify_s"][0], "s",
                f"median of {n} (min {min(walls):.4g}, max {max(walls):.4g})"))
    print(_line("cpu_s", metrics["cpu_s"][0], "s", f"median user+sys of {n}"))
    print(_line("peak_rss_mb", metrics["peak_rss_mb"][0], "MiB", f"max of {n}"))
    print(_line("setup_s", metrics["setup_s"][0], "s", f"median of {SETUP_RUNS}"))
    print(_line("error_rate", failed / n, "ratio", f"{failed} of {n} failed"))
    return {
        "correct": failed == 0 and not setup_failed,
        "attempted": n,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_in_process(argv) -> tuple[int, str, float]:
    """``cli.main(argv)`` in this process: exit code, stdout, wall seconds."""
    from omega_index import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        start = time.perf_counter()
        code = cli.main(list(argv))
        wall = time.perf_counter() - start
    return code, buf.getvalue(), wall


def traced_pair(inv: workloads.Invocation) -> tuple[list[str], dict[str, float]]:
    """One untraced and one traced in-process run: problems and layer metrics."""
    code, plain, plain_wall = run_in_process(inv.argv)
    with Tracer() as tracer:
        traced_code, traced, traced_wall = run_in_process(inv.argv)
    problems = workloads.check(inv, code, plain)
    problems += [f"traced: {p}" for p in workloads.check(inv, traced_code, traced)]
    if traced != plain:
        problems.append("traced report is not byte-identical to the untraced one")
    metrics = layer_metrics(tracer.spans)
    metrics["trace_overhead"] = traced_wall / plain_wall
    return problems, metrics


def measure_traced(inv: workloads.Invocation, seconds: float) -> dict:
    """The traced run: per-layer metrics, each the median over traced pairs."""
    sys.path.insert(0, str(SRC))
    pairs = closed_loop(lambda: traced_pair(inv), seconds)
    failed = 0
    for i, (problems, _) in enumerate(pairs):
        if problems:
            failed += 1
            print(f"traced pair {i} FAILED: " + "; ".join(problems[:5]))
    metrics = {}
    for name, unit in METRIC_UNITS.items():
        value = statistics.median(m[name] for _, m in pairs)
        metrics[name] = {"value": value, "unit": unit}
        print(_line(name, value, unit, f"median of {len(pairs)} traced runs"))
    return {
        "correct": failed == 0,
        "attempted": len(pairs),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="shrink every input (for self-tests)"
    )
    args = parser.parse_args(argv)
    if not (SRC / "omega_index" / "cli.py").is_file():
        sys.stderr.write(f"error: no omega_index sources under {SRC}\n")
        return 2

    inv = workloads.make(args.workload, args.seed, tiny=args.tiny)
    print(f"workload {inv.workload} seed {args.seed}: "
          f"python -m omega_index.cli {' '.join(inv.argv)}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        result = measure_traced(inv, args.seconds)
    else:
        result = measure(inv, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
