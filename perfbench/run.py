"""Run one colliderbias benchmark workload and print its metrics.

    python3 perfbench/run.py --workload query-mix --seed 1 --seconds 10 --trace 0

Run it from anywhere inside a source checkout; it uses the package under
``src/`` next to this directory.  It measures set-up time in fresh
interpreters, runs the workload in a worker process (``worker.py``), prints
every metric with its unit and the run's provenance, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

Exit status: 0 when every check passed, 1 when a correctness check failed
(the JSON line is still printed), 2 when the benchmark could not run (no
result line).  Only the standard library is used here; the worker imports
the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracing import metric_unit

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench-out"

WORKLOADS = ("verify-battery", "query-mix", "grid-sweep", "sample-stream")

# The harness's children run on one BLAS/OpenMP thread each.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "call_p50_us": "us",
}

# What the printed metrics are called on each workload.
ALIASES = {
    "verify-battery": {"ops_per_s": "verify_draws_per_s"},
    "query-mix": {"ops_per_s": "queries_per_s", "call_p50_us": "query_p50_us",
                  "call_p99_us": "query_p99_us"},
    "grid-sweep": {"ops_per_s": "grid_cells_per_s"},
    "sample-stream": {"ops_per_s": "sample_draws_per_s"},
}

SETUP_PROBES = 15
# Prints "ready" once set up, then the host speed factor (see worker.py),
# measured a second time so that first-call costs do not count.
PROBE = (
    "import colliderbias.cli as cli; cli.build_parser(); print('ready', flush=True)\n"
    f"import sys; sys.path.insert(0, {str(BENCH)!r}); import worker\n"
    "worker.host_speed(); print(worker.host_speed())"
)
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(env: dict[str, str]) -> list[float]:
    """Fresh interpreter to imported ``colliderbias.cli`` with its parser
    built, scaled by the host speed measured next, once untimed (it may
    write bytecode caches) and then SETUP_PROBES times."""
    times = []
    for probe in range(SETUP_PROBES + 1):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", PROBE], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            out, err = proc.communicate()
        finally:
            watchdog.cancel()
        if proc.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
        if probe:
            times.append(elapsed * float(out))
    return times


def run_worker(args: argparse.Namespace, env: dict[str, str]) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or "unknown (not a git checkout)"
    ref = head[len("ref: "):]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def llc_size() -> str:
    best = (0, "unknown")
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level")
        if level.isdigit() and int(level) >= best[0]:
            best = (int(level), f"L{level} {_read(index / 'size')}")
    return best[1]


def provenance(args: argparse.Namespace, details: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": details.get("python", platform.python_version()),
        "numpy": details.get("numpy", "unknown"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "llc": llc_size(),
        "commit": git_commit(),
        "threads": THREAD_ENV,
        "load": "closed loop, one client, one thread",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "colliderbias" / "__init__.py").is_file():
        print(f"error: no colliderbias sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = child_env()
    try:
        setup = [] if args.trace else setup_seconds(env)
        worker = run_worker(args, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    details = worker["details"]
    if args.trace:
        metrics = worker["metrics"]
        from_trace = True
    else:
        metrics = {"setup_s": statistics.median(setup), **worker["metrics"]}
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
        from_trace = False
    record = {
        "provenance": provenance(args, details),
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "error_rate": worker["failed"] / worker["attempted"],
        "metrics": metrics,
        "details": details,
        "setup_samples": setup,
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )

    for key, value in record["provenance"].items():
        print(f"# {key}: {value}")
    print(f"# unit of work: {details['unit']}; request: {details['call']}")
    if from_trace:
        units = {name: metric_unit(name) for name in metrics}
        print(f"# traced rounds: {details['rounds']}, spans: {details['spans']} "
              f"(written to {details['spans_file']})")
        for name, value in metrics.items():
            print(f"{name:<56} {value:>16.6g} {units[name]}")
    else:
        units = END_TO_END_UNITS
        rows = [
            ("setup_s", metrics["setup_s"], "s", f"median of {len(setup)} fresh interpreters"),
            ("peak_rss_mb", metrics["peak_rss_mb"], "MB", "worker process ru_maxrss"),
            ("ops_per_s", metrics["ops_per_s"], "1/s", f"median of {details['rounds']} rounds"),
            ("call_p50_us", metrics["call_p50_us"], "us", f"median of {details['requests']} requests"),
        ]
        if details["requests_beyond_p99"] >= 10:
            rows.append(("call_p99_us", details["call_p99_us"], "us",
                         f"not gated; {details['requests_beyond_p99']} requests beyond it"))
        rows += [
            ("raw_ops_per_s", details["raw_ops_per_s"], "1/s", "not gated; unscaled median"),
            ("host_speed", details["host_speed"], "ratio", "median host speed factor"),
        ]
        for name, value, unit, note in rows:
            alias = ALIASES[args.workload].get(name)
            print(f"{name:<16} {value:>16.6g} {unit:<5} {note}{f' ({alias})' if alias else ''}")
    print(f"{'error_rate':<16} {record['error_rate']:>16.6g} ratio "
          f"{worker['failed']} of {worker['attempted']} units of work failed")
    for problem in details["problems"]:
        print(f"# check failed: {problem}")

    correct = worker["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
