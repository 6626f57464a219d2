"""Benchmark of the d3c library: one workload per invocation.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the same checkout; nothing needs to
be built. With ``--trace 0`` the end-to-end metrics are measured: set-up in
fresh processes, then timed runs for ``--seconds``, corrected for host
speed (see ``speed.py``). With ``--trace 1`` the per-layer metrics come
from a traced replay instead (see ``layers.py``). Every run is gated (see
``workloads.py``).

The last line of standard output is the result object; the line before it
holds the context (commit, Python version, nproc, ``src_lines``) and the raw
samples. The exit code is 0 only when every run passed its gate.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = HERE / ".work"
SETUP_PROBES = 7  # fresh processes per run; setup_s is their median
PROBE_INTERVAL_S = 0.05  # host-speed probes during timed runs; see speed.py


def load_workloads():
    """Import the workload module against this checkout's library source."""
    if not (SRC / "d3c" / "__init__.py").is_file():
        sys.exit(f"perfbench: library source not found at {SRC / 'd3c'}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import d3c
    import workloads

    if not Path(d3c.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported d3c from {d3c.__file__}, not from {SRC}")
    return workloads


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(names))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


class Tally:
    """Attempted and failed runs, with the problems the gates found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(problems)
        self.problems += problems


def guarded(fn, *args):
    """Call ``fn``; an exception makes the run fail and is reported."""
    try:
        return fn(*args), []
    except Exception as err:
        traceback.print_exc()
        return None, [f"raised {type(err).__name__}: {err}"]


def measure_setup(name: str, seed: int) -> tuple[list[float], list[float]]:
    """Corrected and wall set-up times from fresh processes; the first
    process only warms the bytecode cache and is not counted. Bytecode
    caching is on whatever the environment says, as it is for most users."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(WORKDIR)]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    corrected, wall = [], []
    for i in range(SETUP_PROBES + 1):
        out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if out.returncode:
            raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
        if i:
            sample = json.loads(out.stdout.splitlines()[-1])
            corrected.append(sample["setup_s"])
            wall.append(sample["setup_wall_s"])
    return corrected, wall


def run_timed(wl, inp, seconds: float, tally: Tally) -> tuple[list[float], list[float]]:
    """Gated runs until ``seconds`` have passed (at least one). Returns the
    corrected and the wall times of the runs that passed."""
    corrected, wall = [], []
    start = perf_counter()
    while True:
        gc.collect()
        with SpeedMeter(PROBE_INTERVAL_S) as meter:
            t0 = perf_counter()
            result, problems = guarded(wl.run, inp)
            elapsed = perf_counter() - t0
        if not problems:
            problems = wl.check(inp, result)
        del result
        tally.record(problems)
        if not problems:
            corrected.append(meter.corrected(elapsed))
            wall.append(elapsed)
        if perf_counter() - start >= seconds:
            return corrected, wall


def tail(times: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    n = len(times)
    if n < 11:
        return None
    return {"percentile": 100 * (n - 10) / n, "value_s": sorted(times)[n - 11], "samples": n}


def context(name: str, seed: int, seconds: float) -> dict:
    files = sorted((SRC / "d3c").glob("*.py"))
    digest = hashlib.sha256()
    src_lines = 0
    for f in files:
        text = f.read_text()
        digest.update(text.encode())
        src_lines += sum(1 for line in text.splitlines() if line.strip())
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    why = None
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        why = next(
            (w["why"] for w in json.loads(spec.read_text())["workloads"] if w["name"] == name), None
        )
    return {
        "workload": name,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": src_lines,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    wls = load_workloads()
    args = parse_args(wls.WORKLOADS, argv)
    wl = wls.WORKLOADS[args.workload]
    inp = wl.setup(args.seed, WORKDIR)
    detail = {"context": context(args.workload, args.seed, args.seconds)}
    tally = Tally()

    if args.trace:
        import layers

        metrics, tally.attempted, tally.failed, tally.problems, detail["trace"] = layers.run_traced(
            wl, inp, args.seconds
        )
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        setup, setup_wall = measure_setup(args.workload, args.seed)
        times, wall = run_timed(wl, inp, args.seconds, tally)
        detail["samples"] = {
            "run_s": times,
            "run_wall_s": wall,
            "setup_s": setup,
            "setup_wall_s": setup_wall,
        }
        detail["run_s_tail"] = tail(times)
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
            "verified_frac": {
                "value": (tally.attempted - tally.failed) / tally.attempted,
                "unit": "ratio",
            },
        }
        if times:
            metrics["run_s"] = {"value": statistics.median(times), "unit": "s"}
            metrics["work_per_s"] = {
                "value": statistics.median(wl.items / t for t in times),
                "unit": "items/s",
            }

    correct = not tally.problems
    if tally.problems:
        print("perfbench: gate failures:", *tally.problems[:20], sep="\n  ", file=sys.stderr)
    print(json.dumps(detail))
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
