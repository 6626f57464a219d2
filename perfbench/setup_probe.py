"""Time one workload's set-up in a fresh process and print it as JSON.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <workdir>

Set-up is importing the library (through the benchmark's workload module)
and building the workload's inputs. Timing starts once the interpreter is
up, so it covers only what a user of the library pays. The time is
corrected for host speed like the runs are (see speed.py).
"""

import json
import sys
from pathlib import Path
from time import perf_counter

from speed import SpeedMeter

PROBE_INTERVAL_S = 0.02  # set-up takes well under 0.1 s

here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]
name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])

with SpeedMeter(PROBE_INTERVAL_S) as meter:
    start = perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup(seed, workdir)
    elapsed = perf_counter() - start
print(json.dumps({"setup_s": meter.corrected(elapsed), "setup_wall_s": elapsed}))
