"""The benchmark's traced pass still replays ``execute`` through the public
calls it uses (``map_fn``, ``build_signals``, ``run_shuffle``,
``decode_node``), and its gates and fault self-test hold on coded_shuffle
and on verify_matrix, whose replay covers all 56 schemes of ``d3c verify
--K 7``. The replay maps each node's values from the scheme's
``compute_own`` and ``compute_coded`` views, which ``execute`` never reads;
that is why ``BasicScheme`` keeps them while the replay exists.

On plan_grid the gates tie every plan of its 9,520 targets (N, route,
groups, predicted load) to the digest pinned in ``perfbench/pins.json``,
so a planner change that moves any of them fails here, before the
benchmark runs."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _assert_trace_passes_every_gate(workload):
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0.1", "--trace", "1"]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["metrics"]["selftest.failed_frac"]["value"] == 1.0


def test_coded_shuffle_trace_passes_every_gate():
    _assert_trace_passes_every_gate("coded_shuffle")


def test_verify_matrix_trace_passes_every_gate():
    _assert_trace_passes_every_gate("verify_matrix")


def test_plan_grid_trace_passes_every_gate():
    _assert_trace_passes_every_gate("plan_grid")
