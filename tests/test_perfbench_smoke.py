"""Smoke run of the benchmark: one traced op of every workload, checked.

perfbench drives medal through its public API and wraps its layer
functions by name, so an API change that breaks the benchmark fails here.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("ngram_finish", "trap_search", "theory_exact", "remote_ngram")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_runs_correct_under_the_tracer(workload):
    # --trace 1 also checks that traced calls equal counted calls, that the
    # wrappers are restored, and that traced output equals an untraced replay
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
