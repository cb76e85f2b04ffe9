"""The benchmark's contract with the package, run end to end.

`benchmark/run.py` drives the CLI in-process and reads some package
functions directly: the two return values of `flow.sample_ode`, the second
return value of `ode.integrate` as one number, and the CLI's flags. A short
traced run of each workload shows that contract still holds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["sample", "train", "reflow", "eval"])
def test_short_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, proc.stderr
    assert last["failed"] == 0, proc.stderr
