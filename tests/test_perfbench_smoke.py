"""One traced round of each benchmark workload, checked against their oracles.

The tracer wraps library functions by name, so renaming one that it wraps
breaks the benchmark; this catches that before a benchmark run does.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["code-pipeline", "bounds-s2", "bounds-s3"])
def test_traced_round_is_correct(workload):
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "1", "--seconds", "0", "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"], done.stderr
    assert result["failed"] == 0, done.stderr
