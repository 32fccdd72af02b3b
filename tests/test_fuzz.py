"""The fuzz scripts and the memory probe, run briefly so that they keep
working as the code they exercise changes.  Each runs in its own
interpreter: fuzz_integrate.py rebinds functions of lics.dynamics for the
rest of its process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run_script(script: str, n: int) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(TESTS / script), "-n", str(n)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script,n", [("fuzz_formatters.py", 20000), ("fuzz_integrate.py", 10)])
def test_fuzz_script_finds_no_mismatch(script, n):
    done = _run_script(script, n)
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 mismatches" in done.stdout


def test_memory_probe_runs():
    done = _run_script("probe_memory.py", 2001)
    assert done.returncode == 0, done.stdout + done.stderr
