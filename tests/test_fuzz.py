"""The fuzz scripts, run briefly so that they keep working as the code
they fuzz changes.  Each runs in its own interpreter: fuzz_integrate.py
rebinds functions of lics.dynamics for the rest of its process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.mark.parametrize("script,n", [("fuzz_formatters.py", 20000), ("fuzz_integrate.py", 10)])
def test_fuzz_script_finds_no_mismatch(script, n):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(TESTS / script), "-n", str(n)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 mismatches" in done.stdout
