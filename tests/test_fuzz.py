"""The fuzz scripts and the memory and layer probes, run briefly so that
they keep working as the code they exercise changes.  Each runs in its
own interpreter: fuzz_integrate.py rebinds functions of lics.dynamics for
the rest of its process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def _run_script(script: str, *args: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(TESTS / script), *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("script,n", [("fuzz_formatters.py", 20000), ("fuzz_integrate.py", 10)])
def test_fuzz_script_finds_no_mismatch(script, n):
    done = _run_script(script, "-n", str(n))
    assert done.returncode == 0, done.stdout + done.stderr
    assert " 0 mismatches" in done.stdout


def test_memory_probe_runs():
    done = _run_script("probe_memory.py", "-n", "2001")
    assert done.returncode == 0, done.stdout + done.stderr


def test_layer_probe_runs(tmp_path):
    """One pair of processes on small shapes, this tree against itself."""
    done = _run_script("probe_layers.py", "--small", "--pairs", "1", "--repeat", "1", "--base", str(SRC.parent),
                       "--dir", str(tmp_path))
    assert done.returncode == 0, done.stdout + done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    expected = {"_text.g17_rows", "_text.f2_points", "cli.write_csv[trajectory,fresh]", "cli.render_svg[profile,over]",
                "dynamics.integrate"}
    assert expected <= {line["layer"] for line in lines}
    assert all(line["pairs"] == 1 and line["ratio"] > 0 for line in lines)
    assert list(tmp_path.iterdir()) == []
