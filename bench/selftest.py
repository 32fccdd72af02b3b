"""Self-test of the benchmark harness; takes under a minute.

Run from the root of a source checkout:

    python3 bench/selftest.py

It runs every workload at a tiny size, untraced and then traced, and
requires zero failed operations, every metric that BENCHMARK.json names,
and no wrappers left behind by the untraced runs.  Then it corrupts one
output of each workload and requires the checks to reject it.  The file
name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads

SEED = 7


def _metric_names() -> tuple[set[str], set[str]]:
    spec = json.loads((run.BENCH.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]}


def _corrupt(csv: Path, row: int, col: int, delta: float) -> None:
    """Add ``delta`` to one cell of a CSV file, keeping 17 significant digits."""
    lines = csv.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = f"{float(cells[col]) + delta:.17g}"
    lines[row] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")


# (workload, command index, CSV row, column, change): a small error the
# checks must catch in the middle of an output
CORRUPTIONS = [
    ("scan", 2, 30, 1, 1e-7),  # bright2 profile point, compared with four_state
    ("trajectory", 1, 200, 13, 1e-7),  # ionization cell of the four_state g1 trace
    ("splitting", 3, 20, 2, 1e-7),  # RK trace of the 0.2 splitting
]


def main() -> int:
    end_to_end, per_layer = _metric_names()
    problems = []
    for trace in (False, True):
        for name in workloads.WORKLOADS:
            result = run.run_workload(name, SEED, 0.0, trace, sizes=workloads.TINY, setup_repeats=1)
            expected = per_layer if trace else end_to_end
            if not result["correct"] or result["failed"] or set(result["metrics"]) != expected:
                problems.append(f"{name} trace={trace}: {result}")
            import lics.dynamics  # importable once run_workload has put src/ on the path

            if not trace and hasattr(lics.dynamics.evolve, "__wrapped__"):
                problems.append(f"{name}: untraced run left a wrapper installed")

    import checks

    # the workload itself: the exceptional-point scan must hold the point exactly
    ep = next(cmd for cmd in workloads.scan(SEED) if cmd.name == "four_state-exceptional")
    k = ep.keys
    grid = np.linspace(k["delta_min"], k["delta_max"], k["delta_steps"])
    if grid[k["delta_steps"] // 2] != workloads.EP_DELTA:
        problems.append("exceptional-point scan: window centre is not on the grid")
    if checks.bright_discriminant(checks.resolve({**ep.params, "delta": workloads.EP_DELTA})) > 1e-12:
        problems.append("exceptional-point scan: the bright pair does not coalesce at EP_DELTA")

    for name, index, row, col, delta in CORRUPTIONS:
        cmds = workloads.commands(name, SEED, workloads.TINY)
        with tempfile.TemporaryDirectory(dir=run.RESULTS) as tmp:
            files = run.write_configs(cmds, Path(tmp) / "out")
            res = run.timed_rounds(cmds, files, 0.0)
            outputs = [(csv, out) for (_, csv), out in zip(files, res.stdout)]
            clean = checks.check_workload(name, cmds, outputs, SEED)
            if any(clean):
                problems.append(f"{name}: clean outputs rejected: {clean}")
            _corrupt(files[index][1], row, col, delta)
            caught = checks.check_workload(name, cmds, outputs, SEED)[index]
            if not caught:
                problems.append(f"{name}: corrupted {files[index][1].name} passed the checks")
            else:
                print(f"{name}: corruption caught: {caught[0]}")

    for msg in problems:
        print(f"FAIL {msg}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
