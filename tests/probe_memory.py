"""Measure the wall time and peak RSS of the largest accepted evolve runs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/probe_memory.py [-n N]

It evolves the drive of configs/bright_evolution.conf from g1 at the
trapping detuning, with ``plot = true`` and N samples (default 10**6, the
largest a grid accepts), for ``four_state``, ``bright2`` and
``nondegenerate4`` (shift_g = 0.2, shift_e = 0.1).  Each model runs
``python -m lics.cli`` in its own process, writing into a temporary
directory.  For each it prints one JSON line: the model, the exit status,
the wall time, the process's peak RSS (``ru_maxrss``, in MB) and the
sizes of its CSV and SVG.  It exits with status 1 if a run fails.  The
file name does not match ``test_*.py``, so pytest does not collect it;
``tests/test_fuzz.py`` runs it briefly.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from lics.cli import parse_config, render_config

ROOT = Path(__file__).resolve().parent.parent
RUNS = (("four_state", {}), ("bright2", {}), ("nondegenerate4", {"shift_g": 0.2, "shift_e": 0.1}))


def _config(model: str, shifts: dict, n: int, out: Path) -> str:
    cfg = parse_config((ROOT / "configs" / "bright_evolution.conf").read_text())
    return render_config(
        replace(cfg, params=replace(cfg.params, **shifts), model=model, init="g1", n_samples=n, out=str(out), plot=True)
    )


def _run(conf: Path) -> tuple[int, float, float]:
    """Exit status, wall time in s and peak RSS in MB of the CLI on ``conf``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, "-m", "lics.cli", str(conf)], env={**os.environ, "PYTHONPATH": path},
        stdout=subprocess.DEVNULL,
    )
    # wait4 gives this child's own rusage; RUSAGE_CHILDREN would give the largest so far
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return child.returncode, wall, usage.ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=10**6, help="samples per run (default 10**6)")
    args = parser.parse_args(argv)
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for model, shifts in RUNS:
            out = Path(tmp, f"{model}.csv")
            conf = Path(tmp, f"{model}.conf")
            conf.write_text(_config(model, shifts, args.n, out))
            code, wall, rss = _run(conf)
            sizes = {f"{kind}_bytes": path.stat().st_size if path.exists() else None
                     for kind, path in (("csv", out), ("svg", out.with_suffix(".svg")))}
            print(json.dumps({"model": model, "n_samples": args.n, "status": code, "wall_s": round(wall, 3),
                              "peak_rss_mb": round(rss, 1), **sizes}), flush=True)
            status |= code != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
