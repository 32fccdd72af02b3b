"""SHA-256 digests of every output byte of a fixed set of CLI runs.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/golden.py [--write]

Each case is one ``lics`` configuration run in-process through
``lics.cli.main`` with ``--plot``, in a temporary working directory, so
that the file names in its summary line are the same on every run.  The
cases are:

* the five ``configs/*.conf``;
* ``eigen`` with ``out`` on each model, at the drive of
  ``configs/bright_evolution.conf`` at its trapping detuning and at
  delta = 1e20, and on the benchmark's exceptional-point set at
  delta = 4.75;
* small ``fano``, ``evolve`` and ``nondeg`` runs shaped like the
  benchmark's ``scan``, ``trajectory`` and ``splitting`` workloads.

For each case the digests of its CSV, its SVG (when written) and its
standard output are kept under ``<case>.csv``, ``<case>.svg`` and
``<case>.stdout``.  Without ``--write`` the script prints every key whose
digest differs from ``tests/golden/digests.json`` and exits with status
1 if there is one.  ``--write`` regenerates that file, with the Python
and numpy versions that made it.  The file name does not match
``test_*.py``, so pytest does not collect it; ``tests/test_golden.py``
compares the digests on every test run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from lics.cli import main as lics_main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.json"

# the drive of configs/bright_evolution.conf
STRONG = dict(gamma_g=5.5, gamma_e=12.74, stark_g=0.5, stark_e=0.6, q_gg=2.3, q_eg=3.4, q_ee=5.0)
# the drive of configs/splitting_comparison.conf
WEAK = dict(gamma_g=1.08, gamma_e=2.09, stark_g=0.33, stark_e=0.26, q_gg=2.3, q_eg=2.4, q_ee=2.5)
# the benchmark's exceptional-point set: the bright pair is exactly
# defective at delta = 4.75, the middle point of a 41-point scan over
# 4.75 ± 7.8125
EXCEPTIONAL = dict(gamma_g=1.0, gamma_e=4.0, stark_g=0.5, stark_e=0.25, q_gg=1.0, q_eg=0.75, q_ee=0.5)
# a parameter set like the ones the trajectory workload draws
DRAWN = dict(gamma_g=3.1416, gamma_e=9.2718, stark_g=-0.4142, stark_e=0.7071, q_gg=-2.2361, q_eg=1.7321, q_ee=4.1231)
MODELS = ("four_state", "bright2", "twolevel2", "nondegenerate4")


def _text(params: dict, **keys) -> str:
    return "".join(f"{k} = {v}\n" for k, v in {**params, **keys}.items())


def cases() -> dict[str, str]:
    """Configuration text by case name, each writing ``<name>.csv``."""
    out = {conf.stem: conf.read_text() for conf in sorted((ROOT / "configs").glob("*.conf"))}
    for model in MODELS:
        eigen = dict(command="eigen", model=model)
        out[f"eigen-{model}-trap"] = _text(STRONG, delta="trap", **eigen)
        out[f"eigen-{model}-exceptional"] = _text(EXCEPTIONAL, delta=4.75, **eigen)
        out[f"eigen-{model}-1e20"] = _text(STRONG, delta=1e20, **eigen)
    window = dict(command="fano", t_obs=6, delta_min=-10, delta_max=10, delta_steps=41)
    for model, init in (("four_state", "bright"), ("four_state", "g1"), ("bright2", "bright"), ("twolevel2", "g1")):
        out[f"scan-{model}-{init}"] = _text(STRONG, model=model, init=init, **window)
    ep_window = {**window, "delta_min": 4.75 - 7.8125, "delta_max": 4.75 + 7.8125}
    out["scan-exceptional"] = _text(EXCEPTIONAL, model="four_state", init="bright", **ep_window)
    shifted = {**DRAWN, "shift_g": 0.1234, "shift_e": 0.2345}
    for model, init, params, n in (
        ("four_state", "bright", DRAWN, 401),
        ("four_state", "g1", DRAWN, 401),
        ("bright2", "bright", DRAWN, 801),
        ("twolevel2", "g1", DRAWN, 801),
        ("nondegenerate4", "g1", shifted, 401),
    ):
        keys = dict(command="evolve", model=model, init=init, t_start=0, t_end=6, n_samples=n)
        out[f"trajectory-{model}-{init}"] = _text(params, delta="trap", **keys)
    for shift in (1e-6, 0.2):
        keys = dict(command="nondeg", t_start=0, t_end=40, n_samples=41, delta_min=-10, delta_max=10, delta_steps=11)
        params = {**WEAK, "shift_g": shift, "shift_e": shift}
        out[f"splitting-{shift:g}"] = _text(params, delta="trap", tol=1e-12, **keys)
    return out


def digests() -> dict[str, str]:
    """The SHA-256 of each output of each case, by ``<case>.<kind>``."""
    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, text in cases().items():
                Path("run.conf").write_text(text)
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    status = lics_main(["run.conf", "--out", f"{name}.csv", "--plot"])
                if status != 0:
                    raise RuntimeError(f"case {name} exited with status {status}")
                result[f"{name}.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
                for kind in ("csv", "svg"):
                    path = Path(f"{name}.{kind}")
                    if path.exists():
                        result[f"{name}.{kind}"] = hashlib.sha256(path.read_bytes()).hexdigest()
                        path.unlink()
        finally:
            os.chdir(cwd)
    return result


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def differing(expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    """Every key whose digest differs, or that only one side has."""
    return sorted(k for k in expected.keys() | actual.keys() if expected.get(k) != actual.get(k))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"regenerate {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    actual = digests()
    if args.write:
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps({"versions": versions(), "digests": actual}, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} digests to {DIGESTS.relative_to(ROOT)}")
        return 0
    stored = json.loads(DIGESTS.read_text())
    changed = differing(stored["digests"], actual)
    for key in changed:
        print(f"differs: {key}")
    print(f"{len(actual)} digests, {len(changed)} differ (recorded with {stored['versions']}, running {versions()})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
