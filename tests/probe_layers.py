"""Time each layer of lics in-process, and compare two source trees.

Run from the root of a source checkout:

    PYTHONPATH=src python tests/probe_layers.py [--base PATH] [--pairs N] [--repeat R] [--small] [--dir DIR]

Each layer is called on the shapes of the benchmark's workloads:

* ``model.build``: the Hamiltonian of each of the four models;
* ``dynamics.eigensystem``: one stacked call on 201 ``nondegenerate4``
  matrices, the detunings of a ``splitting`` scan;
* ``dynamics.propagate_expm`` and ``dynamics.evolve``: 20001 samples over
  [0, 6] from g1 at the trapping detuning (``nondegenerate4`` and
  ``four_state``), as in ``trajectory``, and
  ``dynamics.evolve[nondegenerate4]`` on the matrix of the first;
* ``dynamics.integrate``: ``nondegenerate4`` at the weak drive over
  [0, 40], 401 samples, tol 1e-12, as in ``splitting``;
* ``analysis.fano_scan``: ``four_state`` at 2001 detunings, as in ``scan``,
  and ``analysis.fano_scan[nondegenerate4]`` from g1 at the same 2001;
* ``analysis.degeneracy_validity``: one ``splitting`` command;
* ``_text.g17_rows``: the 20001 x 14 float table of the ``evolve``
  trajectory's CSV, read back from it, in the CSV's blocks of rows, and
  ``_text.f2_points``: that trajectory's polylines, as ``render_svg``
  forms them; neither writes a file, so a change to a formatter shows
  without the file system's share;
* ``cli.write_csv`` and ``cli.render_svg``: the ``fano_scan`` profile
  and the ``evolve`` trajectory, each written twice: to a fresh path
  (``fresh``) and over an existing output of the same bytes (``over``).
  The two differ only by what the file system charges for replacing a
  file, so a change to the formatters moves both, and a change to how an
  output replaces the old one moves ``over`` alone.

Every layer runs once to warm up and then ``R`` timed times in one
process; its figure is the median.  With ``--base PATH`` the script
alternates a process on this tree's ``src`` with one on PATH's ``src``,
``N`` pairs, which side first alternating too, and prints one JSON line
per layer: both sides' medians over the pairs, the ratio this / base and
the pairs this tree won.  Without it, this tree alone runs.  A base tree
must offer the same public functions and signatures.  ``--small`` takes
a small fraction of each shape, for a quick check that the probe runs.
Outputs go to a temporary directory under DIR (default: the system's);
its file system decides what replacing a file costs.  The file name does
not match ``test_*.py``, so pytest does not collect it;
``tests/test_fuzz.py`` runs it briefly.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the drives of configs/bright_evolution.conf and configs/splitting_comparison.conf
STRONG = dict(gamma_g=5.5, gamma_e=12.74, stark_g=0.5, stark_e=0.6, q_gg=2.3, q_eg=3.4, q_ee=5.0)
WEAK = dict(gamma_g=1.08, gamma_e=2.09, stark_g=0.33, stark_e=0.26, q_gg=2.3, q_eg=2.4, q_ee=2.5)


def _layers(small: bool, tmp: Path):
    """(name, call) for every layer, each call on its benchmark shape."""
    import numpy as np

    from lics import (
        Basis,
        Params,
        State,
        TimeGrid,
        build_hamiltonian,
        degeneracy_validity,
        eigensystem,
        evolve,
        fano_scan,
        integrate,
        propagate_expm,
        trapping_delta,
    )
    from lics._text import f2_points, g17_rows
    from lics.cli import _CSV_CELLS, render_svg, write_csv

    scale = 20 if small else 1
    strong = Params(**STRONG, delta=trapping_delta(Params(**STRONG)))
    split = Params(**STRONG, delta=strong.delta, shift_g=0.2, shift_e=0.1)
    weak = Params(**WEAK, delta=trapping_delta(Params(**WEAK)), shift_g=0.01, shift_e=0.01)
    trajectory_grid = TimeGrid(0.0, 6.0, 20000 // scale + 1)
    splitting_grid = TimeGrid(0.0, 40.0, 400 // scale + 1)
    scan_deltas = np.linspace(-10.0, 10.0, 2000 // scale + 1)
    splitting_deltas = np.linspace(-10.0, 10.0, 200 // scale + 1)
    h_split = build_hamiltonian(split, "nondegenerate4")
    stack = np.array([build_hamiltonian(replace(weak, delta=d), "nondegenerate4") for d in splitting_deltas])
    g1 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
    profile = fano_scan(strong, scan_deltas, 6.0, "bright", "four_state")
    trajectory = evolve(strong, "four_state", "g1", trajectory_grid)
    fresh = itertools.count()
    write_csv(trajectory, tmp / "table.csv")
    table = np.loadtxt(tmp / "table.csv", delimiter=",", skiprows=1, ndmin=2)
    (tmp / "table.csv").unlink()
    block = _CSV_CELLS // table.shape[1]
    amps = trajectory.amps
    ys = [lambda rows, j=j: np.abs(amps[rows, j]) ** 2 for j in range(amps.shape[1])]
    ys.append(trajectory.ionization.__getitem__)

    def format_table():
        for start in range(0, len(table), block):
            for _ in g17_rows(table[start : start + block]):
                pass

    def format_polylines():
        # the plot's maps of [0, 6] x [0, 1.05] onto its pixels
        polylines = f2_points(len(table), trajectory.grid.times, ys, lambda t: 64.0 + t / 6.0 * 528.0,
                              lambda v: 28.0 + (1.05 - v) / 1.05 * 404.0)
        for pieces in polylines:
            for _ in pieces:
                pass

    def to_fresh(writer, data, suffix):
        def call():
            path = tmp / f"fresh-{next(fresh)}{suffix}"
            writer(data, path)
            return path  # removed after its timing

        return call

    def over(writer, data, suffix):
        path = tmp / f"over{suffix}"
        writer(data, path)
        return lambda: writer(data, path)

    layers = [
        ("model.build", lambda: [build_hamiltonian(split, m) for m in ("four_state", "bright2", "twolevel2", "nondegenerate4")]),
        ("dynamics.eigensystem", lambda: eigensystem(stack)),
        ("dynamics.propagate_expm", lambda: propagate_expm(h_split, g1, trajectory_grid)),
        ("dynamics.integrate", lambda: integrate(build_hamiltonian(weak, "nondegenerate4"), g1, splitting_grid, 1e-12)),
        ("dynamics.evolve", lambda: evolve(strong, "four_state", "g1", trajectory_grid)),
        ("dynamics.evolve[nondegenerate4]", lambda: evolve(split, "nondegenerate4", "g1", trajectory_grid)),
        ("analysis.fano_scan", lambda: fano_scan(strong, scan_deltas, 6.0, "bright", "four_state")),
        ("analysis.fano_scan[nondegenerate4]", lambda: fano_scan(split, scan_deltas, 6.0, "g1", "nondegenerate4")),
        ("analysis.degeneracy_validity", lambda: degeneracy_validity(weak, splitting_grid, splitting_deltas, 1e-12)),
        ("_text.g17_rows", format_table),
        ("_text.f2_points", format_polylines),
    ]
    for writer, suffix in ((write_csv, ".csv"), (render_svg, ".svg")):
        for kind, data in (("profile", profile), ("trajectory", trajectory)):
            name = f"cli.{writer.__name__}[{kind},"
            layers.append((name + "fresh]", to_fresh(writer, data, suffix)))
            layers.append((name + "over]", over(writer, data, suffix)))
    return layers


def _child(repeat: int, small: bool, directory: str | None) -> int:
    """Time every layer in this process; print {layer: median s} as JSON."""
    import lics

    medians = {}
    with tempfile.TemporaryDirectory(dir=directory) as tmp:
        for name, call in _layers(small, Path(tmp)):
            times = []
            for _ in range(repeat + 1):  # the first call warms up
                start = time.perf_counter()
                left = call()
                times.append(time.perf_counter() - start)
                if isinstance(left, Path):
                    left.unlink()
            medians[name] = statistics.median(times[1:])
    print(json.dumps({"source": str(Path(lics.__file__).parent), "medians": medians}))
    return 0


def _side(tree: Path, args) -> dict[str, float]:
    """One process's medians, on the sources of ``tree``."""
    path = os.pathsep.join(filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")]))
    cmd = [sys.executable, __file__, "--child", "--repeat", str(args.repeat)]
    cmd += ["--small"] * args.small + (["--dir", args.dir] if args.dir else [])
    done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if Path(result["source"]) != tree / "src" / "lics":
        raise RuntimeError(f"imported lics from {result['source']}, not from {tree}")
    return result["medians"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, help="a second source tree to compare with")
    parser.add_argument("--pairs", type=int, default=5, help="processes per side (default 5)")
    parser.add_argument("--repeat", type=int, default=15, help="timed calls per layer and process (default 15)")
    parser.add_argument("--small", action="store_true", help="a small fraction of each shape")
    parser.add_argument("--dir", help="where the outputs are written (default: the system's temporary directory)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(args.repeat, args.small, args.dir)
    base = args.base.resolve() if args.base is not None else None
    runs: dict[str, list] = {"this": [], "base": []}
    for i in range(args.pairs):
        sides = ["this", "base"] if i % 2 == 0 else ["base", "this"]
        for side in sides:
            if side == "this" or base is not None:
                runs[side].append(_side(ROOT if side == "this" else base, args))
    for layer in runs["this"][0]:
        this = [run[layer] for run in runs["this"]]
        line = {"layer": layer, "this_s": statistics.median(this)}
        if base is not None:
            other = [run[layer] for run in runs["base"]]
            line["base_s"] = statistics.median(other)
            line["ratio"] = line["this_s"] / line["base_s"]
            line["pairs_won"] = sum(a < b for a, b in zip(this, other))
            line["pairs"] = len(this)
        print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
