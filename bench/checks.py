"""Checks of the CLI's outputs against computations made apart from the program.

Nothing here imports ``lics``.  The oracle builds every Hamiltonian from
the documented formula -(h0 + i v v^T)/2, propagates it with
``scipy.linalg.expm`` and maps four-state amplitudes to the bright/dark
basis with its own copy of the pi/4 rotation.  The other checks are
properties of the method: trapping asymptotes, the dark population,
monotone ionization and agreement between the CSV columns.

Each ``check_*`` function returns a list of failure messages; an empty
list means the output passed.
"""

from __future__ import annotations

import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.linalg import expm

# the oracle and the program agree to about 1e-12 on every route today
ORACLE_TOL = 1e-9
# final ionization on the trapping manifold against gamma_g / (gamma_g + gamma_e)
TRAP_TOL = 1e-6
# roundoff allowed between the CSV columns of one row
ROUND_TOL = 1e-12
# propagation error allowed in conserved populations and monotone ionization;
# today both stay below 2e-11 on every seed
DRIFT_TOL = 1e-10
# splitting of 1e-6: amplitudes stay this close to the degenerate model
SMALL_SPLIT = 1e-6
SMALL_SPLIT_TOL = 1e-4

TRAJECTORY_HEADER = (
    "t,re_bg,im_bg,re_be,im_be,re_dg,im_dg,re_de,im_de,"
    "pop_bg,pop_be,pop_dg,pop_de,ionization"
)
PROFILE_HEADER = "delta,ionization"
NONDEG_HEADER = "t,ionization_degenerate,ionization_shifted"
SVG_NS = "{http://www.w3.org/2000/svg}"

_R2 = 1.0 / math.sqrt(2.0)
# (b_g, b_e, d_g, d_e) = ((c_g1 + c_g2), (c_e1 + c_e2), (c_g2 - c_g1), (c_e2 - c_e1)) / sqrt(2)
_TO_BRIGHT_DARK = _R2 * np.array(
    [[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0], [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -1.0, 1.0]]
)


# ---------------------------------------------------------------------------
# oracle


def trapping_delta(p: dict) -> float:
    """Closed-form trapping detuning of the paper."""
    return (
        0.5 * (p["gamma_e"] * p["q_ee"] - p["gamma_g"] * p["q_gg"])
        + p["q_eg"] * (p["gamma_g"] - p["gamma_e"])
        + p["stark_g"]
        - p["stark_e"]
    )


def resolve(params: dict) -> dict:
    """Parameters with every default filled in and ``delta = trap`` resolved."""
    p = dict(stark_g=0.0, stark_e=0.0, q_gg=0.0, q_ee=0.0, q_eg=0.0, delta=0.0, shift_g=0.0, shift_e=0.0)
    p.update(params)
    if p["delta"] == "trap":
        p["delta"] = trapping_delta(p)
    return {k: float(v) for k, v in p.items()}


def hamiltonian(p: dict, model: str) -> np.ndarray:
    """-(h0 + i v v^T)/2 over (g1, g2, e1, e2), or its two-state reductions."""
    gg, ge = p["gamma_g"], p["gamma_e"]
    x = p["q_eg"] * math.sqrt(gg * ge)
    sg, se = -2.0 * p["stark_g"], -2.0 * (p["delta"] + p["stark_e"])
    if model == "twolevel2":
        h0 = np.array([[sg, x], [x, se]])
        v = np.sqrt([gg, ge])
        return -0.5 * (h0 + 1j * np.outer(v, v))
    a, b = p["q_gg"] * gg, p["q_ee"] * ge
    h0 = np.array([[sg, a, x, x], [a, sg, x, x], [x, x, se, b], [x, x, b, se]])
    v = np.sqrt([gg, gg, ge, ge])
    h = -0.5 * (h0 + 1j * np.outer(v, v))
    if model == "four_state":
        return h
    if model == "nondegenerate4":
        return h + np.diag([0.0, p["shift_g"], 0.0, p["shift_e"]])
    if model == "bright2":
        bright = _TO_BRIGHT_DARK[:2].T
        return bright.T @ h @ bright
    raise ValueError(f"no oracle for model {model!r}")


def initial(model: str, init: str) -> np.ndarray:
    if model in ("four_state", "nondegenerate4"):
        return {"bright": np.array([_R2, _R2, 0, 0]), "g1": np.eye(4)[0], "g2": np.eye(4)[1]}[init] + 0j
    if model == "bright2":
        # projection of the ground state onto the bright pair
        return np.array([1.0 if init == "bright" else _R2, 0.0]) + 0j
    return np.array([1.0, 0.0]) + 0j


def amplitudes(p: dict, model: str, init: str, times) -> np.ndarray:
    """exp(-i H t) c0 for each time, four-state results in the bright/dark basis."""
    h = hamiltonian(p, model)
    c0 = initial(model, init)
    amps = np.array([expm(-1j * h * t) @ c0 for t in times])
    if model in ("four_state", "nondegenerate4"):
        return amps @ _TO_BRIGHT_DARK.T
    return amps


def ionization(amps: np.ndarray) -> np.ndarray:
    return 1.0 - (np.abs(amps) ** 2).sum(axis=1)


def bright_discriminant(p: dict) -> float:
    """|((a - b)/2)^2 + c^2| of the bright block; zero at an exceptional point."""
    hb = hamiltonian(p, "bright2")
    return abs(((hb[0, 0] - hb[1, 1]) / 2) ** 2 + hb[0, 1] * hb[1, 0])


# ---------------------------------------------------------------------------
# file readers


def read_csv(path: Path, header: str) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().rstrip("\n")
    if first != header:
        raise ValueError(f"{path.name}: header {first!r}, expected {header!r}")
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _svg_failures(path: Path, lines: int, points: int) -> list[str]:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        return [f"{path.name}: unreadable SVG ({exc})"]
    polylines = root.findall(f"{SVG_NS}polyline")
    if len(polylines) < lines:
        return [f"{path.name}: {len(polylines)} polylines, expected at least {lines}"]
    counts = {len(pl.get("points", "").split()) for pl in polylines}
    if counts != {points}:
        return [f"{path.name}: polyline point counts {sorted(counts)}, expected {points}"]
    return []


def _worst(label: str, got, want, tol: float) -> list[str]:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
    return [] if err <= tol else [f"{label}: off by {err:.3g} (tolerance {tol:g})"]


def _series_failures(label: str, ion: np.ndarray) -> list[str]:
    out = []
    if not (np.all(ion >= 0.0) and np.all(ion <= 1.0)):
        out.append(f"{label}: ionization outside [0, 1] (range {ion.min():.3g} .. {ion.max():.3g})")
    if ion.size > 1 and np.diff(ion).min() < -DRIFT_TOL:
        out.append(f"{label}: ionization decreases by {-np.diff(ion).min():.3g}")
    return out


# ---------------------------------------------------------------------------
# per-command checks


def _subsample(n: int, count: int, rng: np.random.Generator, *always: int) -> np.ndarray:
    picks = rng.choice(n, size=min(n, count), replace=False)
    return np.unique(np.concatenate([picks, [0, n - 1], always]).astype(int))


def check_profile(cmd, csv: Path, rng: np.random.Generator) -> list[str]:
    """A ``fano`` profile: grid, range, and a subsample against the oracle."""
    k = cmd.keys
    data = read_csv(csv, PROFILE_HEADER)
    deltas, ion = data[:, 0], data[:, 1]
    grid = np.linspace(k["delta_min"], k["delta_max"], k["delta_steps"])
    if deltas.shape != grid.shape or not np.array_equal(deltas, grid):
        return [f"{cmd.name}: detuning column is not the requested grid"]
    out = []
    if not (np.all(ion >= 0.0) and np.all(ion <= 1.0)):
        out.append(f"{cmd.name}: ionization outside [0, 1]")
    p = resolve(cmd.params)
    # always include the exceptional-point detuning when the window centres on one
    centre = (len(grid) - 1) // 2
    idx = _subsample(len(grid), 24, rng, centre)
    want = []
    for d in deltas[idx]:
        amps = amplitudes({**p, "delta": float(d)}, k["model"], k["init"], [k["t_obs"]])
        want.append(ionization(amps)[0])
    out += _worst(f"{cmd.name}: profile vs expm oracle", ion[idx], want, ORACLE_TOL)
    out += _svg_failures(csv.with_suffix(".svg"), 1, len(grid))
    return out


def check_trajectory(cmd, csv: Path, rng: np.random.Generator) -> list[str]:
    """An ``evolve`` trajectory: columns, monotone ionization, oracle rows, trapping."""
    k = cmd.keys
    data = read_csv(csv, TRAJECTORY_HEADER)
    times = np.linspace(k["t_start"], k["t_end"], k["n_samples"])
    if data.shape[0] != times.size or not np.array_equal(data[:, 0], times):
        return [f"{cmd.name}: time column is not the requested grid"]
    amps = data[:, 1:9:2] + 1j * data[:, 2:9:2]
    pops, ion = data[:, 9:13], data[:, 13]
    out = []
    out += _worst(f"{cmd.name}: pop vs re^2 + im^2", pops, np.abs(amps) ** 2, ROUND_TOL)
    # the program clamps roundoff in [-1e-9, 0) to 0
    out += _worst(f"{cmd.name}: ionization vs 1 - sum(pop)", ion, np.maximum(1.0 - pops.sum(axis=1), 0.0), ROUND_TOL)
    out += _series_failures(cmd.name, ion)

    p = resolve(cmd.params)
    model, init = k["model"], k["init"]
    idx = _subsample(times.size, 40, rng)
    want = amplitudes(p, model, init, times[idx] - k["t_start"])
    if want.shape[1] == 2:
        want = np.hstack([want, np.zeros_like(want)])
    out += _worst(f"{cmd.name}: amplitudes vs expm oracle", amps[idx], want, ORACLE_TOL)

    bright_loss = p["gamma_g"] / (p["gamma_g"] + p["gamma_e"])
    if model in ("four_state", "bright2") and init == "bright":
        out += _worst(f"{cmd.name}: final ionization vs gamma_g/(gamma_g+gamma_e)", ion[-1], bright_loss, TRAP_TOL)
    if model == "four_state" and init == "g1":
        out += _worst(f"{cmd.name}: final ionization vs half the bright loss", ion[-1], bright_loss / 2, TRAP_TOL)
        out += _worst(f"{cmd.name}: dark population vs 1/2", pops[:, 2:].sum(axis=1), 0.5, DRIFT_TOL)
    lines = int((pops.max(axis=0) > 1e-12).sum()) + 1
    out += _svg_failures(csv.with_suffix(".svg"), lines, times.size)
    return out


_NONDEG_SUMMARY = re.compile(
    r"sup amplitude difference = (\S+); profile minima: degenerate (\S+), shifted (\S+);"
)


def _profile_min_failures(label: str, reported: float, grid: np.ndarray, profile: np.ndarray) -> list[str]:
    i = int(np.argmin(np.abs(grid - reported)))
    if abs(grid[i] - reported) > 5e-7 or profile[i] > profile.min() + ORACLE_TOL:
        return [f"{label}: reported minimum at {reported} is not an oracle minimum ({grid[np.argmin(profile)]})"]
    return []


def check_nondeg(cmd, csv: Path, stdout: str) -> list[str]:
    """A ``nondeg`` comparison: both traces and the printed summary against the oracle."""
    k = cmd.keys
    data = read_csv(csv, NONDEG_HEADER)
    times = np.linspace(k["t_start"], k["t_end"], k["n_samples"])
    if data.shape[0] != times.size or not np.array_equal(data[:, 0], times):
        return [f"{cmd.name}: time column is not the requested grid"]
    deg, shifted = data[:, 1], data[:, 2]
    out = _series_failures(f"{cmd.name} degenerate", deg) + _series_failures(f"{cmd.name} shifted", shifted)

    p = resolve(cmd.params)
    p_deg = {**p, "shift_g": 0.0, "shift_e": 0.0}
    rel = times - k["t_start"]
    amps_deg = amplitudes(p_deg, "four_state", "g1", rel) @ _TO_BRIGHT_DARK
    amps_split = amplitudes(p, "nondegenerate4", "g1", rel) @ _TO_BRIGHT_DARK
    out += _worst(f"{cmd.name}: degenerate trace vs expm oracle", deg, ionization(amps_deg), ORACLE_TOL)
    out += _worst(f"{cmd.name}: RK trace vs expm oracle", shifted, ionization(amps_split), ORACLE_TOL)
    bright_loss = p["gamma_g"] / (p["gamma_g"] + p["gamma_e"])
    out += _worst(f"{cmd.name}: final degenerate ionization vs trapping", deg[-1], bright_loss / 2, TRAP_TOL)
    half = times >= times[0] + (times[-1] - times[0]) / 2
    if not np.all(shifted[half] > deg[half]):
        out.append(f"{cmd.name}: split ionization does not exceed the degenerate one over the second half")

    match = _NONDEG_SUMMARY.search(stdout)
    if match is None:
        return out + [f"{cmd.name}: no summary line in the output"]
    sup_diff, min_deg, min_split = (float(g) for g in match.groups())
    # printed with six decimals
    out += _worst(f"{cmd.name}: sup amplitude difference", sup_diff, np.abs(amps_split - amps_deg).max(), 1e-6)
    if p["shift_g"] == SMALL_SPLIT:
        if sup_diff > SMALL_SPLIT_TOL:
            out.append(f"{cmd.name}: splitting 1e-6 moves the amplitudes by {sup_diff}")
        out += _worst(f"{cmd.name}: 1e-6 splitting vs degenerate ionization", shifted, deg, SMALL_SPLIT_TOL)

    grid = np.linspace(k["delta_min"], k["delta_max"], k["delta_steps"])
    t_obs = [k["t_end"]]
    prof_deg = np.array([ionization(amplitudes({**p_deg, "delta": d}, "four_state", "g1", t_obs))[0] for d in grid])
    prof_split = np.array([ionization(amplitudes({**p, "delta": d}, "nondegenerate4", "g1", t_obs))[0] for d in grid])
    out += _profile_min_failures(f"{cmd.name}: degenerate profile", min_deg, grid, prof_deg)
    out += _profile_min_failures(f"{cmd.name}: split profile", min_split, grid, prof_split)
    out += _svg_failures(csv.with_suffix(".svg"), 2, times.size)
    return out


def check_trap(stdout: str, params: dict) -> list[str]:
    """The ``trap`` command's printed value against the closed form."""
    match = re.search(r"trapping delta = (\S+)", stdout)
    if match is None:
        return [f"trap: unexpected output {stdout!r}"]
    return _worst("trap: printed trapping detuning", float(match.group(1)), trapping_delta(resolve(params)), 5e-7)


# ---------------------------------------------------------------------------
# whole workloads


def check_workload(workload: str, commands, outputs, seed: int) -> list[list[str]]:
    """Failures per command; ``outputs`` holds (csv_path, stdout) per command."""
    rng = np.random.default_rng(seed)
    failures: list[list[str]] = []
    for cmd, (csv, stdout) in zip(commands, outputs):
        kind = cmd.keys["command"]
        try:
            if kind == "fano":
                failures.append(check_profile(cmd, csv, rng))
            elif kind == "evolve":
                failures.append(check_trajectory(cmd, csv, rng))
            else:
                failures.append(check_nondeg(cmd, csv, stdout))
        except (OSError, ValueError) as exc:
            failures.append([f"{cmd.name}: unreadable output ({exc})"])

    if workload == "scan":
        by_name = {cmd.name: fails for cmd, fails in zip(commands, failures)}
        csv_by_name = {cmd.name: csv for cmd, (csv, _) in zip(commands, outputs)}

        def profile(name):
            try:
                return read_csv(csv_by_name[name], PROFILE_HEADER)[:, 1]
            except (KeyError, OSError, ValueError):
                return None  # not run, or already reported above

        g1, bright, bright2 = profile("four_state-g1"), profile("four_state-bright"), profile("bright2-bright")
        if g1 is not None and g1.max() > 0.5 + ROUND_TOL:
            by_name["four_state-g1"].append(f"four_state-g1: profile reaches {g1.max()!r} > 1/2")
        if bright is not None and bright2 is not None and bright.shape == bright2.shape:
            by_name["bright2-bright"] += _worst("bright2-bright vs four_state-bright profile", bright2, bright, ORACLE_TOL)
    return failures
