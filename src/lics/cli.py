"""Configuration-driven command line front end.

Usage: ``lics <config-path> [--out PATH] [--plot] [--tol X]``.

A run configuration is a flat ``key = value`` text file; ``#`` starts a
comment.  The ``command`` key selects what to do:

* ``trap``    print the trapping detuning for the given parameters
* ``eigen``   print (and optionally save) the eigenvalues of a model
* ``evolve``  propagate an initial state and save the trajectory as CSV
* ``fano``    scan the two-photon detuning and save the profile as CSV
* ``nondeg``  compare degenerate and split-level models over time

``delta = trap`` in a configuration resolves to the trapping value at
load time.  With ``--plot`` (or ``plot = true``) a self-contained SVG
line plot is written next to the CSV.  ``--tol`` sets the tolerance of
the adaptive integrator, which only ``nondeg`` runs; with any other
command it is an error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .analysis import (
    FanoProfile,
    default_delta_grid,
    degeneracy_validity,
    fano_scan,
    trapping_delta,
)
from .dynamics import (
    _MAX_GRID_POINTS,
    INITS,
    MODELS,
    TimeGrid,
    Trajectory,
    build_hamiltonian,
    eigensystem,
    evolve,
)
from .model import Params

__all__ = [
    "ConfigError",
    "RunConfig",
    "parse_config",
    "render_config",
    "write_csv",
    "render_svg",
    "run",
    "main",
]

COMMANDS = ("evolve", "fano", "trap", "eigen", "nondeg")

_PARAM_KEYS = tuple(f.name for f in fields(Params))
# every other key with its type, in RunConfig field order
_RUN_KEYS = {
    "command": str,
    "model": str,
    "init": str,
    "t_start": float,
    "t_end": float,
    "n_samples": int,
    "delta_min": float,
    "delta_max": float,
    "delta_steps": int,
    "t_obs": float,
    "tol": float,
    "out": str,
    "plot": bool,
}
KNOWN_KEYS = frozenset((*_PARAM_KEYS, *_RUN_KEYS))

_REQUIRED_KEYS = ("command", "gamma_g", "gamma_e")

_BOOL_WORDS = dict.fromkeys(("true", "1", "yes", "on"), True)
_BOOL_WORDS.update(dict.fromkeys(("false", "0", "no", "off"), False))


class ConfigError(ValueError):
    """Invalid run configuration; the message carries the line number."""


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run description parsed from a configuration file."""

    params: Params
    command: str
    model: str = "four_state"
    init: str = "bright"
    t_start: float = 0.0
    t_end: float = 6.0
    n_samples: int = 601
    delta_min: float | None = None
    delta_max: float | None = None
    delta_steps: int | None = None
    t_obs: float = 6.0
    tol: float = 1e-10
    out: str | None = None
    plot: bool = False
    delta_is_trap: bool = False


def _parse_value(raw: str, lineno: int, key: str, kind: type):
    if kind is str:
        return raw
    if kind is bool:
        if raw.lower() not in _BOOL_WORDS:
            raise ConfigError(f"line {lineno}: value for {key!r} must be true or false, got {raw!r}")
        return _BOOL_WORDS[raw.lower()]
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"line {lineno}: value for {key!r} must be finite, got {raw!r}")
    if kind is float:
        return value
    if value != int(value):
        raise ConfigError(f"line {lineno}: value for {key!r} must be an integer, got {raw!r}")
    if value > _MAX_GRID_POINTS:
        raise ConfigError(
            f"line {lineno}: value for {key!r} must be at most {_MAX_GRID_POINTS}, got {raw!r}"
        )
    return int(value)


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` configuration text into a RunConfig.

    Reports malformed lines, unknown keys, bad numbers and missing
    required keys by line number or key name.  ``delta = trap`` is
    resolved through the trapping condition once all physics keys are
    read.
    """
    values: dict[str, object] = {}
    delta_is_trap = False
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline.strip()!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key == "delta":
            delta_is_trap = raw.lower() == "trap"
            if delta_is_trap:
                values[key] = 0.0
                continue
        values[key] = _parse_value(raw, lineno, key, _RUN_KEYS.get(key, float))

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key: {key}")
    for key, allowed in (("command", COMMANDS), ("model", MODELS), ("init", INITS)):
        if key in values and values[key] not in allowed:
            raise ConfigError(f"unknown {key} {values[key]!r}, expected one of {allowed}")

    param_values = {key: values.pop(key) for key in _PARAM_KEYS if key in values}
    try:
        params = Params(**param_values)  # type: ignore[arg-type]
        if delta_is_trap:
            params = replace(params, delta=trapping_delta(params))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(params=params, delta_is_trap=delta_is_trap, **values)  # type: ignore[arg-type]


def _format_value(value, kind: type) -> str:
    if kind is float:
        return repr(float(value))
    if kind is bool:
        return "true" if value else "false"
    return str(value)


def render_config(cfg: RunConfig) -> str:
    """Canonical serialization; ``parse_config`` round-trips it exactly."""
    lines = [f"{key} = {_format_value(getattr(cfg.params, key), float)}" for key in _PARAM_KEYS]
    if cfg.delta_is_trap:
        lines[_PARAM_KEYS.index("delta")] = "delta = trap"
    for key, kind in _RUN_KEYS.items():
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {_format_value(value, kind)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV output

TRAJECTORY_HEADER = (
    "t,re_bg,im_bg,re_be,im_be,re_dg,im_dg,re_de,im_de,"
    "pop_bg,pop_be,pop_dg,pop_de,ionization"
)
PROFILE_HEADER = "delta,ionization"

# rows per formatted block: the text of a whole trajectory takes far more memory than its numbers
_CSV_BLOCK = 4096


def _write_rows(path, header: str, table: np.ndarray) -> None:
    """Write ``header`` and the rows of a 2-D float table, 17 significant
    digits per cell so that parsing the text recovers the exact double."""
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK):
            f.write("".join(map(line.__mod__, map(tuple, table[start : start + _CSV_BLOCK].tolist()))))


def write_csv(data: Trajectory | FanoProfile, path) -> None:
    """Write a trajectory or detuning profile as CSV (LF newlines), streamed
    in blocks of rows.  A trajectory row holds the time, the real and
    imaginary parts of ``data.amps`` (2-state models fill the dark
    columns with zeros), the populations and the ionization."""
    if isinstance(data, Trajectory):
        amps = np.ascontiguousarray(data.amps)
        if amps.shape[1] == 2:
            amps = np.hstack([amps, np.zeros_like(amps)])
        # Python's abs and libm's pow keep the digits stable: np.abs and x * x differ in the last bit
        pops = np.float_power(np.fromiter(map(abs, amps.ravel().tolist()), float), 2.0).reshape(amps.shape)
        table = np.column_stack([data.times, amps.view(np.float64), pops, data.ionization])
        _write_rows(path, TRAJECTORY_HEADER, table)
    elif isinstance(data, FanoProfile):
        if data.deltas.size == 0:
            raise ValueError("cannot write an empty profile")
        _write_rows(path, PROFILE_HEADER, np.column_stack([data.deltas, data.ionization]))
    else:
        raise TypeError(f"cannot write {type(data).__name__} as CSV")


# ---------------------------------------------------------------------------
# SVG output

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
_WIDTH, _HEIGHT = 760, 480
_ML, _MR, _MT, _MB = 64, 168, 28, 48


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / target
    mag = 10.0 ** np.floor(np.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = np.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else float(t))
        t += step
    return ticks


def _svg_line_plot(path, x: np.ndarray, series: list[tuple[str, np.ndarray]], xlabel: str) -> None:
    if len(x) == 0 or not series:
        raise ValueError("cannot plot empty data")
    xmin, xmax = float(np.min(x)), float(np.max(x))
    if xmax == xmin:
        xmax = xmin + 1.0
    ymin = min(0.0, *(float(np.min(y)) for _, y in series))
    ymax = max(float(np.max(y)) for _, y in series)
    if ymax <= ymin:
        ymax = ymin + 1.0
    ymax += 0.05 * (ymax - ymin)

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    def px(v: float) -> float:
        return _ML + (v - xmin) / (xmax - xmin) * plot_w

    def py(v: float) -> float:
        return _MT + (ymax - v) / (ymax - ymin) * plot_h

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#222" stroke-width="1"/>',
    ]
    for t in _nice_ticks(xmin, xmax):
        xp = px(t)
        parts.append(
            f'<line x1="{xp:.2f}" y1="{_MT + plot_h}" x2="{xp:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#222"/>'
        )
        parts.append(
            f'<text x="{xp:.2f}" y="{_MT + plot_h + 18}" font-size="11" '
            f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
        )
    for t in _nice_ticks(ymin, ymax):
        yp = py(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" stroke="#222"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{yp + 4:.2f}" font-size="11" '
            f'text-anchor="end" font-family="sans-serif">{t:g}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 12}" font-size="12" '
        f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
    )

    # px and py work elementwise on arrays, with the same operations as on a float
    xs = px(np.asarray(x, dtype=float)).tolist()
    for idx, (name, y) in enumerate(series):
        color = "#444444" if name == "ionization" else _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if name == "ionization" else ""
        ys = py(np.asarray(y, dtype=float)).tolist()
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(xs, ys)))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} points="{pts}"/>'
        )
        ly = _MT + 16 + 18 * idx
        lx = _ML + plot_w + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.6"{dash}/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-size="12" '
            f'font-family="sans-serif">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")


def render_svg(data: Trajectory | FanoProfile, path) -> None:
    """Render a self-contained SVG line plot of a trajectory or profile.

    Trajectories get one polyline per column of ``data.amps`` whose
    population is ever nonzero, named after ``data.basis``, plus the
    ionization; profiles get the ionization versus detuning.
    """
    if isinstance(data, Trajectory):
        pops = np.abs(data.amps) ** 2
        series = [(f"pop_{b}", pop) for b, pop in zip(data.basis.labels, pops.T) if pop.max() > 1e-12]
        series.append(("ionization", data.ionization))
        _svg_line_plot(path, data.times, series, "t / T")
    elif isinstance(data, FanoProfile):
        if data.deltas.size == 0:
            raise ValueError("cannot plot an empty profile")
        _svg_line_plot(path, data.deltas, [("ionization", data.ionization)], "delta (1/T)")
    else:
        raise TypeError(f"cannot plot {type(data).__name__}")


# ---------------------------------------------------------------------------
# command execution


def _svg_path(out: str) -> Path:
    return Path(out).with_suffix(".svg")


def _resolve_delta_grid(cfg: RunConfig) -> np.ndarray:
    steps = cfg.delta_steps if cfg.delta_steps is not None else 2001
    if not 2 <= steps <= _MAX_GRID_POINTS:
        raise ConfigError(f"delta_steps must lie in [2, {_MAX_GRID_POINTS}], got {steps}")
    if cfg.delta_min is None and cfg.delta_max is None:
        return default_delta_grid(cfg.params, n=steps)
    lo = cfg.delta_min if cfg.delta_min is not None else -10.0
    hi = cfg.delta_max if cfg.delta_max is not None else 10.0
    if not hi > lo:
        raise ConfigError(f"delta_max must exceed delta_min, got [{lo}, {hi}]")
    return np.linspace(lo, hi, steps)


def _require_out(cfg: RunConfig) -> str:
    if cfg.out is None:
        raise ConfigError(f"missing required key: out (command {cfg.command!r} writes a file)")
    return cfg.out


def run(cfg: RunConfig) -> int:
    """Execute a run configuration: compute, write outputs, print a summary."""
    if cfg.command == "trap":
        value = trapping_delta(cfg.params)
        if cfg.out is not None:
            _write_rows(cfg.out, "trapping_delta", np.array([[value]]))
        print(f"trapping delta = {value:.6f}")
        return 0

    if cfg.command == "eigen":
        es = eigensystem(build_hamiltonian(cfg.params, cfg.model))
        if cfg.out is not None:
            table = np.column_stack([np.arange(len(es.values)), es.values.real, es.values.imag])
            _write_rows(cfg.out, "index,re_lambda,im_lambda", table)
        # + 0.0 turns a negative zero from rounding into +0.000000
        shown = ", ".join(f"{v.real:.6f}{round(v.imag, 6) + 0.0:+.6f}i" for v in es.values)
        print(f"eigenvalues ({cfg.model}): {shown}")
        return 0

    if cfg.command == "evolve":
        out = _require_out(cfg)
        grid = TimeGrid(cfg.t_start, cfg.t_end, cfg.n_samples)
        traj = evolve(cfg.params, cfg.model, cfg.init, grid)
        write_csv(traj, out)
        if cfg.plot:
            render_svg(traj, _svg_path(out))
        print(
            f"evolve {cfg.model}/{cfg.init}: final ionization = "
            f"{traj.ionization[-1]:.6f} at t = {cfg.t_end:g}; wrote {out}"
        )
        return 0

    if cfg.command == "fano":
        out = _require_out(cfg)
        grid = _resolve_delta_grid(cfg)
        profile = fano_scan(cfg.params, grid, cfg.t_obs, cfg.init, cfg.model)
        write_csv(profile, out)
        if cfg.plot:
            render_svg(profile, _svg_path(out))
        print(
            f"fano {cfg.model}/{cfg.init}: min ionization = {profile.ionization.min():.6f} "
            f"at delta = {profile.min_delta:.6f}; max ionization = "
            f"{profile.ionization.max():.6f}; wrote {out}"
        )
        return 0

    if cfg.command != "nondeg":
        raise ConfigError(f"unknown command {cfg.command!r}, expected one of {COMMANDS}")

    out = _require_out(cfg)
    if cfg.params.shift_g != cfg.params.shift_e:
        raise ConfigError("command 'nondeg' expects shift_g == shift_e (one common splitting)")
    shift = cfg.params.shift_g
    grid = TimeGrid(cfg.t_start, cfg.t_end, cfg.n_samples)
    report = degeneracy_validity(cfg.params, [shift], grid, _resolve_delta_grid(cfg), cfg.tol)
    table = np.column_stack([report.times, report.ionization_degenerate, report.ionization_shifted[0]])
    _write_rows(out, "t,ionization_degenerate,ionization_shifted", table)
    if cfg.plot:
        _svg_line_plot(
            _svg_path(out),
            report.times,
            [
                ("degenerate", report.ionization_degenerate),
                ("shifted", report.ionization_shifted[0]),
            ],
            "t / T",
        )
    print(
        f"nondeg shift = {shift:g}: sup amplitude difference = {report.sup_state_diff[0]:.6f}; "
        f"profile minima: degenerate {report.profile_min_degenerate:.6f}, "
        f"shifted {report.profile_min_shifted[0]:.6f}; wrote {out}"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lics",
        description="Multilevel laser-induced continuum structure: evolution, trapping and detuning scans.",
    )
    parser.add_argument("config", help="path to a 'key = value' run configuration file")
    parser.add_argument("--out", help="output path, overrides the config")
    parser.add_argument("--plot", action="store_true", help="also write an SVG plot")
    parser.add_argument("--tol", type=float, help="integration tolerance, overrides the config")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(text)
        if args.out is not None:
            cfg = replace(cfg, out=args.out)
        if args.plot:
            cfg = replace(cfg, plot=True)
        if args.tol is not None:
            if cfg.command != "nondeg":
                raise ConfigError(f"--tol applies only to command 'nondeg', not {cfg.command!r}")
            cfg = replace(cfg, tol=args.tol)
        return run(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
