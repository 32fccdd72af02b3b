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
line plot is written next to the CSV.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from xml.sax.saxutils import escape

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
from .transforms import Basis

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

_PARAM_KEYS = (
    "gamma_g",
    "gamma_e",
    "stark_g",
    "stark_e",
    "q_gg",
    "q_ee",
    "q_eg",
    "delta",
    "shift_g",
    "shift_e",
)
_FLOAT_KEYS = frozenset(_PARAM_KEYS) | {"t_start", "t_end", "t_obs", "tol", "delta_min", "delta_max"}
_INT_KEYS = frozenset({"n_samples", "delta_steps"})
_STR_KEYS = frozenset({"command", "model", "init", "out"})
_BOOL_KEYS = frozenset({"plot"})
KNOWN_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _BOOL_KEYS

_REQUIRED_KEYS = ("command", "gamma_g", "gamma_e")

_TRUE_WORDS = {"true", "1", "yes", "on"}
_FALSE_WORDS = {"false", "0", "no", "off"}


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


def _parse_number(raw: str, lineno: int, key: str, want_int: bool):
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"line {lineno}: value for {key!r} is not a number: {raw!r}") from None
    if not np.isfinite(value):
        raise ConfigError(f"line {lineno}: value for {key!r} must be finite, got {raw!r}")
    if want_int:
        if value != int(value):
            raise ConfigError(f"line {lineno}: value for {key!r} must be an integer, got {raw!r}")
        return int(value)
    return value


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
        if key == "delta" and raw.lower() == "trap":
            delta_is_trap = True
            values[key] = 0.0
        elif key in _FLOAT_KEYS:
            values[key] = _parse_number(raw, lineno, key, want_int=False)
            if key == "delta":
                delta_is_trap = False
        elif key in _INT_KEYS:
            values[key] = _parse_number(raw, lineno, key, want_int=True)
            if values[key] > _MAX_GRID_POINTS:
                raise ConfigError(
                    f"line {lineno}: value for {key!r} must be at most {_MAX_GRID_POINTS}, got {raw!r}"
                )
        elif key in _BOOL_KEYS:
            word = raw.lower()
            if word in _TRUE_WORDS:
                values[key] = True
            elif word in _FALSE_WORDS:
                values[key] = False
            else:
                raise ConfigError(f"line {lineno}: value for {key!r} must be true or false, got {raw!r}")
        else:
            values[key] = raw

    for key in _REQUIRED_KEYS:
        if key not in values:
            raise ConfigError(f"missing required key: {key}")

    command = str(values.pop("command"))
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}, expected one of {COMMANDS}")
    model = str(values.pop("model", "four_state"))
    if model not in MODELS:
        raise ConfigError(f"unknown model {model!r}, expected one of {MODELS}")
    init = str(values.pop("init", "bright"))
    if init not in INITS:
        raise ConfigError(f"unknown init {init!r}, expected one of {INITS}")

    param_values = {key: values.pop(key) for key in _PARAM_KEYS if key in values}
    try:
        params = Params(**param_values)  # type: ignore[arg-type]
        if delta_is_trap:
            params = replace(params, delta=trapping_delta(params))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    try:
        return RunConfig(
            params=params,
            command=command,
            model=model,
            init=init,
            delta_is_trap=delta_is_trap,
            **values,  # type: ignore[arg-type]
        )
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def _format_float(value: float) -> str:
    return repr(float(value))


def render_config(cfg: RunConfig) -> str:
    """Canonical serialization; ``parse_config`` round-trips it exactly."""
    lines = []
    for key in _PARAM_KEYS:
        if key == "delta" and cfg.delta_is_trap:
            lines.append("delta = trap")
        else:
            lines.append(f"{key} = {_format_float(getattr(cfg.params, key))}")
    lines.append(f"command = {cfg.command}")
    lines.append(f"model = {cfg.model}")
    lines.append(f"init = {cfg.init}")
    lines.append(f"t_start = {_format_float(cfg.t_start)}")
    lines.append(f"t_end = {_format_float(cfg.t_end)}")
    lines.append(f"n_samples = {cfg.n_samples}")
    for key in ("delta_min", "delta_max"):
        value = getattr(cfg, key)
        if value is not None:
            lines.append(f"{key} = {_format_float(value)}")
    if cfg.delta_steps is not None:
        lines.append(f"delta_steps = {cfg.delta_steps}")
    lines.append(f"t_obs = {_format_float(cfg.t_obs)}")
    lines.append(f"tol = {_format_float(cfg.tol)}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    lines.append(f"plot = {'true' if cfg.plot else 'false'}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# CSV output

TRAJECTORY_HEADER = (
    "t,re_bg,im_bg,re_be,im_be,re_dg,im_dg,re_de,im_de,"
    "pop_bg,pop_be,pop_dg,pop_de,ionization"
)
PROFILE_HEADER = "delta,ionization"

# 17 significant digits: parsing the text recovers the exact double
_FMT = "{:.17g}".format


def _trajectory_rows(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Times and bright/dark amplitude columns; 2-state models fill
    the dark columns with zeros."""
    amps = traj.amplitudes()
    if amps.shape[1] == 2:
        amps = np.hstack([amps, np.zeros_like(amps)])
    return traj.times, amps


def write_csv(data: Trajectory | FanoProfile, path) -> None:
    """Write a trajectory or detuning profile as CSV (LF newlines)."""
    lines: list[str] = []
    if isinstance(data, Trajectory):
        if not data.states:
            raise ValueError("cannot write an empty trajectory")
        times, amps = _trajectory_rows(data)
        lines.append(TRAJECTORY_HEADER)
        for k, t in enumerate(times):
            cells = [_FMT(t)]
            for a in amps[k]:
                cells.append(_FMT(a.real))
                cells.append(_FMT(a.imag))
            cells.extend(_FMT(abs(a) ** 2) for a in amps[k])
            cells.append(_FMT(data.ionization[k]))
            lines.append(",".join(cells))
    elif isinstance(data, FanoProfile):
        if data.deltas.size == 0:
            raise ValueError("cannot write an empty profile")
        lines.append(PROFILE_HEADER)
        for d, ion in zip(data.deltas, data.ionization):
            lines.append(f"{_FMT(d)},{_FMT(ion)}")
    else:
        raise TypeError(f"cannot write {type(data).__name__} as CSV")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


# ---------------------------------------------------------------------------
# SVG output

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
_WIDTH, _HEIGHT = 760, 480
_ML, _MR, _MT, _MB = 64, 168, 28, 48


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
        f'text-anchor="middle" font-family="sans-serif">{escape(xlabel)}</text>'
    )

    for idx, (name, y) in enumerate(series):
        color = "#444444" if name == "ionization" else _PALETTE[idx % len(_PALETTE)]
        dash = ' stroke-dasharray="6 4"' if name == "ionization" else ""
        pts = " ".join(f"{px(float(xv)):.2f},{py(float(yv)):.2f}" for xv, yv in zip(x, y))
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
            f'font-family="sans-serif">{escape(name)}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", newline="\n")


_POP_NAMES = {
    Basis.BRIGHTDARK4: ("pop_bg", "pop_be", "pop_dg", "pop_de"),
    Basis.BRIGHT2: ("pop_bg", "pop_be"),
    Basis.TWOLEVEL2: ("pop_g", "pop_e"),
    Basis.ORIGINAL4: ("pop_g1", "pop_g2", "pop_e1", "pop_e2"),
}


def render_svg(data: Trajectory | FanoProfile, path) -> None:
    """Render a self-contained SVG line plot of a trajectory or profile.

    Trajectories get one polyline per population series that is ever
    nonzero, plus the ionization; profiles get the ionization versus
    detuning.
    """
    if isinstance(data, Trajectory):
        if not data.states:
            raise ValueError("cannot plot an empty trajectory")
        pops = np.abs(data.amplitudes()) ** 2
        names = _POP_NAMES[data.states[0].basis]
        series = [
            (name, pops[:, i]) for i, name in enumerate(names) if pops[:, i].max() > 1e-12
        ]
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
            Path(cfg.out).write_text(f"trapping_delta\n{_FMT(value)}\n", newline="\n")
        print(f"trapping delta = {value:.6f}")
        return 0

    if cfg.command == "eigen":
        es = eigensystem(build_hamiltonian(cfg.params, cfg.model))
        if cfg.out is not None:
            lines = ["index,re_lambda,im_lambda"]
            lines += [f"{i},{_FMT(v.real)},{_FMT(v.imag)}" for i, v in enumerate(es.values)]
            Path(cfg.out).write_text("\n".join(lines) + "\n", newline="\n")
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
    lines = ["t,ionization_degenerate,ionization_shifted"]
    for k, t in enumerate(report.times):
        lines.append(
            f"{_FMT(t)},{_FMT(report.ionization_degenerate[k])},{_FMT(report.ionization_shifted[0][k])}"
        )
    Path(out).write_text("\n".join(lines) + "\n", newline="\n")
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
            cfg = replace(cfg, tol=args.tol)
        return run(cfg)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
