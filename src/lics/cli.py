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
import os
import stat
import sys
from collections.abc import Callable, Iterator
from contextlib import contextmanager, suppress
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .analysis import (
    _DELTA_WINDOW,
    DegeneracyReport,
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
    _map_rows,
    evolve,
    model_eigenvalues,
)
from ._text import _F2_CHUNK, f2_points, g17_rows
from .model import Params
from .transforms import _BRIGHT_DARK_MAP, Basis

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

    Reports malformed lines, unknown or repeated keys, bad numbers and
    missing required keys by line number or key name.  ``delta = trap`` is
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
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
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

# cells per formatted block: formatting takes up to about 110 bytes a cell,
# far more than the numbers, so neither the table nor its text is held whole
_CSV_CELLS = 1 << 14


@contextmanager
def _replacing(path) -> Iterator[BinaryIO]:
    """A binary file to write instead of ``path``.  The file that ``path``
    resolves to through any symlinks, if it is regular or does not exist,
    is written under a hidden temporary name in its directory, created
    afresh (an entry already at that name is removed, never written
    through), with the old file's mode and, where allowed, owner.  Once
    the temporary is complete the old file is removed and the temporary
    renamed to it: a rename over a file would make ext4 write the new one
    out first.  On any exception, an interrupt too, the temporary is
    removed; before the rename the old file is left as it was, and between
    its removal and the rename the path holds no file.  Anything else, a
    device or a FIFO, is written in place."""
    try:
        old = os.stat(path)
    except OSError:  # missing, or unreachable: opening the temporary reports it
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(path, "wb") as f:
            yield f
        return
    # a link stays: the file it points to is replaced
    target = os.path.realpath(path) if os.path.islink(path) else os.fspath(path)
    head, name = os.path.split(target)
    # 50 characters take at most 200 bytes, so the name fits within NAME_MAX (255)
    part = os.path.join(head, f".{name[:50]}.{os.getpid()}.part")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        try:
            fd = os.open(part, flags, 0o666)
        except FileExistsError:  # left by an earlier process, or planted there
            os.unlink(part)
            fd = os.open(part, flags, 0o666)
    except OSError as exc:  # an error names the output, not its temporary
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with open(fd, "wb") as f:
            if old is not None:  # each call writes the inode, so only where it differs
                new = os.fstat(f.fileno())
                if (new.st_uid, new.st_gid) != (old.st_uid, old.st_gid):
                    with suppress(PermissionError):
                        os.fchown(f.fileno(), old.st_uid, old.st_gid)
                if stat.S_IMODE(new.st_mode) != stat.S_IMODE(old.st_mode):
                    os.fchmod(f.fileno(), stat.S_IMODE(old.st_mode))
            yield f
        if old is not None:
            with suppress(FileNotFoundError):
                os.unlink(target)
        os.replace(part, target)
    except BaseException:
        Path(part).unlink(missing_ok=True)
        raise


def _write_rows(path, header: str, n_rows: int, block) -> None:
    """Write ``header`` and ``n_rows`` rows of a float table, 17 significant
    digits per cell so that parsing the text recovers the exact double.
    ``block(rows)`` returns the table's rows in the slice ``rows``; each
    block is formatted as a whole, into the bytes ``"%.17g" % value``
    gives for every cell, and written piece by piece before the next is
    formed."""
    step = max(1, _CSV_CELLS // (header.count(",") + 1))
    with _replacing(path) as f:
        f.write(header.encode() + b"\n")
        for start in range(0, n_rows, step):
            f.writelines(g17_rows(block(slice(start, start + step))))


def _columns(*columns: np.ndarray):
    """The ``block`` of ``_write_rows`` for a table of these columns."""
    return lambda rows: np.column_stack([c[rows] for c in columns])


def write_csv(data: Trajectory | FanoProfile | DegeneracyReport, path) -> None:
    """Write a trajectory, detuning profile or degeneracy report as CSV
    (LF newlines), streamed in blocks of rows.  A trajectory row holds the
    time, the real and imaginary parts of the amplitudes in the bright/dark
    basis (an original-basis trajectory is mapped onto it, block by block,
    into a fresh array; 2-state models fill the dark columns with zeros),
    the populations and the ionization; a report row holds the time and
    both ionizations."""
    if isinstance(data, Trajectory):

        def block(rows: slice) -> np.ndarray:
            amps = np.ascontiguousarray(data.amps[rows])
            if data.basis is Basis.ORIGINAL4:
                # amps may be a view of data.amps: never map it in place
                amps = _map_rows(_BRIGHT_DARK_MAP, amps, np.empty_like(amps))
            if amps.shape[1] == 2:
                amps = np.hstack([amps, np.zeros_like(amps)])
            # hypot (Python's abs) and libm's pow keep the digits stable: np.abs and x * x differ in the last bit
            pops = np.float_power(np.hypot(amps.real, amps.imag), 2.0)
            return np.column_stack([data.grid.times(rows), amps.view(np.float64), pops, data.ionization[rows]])

        _write_rows(path, TRAJECTORY_HEADER, data.grid.n_samples, block)
    elif isinstance(data, FanoProfile):
        if data.deltas.size == 0:
            raise ValueError("cannot write an empty profile")
        _write_rows(path, PROFILE_HEADER, len(data.deltas), _columns(data.deltas, data.ionization))
    elif isinstance(data, DegeneracyReport):
        columns = _columns(data.times, data.ionization_degenerate, data.ionization_shifted)
        _write_rows(path, "t,ionization_degenerate,ionization_shifted", len(data.times), columns)
    else:
        raise TypeError(f"cannot write {type(data).__name__} as CSV")


# ---------------------------------------------------------------------------
# SVG output

_PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b")
_WIDTH, _HEIGHT = 760, 480
_ML, _MR, _MT, _MB = 64, 168, 28, 48


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _nice_ticks(lo: float, hi: float) -> list[float]:
    # Python floats: a sum past the largest double is inf, without a warning
    lo, hi = float(lo), float(hi)
    span = hi - lo
    raw = span / 6  # about six ticks per axis
    if not 0 < raw < np.inf:  # an empty span, or one that underflows or overflows
        return [lo] if span <= 0 else [lo, hi]
    mag = float(10.0 ** np.floor(np.log10(raw)))
    step = next((s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw), None)
    if step is None:  # a span below about 6e-323, whose power of ten underflows
        return [lo, hi]
    ticks = []
    t = float(np.ceil(lo / step)) * step
    # the top plus its margin is inf near the largest double; a tick past it is inf too
    while t <= hi + 1e-9 * span and t < np.inf:
        if t >= lo - 1e-9 * span:  # the first can round below lo on a span of a few ulps
            ticks.append(0.0 if abs(t) < 1e-12 * span else t)
        if t + step == t:  # a step below half an ulp of t
            break
        t += step
    return ticks


# a plotted column, x or y: a function that forms its values in a slice of rows
_Column = Callable[[slice], np.ndarray]


def _rows_of(values) -> _Column:
    """The column of values that are already held: their rows as floats."""
    return np.asarray(values, dtype=float).__getitem__


def _extent(n: int, column: _Column) -> tuple[float, float]:
    """The smallest and largest of a column's ``n`` values, formed one
    ``_F2_CHUNK`` of rows at a time; (inf, -inf) for no values."""
    lo, hi = np.inf, -np.inf
    for start in range(0, n, _F2_CHUNK):
        values = column(slice(start, start + _F2_CHUNK))
        lo, hi = np.min(values, initial=lo), np.max(values, initial=hi)
    return float(lo), float(hi)


def _svg_line_plot(path, n: int, x: _Column, series: list[tuple[str, _Column]], xlabel: str) -> None:
    """Plot each named series of ``n`` points against ``x``.  Every column
    is asked for one chunk of rows at a time, for its range and again for
    its polyline, so no whole column of values or of pixels is held."""
    if n == 0:
        raise ValueError("cannot plot empty data")
    xmin, xmax = _extent(n, x)
    if xmax == xmin:  # + 1.0 alone is absorbed from 2**53 on
        xmax = max(xmin + 1.0, float(np.nextafter(xmin, np.inf)))
    ranges = [_extent(n, y) for _, y in series]
    ymin = min(0.0, *(lo for lo, _ in ranges))
    ymax = max(hi for _, hi in ranges)
    if ymax <= ymin:
        ymax = ymin + 1.0

    plot_w = _WIDTH - _ML - _MR
    plot_h = _HEIGHT - _MT - _MB

    # a span that overflows is taken at half scale, on both sides of the
    # division; so is the y span if its 5 % headroom above the top overflows
    scale = 0.5 if xmax - xmin == np.inf else 1.0
    x0, width = scale * xmin, scale * xmax - scale * xmin
    yscale = 1.0 if ymax + 0.05 * (ymax - ymin) < np.inf else 0.5
    y0, y1 = yscale * ymin, yscale * ymax
    y1 += 0.05 * (y1 - y0)
    height = y1 - y0
    # the padded top, for the ticks; at half scale it can pass the largest double
    ymax = min(y1 / yscale, sys.float_info.max)

    def px(v: float) -> float:
        return _ML + (scale * v - x0) / width * plot_w

    def py(v: float) -> float:
        return _MT + (y1 - yscale * v) / height * plot_h

    with _replacing(path) as f:

        def line(text: str) -> None:
            f.write(text.encode() + b"\n")

        line('<?xml version="1.0" encoding="UTF-8"?>')
        line(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        )
        line(f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
        line(
            f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
            'fill="none" stroke="#222" stroke-width="1"/>'
        )
        for t in _nice_ticks(xmin, xmax):
            xp = px(t)
            line(
                f'<line x1="{xp:.2f}" y1="{_MT + plot_h}" x2="{xp:.2f}" '
                f'y2="{_MT + plot_h + 5}" stroke="#222"/>'
            )
            line(
                f'<text x="{xp:.2f}" y="{_MT + plot_h + 18}" font-size="11" '
                f'text-anchor="middle" font-family="sans-serif">{t:g}</text>'
            )
        for t in _nice_ticks(ymin, ymax):
            yp = py(t)
            line(f'<line x1="{_ML - 5}" y1="{yp:.2f}" x2="{_ML}" y2="{yp:.2f}" stroke="#222"/>')
            line(
                f'<text x="{_ML - 8}" y="{yp + 4:.2f}" font-size="11" '
                f'text-anchor="end" font-family="sans-serif">{t:g}</text>'
            )
        line(
            f'<text x="{_ML + plot_w / 2:.2f}" y="{_HEIGHT - 12}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{_escape(xlabel)}</text>'
        )

        # px and py work elementwise on arrays, with the same operations as on a float
        points = f2_points(n, x, [y for _, y in series], px, py)
        for idx, ((name, _), pieces) in enumerate(zip(series, points)):
            color = "#444444" if name == "ionization" else _PALETTE[idx % len(_PALETTE)]
            dash = ' stroke-dasharray="6 4"' if name == "ionization" else ""
            # each polyline goes to the file piece by piece, never whole
            f.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.6"{dash} points="'.encode())
            f.writelines(pieces)
            line('"/>')
            ly = _MT + 16 + 18 * idx
            lx = _ML + plot_w + 12
            line(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="1.6"{dash}/>'
            )
            line(
                f'<text x="{lx + 28}" y="{ly}" font-size="12" '
                f'font-family="sans-serif">{_escape(name)}</text>'
            )
        line("</svg>")


def render_svg(data: Trajectory | FanoProfile | DegeneracyReport, path) -> None:
    """Render a self-contained SVG line plot of a trajectory, profile or
    degeneracy report.

    Trajectories get one polyline per column of ``data.amps`` whose
    population is ever nonzero, named after ``data.basis``, plus the
    ionization; profiles get the ionization versus detuning; reports get
    the degenerate and shifted ionization versus time.
    """
    if isinstance(data, Trajectory):
        n = data.grid.n_samples
        pops = [
            (f"pop_{label}", lambda rows, j=j: np.abs(data.amps[rows, j]) ** 2)
            for j, label in enumerate(data.basis.labels)
        ]
        series = [(name, pop) for name, pop in pops if _extent(n, pop)[1] > 1e-12]
        series.append(("ionization", _rows_of(data.ionization)))
        _svg_line_plot(path, n, data.grid.times, series, "t / T")
    elif isinstance(data, FanoProfile):
        series = [("ionization", _rows_of(data.ionization))]
        _svg_line_plot(path, len(data.deltas), _rows_of(data.deltas), series, "delta (1/T)")
    elif isinstance(data, DegeneracyReport):
        series = [("degenerate", _rows_of(data.ionization_degenerate)), ("shifted", _rows_of(data.ionization_shifted))]
        _svg_line_plot(path, len(data.times), _rows_of(data.times), series, "t / T")
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
    lo = cfg.delta_min if cfg.delta_min is not None else _DELTA_WINDOW[0]
    hi = cfg.delta_max if cfg.delta_max is not None else _DELTA_WINDOW[1]
    if not hi > lo:
        raise ConfigError(f"delta_max must exceed delta_min, got [{lo}, {hi}]")
    if hi - lo == np.inf:
        raise ConfigError(f"delta_max - delta_min must be finite, got [{lo}, {hi}]")
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
            _write_rows(cfg.out, "trapping_delta", 1, _columns(np.array([value])))
        print(f"trapping delta = {value:.6f}")
        return 0

    if cfg.command == "eigen":
        values = model_eigenvalues(cfg.params, cfg.model)
        if cfg.out is not None:
            columns = _columns(np.arange(len(values)), values.real, values.imag)
            _write_rows(cfg.out, "index,re_lambda,im_lambda", len(values), columns)
        # + 0.0 turns a negative zero from rounding into +0.000000
        shown = ", ".join(f"{v.real:.6f}{round(v.imag, 6) + 0.0:+.6f}i" for v in values)
        print(f"eigenvalues ({cfg.model}): {shown}")
        return 0

    if cfg.command not in COMMANDS:
        raise ConfigError(f"unknown command {cfg.command!r}, expected one of {COMMANDS}")

    out = _require_out(cfg)
    if cfg.plot and Path(out).suffix.lower() == ".svg":
        raise ConfigError(f"out {out!r} ends in .svg, so the plot would overwrite the CSV")
    if cfg.command == "evolve":
        data = evolve(cfg.params, cfg.model, cfg.init, TimeGrid(cfg.t_start, cfg.t_end, cfg.n_samples))
        summary = (
            f"evolve {cfg.model}/{cfg.init}: final ionization = "
            f"{data.ionization[-1]:.6f} at t = {cfg.t_end:g}"
        )
    elif cfg.command == "fano":
        data = fano_scan(cfg.params, _resolve_delta_grid(cfg), cfg.t_obs, cfg.init, cfg.model)
        summary = (
            f"fano {cfg.model}/{cfg.init}: min ionization = {data.ionization.min():.6f} "
            f"at delta = {data.min_delta:.6f}; max ionization = {data.ionization.max():.6f}"
        )
    else:
        if cfg.params.shift_g != cfg.params.shift_e:
            raise ConfigError("command 'nondeg' expects shift_g == shift_e (one common splitting)")
        grid = TimeGrid(cfg.t_start, cfg.t_end, cfg.n_samples)
        data = degeneracy_validity(cfg.params, grid, _resolve_delta_grid(cfg), cfg.tol)
        summary = (
            f"nondeg shift = {cfg.params.shift_g:g}: sup amplitude difference = {data.sup_state_diff:.6f}; "
            f"profile minima: degenerate {data.profile_min_degenerate:.6f}, "
            f"shifted {data.profile_min_shifted:.6f}"
        )
    write_csv(data, out)
    if cfg.plot:
        render_svg(data, _svg_path(out))
    print(f"{summary}; wrote {out}")
    return 0


_PARSER = argparse.ArgumentParser(
    prog="lics",
    description="Multilevel laser-induced continuum structure: evolution, trapping and detuning scans.",
)
_PARSER.add_argument("config", help="path to a 'key = value' run configuration file")
_PARSER.add_argument("--out", help="output path, overrides the config")
_PARSER.add_argument("--plot", action="store_true", help="also write an SVG plot")
_PARSER.add_argument("--tol", type=float, help="integration tolerance, overrides the config")

# the largest config read; the shipped ones take under 500 bytes
_MAX_CONFIG_BYTES = 1 << 16


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.config, "rb") as f:
            raw = f.read(_MAX_CONFIG_BYTES + 1)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    if len(raw) > _MAX_CONFIG_BYTES:
        print(f"error: config {args.config} is larger than {_MAX_CONFIG_BYTES} bytes", file=sys.stderr)
        return 1
    try:
        cfg = parse_config(raw.decode())
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
        cause = "" if exc.__cause__ is None else f": {exc.__cause__}"
        print(f"error: {exc}{cause}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
