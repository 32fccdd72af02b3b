"""Benchmark of the ``lics`` command line on scan, trajectory and splitting workloads.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout; nothing needs to
be installed.  A run writes the workload's configurations to a temporary
directory under ``bench/results/``, then calls ``lics.cli.main`` on them
in-process, one whole round of commands after another, until
``--seconds`` have passed.  Outputs are checked against an independent
oracle after the timed region.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics and installs no wrappers.
``--trace 1`` wraps the public functions of every ``lics`` module and
reports per-layer metrics, each divided by the number of commands run;
its spans are saved to ``bench/results/spans-<workload>.npz``.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads here or in a set-up subprocess:
# the matrices are 4x4, so threads only add scheduling noise
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
RESULTS = BENCH / "results"

SETUP_REPEATS = 9
IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import lics.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)

# (metric, unit, traced function or "module." for all of a module, figure)
_DYNAMICS = ("eigensystem", "propagate_expm", "evolve", "integrate")
SPAN_METRICS = [
    ("cli.parse_config_s", "s", "cli.parse_config", "total"),
    ("cli.write_csv_s", "s", "cli.write_csv", "total"),
    ("cli.render_svg_s", "s", "cli.render_svg", "total"),
    ("analysis.fano_scan_self_s", "s", "analysis.fano_scan", "self"),
    ("analysis.degeneracy_validity_self_s", "s", "analysis.degeneracy_validity", "self"),
    *[(f"dynamics.{f}_calls", "count", f"dynamics.{f}", "calls") for f in _DYNAMICS],
    *[(f"dynamics.{f}_self_s", "s", f"dynamics.{f}", "self") for f in _DYNAMICS],
    ("transforms.to_bright_dark_calls", "count", "transforms.to_bright_dark", "calls"),
    ("transforms.to_bright_dark_self_s", "s", "transforms.to_bright_dark", "self"),
    # every function of lics.model: each one constructs a Hamiltonian
    ("model.build_calls", "count", "model.", "calls"),
    ("model.build_self_s", "s", "model.", "self"),
]
_FIGURE = {"calls": 0, "total": 1, "self": 2}


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (OSError, AttributeError):  # not glibc
    _malloc_trim = None


@dataclass
class Outcome:
    """What the timed region saw, per command and overall."""

    rounds: int = 0
    seconds: list[float] = field(default_factory=list)
    states: int = 0
    errors: list[int] = field(default_factory=list)
    last_ok: list[bool] = field(default_factory=list)
    stdout: list[str] = field(default_factory=list)
    digest: list[str | None] = field(default_factory=list)
    changed: list[bool] = field(default_factory=list)


def _digest(csv: Path, stdout: str) -> str:
    h = hashlib.sha256(stdout.encode())
    for path in (csv, csv.with_suffix(".svg")):
        h.update(path.read_bytes() if path.exists() else b"-")
    return h.hexdigest()


def _run_cli(main, conf: Path) -> tuple[int | None, float, str]:
    """One in-process CLI run: exit code (None if it raised), seconds, output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main([str(conf)])
        except Exception:  # a crash counts as a failed operation; the run goes on
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    if code != 0:
        sys.stderr.write(f"{conf.name}: exit {code}\n{err.getvalue()}")
    return code, seconds, out.getvalue()


def write_configs(cmds, directory: Path) -> list[tuple[Path, Path]]:
    directory.mkdir()
    files = []
    for i, cmd in enumerate(cmds):
        conf, csv = directory / f"{i:02d}-{cmd.name}.conf", directory / f"{i:02d}-{cmd.name}.csv"
        conf.write_text(cmd.config_text(str(csv)))
        files.append((conf, csv))
    return files


def timed_rounds(cmds, files, seconds: float) -> Outcome:
    """Run whole rounds of the commands until ``seconds`` have passed."""
    from lics.cli import main

    n = len(cmds)
    res = Outcome(errors=[0] * n, last_ok=[False] * n, stdout=[""] * n, digest=[None] * n, changed=[False] * n)
    start = time.perf_counter()
    while True:
        for i, (cmd, (conf, csv)) in enumerate(zip(cmds, files)):
            # each CLI run normally starts in a fresh process: leave no garbage
            # of the previous command to be collected inside this one, and hand
            # freed heap back, so the peak RSS does not depend on what the
            # previous command left fragmented
            gc.collect()
            if _malloc_trim is not None:
                _malloc_trim(0)
            code, dt, stdout = _run_cli(main, conf)
            res.seconds.append(dt)
            res.last_ok[i] = code == 0
            res.stdout[i] = stdout
            if code != 0:
                res.errors[i] += 1
                continue
            res.states += cmd.states
            # outputs are byte-deterministic, so every round must match the
            # one that the checks read at the end
            digest = _digest(csv, stdout)
            if res.digest[i] is None:
                res.digest[i] = digest
            elif digest != res.digest[i]:
                res.changed[i] = True
        res.rounds += 1
        if time.perf_counter() - start >= seconds:
            return res


def _probe(args: list[str], cwd: Path, repeats: int) -> tuple[list[float], list[str]]:
    """Run a fresh interpreter ``repeats`` times: wall seconds and outputs."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    seconds, outputs = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
        )
        seconds.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{args}: exit {proc.returncode}\n{proc.stderr}")
        outputs.append(proc.stdout)
    return seconds, outputs


def _trap_config(directory: Path) -> Path:
    conf = directory / "trap.conf"
    lines = [f"{k} = {v!r}" for k, v in workloads.STRONG.items()] + ["command = trap"]
    conf.write_text("\n".join(lines) + "\n")
    return conf


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(tracer, commands_run: int) -> dict:
    totals = tracer.totals()
    metrics = {}
    for name, unit, select, figure in SPAN_METRICS:
        k = _FIGURE[figure]
        value = sum(v[k] for key, v in totals.items() if key == select or select.endswith(".") and key.startswith(select))
        metrics[name] = _metric(value / commands_run, unit)
    metrics["cli.write_csv_bytes"] = _metric(tracer.csv_bytes / commands_run, "bytes")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=workloads.FULL,
                 setup_repeats: int = SETUP_REPEATS) -> dict:
    """Measure one workload and check its outputs; returns the result object."""
    RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"run-{workload}-") as tmp_name:
        tmp = Path(tmp_name)
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        import lics.cli  # noqa: F401  (set-up cost is measured in fresh interpreters below)

        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()

        conf = _trap_config(tmp)
        if trace:
            _, probes = _probe(["-c", IMPORT_PROBE], tmp, setup_repeats)
            import_times = [tuple(map(float, out.split())) for out in probes]
        else:
            setup_times, trap_outputs = _probe(["-m", "lics.cli", str(conf)], tmp, setup_repeats)

        # warm-up: one small round, so first-call costs stay out of the timings
        warm = workloads.commands(workload, seed, workloads.TINY)
        timed_rounds(warm, write_configs(warm, tmp / "warmup"), 0.0)
        if tracer is not None:
            tracer.reset()

        cmds = workloads.commands(workload, seed, sizes)
        files = write_configs(cmds, tmp / "out")
        res = timed_rounds(cmds, files, seconds)
        # before the checks import scipy
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.save(RESULTS / f"spans-{workload}.npz")

        import checks

        checked = [i for i in range(len(cmds)) if res.last_ok[i]]
        failures = checks.check_workload(
            workload, [cmds[i] for i in checked], [(files[i][1], res.stdout[i]) for i in checked], seed
        )
        bad = [False] * len(cmds)
        for i, fails in zip(checked, failures):
            for msg in fails:
                sys.stderr.write(f"check failed: {msg}\n")
            bad[i] = bool(fails) or res.changed[i]
            if res.changed[i]:
                sys.stderr.write(f"check failed: {cmds[i].name}: output differs between rounds\n")
        setup_fails = [] if trace else [m for out in trap_outputs for m in checks.check_trap(out, workloads.STRONG)]
        for msg in setup_fails:
            sys.stderr.write(f"check failed: {msg}\n")

    attempted = res.rounds * len(cmds)
    # a command whose output is wrong fails in every round: its output is the same each time
    failed = sum(res.rounds if bad[i] else res.errors[i] for i in range(len(cmds)))
    correct = not any(bad) and not setup_fails
    # each command's median over the rounds, then the median over the commands:
    # unlike one median over every run, it does not shift with the number of
    # rounds that fit, nor with where the seeded command's cost falls
    n = len(cmds)
    per_command = [statistics.median(res.seconds[i::n]) for i in range(n)]
    command_s = statistics.median(per_command)
    shown = " ".join(f"{cmd.name}={t:.3f}" for cmd, t in zip(cmds, per_command))
    print(
        f"# {workload} seed={seed} trace={int(trace)} rounds={res.rounds} commands={attempted} "
        f"command_s={command_s:.4f} median s per command: {shown}"
    )
    if trace:
        metrics = layer_metrics(tracer, attempted)
        metrics["setup.import_numpy_s"] = _metric(statistics.median(t[0] for t in import_times), "s")
        metrics["setup.import_lics_s"] = _metric(statistics.median(t[1] for t in import_times), "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup_times), "s"),
            "command_s": _metric(command_s, "s"),
            "states_per_s": _metric(res.states / sum(res.seconds), "1/s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lics" / "cli.py").is_file():
        print(f"error: no lics sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
