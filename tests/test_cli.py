import dataclasses
import os
import stat
import textwrap
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from conftest import STRONG, T_FAR, far_detuned_ionization
from lics import (
    Basis,
    DegeneracyReport,
    FanoProfile,
    Params,
    State,
    TimeGrid,
    Trajectory,
    degeneracy_validity,
    effective_hamiltonian,
    evolve,
    fano_scan,
    integrate,
    trapping_delta,
)
from lics import cli
from lics.cli import (
    TRAJECTORY_HEADER,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    render_config,
    render_svg,
    run,
    write_csv,
)

STRONG_LINES = "\n".join(f"{key} = {value}" for key, value in STRONG.items())


def _cfg_text(command: str, **extra) -> str:
    lines = [STRONG_LINES, f"command = {command}"]
    lines += [f"{key} = {value}" for key, value in extra.items()]
    return "\n".join(lines) + "\n"


class TestParseConfig:
    def test_echoes_parameter_values(self):
        cfg = parse_config(_cfg_text("trap"))
        assert cfg.params == Params(**STRONG)
        assert cfg.command == "trap"

    def test_delta_trap_sentinel_resolved_at_load(self):
        cfg = parse_config(_cfg_text("evolve", delta="trap", out="x.csv"))
        assert cfg.params.delta == pytest.approx(0.809, abs=1e-12)
        assert cfg.delta_is_trap

    def test_comments_and_blank_lines_skipped(self):
        text = "# heading\n\ngamma_g = 1.0  # inline\ngamma_e = 2.0\ncommand = trap\n"
        cfg = parse_config(text)
        assert cfg.params.gamma_g == 1.0

    def test_domain_error_names_the_key(self):
        with pytest.raises(ConfigError, match="gamma_g"):
            parse_config("gamma_g = -1\ngamma_e = 2\ncommand = trap\n")

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2.*gamma_x"):
            parse_config("gamma_g = 1\ngamma_x = 2\n")

    def test_malformed_line_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("gamma_g = 1\ngamma_e = 2\nwhat is this\n")

    def test_bad_number_with_line_number(self):
        with pytest.raises(ConfigError, match="line 1.*gamma_g"):
            parse_config("gamma_g = fast\ngamma_e = 2\ncommand = trap\n")

    def test_non_finite_number_rejected(self):
        with pytest.raises(ConfigError, match="line 1.*finite"):
            parse_config("delta = nan\ngamma_g = 1\ngamma_e = 2\ncommand = trap\n")

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError, match="missing required key: command"):
            parse_config("gamma_g = 1\ngamma_e = 2\n")
        with pytest.raises(ConfigError, match="missing required key: gamma_e"):
            parse_config("gamma_g = 1\ncommand = trap\n")

    def test_unknown_command_model_init(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config("gamma_g = 1\ngamma_e = 2\ncommand = dance\n")
        with pytest.raises(ConfigError, match="model"):
            parse_config("gamma_g = 1\ngamma_e = 2\ncommand = trap\nmodel = septet\n")
        with pytest.raises(ConfigError, match="init"):
            parse_config("gamma_g = 1\ngamma_e = 2\ncommand = trap\ninit = g7\n")

    @pytest.mark.parametrize("key", ["n_samples", "delta_steps"])
    def test_grid_sizes_are_capped(self, key):
        assert getattr(parse_config(_cfg_text("fano", **{key: 1000000})), key) == 10**6
        with pytest.raises(ConfigError, match=f"line 9.*{key}.*at most 1000000"):
            parse_config(_cfg_text("fano", **{key: 1000000000}))

    def test_bool_parsing(self):
        assert parse_config(_cfg_text("trap", plot="true")).plot is True
        assert parse_config(_cfg_text("trap", plot="off")).plot is False
        with pytest.raises(ConfigError, match="plot"):
            parse_config(_cfg_text("trap", plot="maybe"))

    @pytest.mark.parametrize(
        "cfg",
        [
            RunConfig(params=Params(**STRONG), command="trap"),
            RunConfig(
                params=Params(**STRONG, delta=0.809),
                command="evolve",
                model="four_state",
                init="g1",
                t_end=6.0,
                n_samples=601,
                out="run.csv",
                plot=True,
            ),
            RunConfig(
                params=Params(**STRONG, delta=0.8090000000000025),
                command="fano",
                delta_min=-10.0,
                delta_max=10.0,
                delta_steps=2001,
                t_obs=6.0,
                delta_is_trap=True,
            ),
            RunConfig(
                params=Params(gamma_g=1.08, gamma_e=2.09, shift_g=0.2, shift_e=0.2, delta=-0.9835),
                command="nondeg",
                t_end=10.0,
                n_samples=101,
                tol=1e-9,
                out="cmp.csv",
            ),
        ],
    )
    def test_round_trip(self, cfg):
        assert parse_config(render_config(cfg)) == cfg

    def test_canonical_text(self):
        cfg = RunConfig(
            params=Params(**STRONG, delta=0.8090000000000025, shift_g=0.25, shift_e=-1),
            command="nondeg",
            model="nondegenerate4",
            init="g2",
            t_start=-1,
            t_end=10.0,
            n_samples=101,
            delta_min=-3.0,
            delta_max=1e-3,
            delta_steps=41,
            t_obs=4.5,
            tol=1e-9,
            out="cmp.csv",
            plot=True,
            delta_is_trap=True,
        )
        assert render_config(cfg) == textwrap.dedent(
            """\
            gamma_g = 5.5
            gamma_e = 12.74
            stark_g = 0.5
            stark_e = 0.6
            q_gg = 2.3
            q_ee = 5.0
            q_eg = 3.4
            delta = trap
            shift_g = 0.25
            shift_e = -1.0
            command = nondeg
            model = nondegenerate4
            init = g2
            t_start = -1.0
            t_end = 10.0
            n_samples = 101
            delta_min = -3.0
            delta_max = 0.001
            delta_steps = 41
            t_obs = 4.5
            tol = 1e-09
            out = cmp.csv
            plot = true
            """
        )

    def test_key_table_matches_run_config(self):
        fields = [f.name for f in dataclasses.fields(RunConfig)]
        assert fields == ["params", *cli._RUN_KEYS, "delta_is_trap"]
        assert cli._PARAM_KEYS == tuple(f.name for f in dataclasses.fields(Params))


def _per_cell_csv(traj: Trajectory) -> str:
    """Reference: the cell-by-cell trajectory writer that the row formatter
    replaced, on numpy scalars."""
    fmt = "{:.17g}".format
    amps = traj.amps if traj.amps.shape[1] == 4 else np.hstack([traj.amps, np.zeros_like(traj.amps)])
    lines = [TRAJECTORY_HEADER]
    for k, t in enumerate(traj.times):
        cells = [fmt(t)]
        for a in amps[k]:
            cells += [fmt(a.real), fmt(a.imag)]
        cells.extend(fmt(abs(a) ** 2) for a in amps[k])
        cells.append(fmt(traj.ionization[k]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class TestWriteCsv:
    @pytest.mark.parametrize("basis", [Basis.BRIGHTDARK4, Basis.TWOLEVEL2])
    # one block of _write_rows holds _CSV_CELLS // 14 trajectory rows
    @pytest.mark.parametrize("rows", [cli._CSV_CELLS // 14, 2 * (cli._CSV_CELLS // 14) + 1, 4095, 4096, 4097])
    def test_matches_the_per_cell_writer(self, tmp_path, rows, basis):
        rng = np.random.default_rng(rows)
        shape = (rows, basis.dim)
        scale = np.exp(rng.uniform(-40.0, 0.0, size=shape))
        amps = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale
        special = [-0.0, 5e-324, 1e300, complex(-0.0, 5e-324), complex(1e300, -0.0), 1e-170j]
        amps.flat[: len(special)] = special
        ion = rng.uniform(-1e-9, 1.0, size=rows)
        ion[:3] = [-0.0, 5e-324, 1e300]
        traj = Trajectory(TimeGrid(-3.0, 7.0, rows), basis, amps, ion)
        with np.errstate(over="ignore"):
            # the cases where numpy's array abs rounds differently are covered
            assert (np.abs(amps) ** 2 != np.array([abs(a) ** 2 for a in amps.flat]).reshape(shape)).any()
            expected = _per_cell_csv(traj).encode()
            write_csv(traj, tmp_path / "rows.csv")
        assert (tmp_path / "rows.csv").read_bytes() == expected

    def test_trajectory_schema_and_first_row(self, tmp_path, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "bright", TimeGrid(0.0, 6.0, 11))
        path = tmp_path / "traj.csv"
        write_csv(traj, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,re_bg,im_bg,re_be,im_be,re_dg,im_dg,re_de,im_de,"
            "pop_bg,pop_be,pop_dg,pop_de,ionization"
        )
        assert len(lines) == 12
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[9]) == pytest.approx(1.0, abs=1e-15)  # pop_bg
        assert float(first[13]) == pytest.approx(0.0, abs=1e-14)  # ionization

    def test_original_basis_trajectory_is_written_bright_dark(self, tmp_path, strong_params):
        """An ORIGINAL4 trajectory, such as ``integrate``'s, is written under
        the bright/dark header: its rows are mapped, never ``data.amps``."""
        grid = TimeGrid(0.0, 1.0, 3)
        s0 = State(Basis.ORIGINAL4, [1.0, 0.0, 0.0, 0.0])
        traj = integrate(effective_hamiltonian(strong_params), s0, grid)
        amps = traj.amps.copy()
        write_csv(traj, tmp_path / "original.csv")
        write_csv(evolve(strong_params, "four_state", "g1", grid), tmp_path / "closed.csv")
        assert np.array_equal(traj.amps, amps)
        original = (tmp_path / "original.csv").read_text().splitlines()
        closed = (tmp_path / "closed.csv").read_text().splitlines()
        assert original[:2] == closed[:2]
        cells = [np.array([row.split(",") for row in lines], dtype=float) for lines in (original[1:], closed[1:])]
        np.testing.assert_allclose(cells[0], cells[1], rtol=0, atol=1e-9)

    def test_two_state_trajectory_fills_dark_columns_with_zeros(self, tmp_path, strong_params):
        traj = evolve(strong_params, "twolevel2", "g1", TimeGrid(0.0, 1.0, 3))
        path = tmp_path / "t2.csv"
        write_csv(traj, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "0" and row[7] == "0"  # re_dg, re_de

    def test_profile_schema(self, tmp_path, strong_params):
        profile = FanoProfile(np.array([0.0, 0.5]), np.array([0.25, 0.5]))
        path = tmp_path / "prof.csv"
        write_csv(profile, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "delta,ionization"
        assert lines[1] == "0,0.25"

    def test_values_round_trip_exactly(self, tmp_path, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 2.0, 7))
        path = tmp_path / "rt.csv"
        write_csv(traj, path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        amps = traj.amps
        for k, row in enumerate(rows):
            assert float(row[1]) == amps[k, 0].real
            assert float(row[2]) == amps[k, 0].imag
            assert float(row[13]) == traj.ionization[k]

    def test_lf_newlines(self, tmp_path, strong_params):
        traj = evolve(strong_params, "bright2", "bright", TimeGrid(0.0, 1.0, 3))
        path = tmp_path / "lf.csv"
        write_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r" not in raw


def _per_pair_points(n, x, ys, fx, fy):
    """Reference: the pair-by-pair polyline writer that the array formatter
    replaced, with x formed whole and the pixel maps applied to whole series."""
    xs = fx(x(slice(None))).tolist()
    for y in ys:
        yield [" ".join(map("%.2f,%.2f".__mod__, zip(xs, fy(y(slice(None))).tolist()))).encode()]


class TestRenderSvg:
    @pytest.mark.parametrize("kind", ["trajectory", "profile", "report"])
    def test_matches_the_per_pair_writer(self, tmp_path, monkeypatch, strong_params, weak_params, kind):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        if kind == "trajectory":
            data = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 4001))
        elif kind == "profile":
            data = fano_scan(strong_params, np.linspace(-10.0, 10.0, 2001), 6.0)
        else:
            q = dataclasses.replace(weak_params, shift_g=0.2, shift_e=0.2)
            data = degeneracy_validity(q, TimeGrid(0.0, 10.0, 51), np.linspace(-3.0, 1.0, 41), 1e-9)
        render_svg(data, tmp_path / "array.svg")
        monkeypatch.setattr(cli, "f2_points", _per_pair_points)
        render_svg(data, tmp_path / "pairs.svg")
        assert (tmp_path / "array.svg").read_bytes() == (tmp_path / "pairs.svg").read_bytes()

    def test_bright_run_has_three_polylines(self, tmp_path, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "bright", TimeGrid(0.0, 6.0, 61))
        path = tmp_path / "bright.svg"
        render_svg(traj, path)
        root = ET.fromstring(path.read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 3

    def test_single_ground_run_has_four_polylines(self, tmp_path, strong_params):
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 61))
        path = tmp_path / "g1.svg"
        render_svg(traj, path)
        root = ET.fromstring(path.read_text())
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polylines) == 4  # bg, be, constant dark, ionization

    def test_profile_plot(self, tmp_path):
        profile = FanoProfile(np.linspace(-1, 1, 21), np.linspace(0.2, 0.8, 21))
        path = tmp_path / "prof.svg"
        render_svg(profile, path)
        root = ET.fromstring(path.read_text())
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_label_escape_matches_xml(self):
        from lics.cli import _escape

        text = "a < b & c > d &amp; <tag> \"q\" 'q'"
        assert _escape(text) == escape(text)

    def test_an_identically_zero_column_draws_no_polyline(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 5)
        amps = np.zeros((5, 4), dtype=complex)
        amps[:, 0] = 0.6
        amps[:, 3] = 0.8j * np.linspace(1.0, 0.5, 5)
        amps[2, 1] = 1e-7  # a population of 1e-14: below the plot's 1e-12
        traj = Trajectory(grid, Basis.BRIGHTDARK4, amps, 1.0 - (np.abs(amps) ** 2).sum(axis=1))
        path = tmp_path / "zero.svg"
        render_svg(traj, path)
        root = ET.parse(path).getroot()
        assert len(root.findall("{http://www.w3.org/2000/svg}polyline")) == 3
        labels = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
        assert labels[-3:] == ["pop_bg", "pop_de", "ionization"]

    def test_peak_memory_is_one_column(self, tmp_path, strong_params):
        """The plot forms every column, the times and the populations as
        well as the pixel coordinates, one chunk of rows at a time: on
        200001 samples of a four-state run (amplitudes 12.8 MB) it peaked
        at 10.1 MB.  Holding one whole population column peaked at
        11.7 MB, the whole time column as well at 12.7 MB, and every
        population column and whole pixel arrays besides at 20.2 MB."""
        p = dataclasses.replace(strong_params, delta=trapping_delta(strong_params))
        traj = evolve(p, "four_state", "g1", TimeGrid(0.0, 6.0, 200001))
        tracemalloc.start()
        try:
            render_svg(traj, tmp_path / "long.svg")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 11.1e6

    def test_a_profile_of_lists(self, tmp_path):
        """Held columns are taken as float arrays, as the CSV writer takes them."""
        path = tmp_path / "lists.svg"
        render_svg(FanoProfile([-1.0, 0.0, 1.0], [0.1, 0.5, 0.2]), path)
        polyline = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert [point.split(",")[0] for point in polyline.get("points").split()] == ["64.00", "328.00", "592.00"]

    def test_empty_data_writes_nothing(self, tmp_path):
        profile = FanoProfile(np.array([]), np.array([]))
        path = tmp_path / "empty.svg"
        with pytest.raises(ValueError):
            render_svg(profile, path)
        assert not path.exists()


class TestRun:
    def test_trap_prints_six_decimals(self, capsys, strong_params):
        cfg = parse_config(_cfg_text("trap"))
        assert run(cfg) == 0
        assert "0.809000" in capsys.readouterr().out

    def test_evolve_row_count(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        cfg = parse_config(
            _cfg_text("evolve", delta="trap", init="bright", t_end=6.0, n_samples=601, out=out)
        )
        assert run(cfg) == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert len(lines) == 602  # header + one row per sample

    def test_fano_summary_reports_bounded_ionization(self, tmp_path, capsys):
        out = tmp_path / "fano.csv"
        cfg = parse_config(
            _cfg_text(
                "fano", init="g1", delta_min=-10.0, delta_max=10.0, delta_steps=51, out=out
            )
        )
        assert run(cfg) == 0
        message = capsys.readouterr().out
        assert "max ionization" in message
        max_ion = float(message.split("max ionization = ")[1].split(";")[0])
        assert max_ion <= 0.5 + 1e-9

    def test_eigen_prints_values(self, capsys):
        cfg = parse_config(_cfg_text("eigen", model="bright2", delta="trap"))
        assert run(cfg) == 0
        assert "eigenvalues" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "model,shown",
        [
            (
                "four_state",
                "-5.825000-5.500000i, 6.825000+0.000000i, 100000000000000000000.000000-12.740000i, "
                "100000000000000000000.000000+0.000000i",
            ),
            ("bright2", "-5.825000-5.500000i, 100000000000000000000.000000-12.740000i"),
            ("twolevel2", "0.500000-2.750000i, 100000000000000000000.000000-6.370000i"),
        ],
    )
    def test_eigen_keeps_the_decay_rates_far_from_resonance(self, tmp_path, capsys, model, shown):
        """At delta = 1e20 LAPACK's error, eps·1e20, swamps the decay rates;
        the closed-form pair keeps them (values checked against mpmath in
        test_dynamics.py)."""
        out = tmp_path / "eigen.csv"
        assert run(parse_config(_cfg_text("eigen", model=model, delta=1e20, out=out))) == 0
        assert capsys.readouterr().out == f"eigenvalues ({model}): {shown}\n"
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [f"{float(re):.6f}{float(im):+.6f}i" for _, re, im in rows] == shown.split(", ")

    def test_eigen_summary_prints_no_negative_zero(self, capsys):
        cfg = parse_config(_cfg_text("eigen", model="four_state", delta="trap"))
        assert run(cfg) == 0
        out = capsys.readouterr().out
        assert "12.875000+0.000000i" in out
        assert "-0.000000i" not in out

    @pytest.mark.parametrize(
        "command,sizes,error",
        [
            ("evolve", dict(n_samples=10**9), ValueError),
            ("fano", dict(delta_steps=10**9), ConfigError),
            ("nondeg", dict(n_samples=10**9), ValueError),
            ("nondeg", dict(delta_steps=10**9), ConfigError),
        ],
    )
    def test_oversized_grids_fail_before_allocating(self, tmp_path, command, sizes, error):
        cfg = RunConfig(params=Params(**STRONG), command=command, out=str(tmp_path / "x.csv"), **sizes)
        tracemalloc.start()
        try:
            with pytest.raises(error, match=next(iter(sizes))):
                run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6
        assert not (tmp_path / "x.csv").exists()

    def test_nondeg_writes_comparison(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        text = (
            "gamma_g = 1.08\ngamma_e = 2.09\nstark_g = 0.33\nstark_e = 0.26\n"
            "q_gg = 2.3\nq_eg = 2.4\nq_ee = 2.5\nshift_g = 0.2\nshift_e = 0.2\n"
            "delta = trap\ncommand = nondeg\nt_end = 10\nn_samples = 51\n"
            f"delta_steps = 41\ndelta_min = -3\ndelta_max = 1\nout = {out}\n"
        )
        assert run(parse_config(text)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,ionization_degenerate,ionization_shifted"
        assert len(lines) == 52
        last = lines[-1].split(",")
        assert float(last[2]) > float(last[1])  # splitting raises the loss

    def test_nondeg_on_negative_times(self, tmp_path):
        """The profiles are observed at the 1 T the trajectories have run,
        not at t_end = -1, which no scan accepts."""
        out = tmp_path / "neg.csv"
        text = _cfg_text("nondeg", t_start=-2, t_end=-1, n_samples=11, delta_steps=21, out=out)
        assert run(parse_config(text)) == 0
        assert out.read_text().splitlines()[1].startswith("-2,")

    def test_missing_out_for_data_commands(self):
        with pytest.raises(ConfigError, match="out"):
            run(parse_config(_cfg_text("evolve")))

    def test_plot_flag_writes_svg(self, tmp_path):
        out = tmp_path / "run.csv"
        cfg = parse_config(
            _cfg_text("evolve", delta="trap", n_samples=41, out=out, plot="true")
        )
        assert run(cfg) == 0
        assert (tmp_path / "run.svg").exists()


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(_cfg_text("evolve", delta="trap", n_samples=21))
        assert main([str(config), "--out", str(out), "--plot"]) == 0
        assert out.exists()
        assert out.with_suffix(".svg").exists()

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "run.conf"
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        config.write_text(_cfg_text("evolve", delta="trap", n_samples=11, out=out_a))
        assert main([str(config), "--out", str(out_b)]) == 0
        assert out_b.exists() and not out_a.exists()

    def test_tol_flag_rejected_without_integrator(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(_cfg_text("evolve", delta="trap", n_samples=11, out=out))
        assert main([str(config), "--tol", "1e-3"]) == 1
        err = capsys.readouterr().err
        assert "--tol" in err and "nondeg" in err
        assert not out.exists()

    def test_tol_flag_reaches_nondeg(self, tmp_path, capsys):
        outputs = []
        for tol, flags in [(1e-3, ["--tol", "1e-8"]), (1e-8, []), (1e-3, [])]:
            config = tmp_path / "run.conf"
            out = tmp_path / f"out{len(outputs)}.csv"
            config.write_text(
                _cfg_text("nondeg", delta="trap", n_samples=11, delta_steps=5, out=out, tol=tol)
            )
            assert main([str(config), *flags]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] != outputs[2]

    @pytest.mark.parametrize("model", ["bright2", "twolevel2"])
    def test_overflow_is_an_error_line(self, tmp_path, capsys, model):
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(_cfg_text("evolve", model=model, init="g1", delta=1e308, n_samples=11, out=out))
        assert main([str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    def test_error_line_names_the_cause(self, tmp_path, capsys):
        """A failed scan point says why it failed, still on one line."""
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(
            _cfg_text(
                "fano", model="nondegenerate4", init="g1", delta_min=0.0, delta_max=1e200,
                delta_steps=2, out=out,
            )
        )
        assert main([str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: propagation failed at delta = 1e+200: the norm grew")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_far_detuned_scan_writes_the_far_value(self, tmp_path, capsys):
        """The eigen route failed at 1e200 for bright2; the closed form
        writes the adiabatic-elimination value."""
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(
            _cfg_text(
                "fano", model="bright2", init="bright", delta_min=0.0, delta_max=1e200,
                delta_steps=2, t_obs=T_FAR, out=out,
            )
        )
        assert main([str(config)]) == 0
        assert capsys.readouterr().err == ""
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert rows[0] == ["delta", "ionization"] and float(rows[2][0]) == 1e200
        expected = far_detuned_ionization(Params(**STRONG), 1e200, "bright2", "bright", T_FAR)
        assert abs(float(rows[2][1]) - expected) < 1e-12

    def test_nondeg_goes_through_the_public_writers(self, tmp_path, monkeypatch, capsys):
        calls = []
        for name in ("write_csv", "render_svg"):

            def spy(data, path, name=name, writer=getattr(cli, name)):
                calls.append((name, type(data)))
                writer(data, path)

            monkeypatch.setattr(cli, name, spy)
        config = tmp_path / "run.conf"
        out = tmp_path / "out.csv"
        config.write_text(
            _cfg_text("nondeg", delta="trap", shift_g=0.1, shift_e=0.1, n_samples=11, delta_steps=5)
        )
        assert main([str(config), "--out", str(out), "--plot"]) == 0
        assert calls == [("write_csv", DegeneracyReport), ("render_svg", DegeneracyReport)]
        assert out.exists() and out.with_suffix(".svg").exists()
        assert capsys.readouterr().out.endswith(f"; wrote {out}\n")

    def test_missing_config_file(self, capsys):
        assert main(["/nonexistent/path.conf"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra,code", [(0, 0), (1, 1)])
    def test_config_size_limit(self, tmp_path, capsys, extra, code):
        """A config of the limit runs; one byte over it is an error, and nothing is written."""
        config = tmp_path / "run.conf"
        text = _cfg_text("fano", delta_steps=11, out=tmp_path / "x.csv")
        config.write_text(text + "#" * (cli._MAX_CONFIG_BYTES + extra - len(text) - 1) + "\n")
        assert main([str(config)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else f"error: config {config} is larger than 65536 bytes\n")
        assert (tmp_path / "x.csv").exists() == (code == 0)

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_an_endless_config_is_an_error_line(self, capsys):
        assert main(["/dev/zero"]) == 1
        assert capsys.readouterr().err == "error: config /dev/zero is larger than 65536 bytes\n"

    def test_a_config_that_is_not_utf8(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_bytes(b"command = trap\n\xff\n")
        assert main([str(config)]) == 1
        assert capsys.readouterr().err.startswith("error: 'utf-8' codec can't decode byte 0xff")

    def test_the_parser_is_built_once(self, tmp_path, monkeypatch, capsys):
        def no_parser(*args, **kwargs):
            raise AssertionError("an ArgumentParser built per call")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", no_parser)
        config = tmp_path / "run.conf"
        config.write_text(_cfg_text("trap"))
        assert main([str(config)]) == 0
        assert capsys.readouterr().out == "trapping delta = 0.809000\n"
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.startswith("usage: lics [-h] [--out OUT] [--plot] [--tol TOL] config\n")

    def test_invalid_config_reports_error(self, tmp_path, capsys):
        config = tmp_path / "bad.conf"
        config.write_text("gamma_g = -2\ngamma_e = 1\ncommand = trap\n")
        assert main([str(config)]) == 1
        assert "gamma_g" in capsys.readouterr().err

    def test_deterministic_csv(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            _cfg_text(
                "fano", delta="trap", init="g1", delta_min=-2.0, delta_max=2.0, delta_steps=41
            )
        )
        out_a = tmp_path / "first.csv"
        out_b = tmp_path / "second.csv"
        assert main([str(config), "--out", str(out_a)]) == 0
        assert main([str(config), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()


def _empty_profile() -> FanoProfile:
    return FanoProfile(np.array([]), np.array([]))


def _run_config(command: str, out: str = "x.csv", **extra):
    """A call that runs a configuration writing to ``out`` in a given directory."""
    return lambda tmp: run(parse_config(_cfg_text(command, out=tmp / out, **extra)))


# a configuration that a repeated key is appended to
_REPEATED = "command = trap\ngamma_g = 1\ngamma_e = 2\n"


class TestRejections:
    """Each rejection path of the CLI module, by the message it raises."""

    @pytest.mark.parametrize(
        "call,error,match",
        [
            (lambda tmp: parse_config(_cfg_text("evolve", n_samples=2.5)), ConfigError, "must be an integer"),
            (lambda tmp: parse_config(_cfg_text("evolve", t_end="")), ConfigError, "empty value for 't_end'"),
            (lambda tmp: write_csv(_empty_profile(), tmp / "x.csv"), ValueError, "empty profile"),
            (lambda tmp: write_csv(object(), tmp / "x.csv"), TypeError, "cannot write object"),
            (lambda tmp: render_svg(_empty_profile(), tmp / "x.svg"), ValueError, "cannot plot empty data"),
            (lambda tmp: render_svg(object(), tmp / "x.svg"), TypeError, "cannot plot object"),
            (_run_config("fano", delta_min=1.0, delta_max=1.0), ConfigError, "delta_max must exceed"),
            (
                lambda tmp: run(RunConfig(params=Params(**STRONG), command="scan", out=str(tmp / "x.csv"))),
                ConfigError,
                "unknown command 'scan'",
            ),
            (_run_config("nondeg", shift_g=0.2, shift_e=0.1), ConfigError, "shift_g == shift_e"),
            (lambda tmp: parse_config(_REPEATED + "gamma_g = 5\n"), ConfigError, "line 4: repeated key 'gamma_g'"),
            # delta = trap sets delta as any value does
            (
                lambda tmp: parse_config(_REPEATED + "delta = trap\ndelta = 0.5\n"),
                ConfigError,
                "line 5: repeated key 'delta'",
            ),
            (
                lambda tmp: parse_config(_REPEATED + "delta = 0.5\ndelta = trap\n"),
                ConfigError,
                "^line 5: repeated key 'delta'$",
            ),
            # the plot goes to the out path with the suffix .svg, which would be the CSV itself
            (_run_config("evolve", "x.svg", n_samples=11, plot="true"), ConfigError, "out '.*x.svg'"),
            (_run_config("fano", "x.SVG", delta_steps=11, plot="true"), ConfigError, "out '.*x.SVG'"),
        ],
    )
    def test_rejected_and_nothing_written(self, tmp_path, call, error, match):
        with pytest.raises(error, match=match):
            call(tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_overflowing_delta_span(self, tmp_path, capsys):
        """hi - lo = inf would make np.linspace warn and return NaN."""
        config = tmp_path / "run.conf"
        config.write_text(_cfg_text("fano", delta_min=-1e308, delta_max=1e308, out=tmp_path / "x.csv", plot="true"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([str(config)]) == 1
        assert "error: delta_max - delta_min must be finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]


def _failing_after_first_piece(pieces_of, exc):
    """``pieces_of``, an iterator of byte pieces, that raises ``exc`` after
    its first piece."""

    def failing(*args):
        pieces = pieces_of(*args)
        yield next(pieces)
        raise exc

    return failing


class TestWholeOutputs:
    """A run replaces each output whole or leaves it as it was."""

    @staticmethod
    def _evolve(tmp_path, n):
        return run(parse_config(_cfg_text("evolve", n_samples=n, out=tmp_path / "run.csv", plot="true")))

    def _outputs(self, tmp_path):
        return {path.name: path.read_bytes() for path in tmp_path.iterdir()}

    @pytest.mark.parametrize("exc", [RuntimeError("formatter failed"), KeyboardInterrupt()])
    def test_a_failed_csv_leaves_both_files(self, tmp_path, monkeypatch, exc):
        self._evolve(tmp_path, 201)
        before = self._outputs(tmp_path)
        monkeypatch.setattr(cli, "g17_rows", _failing_after_first_piece(cli.g17_rows, exc))
        with pytest.raises(type(exc)):
            self._evolve(tmp_path, 401)
        assert self._outputs(tmp_path) == before

    def test_a_failed_svg_leaves_the_old_svg(self, tmp_path, monkeypatch):
        """The guarantee is per file: the CSV written before is the new one."""
        self._evolve(tmp_path, 401)
        new_csv = (tmp_path / "run.csv").read_bytes()
        self._evolve(tmp_path, 201)
        old_svg = (tmp_path / "run.svg").read_bytes()

        f2_points = cli.f2_points

        def failing_points(*args):
            polylines = f2_points(*args)
            yield _failing_after_first_piece(lambda: next(polylines), RuntimeError("formatter failed"))()

        monkeypatch.setattr(cli, "f2_points", failing_points)
        with pytest.raises(RuntimeError, match="formatter failed"):
            self._evolve(tmp_path, 401)
        assert self._outputs(tmp_path) == {"run.csv": new_csv, "run.svg": old_svg}

    def test_a_symlinked_output_keeps_its_link(self, tmp_path):
        """The file the link points to is replaced; the link stays."""
        plain, linked = tmp_path / "plain", tmp_path / "linked"
        plain.mkdir()
        linked.mkdir()
        self._evolve(plain, 201)
        (tmp_path / "real.csv").write_text("old\n")
        (linked / "run.csv").symlink_to("../real.csv")
        self._evolve(linked, 201)
        assert os.readlink(linked / "run.csv") == "../real.csv"
        assert (tmp_path / "real.csv").read_bytes() == (plain / "run.csv").read_bytes()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["linked", "plain", "real.csv"]

    def test_an_existing_output_keeps_its_mode(self, tmp_path):
        self._evolve(tmp_path, 201)
        (tmp_path / "run.csv").chmod(0o640)
        self._evolve(tmp_path, 401)
        assert stat.S_IMODE((tmp_path / "run.csv").stat().st_mode) == 0o640

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="needs /dev/null")
    def test_a_device_is_written_in_place(self, tmp_path, monkeypatch, strong_params):
        """/dev/null is not replaced: nothing is renamed and no temporary is made."""

        def no_replace(*args):
            raise AssertionError("os.replace called on a device")

        monkeypatch.setattr(cli.os, "replace", no_replace)
        write_csv(evolve(strong_params, "bright2", "bright", TimeGrid(0.0, 1.0, 11)), "/dev/null")
        config = tmp_path / "run.conf"
        config.write_text(_cfg_text("fano", delta_steps=11, out="/dev/null"))
        assert main([str(config)]) == 0
        assert stat.S_ISCHR(os.stat("/dev/null").st_mode)
        assert not [name for name in os.listdir("/dev") if name.startswith(".null.")]

    def test_the_old_output_is_removed_before_the_rename(self, tmp_path, monkeypatch):
        """A rename over a file would make ext4 write the new file out first."""
        self._evolve(tmp_path, 201)
        replace, renamed = os.replace, []

        def replace_onto_nothing(src, dst):
            assert not os.path.lexists(dst), f"{dst} still exists"
            renamed.append(os.path.basename(dst))
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", replace_onto_nothing)
        self._evolve(tmp_path, 401)
        assert renamed == ["run.csv", "run.svg"]
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 402

    def test_a_hard_link_keeps_the_old_bytes(self, tmp_path):
        self._evolve(tmp_path, 201)
        old = (tmp_path / "run.csv").read_bytes()
        os.link(tmp_path / "run.csv", tmp_path / "kept.csv")
        self._evolve(tmp_path, 401)
        assert (tmp_path / "kept.csv").read_bytes() == old
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 402

    def test_a_failed_rename_leaves_no_temporary(self, tmp_path, monkeypatch):
        """Between the removal and the rename the path holds no file: the
        previous file or none, never a cut one."""
        self._evolve(tmp_path, 201)

        def failing_replace(*args):
            raise OSError(5, "rename failed")

        monkeypatch.setattr(cli.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename failed"):
            self._evolve(tmp_path, 401)
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.svg"]

    def test_a_first_write_removes_nothing(self, tmp_path, monkeypatch):
        unlinked = []
        monkeypatch.setattr(cli.os, "unlink", unlinked.append)
        self._evolve(tmp_path, 201)
        assert unlinked == []
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.svg"]

    def test_an_output_name_of_249_bytes(self, tmp_path):
        """The temporary's name fits in 255 bytes whenever the output's does."""
        out = tmp_path / ("a" * 245 + ".csv")
        run(parse_config(_cfg_text("fano", delta_steps=11, out=out, plot="true")))
        assert sorted(path.name for path in tmp_path.iterdir()) == [out.name, out.with_suffix(".svg").name]

    @pytest.mark.parametrize("planted", ["symlink", "file"])
    def test_an_entry_at_the_temporary_name_is_not_written_through(self, tmp_path, planted):
        (tmp_path / "victim").write_text("victim\n")
        part = tmp_path / f".run.csv.{os.getpid()}.part"
        if planted == "symlink":
            part.symlink_to("victim")
        else:
            os.link(tmp_path / "victim", part)
        self._evolve(tmp_path, 201)
        assert (tmp_path / "victim").read_text() == "victim\n"
        assert not (tmp_path / "run.csv").is_symlink()
        assert len((tmp_path / "run.csv").read_text().splitlines()) == 202
        assert sorted(path.name for path in tmp_path.iterdir()) == ["run.csv", "run.svg", "victim"]

    def test_a_missing_directory_names_the_output(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(_cfg_text("evolve", n_samples=11, out=tmp_path / "missing" / "run.csv"))
        assert main([str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 2] No such file or directory") and err.endswith("missing/run.csv'\n")
        assert list(tmp_path.iterdir()) == [config]


class TestDegenerateAxes:
    """Plots whose axis spans a few ulps, underflows or overflows."""

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (1.0, 1.0000000000000002),  # the step is below half an ulp of 1
            (1e20, 1.0000000000000002e20),
            (0.0, 5e-324),  # the span's sixth underflows to zero
            (0.0, 5e-323),  # the sixth is subnormal and its power of ten underflows
            (-1e308, 1e308),  # the span overflows
        ],
    )
    def test_ticks_end_without_warnings(self, lo, hi):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ticks = cli._nice_ticks(lo, hi)
        assert all(lo <= t <= hi for t in ticks)

    def test_ticks_of_an_ordinary_axis(self):
        assert cli._nice_ticks(0.0, 6.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert cli._nice_ticks(-10.0, 10.0) == [-10.0, -5.0, 0.0, 5.0, 10.0]

    def test_an_overflowing_x_span(self, tmp_path):
        """xmax - xmin = inf: both ends still land on the plot's edges."""
        path = tmp_path / "wide.svg"
        profile = FanoProfile(np.array([-1e308, 1e308]), np.array([0.1, 0.9]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_svg(profile, path)
        assert "nan" not in path.read_text()
        polyline = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert [point.split(",")[0] for point in polyline.get("points").split()] == ["64.00", "592.00"]

    def test_an_overflowing_y_span(self, tmp_path):
        """ymax - ymin = inf: the span and its headroom are taken at half
        scale, so the points land where the span [-1, 1] puts them."""
        path = tmp_path / "tall.svg"
        profile = FanoProfile(np.array([0.0, 1.0]), np.array([-1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_svg(profile, path)
        assert "nan" not in path.read_text()
        polyline = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert [point.split(",")[1] for point in polyline.get("points").split()] == ["432.00", "47.24"]

    def test_an_x_axis_up_to_near_the_largest_double(self, tmp_path):
        """A tick step past the top of [0, 1.75e308] overflows: the ticks
        stop there, without a warning."""
        path = tmp_path / "far-right.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_svg(FanoProfile(np.array([0.0, 1.75e308]), np.array([0.1, 0.2])), path)
        ticks = [t for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
                 if t.get("text-anchor") == "middle" and t.get("font-size") == "11"]
        assert [t.text for t in ticks] == ["0", "5e+307", "1e+308", "1.5e+308"]

    def test_a_y_axis_up_to_near_the_largest_double(self, tmp_path):
        """The padded top of [0, 1.75e308] is clamped to the largest double,
        and the tick loop's margin above it is inf: no tick goes past it."""
        path = tmp_path / "far-up.svg"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_svg(FanoProfile(np.array([0.0, 1.0]), np.array([0.0, 1.75e308])), path)
        text = path.read_text()
        assert "inf" not in text and "nan" not in text
        ticks = [t for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")
                 if t.get("text-anchor") == "end"]
        assert [t.text for t in ticks] == ["0", "5e+307", "1e+308", "1.5e+308"]

    def test_one_far_detuned_point(self, tmp_path):
        """1e20 + 1.0 is 1e20: the x axis of a single point must still widen."""
        path = tmp_path / "far.svg"
        render_svg(fano_scan(Params(**STRONG), [1e20], 6.0), path)
        polyline = ET.parse(path).getroot().find("{http://www.w3.org/2000/svg}polyline")
        assert polyline.get("points").startswith("64.00,")

    def test_all_zero_profile(self, tmp_path):
        """Without loss (gamma_g = gamma_e = 0) the ionization is 0 everywhere:
        the y axis gets a unit span."""
        path = tmp_path / "flat.svg"
        deltas = np.linspace(-1.0, 1.0, 5)
        profile = fano_scan(Params(gamma_g=0.0, gamma_e=0.0), deltas, 6.0, "g1", "nondegenerate4")
        assert not profile.ionization.any()
        render_svg(profile, path)
        labels = [t.text for t in ET.parse(path).getroot().iter("{http://www.w3.org/2000/svg}text")]
        assert labels[labels.index("-1") + 5 :][:6] == ["0", "0.2", "0.4", "0.6", "0.8", "1"]

    @pytest.mark.parametrize(
        "command,extra",
        [
            ("evolve", dict(t_start=1, t_end=1.0000000000000002, n_samples=2)),
            ("fano", dict(delta_min=1e20, delta_max=1.0000000000000002e20, delta_steps=2)),
            ("fano", dict(delta_min=0.0, delta_max=5e-323, delta_steps=2)),
        ],
    )
    def test_runs_of_a_few_ulps_finish(self, tmp_path, command, extra):
        config = tmp_path / "run.conf"
        out = tmp_path / "run.csv"
        config.write_text(_cfg_text(command, plot="true", out=out, **extra))
        assert main([str(config)]) == 0
        labels = ET.parse(out.with_suffix(".svg")).getroot().iter("{http://www.w3.org/2000/svg}text")
        assert all(0 <= float(t.get("x")) <= cli._WIDTH for t in labels)
