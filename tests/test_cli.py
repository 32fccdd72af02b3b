import dataclasses
import textwrap
import tracemalloc
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from conftest import STRONG
from lics import Basis, FanoProfile, Params, TimeGrid, Trajectory, evolve, trapping_delta
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
    @pytest.mark.parametrize("rows", [4095, 4096, 4097])
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

    def test_two_state_trajectory_fills_dark_columns_with_zeros(self, tmp_path, strong_params):
        traj = evolve(strong_params, "twolevel2", "g1", TimeGrid(0.0, 1.0, 3))
        path = tmp_path / "t2.csv"
        write_csv(traj, path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[5] == "0" and row[7] == "0"  # re_dg, re_de

    def test_profile_schema(self, tmp_path, strong_params):
        profile = FanoProfile(
            np.array([0.0, 0.5]), np.array([0.25, 0.5]), 6.0, "four_state", "g1"
        )
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


class TestRenderSvg:
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
        profile = FanoProfile(
            np.linspace(-1, 1, 21), np.linspace(0.2, 0.8, 21), 6.0, "four_state", "g1"
        )
        path = tmp_path / "prof.svg"
        render_svg(profile, path)
        root = ET.fromstring(path.read_text())
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 1

    def test_label_escape_matches_xml(self):
        from lics.cli import _escape

        text = "a < b & c > d &amp; <tag> \"q\" 'q'"
        assert _escape(text) == escape(text)

    def test_empty_data_writes_nothing(self, tmp_path):
        profile = FanoProfile(np.array([]), np.array([]), 6.0, "four_state", "g1")
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

    def test_missing_config_file(self, capsys):
        assert main(["/nonexistent/path.conf"]) == 1
        assert "error" in capsys.readouterr().err

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
