"""Command-line interface: outputs, exit codes, determinism, config handling."""

import argparse
import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ompath
from ompath import TripleWell
from ompath.cli import build_parser, main, parse_args
from ompath.experiments import named_points
from test_flow import NaNHessianTripleWell


def run(argv):
    return main(argv)


class TestCriticalPoints:
    def test_writes_five_point_set(self, tmp_path):
        code = run(["critical-points", "--potential", "triple-well", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "critical_points.json").read_text())
        assert len(doc) == 5
        assert sorted(d["index"] for d in doc) == [0, 0, 0, 1, 1]
        adm = json.loads((tmp_path / "admissibility.json").read_text())
        assert adm["admissible"] is True

    def test_unknown_potential_is_usage_error(self, tmp_path, capsys):
        assert run(["critical-points", "--potential", "bogus", "--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_out_that_is_a_file_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        assert run(["critical-points", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_empty_box_is_usage_error(self, tmp_path):
        code = run(
            ["critical-points", "--potential", "triple-well", "--box", "5,6", "--out", str(tmp_path)]
        )
        assert code == 2


class TestMinimize:
    ARGS = [
        "minimize",
        "--from",
        "S1",
        "--to",
        "S2",
        "--waypoints",
        "0.5,0.5",
        "--objective",
        "J",
        "--nodes",
        "400",
        "--maxiter",
        "2000",
    ]

    def test_writes_path_trace_summary(self, tmp_path):
        assert run(self.ARGS + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "path.csv").exists()
        assert (tmp_path / "trace.csv").exists()
        doc = json.loads((tmp_path / "minimize_summary.json").read_text())
        assert doc["converged"] is True
        assert doc["objective"] == "J"
        # coarse mesh: the layer is slightly under-resolved, so a loose check
        assert doc["report"]["J_eps"] == pytest.approx(0.0776, abs=5e-3)

    def test_deterministic_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run(self.ARGS + ["--jitter", "0.01", "--seed", "7", "--out", str(out)]) == 0
            outs.append((out / "minimize_summary.json").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_endpoints_is_usage_error(self, tmp_path):
        assert run(["minimize", "--from", "S1", "--out", str(tmp_path)]) == 2

    def test_continuation_must_end_at_eps(self, tmp_path, capsys):
        argv = self.ARGS + ["--eps", "1e-3", "--continuation", "0.1,0.03", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert "must end at eps" in capsys.readouterr().err
        assert not (tmp_path / "minimize_summary.json").exists()

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        argv = ["minimize", "--config", str(tmp_path / "missing.cfg"), "--from", "M1", "--to", "M2"]
        assert run(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--maxiter", "-5", "max_iter must be >= 0"), ("--jitter", "-0.5", "jitter must be >= 0")],
        ids=["maxiter", "jitter"],
    )
    def test_negative_budget_or_jitter_is_usage_error(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["minimize", "--from", "M1", "--to", "M2", "--nodes", "50", flag, value]
        assert run(argv + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["minimize", "--from", "M1", "--to", "M2", "--eps", "nan"],
            ["minimize", "--from", "M1", "--to", "M2", "--eps", "inf"],
            ["minimize", "--from", "M1", "--to", "M2", "--continuation", "0.1,nan,0.001"],
            ["figure", "4", "--eps", "nan"],
            ["figure", "1", "--eps", "inf"],
        ],
        ids=["eps-nan", "eps-inf", "continuation-nan", "figure-4-nan", "figure-1-inf"],
    )
    def test_nonfinite_temperature_is_usage_error(self, argv, tmp_path, capsys):
        # a NaN passes "eps <= 0"; rejected before any stage runs, it writes nothing
        out = tmp_path / "out"
        assert run(argv + ["--nodes", "50", "--maxiter", "100", "--out", str(out)]) == 2
        assert "eps must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_start_exits_3_with_dump(self, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(
                [
                    "minimize",
                    "--from",
                    "1e200,0",
                    "--to",
                    "0,0",
                    "--nodes",
                    "10",
                    "--out",
                    str(tmp_path),
                ]
            )
        assert code == 3
        doc = json.loads((tmp_path / "failure.json").read_text())
        assert "error" in doc

    def test_nonfinite_gradient_exits_3(self, tmp_path, monkeypatch, capsys):
        # a NaN in the flow's gradient is a numerical failure (exit 3), not a
        # usage error from the banded solve rejecting its input
        monkeypatch.setattr(ompath.cli, "get_potential", lambda name: NaNHessianTripleWell())
        argv = ["minimize", "--from", "M1", "--to", "M2", "--nodes", "40", "--out", str(tmp_path)]
        assert run(argv) == 3
        doc = json.loads((tmp_path / "failure.json").read_text())
        assert doc["error"] == "gradient non-finite at iteration 4"
        assert "error:" not in capsys.readouterr().err

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2


class TestHeteroclinic:
    def test_gradient_orbit_from_saddle(self, tmp_path):
        code = run(
            ["heteroclinic", "--from", "S1", "--sign", "-1", "--nodes", "500", "--out", str(tmp_path)]
        )
        assert code == 0
        doc = json.loads((tmp_path / "orbit_summary.json").read_text())
        assert doc["kind"].startswith("gradient")
        assert doc["J"] == pytest.approx(2.0 / 27.0, abs=1e-3)
        assert (tmp_path / "orbit.csv").exists()

    def test_from_must_be_critical(self, tmp_path):
        code = run(["heteroclinic", "--from", "0.4,0.4", "--out", str(tmp_path)])
        assert code == 2

    def test_from_a_minimum_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["heteroclinic", "--from", "M0", "--out", str(out)]) == 2
        assert "must be a saddle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--to", "M1"], "--to needs --hamiltonian"),
            (["--waypoints", "0.5,0.5"], "--waypoints needs --hamiltonian"),
            (["--sign", "1", "--to", "S2", "--hamiltonian"], "--sign picks a gradient shot"),
            (["--sign", "-1", "--to", "S2", "--hamiltonian"], "--sign picks a gradient shot"),
            (["--hamiltonian"], "--hamiltonian needs --to"),
        ],
    )
    def test_ignored_flag_is_usage_error(self, tmp_path, capsys, flags, message):
        # refused before any search, shot or flow, with one error line
        out = tmp_path / "out"
        assert run(["heteroclinic", "--from", "S1", *flags, "--nodes", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_unset_sign_is_plus_one(self, tmp_path):
        argv = ["heteroclinic", "--from", "S1", "--nodes", "300"]
        assert run([*argv, "--out", str(tmp_path / "unset")]) == 0
        assert run([*argv, "--sign", "1", "--out", str(tmp_path / "plus")]) == 0
        for name in ("orbit.csv", "orbit_summary.json"):
            assert (tmp_path / "unset" / name).read_bytes() == (tmp_path / "plus" / name).read_bytes()


class TestGraphAndGamma:
    def test_graph_json(self, tmp_path):
        code = run(["graph", "--nodes", "1000", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "transition_graph.json").read_text())
        assert len(doc["nodes"]) == 5
        assert len(doc["edges"]) == 4  # gradient shots only
        phi = np.array([[np.inf if v is None else v for v in row] for row in doc["phi"]])
        np.testing.assert_allclose(phi, phi.T, atol=1e-12)

    def test_graph_hamiltonian_ends_must_be_critical(self, tmp_path, capsys):
        # (0.3, 0.3) is about 0.34 from S1; it must not snap to it
        argv = ["graph", "--hamiltonian", "0.3,0.3:S2", "--nodes", "200", "--out", str(tmp_path)]
        assert run(argv) == 2
        assert "not a critical point" in capsys.readouterr().err
        assert not (tmp_path / "transition_graph.json").exists()

    def test_graph_pair_of_one_point_is_usage_error(self, tmp_path):
        # rejected before any shot or flow runs: exit 2, nothing written and
        # no warning even when warnings are errors
        src = os.path.dirname(os.path.dirname(os.path.abspath(ompath.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argv = ["graph", "--hamiltonian", "S1:S1", "--nodes", "200", "--out", str(tmp_path)]
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "ompath.cli", *argv],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 2
        assert done.stderr == "error: saddle pair (4, 4) names one point twice\n"
        assert not (tmp_path / "transition_graph.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--route", "S1;nan,nan;S2"],
            ["heteroclinic", "--from", "S1", "--hamiltonian", "--to", "nan,nan"],
            ["graph", "--hamiltonian", "nan,nan:S1"],
        ],
        ids=["gamma", "heteroclinic", "graph"],
    )
    def test_nan_point_is_usage_error(self, argv, tmp_path, capsys):
        # a NaN coordinate is at a NaN distance from every point: no match
        out = tmp_path / "out"
        assert run([*argv, "--nodes", "200", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: 'nan,nan' is not a critical point (nearest is nan away)\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, token",
        [
            (["gamma", "--route", "S1;1e200,1e200;S2"], "1e200,1e200"),
            (["heteroclinic", "--from", "S1", "--hamiltonian", "--to", "1e300,0"], "1e300,0"),
        ],
        ids=["gamma", "heteroclinic"],
    )
    def test_huge_point_is_usage_error_without_warning(self, argv, token, tmp_path, capsys):
        # its distance to every point overflows: it reads inf, with no
        # RuntimeWarning (an error under this suite's settings) before the
        # one error line
        out = tmp_path / "out"
        assert run([*argv, "--nodes", "200", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {token!r} is not a critical point (nearest is inf away)\n"
        assert not out.exists()

    def test_graph_pair_without_colon_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["graph", "--hamiltonian", "S1", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: --hamiltonian pair 'S1' is not of the form X:Y\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--hamiltonian", "S1:S2", "--nodes", "2"],
            ["--hamiltonian", "S1:S2", "--nodes=-5"],
            ["--nodes", "2"],
            ["--nodes=-5"],
        ],
        ids=["2", "-5", "no-pair-2", "no-pair--5"],
    )
    def test_graph_pair_with_too_few_nodes_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        # refused before any shot runs, not recorded as two dropped connections,
        # and not ignored when no pair would use it
        def no_shots(*args):
            raise AssertionError("a shot ran")

        monkeypatch.setattr(ompath.heteroclinic, "gradient_shots", no_shots)
        out = tmp_path / "out"
        assert run(["graph", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a saddle-saddle connection needs at least 3 intervals")
        assert not out.exists()

    def test_gamma_route_value(self, tmp_path):
        code = run(["gamma", "--route", "S1,M0,S2", "--nodes", "1000", "--out", str(tmp_path)])
        assert code == 0
        doc = json.loads((tmp_path / "gamma_summary.json").read_text())
        # two transitions of 2/27 each, full dwell at the middle well
        assert doc["report"]["I0"] == pytest.approx(4.0 / 27.0 - 4.0, abs=2e-3)
        assert doc["report"]["jump_cost"] == pytest.approx(4.0 / 27.0, abs=2e-3)

    def test_gamma_bad_route(self, tmp_path):
        assert run(["gamma", "--route", "S1,0.4:0.4", "--out", str(tmp_path)]) == 2

    def test_gamma_route_entries_by_coordinates(self, tmp_path):
        # ';' separates entries whose coordinates hold commas; S2 given by its
        # coordinates gives what S2 given by name gives (the golden outputs pin
        # the bytes of the comma form)
        s2 = ",".join(f"{v:.17g}" for v in named_points(TripleWell())["S2"])
        routes = {"comma": "S1,M0,S2", "names": "S1;M0;S2", "coords": f"S1;M0;{s2}"}
        docs = {}
        for name, route in routes.items():
            assert run(["gamma", "--route", route, "--nodes", "1000", "--out", str(tmp_path / name)]) == 0
            docs[name] = json.loads((tmp_path / name / "gamma_summary.json").read_text())
        assert docs["coords"].pop("route") == ["S1", "M0", s2]
        assert docs["names"].pop("route") == docs["comma"].pop("route") == ["S1", "M0", "S2"]
        assert docs["coords"] == docs["names"] == docs["comma"]


class TestFigure:
    def test_figure_1_outputs(self, tmp_path):
        code = run(["figure", "1", "--out", str(tmp_path)])
        assert code == 0
        fdir = tmp_path / "figure1"
        assert (fdir / "potential_grid.csv").exists()
        assert (fdir / "critical_points.json").exists()
        doc = json.loads((fdir / "figure1_summary.json").read_text())
        assert doc["figure"] == 1
        assert len(doc["critical_points"]) == 5
        assert doc["saddle_contour_level"] == pytest.approx(2.0 / 27.0)

    @pytest.mark.parametrize("number", ["1", "2"])
    def test_too_few_nodes_is_usage_error(self, number, tmp_path, capsys):
        # refused before any file is written, also by figure 1, which runs no path
        out = tmp_path / "out"
        assert run(["figure", number, "--nodes", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: a figure path needs at least 3 intervals, not 2\n"
        assert not out.exists()

    def test_bad_figure_number(self, tmp_path):
        assert run(["figure", "12", "--out", str(tmp_path)]) == 2

    def test_figure_1_critical_points_match_the_command(self, tmp_path):
        assert run(["figure", "1", "--out", str(tmp_path / "fig")]) == 0
        assert run(["critical-points", "--out", str(tmp_path / "cp")]) == 0
        fig = (tmp_path / "fig" / "figure1" / "critical_points.json").read_bytes()
        assert fig == (tmp_path / "cp" / "critical_points.json").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            ["gamma", "--route", "0,0", "--potential", "quadratic"],
            ["figure", "3", "--potential", "double-well-1d"],
            ["graph", "--seed", "3"],
            ["figure", "1", "--jobs", "2"],
        ],
        ids=["gamma-potential", "figure-potential", "graph-seed", "figure-jobs"],
    )
    def test_removed_flags_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()


class TestNegativeValues:
    """A flag's value may start with a minus sign in the ``--flag value`` form."""

    @pytest.mark.parametrize(
        "argv, dest, value",
        [
            (["critical-points", "--box", "-0.5,1.5"], "box", "-0.5,1.5"),
            (["graph", "--box", "-2,2"], "box", "-2,2"),
            (["minimize", "--from", "-0.5,0.2", "--to", "M2"], "start", "-0.5,0.2"),
            (["minimize", "--from", "M1", "--to", "M2", "--waypoints", "-0.2,0.3;0.5,0.5"],
             "waypoints", "-0.2,0.3;0.5,0.5"),
            (["gamma", "--route", "-1,0"], "route", "-1,0"),
        ],
        ids=["box", "graph-box", "from", "waypoints", "route"],
    )
    def test_value_is_not_an_option(self, argv, dest, value):
        assert getattr(parse_args(argv), dest) == value

    def test_default_box_given_as_a_flag(self, tmp_path):
        assert run(["critical-points", "--out", str(tmp_path / "default")]) == 0
        assert run(["critical-points", "--box", "-0.5,1.5", "--out", str(tmp_path / "flag")]) == 0
        for name in ("critical_points.json", "admissibility.json"):
            assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()

    def test_negative_start_runs(self, tmp_path):
        argv = ["minimize", "--from", "-0.5,0.2", "--to", "M2", "--nodes", "50", "--maxiter", "100"]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        assert (tmp_path / "minimize_summary.json").exists()

    def test_missing_value_is_still_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["critical-points", "--box", "--grid", "10", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


# SHA-1 of every file each command writes, as recorded before the commands
# and the figures shared one file writer and one set of experiment steps
OUTPUT_GOLDEN = {
    "figure-2": (
        ["figure", "2", "--nodes", "200"],
        {
            "figure2/figure2_summary.json": "14c75cd1c562073f4676dee396e5d80b93e2197a",
            "figure2/gradient_S1_M0.csv": "db0de2071c93c45d84b2befa7549c8bb583617fe",
            "figure2/gradient_S1_M1.csv": "bdefa8fe3b09a9e072e3e862af9f47a18f699a8b",
            "figure2/gradient_S2_M0.csv": "c15bd91ac9d1ea620479dc9c3774d6e1ecb7f0d6",
            "figure2/gradient_S2_M2.csv": "3d0d2d67c4ccaf71e2fc1b905314e9f30b1257be",
            "figure2/hamiltonian_S1_S2.csv": "63d2dc9a58168e2dcd7c923742c3311dacee7420",
        },
    ),
    "gamma": (
        ["gamma", "--route", "S1,M0,S2", "--nodes", "1000"],
        {"gamma_summary.json": "7a90b51f24a06081f137791b4bb79d1db3df5e0c"},
    ),
    "heteroclinic": (
        ["heteroclinic", "--from", "S1", "--sign", "-1", "--nodes", "300"],
        {
            "orbit.csv": "b82a614d2cd7558d25fa04dd1f3ccd71aafdb22a",
            "orbit_summary.json": "9aa27ddac4d7557fc9d565c1c9ae14c87eeccc46",
        },
    ),
    "minimize": (
        ["minimize", "--from", "M1", "--to", "M2", "--nodes", "100", "--maxiter", "200"],
        {
            "minimize_summary.json": "f118077c862259543ec08cd14d290f207bd65fd3",
            "path.csv": "ed71c5d3ec02de629ba79b72b702ad5166a85830",
            "trace.csv": "03a91047ff52cea42b282312c7425ef9de9bd315",
        },
    ),
}


class TestGoldenOutputs:
    @pytest.mark.parametrize("name", sorted(OUTPUT_GOLDEN))
    def test_output_bytes_unchanged(self, name, tmp_path):
        argv, want = OUTPUT_GOLDEN[name]
        assert run(argv + ["--out", str(tmp_path)]) == 0
        got = {
            str(f.relative_to(tmp_path)): hashlib.sha1(f.read_bytes()).hexdigest()
            for f in tmp_path.rglob("*")
            if f.is_file()
        }
        assert got == want


class TestConfigFile:
    def test_config_fills_defaults(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5\nnodes = 50  # coarse\nobjective = J\n")
        out = tmp_path / "out"
        code = run(
            [
                "minimize",
                "--from",
                "S1",
                "--to",
                "S2",
                "--waypoints",
                "0.5,0.5",
                "--maxiter",
                "500",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "minimize_summary.json").read_text())
        assert doc["eps"] == 0.5
        assert doc["nodes"] == 50
        assert doc["objective"] == "J"

    def test_flags_beat_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5\n")
        out = tmp_path / "out"
        code = run(
            [
                "minimize",
                "--from",
                "S1",
                "--to",
                "S2",
                "--waypoints",
                "0.5,0.5",
                "--objective",
                "J",
                "--nodes",
                "50",
                "--maxiter",
                "500",
                "--eps",
                "0.25",
                "--config",
                str(cfg),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        doc = json.loads((out / "minimize_summary.json").read_text())
        assert doc["eps"] == 0.25

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble = 3\n")
        assert run(["critical-points", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# arguments each command needs before a config file can be read
_REQUIRED = {"heteroclinic": ["--from", "S1"], "gamma": ["--route", "S1,M0,S2"], "figure": ["3"]}


def _defaulted_flags():
    """(command, action) for every flag that has a default or a set of
    choices (``heteroclinic --sign`` is unset by default), in every subcommand."""
    ap = build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    for command, sp in sub.choices.items():
        for action in sp._actions:
            named = action.option_strings and action.dest not in ("help", "config")
            if named and (action.default is not None or action.choices):
                yield command, action


def _other_value(action) -> str:
    """A value of the flag's type that is not its default."""
    if action.choices:
        return str(next(c for c in action.choices if c != action.default))
    if action.type is int:
        return str(action.default + 1)
    if action.type is float:
        return "0.5"
    return "0.25,0.75"


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "command,action",
        list(_defaulted_flags()),
        ids=lambda v: v if isinstance(v, str) else v.option_strings[-1][2:],
    )
    def test_config_key_equals_flag(self, tmp_path, command, action):
        key = action.option_strings[-1][2:]
        if action.nargs == 0:
            value, flag = "true", f"--{key}"
        else:
            value = _other_value(action)
            flag = f"--{key}={value}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        base = [command, *_REQUIRED.get(command, [])]
        from_config = vars(parse_args(base + ["--config", str(cfg)]))
        from_flag = vars(parse_args(base + [flag]))
        assert from_config.pop("config") == str(cfg)
        assert from_flag.pop("config") is None
        assert from_config == from_flag
        assert from_flag[action.dest] != action.default

    def test_explicit_default_beats_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.5\n")
        args = parse_args(["minimize", "--eps", "0.001", "--config", str(cfg)])
        assert args.eps == 0.001

    def test_out_of_choices_value_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sign = 5\n")
        with pytest.raises(SystemExit) as exc:
            run(["heteroclinic", "--from", "S1", "--config", str(cfg), "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
