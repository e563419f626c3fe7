import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import sta_coupler
from sta_coupler.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main
from sta_coupler.serialize import format_float

MODEL = ["--omega0", "1.5", "--delta0", "0.1", "--total-length", "25"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(script):
    """Run script in a fresh interpreter that imports this sta_coupler."""
    src = str(Path(sta_coupler.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)


class TestProfile:
    def test_csv_stdout(self, capsys):
        code, out, _ = run(capsys, "profile", *MODEL, "--sta", "--samples", "5")
        assert code == EXIT_OK
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["z", "omega", "delta", "omega_a", "omega_eff", "delta_eff"]
        assert len(rows) == 6
        assert float(rows[1][0]) == -12.5
        assert float(rows[-1][0]) == 12.5

    def test_floats_roundtrip(self, capsys):
        _, out, _ = run(capsys, "profile", *MODEL, "--sta", "--samples", "3")
        rows = list(csv.reader(out.splitlines()))[1:]
        for row in rows:
            for cell in row:
                v = float(cell)
                assert format_float(v) == cell

    def test_json_output_to_file(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        code, _, _ = run(capsys, "profile", *MODEL, "--samples", "3",
                         "--format", "json", "--output", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["columns"][0] == "z"
        assert len(doc["rows"]) == 3
        assert doc["provenance"]["inputs"]["omega0"] == 1.5
        assert "artifact_version" in doc["provenance"]

    def test_bad_samples(self, capsys):
        code, _, err = run(capsys, "profile", *MODEL, "--samples", "1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_sta_is_recorded_and_inert(self, capsys):
        # profile and check evaluate the raw and the counterdiabatic fields
        # either way; only the provenance tells --sta from --no-sta
        for command in ("profile", "check"):
            fmt = ["--samples", "9"] + (["--format", "json"] if command == "profile" else [])
            docs = []
            for flag in ("--sta", "--no-sta"):
                code, out, _ = run(capsys, command, *MODEL, *fmt, flag)
                assert code == EXIT_OK
                docs.append(json.loads(out))
            assert [d["provenance"]["inputs"].pop("sta") for d in docs] == [True, False]
            assert docs[0] == docs[1]
        csvs = [run(capsys, "profile", *MODEL, "--samples", "9", flag)[1]
                for flag in ("--sta", "--no-sta")]
        assert csvs[0] == csvs[1]

    def test_sta_help(self, capsys):
        # the help of the two commands where --sta is inert says so
        inert = "--sta, --no-sta no effect on the values; only recorded in the JSON provenance"
        acts = "--sta, --no-sta use the counterdiabatic effective schedules"
        for command in ("profile", "check", "simulate", "splitter", "sweep", "threshold"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--help"])
            assert exc.value.code == EXIT_OK
            text = " ".join(capsys.readouterr().out.split())
            is_inert = command in ("profile", "check")
            assert (inert in text, acts in text) == (is_inert, not is_inert), command


class TestSimulate:
    def test_final_transfer_in_output(self, capsys):
        code, out, _ = run(capsys, "simulate", *MODEL, "--sta")
        assert code == EXIT_OK
        last = out.splitlines()[-1].split(",")
        assert float(last[2]) == pytest.approx(0.998771, abs=1e-4)

    def test_missing_model_params(self, capsys):
        code, _, err = run(capsys, "simulate", "--omega0", "1.0")
        assert code == EXIT_USAGE
        assert "delta0" in err

    def test_invalid_params(self, capsys):
        code, _, _ = run(capsys, "simulate", "--omega0", "-1", "--delta0",
                         "0.1", "--total-length", "1")
        assert code == EXIT_USAGE

    def test_unwritable_output(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "simulate", *MODEL, "--output", str(path))
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and str(path) in err
        assert out == "" and not path.parent.exists()


class TestSplitter:
    def test_outputs_three_intensities(self, capsys):
        code, out, _ = run(capsys, "splitter", *MODEL, "--sta", "--mode", "direct")
        assert code == EXIT_OK
        header, *rows = out.splitlines()
        assert header == "z,I1,I2,I3"
        last = rows[-1].split(",")
        assert float(last[1]) == pytest.approx(0.5, abs=0.01)
        assert float(last[3]) == pytest.approx(0.5, abs=0.01)

    def test_mode_needs_sta(self, capsys):
        # the raw splitter has no construction to choose
        code, out, err = run(capsys, "splitter", *MODEL, "--mode", "direct")
        assert code == EXIT_USAGE
        assert err == "error: --mode needs --sta\n" and out == ""

    @pytest.mark.parametrize("argv,mode", [
        (["--sta", "--mode", "direct"], "direct"),
        (["--sta"], "reduced_cd"),
        ([], None),
    ])
    def test_records_mode_used(self, argv, mode, capsys):
        code, out, _ = run(capsys, "splitter", "--omega0", "1.5", "--delta0", "0.1",
                           "--total-length", "5", "--tol", "1e-6", *argv, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["provenance"]["inputs"]["mode"] == mode


class TestSweep:
    ARGS = ["sweep", "--axis-x", "omega0:0.5:2:3", "--axis-y",
            "total_length:5:25:2", "--delta0", "0.1", "--sta", "--tol", "1e-6"]

    def test_csv_requires_path(self, capsys):
        code, _, err = run(capsys, *self.ARGS)
        assert code == EXIT_USAGE
        assert "output" in err

    def test_csv_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, *self.ARGS, "--output", str(path))
        assert code == EXIT_OK
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0][0] == "total_length\\omega0"
        assert len(rows) == 3  # header + 2 y-values
        assert len(rows[1]) == 4  # y value + 3 x-values

    def test_json_grid(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        code, _, _ = run(capsys, *self.ARGS, "--format", "json",
                         "--output", str(path))
        assert code == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["axes"]["x"]["name"] == "omega0"
        assert len(doc["grid"]) == 2
        assert len(doc["grid"][0]) == 3
        assert doc["backend"] == "adiabatic-closed-form"
        assert "provenance_sweep" not in doc
        assert doc["provenance"]["inputs"]["metric"] == "final_i2"
        assert doc["provenance"]["inputs"]["mode"] is None

    @pytest.mark.parametrize("argv", [
        ["--mode", "direct"],
        ["--mode", "direct", "--metric", "splitting_infidelity", "--no-sta"],
    ])
    def test_mode_needs_splitting_sta(self, argv, tmp_path, capsys):
        path = tmp_path / "grid.csv"
        code, _, err = run(capsys, *self.ARGS, *argv, "--output", str(path))
        assert code == EXIT_USAGE
        assert err == "error: --mode needs --metric splitting_infidelity and --sta\n"
        assert not path.exists()

    @pytest.mark.parametrize("argv", [
        [*ARGS, "--tol", "1"],
        # omega0 = 0: every cell is the identity and runs no backend
        ["sweep", "--axis-x", "delta0:0:1:2", "--axis-y", "total_length:1:2:2",
         "--omega0", "0", "--tol", "1"],
    ], ids=["sta", "degenerate"])
    def test_tol_checked(self, argv, capsys):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == EXIT_USAGE
        assert err == "error: tol must lie in [1e-12, 1e-4], got 1.0\n" and out == ""

    def test_bad_axis_syntax(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis-x", "omega0:0.5:2"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize("flag,axis", [("--omega0", "--axis-x"),
                                           ("--total-length", "--axis-y")])
    def test_swept_parameter_cannot_be_fixed(self, flag, axis, tmp_path, capsys):
        code, _, err = run(capsys, *self.ARGS, flag, "77",
                           "--output", str(tmp_path / "grid.csv"))
        assert code == EXIT_USAGE
        assert f"{flag} fixes" in err and f"which {axis} sweeps" in err
        assert not (tmp_path / "grid.csv").exists()

    @pytest.mark.parametrize("fixed", [[], ["--omega0", "1", "--delta0", "0.1"],
                                       ["--delta0", "0.1"]], ids=["none", "both", "delta0"])
    def test_duplicate_axes(self, fixed, tmp_path, capsys):
        # named before the fixed flags, whichever of them are given
        path = tmp_path / "grid.csv"
        code, out, err = run(capsys, "sweep", "--axis-x", "omega0:0:1:2", "--axis-y",
                             "omega0:0:1:2", "--total-length", "1", *fixed,
                             "--output", str(path))
        assert (code, out, err) == (EXIT_USAGE, "",
                                    "error: --axis-x and --axis-y both sweep omega0\n")
        assert not path.exists()

    def test_missing_fixed_parameter(self, capsys):
        code, _, err = run(capsys, "sweep", "--axis-x", "omega0:0.5:2:2",
                           "--axis-y", "total_length:5:25:2")
        assert code == EXIT_USAGE
        assert "delta0" in err


class TestThreshold:
    def test_raw_reference(self, capsys):
        code, out, _ = run(capsys, "threshold", "--omega0", "5", "--delta0", "1",
                           "--target", "0.99", "--tol", "1e-8")
        assert code == EXIT_OK
        length = float(out.split()[0])
        assert 1.1 <= length <= 1.4

    def test_tol_checked(self, capsys):
        code, out, err = run(capsys, "threshold", "--omega0", "5", "--delta0", "1",
                             "--sta", "--tol", "1")
        assert code == EXIT_USAGE
        assert err == "error: tol must lie in [1e-12, 1e-4], got 1.0\n" and out == ""

    def test_unreachable_is_numerical_failure(self, capsys):
        code, _, err = run(capsys, "threshold", "--omega0", "0.5", "--delta0", "5",
                           "--length-max", "1", "--tol", "1e-8")
        assert code == EXIT_NUMERICAL
        assert "not reached" in err


class TestCheck:
    def test_reports_bound(self, capsys):
        code, out, _ = run(capsys, "check", *MODEL, "--samples", "801")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert set(doc) == {"max_adiabaticity_ratio", "max_cd_ratio",
                            "bound_satisfied", "provenance"}
        assert doc["max_cd_ratio"] == pytest.approx(2.5054, abs=2e-3)
        assert doc["bound_satisfied"] is False

    def test_zero_mismatch_bound_holds(self, capsys):
        code, out, _ = run(capsys, "check", "--omega0", "1.5", "--delta0", "0",
                           "--total-length", "25")
        assert code == EXIT_OK
        assert json.loads(out)["bound_satisfied"] is True

    def test_bad_samples(self, capsys):
        code, _, err = run(capsys, "check", *MODEL, "--samples", "1")
        assert code == EXIT_USAGE
        assert "samples" in err

    def test_does_not_import_scipy(self, tmp_path):
        # the integrator is in-package, so no command needs scipy: one
        # interpreter runs every command of the cli_session benchmark workload
        sweep_config = tmp_path / "sweep.json"
        sweep_config.write_text(json.dumps({"sweep": {
            "axis_x": "omega0:0:5:4", "axis_y": "delta0:0:5:4", "total_length": 10.0,
            "sta": True, "tol": 1e-6, "metric": "final_i2"}}))
        bad_config = tmp_path / "bad.json"
        bad_config.write_text(json.dumps({"simulate": {"omega0": 1.5, "steps": 100}}))
        acc = ["--omega0", "5", "--delta0", "1", "--tol", "1e-8"]
        commands = [
            (["simulate", *MODEL, "--sta", "--output", str(tmp_path / "s.csv")], EXIT_OK),
            (["profile", *MODEL, "--sta", "--samples", "400", "--output",
              str(tmp_path / "p.csv")], EXIT_OK),
            (["check", *MODEL], EXIT_OK),
            (["splitter", *MODEL, "--sta", "--mode", "reduced_cd", "--format", "json"], EXIT_OK),
            (["sweep", "--config", str(sweep_config), "--format", "json"], EXIT_OK),
            (["sweep", "--axis-x", "omega0:0:5:4", "--axis-y", "delta0:0:5:4",
              "--total-length", "10", "--no-sta", "--tol", "1e-6", "--output",
              str(tmp_path / "w.csv")], EXIT_OK),
            ([*TestSweep.ARGS, "--metric", "splitting_infidelity", "--format", "json"], EXIT_OK),
            (["threshold", *acc, "--no-sta", "--target", "0.99"], EXIT_OK),
            (["threshold", "--omega0", "5", "--delta0", "1", "--sta", "--target", "0.9"], EXIT_OK),
            (["threshold", *acc, "--sta", "--target", "0.99"], EXIT_NUMERICAL),
            (["simulate", "--config", str(bad_config)], EXIT_USAGE),
        ]
        script = (
            "import contextlib, io, sys\n"
            "from sta_coupler.cli import main\n"
            f"for argv, code in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "        got = main(argv)\n"
            "    assert got == code, (argv, got)\n"
            "    assert 'scipy' not in sys.modules, ('scipy was imported', argv)\n"
        )
        proc = run_python(script)
        assert proc.returncode == 0, proc.stderr

    def test_import_leaves_out_the_thread_pool(self):
        # sweeps run serially, whatever workers asks for, so neither the CLI
        # import, which every command pays for, nor a sweep loads a pool
        proc = run_python(
            "import sys, warnings, sta_coupler.cli\n"
            "from sta_coupler.sweep import AxisSpec, SweepSpec, run_sweep\n"
            "assert 'concurrent.futures' not in sys.modules\n"
            "spec = SweepSpec(AxisSpec('omega0', 0.5, 3.0, 3), AxisSpec('delta0', 0.0, 0.5, 2),\n"
            "                 {'total_length': 10.0}, sta=False, tol=1e-6)\n"
            "with warnings.catch_warnings(record=True):\n"
            "    run_sweep(spec, workers=4)\n"
            "assert 'concurrent.futures' not in sys.modules\n")
        assert proc.returncode == 0, proc.stderr


class TestImpossibleGrid:
    # numpy refuses 10**13 samples before it allocates anything; never use a
    # count that it would try to allocate
    HUGE = "10000000000000"

    @pytest.mark.parametrize("argv", [
        ["profile", *MODEL, "--samples", HUGE],
        ["check", *MODEL, "--samples", HUGE],
        ["sweep", "--axis-x", f"omega0:0:1:{HUGE}", "--axis-y", "delta0:0:1:2",
         "--total-length", "10", "--format", "json"],
    ], ids=["profile", "check", "sweep"])
    def test_exits_as_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "out"
        code, stdout, err = run(capsys, *argv, "--output", str(out))
        assert code == EXIT_USAGE
        assert stdout == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: Unable to allocate")
        assert "Traceback" not in err
        assert not out.exists()


class TestRemovedOptions:
    # threshold prints one line and searches the length itself, check always
    # writes JSON, and sweeps run serially
    @pytest.mark.parametrize("argv", [
        ["threshold", "--omega0", "5", "--delta0", "1", "--output", "t.csv"],
        ["threshold", "--omega0", "5", "--delta0", "1", "--format", "json"],
        ["check", *MODEL, "--format", "csv"],
        ["threshold", "--omega0", "5", "--delta0", "1", "--total-length", "5"],
        [*TestSweep.ARGS, "--workers", "2"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestNonFinite:
    @pytest.mark.parametrize("flag,value,field", [
        ("--omega0", "inf", "omega0"),
        ("--delta0", "nan", "delta0"),
        ("--total-length", "inf", "--total-length"),
    ])
    def test_model_params(self, flag, value, field, capsys):
        argv = ["simulate", *MODEL, flag, value]
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert f"{field} must be finite" in err

    @pytest.mark.parametrize("command", ["profile", "simulate", "splitter", "check"])
    def test_total_length_named_as_given(self, command, capsys):
        # not as the half length that ModelParams receives
        code, _, err = run(capsys, command, "--omega0", "1", "--delta0", "0.1",
                           "--total-length", "-2")
        assert code == EXIT_USAGE
        assert err == "error: --total-length must be finite and > 0, got -2.0\n"

    @pytest.mark.parametrize("command", ["profile", "simulate", "splitter", "check"])
    def test_total_length_half_underflows(self, command, capsys):
        # 5e-324 is positive, but its half, which ModelParams receives, is 0.0
        code, out, err = run(capsys, command, "--omega0", "1", "--delta0", "0.1",
                             "--total-length", "5e-324")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: --total-length must be > 0 when halved, got 5e-324\n"

    def test_sweep_total_length_half_underflows(self, capsys):
        code, out, err = run(capsys, "sweep", "--axis-x", "omega0:0:1:2", "--axis-y",
                             "total_length:0:1e-323:3", "--delta0", "0.1", "--format", "json")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: total_length must be > 0 when halved, got 5e-324\n"

    def test_sweep_total_length(self, capsys):
        # checked by SweepSpec, before the first cell builds a ModelParams
        code, _, err = run(capsys, "sweep", "--axis-x", "omega0:0:1:2", "--axis-y",
                           "delta0:0:1:2", "--total-length", "nan", "--format", "json")
        assert code == EXIT_USAGE
        assert err == "error: total_length must be finite, got nan\n"

    @pytest.mark.parametrize("delta0,sta", [("nan", "--no-sta"), ("inf", "--sta"),
                                            ("-1", "--no-sta")])
    def test_degenerate_threshold(self, delta0, sta, capsys):
        # zero coupling scores every length 0 without integrating; the
        # design is still checked
        code, _, err = run(capsys, "threshold", "--omega0", "0", "--delta0", delta0, sta)
        assert code == EXIT_USAGE
        assert "delta0 must be" in err

    def test_axis_bound(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--axis-x", "omega0:0:inf:3",
                  "--axis-y", "total_length:5:25:2", "--delta0", "0.1"])
        assert exc.value.code == EXIT_USAGE
        assert "hi must be finite" in capsys.readouterr().err

    def test_search_range(self, capsys):
        code, _, err = run(capsys, "threshold", "--omega0", "5", "--delta0", "1",
                           "--length-max", "inf")
        assert code == EXIT_USAGE
        assert "search range" in err


class TestNonFiniteSchedule:
    """A schedule that overflows is a numerical failure (exit 3) wherever it
    is evaluated, not a usage error."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--omega0", "1e200", "--delta0", "0.1", "--total-length", "10", "--sta"],
        ["simulate", "--omega0", "1.5", "--delta0", "0.1", "--total-length", "1e-300", "--sta"],
        ["splitter", "--omega0", "1e200", "--delta0", "0.1", "--total-length", "10", "--sta"],
        ["threshold", "--omega0", "1.5", "--delta0", "0.1", "--length-max", "1e-300", "--sta"],
        # k = 2*pi/L overflows, so u = k*z is inf*0 = nan at z = 0
        ["simulate", "--omega0", "1", "--delta0", "1", "--total-length", "1e-320", "--no-sta"],
        ["sweep", "--axis-x", "omega0:0:1:2", "--axis-y", "delta0:0:1:2",
         "--total-length", "1e-320", "--no-sta", "--format", "json"],
    ], ids=["simulate-omega0", "simulate-length", "splitter", "threshold",
            "simulate-raw-length", "sweep-raw-length"])
    def test_generator(self, argv, capsys):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert "non-finite coefficients" in err

    def test_reduced_design_overflow(self, capsys):
        # sqrt(2)*omega0 of the reduced_cd array overflows: a numerical
        # failure, although the base design is a valid one
        code, out, err = run(capsys, "splitter", "--omega0", "1.7e308", "--delta0", "0.1",
                             "--total-length", "10", "--sta")
        assert code == EXIT_NUMERICAL
        assert err == "error: sqrt(2)*omega0 overflows: omega0=1.7e+308\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis-x", "omega0:1e99:1e100:2", "--axis-y", "delta0:0.1:1:2",
         "--total-length", "10", "--sta", "--format", "json"],
        ["threshold", "--omega0", "1e100", "--delta0", "0.1", "--sta", "--target", "0.5",
         "--length-min", "1", "--length-max", "10"],
    ], ids=["sweep", "threshold"])
    def test_dynamic_phase_bound(self, argv, capsys):
        # a finite schedule, but a dynamic phase whose rounding error passes tol
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert err.startswith("error: dynamic phase overflows its bound 9.0e11: Phi=")
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ["check", "--omega0", "1e200", "--delta0", "1e200", "--total-length", "10", "--sta"],
        ["profile", "--omega0", "1.5", "--delta0", "0.1", "--total-length", "1e-320",
         "--sta", "--samples", "3"],
    ], ids=["check", "profile"])
    def test_grid(self, argv, capsys):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_NUMERICAL
        assert "non-finite schedule" in err
        assert out == ""

    def test_closed_form_division_by_zero(self, capsys):
        # omega^2 + delta^2 is the closed form's only divisor: a subnormal
        # omega0 and delta0 underflow it to 0, on a grid and inside the
        # integrator (which names the segment) alike
        for command, segment in [("check", ""), ("simulate", " on [-5.0, 0.0]")]:
            code, out, err = run(capsys, command, "--omega0", "1e-320", "--delta0", "1e-320",
                                 "--total-length", "10", "--sta")
            assert code == EXIT_NUMERICAL, command
            assert err == f"error: omega^2 + delta^2 underflows at z=-5.0{segment}\n", command
            assert out == "", command

    @pytest.mark.parametrize("argv", [
        ["profile", "--omega0", "1e-320", "--delta0", "0.1", "--samples", "3"],
        ["simulate", "--omega0", "1e-320", "--delta0", "0.1"],
        ["check", "--omega0", "1e-100", "--delta0", "1e-100"],
    ], ids=["profile", "simulate", "check"])
    def test_tiny_design_evaluates(self, argv, capsys):
        # a design whose omega^2 + delta^2 stays above 0 has a finite schedule
        code, out, _ = run(capsys, *argv, "--total-length", "10", "--sta")
        assert code == EXIT_OK
        if argv[0] == "check":
            values = list(_numbers(json.loads(out)))
        else:
            values = [float(v) for row in list(csv.reader(out.splitlines()))[1:] for v in row]
        assert values and all(math.isfinite(v) for v in values)


def _numbers(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


_NUMBER = st.one_of(
    st.floats().map(repr),  # includes 0, subnormals, extremes, nan and inf
    st.sampled_from(["0", "5e-324", "1e-320", "1e-300", "1e300", "nan", "inf", "abc"]),
)


class TestFuzz:
    """profile and check, which run no integrator, keep the exit-code
    contract on arbitrary numbers: 0, 2 or 3 and no traceback, and exit 0
    only with finite output; a RuntimeWarning fails the test."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(["profile", "check"]), _NUMBER, _NUMBER, _NUMBER,
           st.integers(2, 50), st.booleans(), st.sampled_from(["csv", "json"]))
    @example("profile", "1.5", "0.1", "1e-320", 3, True, "csv")
    @example("profile", "1e-320", "0.1", "10", 3, True, "json")
    @example("check", "1e200", "1e200", "10", 10, True, "json")
    @example("profile", "0", "0", "1.7976931348623157e+308", 4, False, "csv")
    @example("check", "0", "0", "1.7976931348623157e+308", 4, False, "json")
    def test_exit_contract(self, command, omega0, delta0, length, samples, sta, fmt):
        argv = [command, f"--omega0={omega0}", f"--delta0={delta0}",
                f"--total-length={length}", f"--samples={samples}",
                "--sta" if sta else "--no-sta"]
        if command == "profile":
            argv.append(f"--format={fmt}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), argv
        if code == EXIT_OK:
            text = out.getvalue()
            if command == "profile" and fmt == "csv":
                values = [float(v) for row in list(csv.reader(text.splitlines()))[1:]
                          for v in row]
            else:
                values = list(_numbers(json.loads(text)))
            assert values and all(math.isfinite(v) for v in values), argv


# The integrator's work grows with omega0 * length, so finite draws stay
# small (omega0 * length <= 100); the extremes reach every boundary.
_SMALL_NUMBER = st.one_of(
    st.floats(0.0, 10.0).map(repr),
    st.sampled_from(["0", "5e-324", "1e-320", "1e-300", "1e300",
                     "1.7976931348623157e308", "nan", "inf", "abc"]),
)


class TestFuzzIntegrators:
    """simulate, splitter, threshold and sweep keep the contract of
    TestFuzz: exit 0, 2 or 3 and no traceback, exit 0 only with finite
    output, and no RuntimeWarning.  tol >= 1e-6 and 2x2 sweep grids bound
    the work of each example."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["simulate", "splitter", "threshold", "sweep"]),
           _SMALL_NUMBER, _SMALL_NUMBER, _SMALL_NUMBER, st.booleans(),
           st.sampled_from(["1e-6", "1e-4"]), st.just(2))
    # overflowing integrations, which leaked RuntimeWarnings before failing
    @example("simulate", "1e308", "0.1", "10", False, "1e-6", 2)
    @example("splitter", "1e300", "0.1", "10", False, "1e-6", 2)
    @example("threshold", "1e300", "1", "10", False, "1e-6", 2)
    @example("sweep", "1e300", "1", "5", False, "1e-6", 2)
    # a subnormal STA design: 100 integrations of up to 1 s each before the
    # scan ran in closed form
    @example("threshold", "1e-320", "5.57e-144", "10", True, "1e-4", 2)
    # linspace overflows computing the last sample of this axis
    @example("sweep", "1.7976931348623157e308", "1", "5", False, "1e-6", 4)
    def test_exit_contract(self, command, omega0, delta0, length, sta, tol, count):
        model = [f"--tol={tol}", "--sta" if sta else "--no-sta"]
        if command == "sweep":
            argv = [command, f"--axis-x=omega0:0:{omega0}:{count}",
                    f"--axis-y=delta0:0:{delta0}:2", f"--total-length={length}",
                    "--format=json", *model]
        else:
            argv = [command, f"--omega0={omega0}", f"--delta0={delta0}", *model]
            if command == "threshold":
                # a tiny target ends the 100-length scan at the first length
                # that transfers any light (an STA scan runs in closed form)
                argv.append("--target=1e-300")
            else:
                argv.append(f"--total-length={length}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the value
                code = exc.code
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL), argv
        if code == EXIT_OK:
            text = out.getvalue()
            if command == "sweep":
                values = list(_numbers(json.loads(text)))
            elif command == "threshold":  # "<length> mm (metric <value>)"
                values = [float(text.split()[0]), float(text.split()[-1].rstrip(")"))]
            else:
                values = [float(v) for row in list(csv.reader(text.splitlines()))[1:]
                          for v in row]
            assert values and all(math.isfinite(v) for v in values), argv


class TestConfig:
    def test_config_supplies_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {
            "omega0": 1.5, "delta0": 0.1, "total_length": 25.0, "sta": True}}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(out.splitlines()[-1].split(",")[2]) == pytest.approx(
            0.998771, abs=1e-4)

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check": {
            "omega0": 1.5, "delta0": 0.5, "total_length": 25.0}}))
        code, out, _ = run(capsys, "check", "--config", str(cfg),
                           "--delta0", "0")
        assert code == EXIT_OK
        assert json.loads(out)["max_cd_ratio"] == 0.0

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"check": {"omega0": 1.0, "bogus": 1}}))
        code, _, err = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "bogus" in err

    def test_wrong_command_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"simulate": {"omega0": 1.0}}))
        code, _, _ = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run(capsys, "check", "--config", str(cfg))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("doc, message", [
        ([], "config must contain exactly one top-level command object"),
        ({"check": {}, "profile": {}}, "config must contain exactly one top-level command object"),
        ({"check": [1.5]}, "command object must be a JSON object"),
    ], ids=["list", "two-commands", "not-an-object"])
    def test_malformed_document_rejected(self, doc, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", "--config", str(cfg))
        assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")

    def test_config_axis_strings(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis_x": "omega0:0.5:2:2", "axis_y": "total_length:5:25:2",
            "delta0": 0.1, "sta": True, "tol": 1e-6, "fmt": "json"}}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["axes"]["y"]["name"] == "total_length"

    def test_config_axis_objects(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis_x": {"name": "omega0", "lo": 0.5, "hi": 2, "count": 2},
            "axis_y": {"name": "total_length", "lo": 5, "hi": 25, "count": 2},
            "delta0": 0.1, "sta": True, "tol": 1e-6, "fmt": "json"}}))
        code, out, _ = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["axes"]["x"] == {"name": "omega0", "values": [0.5, 2.0]}
        assert doc["axes"]["y"] == {"name": "total_length", "values": [5.0, 25.0]}

    def test_config_axis_object_keys(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweep": {
            "axis_x": {"name": "omega0", "lo": 0.5, "hi": 2}}}))
        code, _, err = run(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_USAGE
        assert "axis_x" in err

    @pytest.mark.parametrize("command, key, value, shown", [
        ("check", "output", None, "null"),
        ("check", "output", ["a.json"], '["a.json"]'),
        ("profile", "output", {"path": "a.csv"}, '{"path": "a.csv"}'),
        ("sweep", "axis_x", None, "null"),
    ], ids=["null", "array", "object", "null-axis"])
    def test_config_value_kind_rejected(self, command, key, value, shown, tmp_path,
                                        monkeypatch, capsys):
        # a flag takes one token, so these would become files named None or
        # ['a.json']; only an axis may be an object
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({command: {
            "omega0": 1.5, "delta0": 0.1, "total_length": 25.0, key: value}}))
        code, out, err = run(capsys, command, "--config", "cfg.json")
        assert (code, out, err) == (EXIT_USAGE, "", f"error: config {key!r} cannot be {shown}\n")
        assert os.listdir() == ["cfg.json"]

    @pytest.mark.parametrize("key,value,flag", [
        ("omega0", "abc", "--omega0"),
        ("omega0", True, "--omega0"),
        ("samples", 2.5, "--samples"),
        ("sta", "yes", "--sta"),
        ("fmt", "xml", "--format"),
    ])
    def test_config_values_checked_like_flags(self, key, value, flag, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {
            "omega0": 1.5, "delta0": 0.1, "total_length": 25.0} | {key: value}}))
        with pytest.raises(SystemExit) as exc:
            main(["profile", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        assert f"argument {flag}" in capsys.readouterr().err

    def test_flags_override_every_option_type(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"profile": {
            "omega0": 1.5, "delta0": 0.1, "total_length": 25.0, "sta": True,
            "samples": 5, "fmt": "csv"}}))
        code, out, _ = run(capsys, "profile", "--config", str(cfg), "--omega0", "2",
                           "--no-sta", "--samples", "3", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        inputs = doc["provenance"]["inputs"]
        assert (inputs["omega0"], inputs["sta"], inputs["samples"]) == (2.0, False, 3)
        assert inputs["delta0"] == 0.1


class TestFormatFloat:
    def test_roundtrip_exact(self):
        for v in (math.pi, 0.1, 1e-300, -2.5053932010371e0, 0.0):
            assert float(format_float(v)) == v
