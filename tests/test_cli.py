import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import cvsteer
from cvsteer import DEFAULT_SPEC, STATE_BUILDERS, make_psi
from cvsteer.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_TOLERANCE, main
from cvsteer.sweep import _ROOT_TOL


EVAL_HEADER = ("criterion,theta,value,violated,converged,"
               "delta2_min_x2,delta2_min_p2,h_x2_given_x1,h_p2_given_p1,"
               "t_singular_1,t_singular_2,t_singular_3")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_chsh_at_quarter_pi(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--state", "psi", "--theta", "0.7854",
                               "--criteria", "chsh")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == EVAL_HEADER
        cells = lines[1].split(",")
        assert cells[0] == "chsh"
        assert float(cells[2]) == pytest.approx(2.828427, abs=1e-5)
        assert cells[3] == "true"

    def test_product_point_both_criteria(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--state", "psi", "--theta", "0",
                               "--criteria", "reid,entropic")
        assert code == EXIT_OK
        rows = out.splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["reid", "entropic"]
        assert all(r.split(",")[2] == "0" for r in rows)
        assert all(r.split(",")[3] == "false" for r in rows)

    def test_criteria_order_fixed_regardless_of_request(self, capsys):
        _, out1, _ = run_cli(capsys, "eval", "--theta", "0.4", "--criteria", "chsh,reid")
        _, out2, _ = run_cli(capsys, "eval", "--theta", "0.4", "--criteria", "reid,chsh")
        assert out1 == out2
        assert [r.split(",")[0] for r in out1.splitlines()[1:]] == ["reid", "chsh"]

    def test_theta_out_of_range_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--theta", "4.0")
        assert code == EXIT_CONFIG
        assert "theta" in err

    def test_theta_required(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--state", "psi")
        assert code == EXIT_CONFIG
        assert "theta" in err

    def test_unknown_criterion_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--theta", "0.5", "--criteria", "bell")
        assert code == EXIT_CONFIG
        assert "criteria: unknown criterion 'bell'" in err

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--theta", "0.9", "--format", "json",
                               "--criteria", "reid,chsh")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["state"] == "psi"
        assert [r["criterion"] for r in payload["results"]] == ["reid", "chsh"]
        rec = payload["results"][0]
        rebuilt = 0.25 - rec["components"]["delta2_min_x2"] * rec["components"]["delta2_min_p2"]
        assert rec["value"] == pytest.approx(rebuilt, abs=1e-12)

    def test_output_carries_the_requested_angle(self, capsys):
        # The evaluators read the state alone: eval writes the angle it was given
        argv = ["eval", "--theta", "0.9"]
        payload = json.loads(run_cli(capsys, *argv, "--format", "json")[1])
        assert [r["theta"] for r in payload["results"]] == [0.9] * 3
        rows = run_cli(capsys, *argv)[1].splitlines()[1:]
        assert [row.split(",")[1] for row in rows] == ["0.9"] * 3

    def test_unmet_tolerance_exits_3(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--theta", "1.1", "--criteria", "entropic",
                               "--panel-tol", "1e-15")
        assert code == EXIT_TOLERANCE
        assert "false" in out.splitlines()[1]  # converged column

    def test_allow_flagged_suppresses_exit_3(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--theta", "1.1", "--criteria", "entropic",
                             "--panel-tol", "1e-15", "--allow-flagged")
        assert code == EXIT_OK


class TestSweepCommand:
    def test_state_choices_follow_the_family_table(self, capsys, monkeypatch):
        monkeypatch.setitem(STATE_BUILDERS, "psi-copy", make_psi)
        argv = ["sweep", "--criteria", "chsh", "--steps", "3", "--state"]
        code, out, _ = run_cli(capsys, *argv, "psi-copy")
        assert code == EXIT_OK
        assert out == run_cli(capsys, *argv, "psi")[1]

    def test_two_steps_two_rows(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "2", "--criteria", "chsh")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "theta,i_chsh"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "0"

    def test_header_contains_requested_columns_only(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--criteria", "reid,chsh")
        assert out.splitlines()[0] == "theta,i_reid,i_chsh"

    def test_rerun_byte_identical(self, tmp_path):
        args = ["sweep", "--steps", "9", "--criteria", "reid,chsh", "--state", "psi-prime"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--output", str(p1)]) == EXIT_OK
        assert main(args + ["--output", str(p2)]) == EXIT_OK
        assert p1.read_bytes() == p2.read_bytes()

    def test_newline_discipline(self, tmp_path):
        out = tmp_path / "s.csv"
        assert main(["sweep", "--steps", "3", "--criteria", "chsh",
                     "--output", str(out)]) == EXIT_OK
        data = out.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")

    def test_ten_significant_digits(self, capsys):
        _, out, _ = run_cli(capsys, "sweep", "--steps", "5", "--criteria", "chsh")
        row = out.splitlines()[2]
        theta_cell, chsh_cell = row.split(",")
        assert theta_cell == "0.7853981634"
        assert chsh_cell == "2.828427125"

    def test_unwritable_output_exits_4(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--steps", "2", "--criteria", "chsh",
                               "--output", "/nonexistent-dir/x.csv")
        assert code == EXIT_IO
        assert "output error" in err

    def test_failed_write_to_standard_output_names_it(self, capsys, monkeypatch):
        # A full disk behind standard output is an output error naming it, not "None"
        class Full:
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(["eval", "--state", "psi", "--theta", "0.5", "--criteria", "chsh"])
        err = capsys.readouterr().err
        assert code == EXIT_IO
        assert err == "output error: cannot write standard output: [Errno 28] No space left on device\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--criteria", "chsh",
                               "--format", "json")
        payload = json.loads(out)
        assert len(payload["theta"]) == 3
        assert payload["i_chsh"][0] == 2.0

    def test_theta_window(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "3", "--criteria", "chsh",
                               "--theta-min", "0.5", "--theta-max", "1.0")
        rows = out.strip().splitlines()[1:]
        assert float(rows[0].split(",")[0]) == 0.5
        assert float(rows[-1].split(",")[0]) == 1.0


class TestWriters:
    """One CSV and one JSON writer serve every command. Only the layout is read, never a
    cell, so the BLAS build does not matter."""

    @pytest.mark.parametrize("argv,header", [
        (["sweep", "--criteria", "chsh", "--steps", "5"], "theta,i_chsh"),
        (["eval", "--theta", "0.7", "--criteria", "chsh"], EVAL_HEADER),
    ], ids=["sweep", "eval"])
    def test_layout(self, capsys, argv, header):
        code, text, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == EXIT_OK
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
        code, text, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert text.endswith("\n") and "\n\n" not in text
        assert text.splitlines()[0] == header


class TestCriticalCommand:
    def test_psi_reid_summary_and_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "critical", "--state", "psi", "--criteria", "reid")
        assert code == EXIT_OK
        assert "0.5980" in out and "2.5436" in out
        written = (tmp_path / "critical-psi.csv").read_text()
        assert written.startswith("criterion,kind,angle,")
        crossing_rows = [r for r in written.splitlines()[1:] if ",crossing," in r]
        assert len(crossing_rows) == 2
        # full-precision file round-trips through float()
        angle = float(crossing_rows[0].split(",")[2])
        assert angle == pytest.approx(0.5980031208297235, abs=5e-4)

    def test_chsh_touches_only_exits_0(self, capsys, tmp_path, monkeypatch):
        # CHSH meets its bound only at touches (0, pi/2, pi): a criterion that meets its
        # bound is no failure, and the touches are printed and written
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "critical", "--state", "psi", "--criteria", "chsh")
        assert code == EXIT_OK
        assert err == ""
        assert "touch" in out
        assert ",touch," in (tmp_path / "critical-psi.csv").read_text()

    def test_records_sorted_by_angle(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(capsys, "critical", "--state", "psi",
                               "--criteria", "reid,entropic", "--format", "json")
        assert code == EXIT_OK
        payload = json.loads((tmp_path / "critical-psi.json").read_text())
        angles = [r["angle"] for r in payload["criticals"]]
        assert angles == sorted(angles)


class TestReportCommand:
    def test_psi_prime_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--state", "psi-prime")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["criteria_incomplete"] is True
        spans = payload["undetected_steering"]
        assert spans[0][0] == 0.0
        assert spans[-1][1] == pytest.approx(math.pi, abs=1e-12)

    def test_psi_report(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--state", "psi")
        payload = json.loads(out)
        assert payload["criteria_incomplete"] is True
        assert payload["chsh_violation_region"] == [[0.0, math.pi / 2], [math.pi / 2, math.pi]]


class TestConfigFile:
    def test_file_values_applied(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state = psi-prime\ncriteria = chsh\ntheta = 0.7854\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == EXIT_OK
        assert out.splitlines()[1].startswith("chsh,")

    def test_state_spelling_normalized(self, capsys, tmp_path):
        # The flag and the config key pass one check, so both take every spelling
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state = PSI_PRIME\ncriteria = chsh\ntheta = 0.7854\nformat = json\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == EXIT_OK
        assert json.loads(out)["state"] == "psi-prime"
        assert run_cli(capsys, "eval", "--state", "PSI_PRIME", "--criteria", "chsh",
                       "--theta", "0.7854", "--format", "json") == (EXIT_OK, out, "")

    def test_leading_bom_accepted(self, capsys, tmp_path):
        # Editors that save UTF-8 with a byte-order mark put EF BB BF before the first key
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfstate = psi-prime\r\ncriteria = chsh\r\ntheta = 0.7854\r\n")
        code, out, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert (code, err) == (EXIT_OK, "")
        assert run_cli(capsys, "eval", "--state", "psi-prime", "--criteria", "chsh",
                       "--theta", "0.7854") == (EXIT_OK, out, "")

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes("state = psi\ncriteria = chsh\n# pr\xe9cision\n".encode("latin-1"))
        code, out, err = run_cli(capsys, "eval", "--config", str(cfg), "--theta", "0.5")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err.startswith("config error: config: cannot read")

    def test_unknown_state_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("state = phi\ntheta = 0.5\n")
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert err.startswith("config error: state:")
        assert run_cli(capsys, "eval", "--state", "phi", "--theta", "0.5") == (
            EXIT_CONFIG, "", err)

    def test_cli_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta = 0.1\ncriteria = chsh\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg), "--theta", "0.7854")
        value = float(out.splitlines()[1].split(",")[2])
        assert value == pytest.approx(2.828427, abs=1e-5)

    def test_comments_and_blank_lines(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# precision\n\npanel_tol = 1e-10\nL = 9.0\ncriteria = reid\ntheta = 0.3\n")
        code, out, _ = run_cli(capsys, "eval", "--config", str(cfg))
        assert code == EXIT_OK
        assert float(out.splitlines()[1].split(",")[2]) == pytest.approx(0.0494415570, abs=1e-8)

    def test_unknown_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("volume = 11\n")
        code, _, err = run_cli(capsys, "eval", "--config", str(cfg), "--theta", "0.5")
        assert code == EXIT_CONFIG
        assert "volume" in err

    @pytest.mark.parametrize("argv,line", [
        (["report"], "root_tol = 1e-3"),
        (["sweep", "--criteria", "chsh", "--steps", "2"], "theta = 0.5"),
        (["eval", "--theta", "0.5"], "steps = 5"),
    ])
    def test_key_of_another_command_exits_2(self, capsys, tmp_path, argv, line):
        # A command reads only its own options from the file, as from the command line
        cfg = tmp_path / "other.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert out == ""
        assert repr(line.split()[0]) in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--config", "/no/such/file", "--theta", "0.5")
        assert code == EXIT_CONFIG

    def test_bad_value_names_field(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps = many\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == EXIT_CONFIG
        assert "steps" in err


class TestValidation:
    @pytest.mark.parametrize("argv,field", [
        (["sweep", "--steps", "1"], "steps"),
        (["sweep", "--criteria", ","], "criteria"),
        (["sweep", "--half-width", "0"], "half_width"),
        (["sweep", "--panel-tol", "2.0"], "panel_tol"),
        (["critical", "--root-tol", "0"], "root_tol"),
        (["sweep", "--theta-min", "1.0", "--theta-max", "0.5"], "theta_m"),
        (["eval", "--theta", "0.7", "--half-width", "inf"], "half_width"),
    ])
    def test_field_named_in_error(self, capsys, argv, field):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_CONFIG
        assert field in err

    @pytest.mark.parametrize("argv", [
        ["report", "--root-tol", "1e-2"],
        ["report", "--criteria", "chsh"],
        ["report", "--format", "csv"],
        ["eval", "--theta", "0.5", "--root-tol", "1e-2"],
        ["sweep", "--criteria", "chsh", "--steps", "2", "--root-tol", "1e-2"],
    ])
    def test_flag_of_another_command_exits_2(self, capsys, argv):
        # A flag the command would not read is an argparse usage error, not a no-op
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[-2] in captured.err


def run_module(*argv, timeout):
    """``python -m cvsteer`` in a subprocess that imports the package under test."""
    env = dict(os.environ)
    src = str(pathlib.Path(cvsteer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cvsteer", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)


def test_module_entry_point_runs():
    proc = run_module("eval", "--theta", "0.7854", "--criteria", "chsh", timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1].startswith("chsh,")


def test_help_documents_exit_codes():
    proc = run_module("--help", timeout=60)
    assert proc.returncode == 0
    text = " ".join(proc.stdout.split())  # argparse wraps the epilog at the terminal width
    for token in ("exit codes", "2 invalid config", "3 tolerance", "4 unwritable",
                  "5 a criterion never meets its bound"):
        assert token in text


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma (1.3 MB of modules, loaded by np.unique) serves no command: every
    # command runs in one fresh interpreter, which then has not imported it
    code = (
        "import contextlib, io, sys\n"
        "from cvsteer.cli import main\n"
        "loose = ['--panel-tol', '1e-7', '--half-width', '6']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['eval', '--theta', '0.7']),\n"
        "             main(['sweep', '--state', 'psi', '--steps', '5', *loose]),\n"
        "             main(['critical', '--state', 'psi-prime', '--criteria', 'reid,chsh']),\n"
        "             main(['report', '--state', 'psi-prime', *loose])]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ)
    src = str(pathlib.Path(cvsteer.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300, env=env, cwd=tmp_path, check=True)
    assert proc.stdout.split("]")[-1].split() == ["False"]
    assert proc.stdout.startswith(f"[{EXIT_OK}, {EXIT_OK}, {EXIT_OK}, {EXIT_OK}]")


FLAGS_OF_COMMAND = {
    "eval": "--state --criteria --theta --half-width --L --panel-tol --output --format "
            "--allow-flagged",
    "sweep": "--state --criteria --steps --theta-min --theta-max --half-width --L --panel-tol "
             "--output --format --allow-flagged",
    "critical": "--state --criteria --half-width --L --panel-tol --root-tol --output --format "
                "--allow-flagged",
    "report": "--state --half-width --L --panel-tol --output --allow-flagged",
}


@pytest.mark.parametrize("command", FLAGS_OF_COMMAND)
def test_command_help_lists_its_options_with_library_defaults(command):
    proc = run_module(command, "--help", timeout=60)
    assert proc.returncode == 0
    flags = {"--help", "--config", *FLAGS_OF_COMMAND[command].split()}
    assert set(re.findall(r"--[\w-]+", proc.stdout)) == flags
    text = " ".join(proc.stdout.split())
    assert f"(default {DEFAULT_SPEC.half_width})" in text
    assert f"(default {DEFAULT_SPEC.panel_tol})" in text
    assert (f"(default {_ROOT_TOL})" in text) == (command == "critical")
    assert "(default 1e-6)" not in text


@pytest.mark.parametrize("module", ["cvsteer", "cvsteer.sweep", "cvsteer.criteria",
                                    "cvsteer.quadrature", "cvsteer.fock"])
def test_every_exported_name_resolves(module):
    # perfbench/trace_spans.py calls getattr on every __all__ entry of the package and
    # of each layer, so a stale entry would stop every traced benchmark run
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
