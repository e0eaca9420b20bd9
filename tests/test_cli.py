import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import csv_loop
from fodesolve import cli
from fodesolve.cli import _csv_chunks, _write, main

BENCHMARK = "problems/bagley_torvik.fode"
CUBIC = "problems/bagley_torvik_cubic.fode"
ROOT = Path(__file__).resolve().parents[1]


# Copies of the shipped problem files, which parse to conftest's plate
# and cubic plate.
@pytest.fixture
def plate_file(tmp_path):
    path = tmp_path / "plate.fode"
    path.write_text((ROOT / BENCHMARK).read_text())
    return str(path)


@pytest.fixture
def plate_cubic_file(tmp_path):
    path = tmp_path / "plate_cubic.fode"
    path.write_text((ROOT / CUBIC).read_text())
    return str(path)


@pytest.fixture
def blowup_file(tmp_path):
    path = tmp_path / "blowup.fode"
    path.write_text(
        "term 1 0.5\nnonlinear 0 -1\nnonlinear 3 -10\ninit 0 0\n")
    return str(path)


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    body = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return header, body


class TestSolve:
    def test_basic_run(self, plate_file, tmp_path):
        out = str(tmp_path / "out.csv")
        rc = main(["solve", "--problem", plate_file, "--step", "0.01",
                   "--t-end", "2", "--out", out])
        assert rc == 0
        header, body = read_csv(out)
        assert header == ["t", "y"]
        assert body.shape == (201, 2)
        assert body[0, 0] == 0.0 and body[0, 1] == 0.0
        assert body[-1, 0] == 2.0

    def test_csv_goes_to_stdout_without_out(self, plate_file, tmp_path,
                                            capsys):
        out = tmp_path / "out.csv"
        args = ["solve", "--problem", plate_file, "--step", "0.1",
                "--t-end", "1"]
        assert main(args + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_full_span_row_count(self, plate_file, tmp_path):
        out = str(tmp_path / "out.csv")
        rc = main(["solve", "--problem", plate_file, "--step", "0.01",
                   "--t-end", "30", "--out", out])
        assert rc == 0
        _, body = read_csv(out)
        assert body.shape[0] == 3001

    def test_derivative_columns(self, plate_file, tmp_path):
        out = str(tmp_path / "out.csv")
        rc = main(["solve", "--problem", plate_file, "--step", "0.01",
                   "--t-end", "2", "--derivatives", "--out", out])
        assert rc == 0
        header, body = read_csv(out)
        assert header == ["t", "y", "z1", "dy1"]
        assert body[0, 2] == 0.0  # z1 starts at zero exactly

    def test_csv_bytes_are_reproducible(self, plate_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        args = ["solve", "--problem", plate_file, "--step", "0.01",
                "--t-end", "2"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_values_round_trip_through_text(self, plate_file, tmp_path):
        out = str(tmp_path / "out.csv")
        main(["solve", "--problem", plate_file, "--step", "0.01",
              "--t-end", "2", "--out", out])
        for line in Path(out).read_text().splitlines()[1:]:
            for field in line.split(","):
                v = float(field)
                assert format(v, ".17g") == field

    def test_step_sensitivity_of_nonlinear_problem(self, plate_cubic_file,
                                                   tmp_path):
        coarse = str(tmp_path / "coarse.csv")
        fine = str(tmp_path / "fine.csv")
        rc_a = main(["solve", "--problem", plate_cubic_file, "--step", "0.1",
                     "--t-end", "30", "--out", coarse])
        rc_b = main(["solve", "--problem", plate_cubic_file,
                     "--step", "0.001", "--t-end", "30", "--out", fine])
        assert rc_a == 0 and rc_b == 0
        _, a = read_csv(coarse)
        _, b = read_csv(fine)
        common = b[::100, 1][: a.shape[0]]
        assert np.max(np.abs(a[:, 1] - common)) > 0.01

    def test_babenko_inversion_flag(self, plate_file, tmp_path):
        out = str(tmp_path / "out.csv")
        rc = main(["solve", "--problem", plate_file, "--step", "0.01",
                   "--t-end", "2", "--inversion", "babenko",
                   "--babenko-terms", "30", "--out", out])
        assert rc == 0

    def test_series_route_survives_overflowing_power_tables(
            self, plate_file, tmp_path):
        # 200 terms bound the truncation by 6.7e-19 on [0, 100], but the
        # tables of the last powers pass double range while their
        # coefficients are still nonzero; the run used to stop at node
        # 1 981 with numpy overflow warnings.
        out = str(tmp_path / "out.csv")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rc = main(["solve", "--problem", plate_file, "--step", "0.05",
                       "--t-end", "100", "--inversion", "babenko",
                       "--babenko-terms", "200", "--out", out])
        assert rc == 0 and not rec
        _, body = read_csv(out)
        assert body.shape[0] == 2001 and np.all(np.isfinite(body))

    def test_numerical_failure_writes_partial_csv(self, blowup_file,
                                                  tmp_path, capsys):
        # The stop is reported once, on stderr, not also as a warning.
        out = str(tmp_path / "out.csv")
        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            rc = main(["solve", "--problem", blowup_file, "--step", "0.1",
                       "--t-end", "50", "--out", out])
        assert rc == 3 and not rec
        _, body = read_csv(out)
        assert 0 < body.shape[0] < 501
        assert np.all(np.isfinite(body))
        assert "numerical failure" in capsys.readouterr().err

    @staticmethod
    def _module(*args):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    def test_process_prints_each_warning_on_one_line(self, plate_file,
                                                      blowup_file, tmp_path):
        # The series route's two tail warnings on [0, 30]: "warning:
        # <message>", with no file name, line number or source line.  A
        # stopped run prints only its own exit-3 line.
        run = self._module(
            "-m", "fodesolve", "solve", "--problem", plate_file,
            "--step", "0.01", "--t-end", "30", "--inversion", "babenko",
            "--out", str(tmp_path / "series.csv"))
        assert run.returncode == 0
        lines = run.stderr.splitlines()
        assert len(lines) == 2
        assert lines[0] == ("warning: series inversion's a-priori term"
                            " factor is 10.2 at t = 30; the result will be"
                            " unreliable")
        assert lines[1].startswith("warning: series inversion truncated")
        assert "cli.py" not in run.stderr and "solve(" not in run.stderr
        run = self._module(
            "-m", "fodesolve", "solve", "--problem", blowup_file,
            "--step", "0.1", "--t-end", "50",
            "--out", str(tmp_path / "blowup.csv"))
        assert run.returncode == 3
        assert run.stderr == (
            "numerical failure at node 9 (t = 0.9); wrote the nodes before"
            " it\n")

    @pytest.mark.parametrize("flags", [(), ("-W", "error::RuntimeWarning")],
                             ids=["default", "RuntimeWarning as error"])
    def test_overflowing_derivative_rows_stop_the_csv_before_them(
            self, tmp_path, flags):
        # D^1.5 y - 50 y = 1 from rest runs away and stops at node 631;
        # its dy1 row passes double range two nodes earlier.  Only the
        # rows before node 629 are written, four finite fields each, and
        # that node is reported in one line, with no numpy warning.
        problem = tmp_path / "runaway.fode"
        problem.write_text("term 1 1.5\nnonlinear 1 -50\nforcing 0 inf 1\n"
                           "init 0 0\ninit 1 0\n")
        out = tmp_path / "runaway.csv"
        run = self._module(
            *flags, "-m", "fodesolve", "solve", "--problem", str(problem),
            "--step", "0.1", "--t-end", "100", "--derivatives",
            "--out", str(out))
        assert run.returncode == 3
        assert run.stderr == (
            "numerical failure at node 629 (t = 62.9); wrote the nodes"
            " before it\n")
        header, body = read_csv(out)
        assert header == ["t", "y", "z1", "dy1"]
        assert body.shape == (629, 4) and np.all(np.isfinite(body))

    def test_warning_filters_still_apply_in_the_process(self, plate_file,
                                                         tmp_path):
        # The K = 30 series plate on [0, 30]: its tail warning, a
        # RuntimeWarning, ends the run under -W error::RuntimeWarning.
        run = self._module(
            "-W", "error::RuntimeWarning", "-m", "fodesolve", "solve",
            "--problem", plate_file, "--step", "0.01", "--t-end", "30",
            "--inversion", "babenko", "--babenko-terms", "30",
            "--out", str(tmp_path / "series.csv"))
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == (
            "fodesolve.errors.BabenkoTailWarning: series inversion's"
            " a-priori term factor is 10.2 at t = 30; the result will be"
            " unreliable")


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_negative_step(self, plate_file, capsys):
        # nan and inf pass a plain "<= 0" check.
        for step in ("-1", "nan", "inf"):
            assert main(["solve", "--problem", plate_file, "--step", step,
                         "--t-end", "1"]) == 1, step
            assert "usage error: --step" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,check", [
        ("--step", "--step must be positive and finite"),
        ("--t-end", "--t-end must be positive and finite")])
    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e-1", "-5e-1"])
    def test_negative_value_reaches_the_check_in_both_spellings(
            self, plate_file, flag, check, value, capsys):
        # argparse took a spaced -inf or -1e-1 for a flag ("expected one
        # argument"); both spellings must name the bad value's flag.
        args = {"--step": "0.01", "--t-end": "1"}
        for spelled in ([flag, value], [f"{flag}={value}"]):
            argv = ["solve", "--problem", plate_file]
            for other, good in args.items():
                argv += spelled if other == flag else [other, good]
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == f"usage error: {check}\n"

    @pytest.mark.parametrize("steps", ["-0.1,0.05", "-1e-1,-5e-2",
                                       "-inf,0.05", "-nan,0.05"])
    def test_negative_step_list_reaches_the_check_in_both_spellings(
            self, plate_file, steps, capsys):
        # argparse took a spaced list starting with a minus for a flag.
        for spelled in (["--steps", steps], [f"--steps={steps}"]):
            argv = ["convergence", "--problem", plate_file, *spelled,
                    "--t-end", "1"]
            assert main(argv) == 1, argv
            assert capsys.readouterr().err == (
                "usage error: --steps must be positive and finite\n")

    def test_missing_required_flag(self):
        assert main(["solve", "--step", "0.01", "--t-end", "1"]) == 1

    def test_unparseable_flag_value(self, plate_file):
        assert main(["solve", "--problem", plate_file, "--step", "x",
                     "--t-end", "1"]) == 1

    def test_non_positive_horizon(self, plate_file, capsys):
        for t_end in ("0", "nan", "inf"):
            assert main(["solve", "--problem", plate_file, "--step", "0.01",
                         "--t-end", t_end]) == 1, t_end
            assert "usage error: --t-end" in capsys.readouterr().err

    @pytest.mark.parametrize("steps,t_end", [("a,b", "2"), ("0.1,0", "2"),
                                             ("0.1,-0.1", "2"),
                                             ("0.02,0.01", "0"),
                                             ("0.1,nan", "2"),
                                             ("0.1,inf", "2"),
                                             ("0.02,0.01", "nan"),
                                             ("0.02,0.01", "inf")])
    def test_bad_convergence_grid(self, plate_file, steps, t_end, capsys):
        assert main(["convergence", "--problem", plate_file,
                     "--steps", steps, "--t-end", t_end]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_bad_babenko_terms(self, plate_file):
        assert main(["solve", "--problem", plate_file, "--step", "0.01",
                     "--t-end", "1", "--inversion", "babenko",
                     "--babenko-terms", "0"]) == 1


class TestInputErrors:
    def test_missing_problem_file(self, capsys):
        assert main(["solve", "--problem", "/no/such/file.fode",
                     "--step", "0.01", "--t-end", "1"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_problem_file(self, tmp_path, capsys):
        path = tmp_path / "bad.fode"
        path.write_text("term one 0.5\ninit 0 0\n")
        assert main(["solve", "--problem", str(path), "--step", "0.01",
                     "--t-end", "1"]) == 2
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_link_ratio_past_double_range(self, tmp_path, capsys):
        # a2 / a1 = 1e300 / 1e-300 overflows to inf.
        path = tmp_path / "ratio.fode"
        path.write_text("term 1e-300 2\nterm 1e300 1.5\ninit 0 0\n"
                        "init 1 0\n")
        out = tmp_path / "out.csv"
        assert main(["solve", "--problem", str(path), "--step", "0.01",
                     "--t-end", "1", "--out", str(out)]) == 2
        assert "link ratio must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["solve", "--step", "1e-17"],
        ["convergence", "--steps", "1e-16,5e-17"]])
    def test_grid_too_large_to_allocate(self, args, tmp_path, capsys):
        # 1e17 nodes would ask for 711 PiB per array, past physical
        # memory, so the grid is refused before anything is allocated:
        # exit 2 with the node count and the bytes on one line, no
        # traceback.
        problem = Path(__file__).resolve().parents[1] / BENCHMARK
        out = tmp_path / "huge.csv"
        assert main([args[0], "--problem", str(problem), *args[1:],
                     "--t-end", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: grid too large: ")
        assert " nodes need " in err and " bytes " in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_grid_past_physical_memory_is_refused_before_solving(
            self, plate_file, tmp_path, capsys, monkeypatch):
        # 3e10 nodes fit the address space but not the memory (240 GB
        # per array): the grid is refused before any solve starts.
        from fodesolve import stepper

        def reached(*args, **kwargs):
            pytest.fail("solve was reached")
        monkeypatch.setattr(stepper, "solve", reached)
        out = tmp_path / "huge.csv"
        assert main(["solve", "--problem", plate_file, "--step", "1e-9",
                     "--t-end", "30", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: grid too large: 30000000001"
                              " nodes need 240000000008 bytes")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("step,reason", [
        ("1e-300", "1.00e+300 nodes need 8.00e+300 bytes per array"),
        ("1e-320", "leaves more steps before t = 1 than a float can count")])
    def test_grid_too_large_in_one_short_line(self, plate_file, step, reason,
                                              tmp_path, capsys, monkeypatch):
        # 1e300 nodes, or more than a float counts: exit 2 and one short
        # stderr line, no 301-digit count.
        from fodesolve import stepper
        monkeypatch.setattr(stepper, "_physical_memory", lambda: 2 ** 34)
        out = tmp_path / "huge.csv"
        assert main(["solve", "--problem", plate_file, "--step", step,
                     "--t-end", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid input: grid too large: ")
        assert reason in err
        assert err.count("\n") == 1 and len(err) < 160
        assert not out.exists()

    def test_unwritable_output(self, plate_file, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["solve", "--problem", plate_file, "--step", "0.1",
                     "--t-end", "1", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")


class TestConvergence:
    def test_self_oracle_csv(self, plate_file, tmp_path):
        out = str(tmp_path / "conv.csv")
        rc = main(["convergence", "--problem", plate_file,
                   "--steps", "0.04,0.02,0.01", "--t-end", "2",
                   "--out", out])
        assert rc == 0
        lines = Path(out).read_text().splitlines()
        assert lines[0] == "h,sup_error,observed_order"
        first = lines[1].split(",")
        assert first[2] == ""  # coarsest row has no order yet
        assert len(lines) == 3  # finest step is the reference

    def test_gl_oracle_rows_decrease(self, plate_file, tmp_path):
        out = str(tmp_path / "conv.csv")
        rc = main(["convergence", "--problem", plate_file,
                   "--steps", "0.04,0.02,0.01", "--t-end", "2",
                   "--oracle", "gl", "--out", out])
        assert rc == 0
        _, body = read_csv_allow_blanks(out)
        errs = body[:, 1]
        assert np.all(np.diff(errs) < 0)

    def test_single_step_is_usage_error(self, plate_file):
        assert main(["convergence", "--problem", plate_file,
                     "--steps", "0.01", "--t-end", "2"]) == 1

    def test_stopped_reference_run_is_a_numerical_failure(self, tmp_path,
                                                          capsys):
        # D^1.5 y - 50 y = 1 overflows on [0, 100]: exit 3, no CSV.
        problem = tmp_path / "runaway.fode"
        problem.write_text("term 1 1.5\nnonlinear 1 -50\nforcing 0 inf 1\n"
                           "init 0 0\ninit 1 0\n")
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--problem", str(problem),
                     "--steps", "0.2,0.1", "--t-end", "100",
                     "--oracle", "gl", "--out", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_prefactor_past_double_range_names_step_and_order(
            self, plate_file, tmp_path, capsys):
        # The gl oracle's h**(-order) overflows at a subnormal step, as
        # apply's does (TestApply); the plate's leading order 2 goes first.
        out = tmp_path / "conv.csv"
        assert main(["convergence", "--problem", plate_file,
                     "--steps", "2e-320,1e-320", "--t-end", "1e-318",
                     "--oracle", "gl", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"numerical failure: term of order 2 at step"
                       f" {1e-320:.6g}: h**-2 exceeds double range\n")
        assert not out.exists()

    def test_gl_on_nonlinear_problem(self, plate_cubic_file):
        assert main(["convergence", "--problem", plate_cubic_file,
                     "--steps", "0.02,0.01", "--t-end", "2",
                     "--oracle", "gl"]) == 2


def read_csv_allow_blanks(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        rows.append([float(x) if x else np.nan for x in ln.split(",")])
    return header, np.array(rows)


class TestApply:
    @pytest.fixture
    def ramp_csv(self, tmp_path):
        path = tmp_path / "ramp.csv"
        h, n = 1e-3, 1001
        lines = ["t,value"]
        for i in range(n):
            t = i * h
            lines.append(f"{format(t, '.17g')},{format(t, '.17g')}")
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_half_integral_of_ramp(self, ramp_csv, tmp_path):
        out = str(tmp_path / "out.csv")
        rc = main(["apply", "--in", ramp_csv, "--order", "-0.5",
                   "--out", out])
        assert rc == 0
        _, body = read_csv(out)
        assert body[-1, 1] == pytest.approx(0.7522527780636751, rel=1e-3)

    def test_headerless_input_accepted(self, tmp_path):
        src = tmp_path / "plain.csv"
        src.write_text("0,0\n0.5,1\n1,2\n")
        rc = main(["apply", "--in", str(src), "--order", "-1",
                   "--out", str(tmp_path / "out.csv")])
        assert rc == 0

    def test_singular_origin_marked_not_fatal(self, tmp_path):
        src = tmp_path / "nz.csv"
        src.write_text("t,value\n0,1\n0.1,1.1\n0.2,1.2\n")
        out = str(tmp_path / "out.csv")
        rc = main(["apply", "--in", src.as_posix(), "--order", "0.5",
                   "--out", out])
        assert rc == 0
        _, body = read_csv(out)
        assert np.isnan(body[0, 1]) and np.all(np.isfinite(body[1:, 1]))

    def test_binomial_route_needs_zero_origin(self, tmp_path):
        src = tmp_path / "nz.csv"
        src.write_text("t,value\n0,1\n0.1,1.1\n0.2,1.2\n")
        assert main(["apply", "--in", str(src), "--order", "1.5",
                     "--out", str(tmp_path / "out.csv")]) == 2

    def test_non_uniform_grid_rejected(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("t,value\n0,0\n0.1,1\n0.3,2\n")
        assert main(["apply", "--in", str(src), "--order", "-0.5",
                     "--out", str(tmp_path / "out.csv")]) == 2

    def test_grid_must_start_at_zero(self, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text("t,value\n1,0\n1.1,1\n1.2,2\n")
        assert main(["apply", "--in", str(src), "--order", "-0.5",
                     "--out", str(tmp_path / "out.csv")]) == 2

    @pytest.mark.parametrize("row", ["0.1,nan", "0.1,inf", "nan,1"])
    def test_non_finite_sample_rejected(self, row, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(f"t,value\n0,0\n{row}\n0.2,2\n")
        out = tmp_path / "out.csv"
        assert main(["apply", "--in", str(src), "--order", "-0.5",
                     "--out", str(out)]) == 2
        assert "invalid input" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text,reason", [
        ("", "empty"), ("t,value\n0,1\n", "at least two samples"),
        ("t,value\n0,0\n-0.1,1\n-0.2,2\n", "increasing"),
        ("t,value\n0,0\n0.1\n0.2,2\n", "expected two CSV columns")])
    def test_unusable_input_rejected(self, text, reason, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        src.write_text(text)
        out = tmp_path / "out.csv"
        assert main(["apply", "--in", str(src), "--order", "-0.5",
                     "--out", str(out)]) == 2
        assert reason in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["1.5", "9.99"])
    def test_prefactor_past_double_range_names_step_and_order(
            self, order, tmp_path, capsys):
        # h**(-order) overflows at a subnormal step.
        src = tmp_path / "tiny.csv"
        src.write_text("t,value\n0,0\n1e-320,1\n2e-320,2\n")
        out = tmp_path / "out.csv"
        assert main(["apply", "--in", str(src), "--order", order,
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err == (f"numerical failure: operator of order {order} at"
                       f" step {1e-320:.6g}: h**-{order} exceeds double"
                       f" range\n")
        assert not out.exists()

    @pytest.fixture
    def near_range_csv(self, tmp_path):
        # Samples near double range: at orders -0.5 and 1.5 the output
        # is finite at nodes 0 and 1 and overflows from node 2 on.
        path = tmp_path / "near_range.csv"
        path.write_text("t,value\n0,0\n1,1.7e308\n2,-1.7e308\n3,1.7e308\n")
        return str(path)

    @pytest.mark.parametrize("order", ["-0.5", "1.5"])
    def test_overflow_writes_the_nodes_before_it(self, near_range_csv,
                                                 order, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["apply", "--in", near_range_csv, "--order", order,
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == (
            "numerical failure at node 2 (t = 2); wrote the nodes before"
            " it\n")
        header, body = read_csv(out)
        assert header == ["t", "value"]
        assert body.shape == (2, 2) and np.all(np.isfinite(body))
        assert list(body[:, 0]) == [0.0, 1.0]

    def test_overflow_leaks_no_numpy_warning(self, near_range_csv,
                                             tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          env.get("PYTHONPATH")]))
        run = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m",
             "fodesolve", "apply", "--in", near_range_csv, "--order",
             "-0.5", "--out", str(tmp_path / "out.csv")],
            env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == 3
        assert run.stderr.startswith("numerical failure at node 2")

    def test_order_beyond_cap_is_usage_error(self, ramp_csv):
        assert main(["apply", "--in", ramp_csv, "--order", "20"]) == 1

    @pytest.mark.parametrize("value,err", [
        ("-inf", "operator order must be finite, got -inf"),
        ("-nan", "operator order must be finite, got nan"),
        ("-1e-1", None), ("-5e-1", None)],
        ids=["-inf", "-nan", "-1e-1", "-5e-1"])
    def test_negative_order_in_both_spellings(self, ramp_csv, tmp_path,
                                              value, err, capsys):
        # A spaced -1e-1 is the order-0.1 integral, as --order=-1e-1 is;
        # argparse used to take it for a flag.
        outs = []
        for i, spelled in enumerate((["--order", value],
                                     [f"--order={value}"])):
            out = tmp_path / f"out{i}.csv"
            assert main(["apply", "--in", ramp_csv, *spelled,
                         "--out", str(out)]) == (0 if err is None else 1)
            assert capsys.readouterr().err == (
                "" if err is None else f"usage error: {err}\n")
            outs.append(out.read_bytes() if err is None else out.exists())
        assert outs[0] == outs[1]

    def test_output_round_trips_byte_for_byte(self, ramp_csv, tmp_path):
        first = str(tmp_path / "first.csv")
        second = str(tmp_path / "second.csv")
        main(["apply", "--in", ramp_csv, "--order", "-0.5", "--out", first])
        # identity pass over the produced file re-emits the same bytes
        main(["apply", "--in", first, "--order", "0", "--out", second])
        assert Path(first).read_bytes() == Path(second).read_bytes()

    def test_unwritable_output(self, ramp_csv, tmp_path, capsys):
        out = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["apply", "--in", ramp_csv, "--order", "-0.5",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("cannot write output:")


# The generators of TestReader, fixed before its first run.  A number
# is a finite double from st.floats, m * 10**e with m in [1, 10) and e in
# [-320, 300], or -0.0, written with repr, %.17g or %.25g.  A cell is a
# number or one of the tokens nan, inf, -inf, 1_0, #, an empty field,
# " 1.5 " and "2.5<tab>".  A row is 1 to 4 cells (short rows, extra
# columns, ragged lengths).  A text is an optional header from _HEADER,
# then its rows with empty or whitespace-only lines between them, every
# line ended by \n or \r\n, the last one not always.  It comes in three
# shapes: "clean" rows of 2 to 4 numbers, "grid" rows whose t column is
# i*h from 0 (so apply can succeed), and "noisy" rows of any cells.
_NUMBER = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e,
              st.floats(1, 10, exclude_max=True), st.integers(-320, 300)),
    st.just(-0.0))
_FORMAT = st.sampled_from([repr, "%.17g".__mod__, "%.25g".__mod__])
_VALUE = st.builds(lambda x, fmt: fmt(x), _NUMBER, _FORMAT)
_CELL = st.one_of(_VALUE, st.sampled_from(
    ["nan", "inf", "-inf", "1_0", "#", "", " 1.5 ", "2.5\t"]))
_BLANK = st.sampled_from(["", " ", "\t", " \t "])
_HEADER = st.sampled_from(["t,value", "t", "time,value,extra", "# t,value",
                           "t,", "nan,1"])


@st.composite
def csv_texts(draw):
    shape = draw(st.sampled_from(["clean", "grid", "noisy"]))
    if shape == "grid":
        fmt = draw(_FORMAT)
        h = draw(st.sampled_from([1e-3, 0.1, 0.25, 1.0, 1e-300]))
        rows = [f"{fmt(i * h)},{draw(_VALUE)}"
                for i in range(draw(st.integers(0, 12)))]
    else:
        cells = (st.lists(_VALUE, min_size=2, max_size=4) if shape == "clean"
                 else st.lists(_CELL, min_size=1, max_size=4))
        rows = draw(st.lists(cells.map(",".join), max_size=12))
    header = draw(st.none() | _HEADER)
    lines = [] if header is None else [header]
    # Half the texts have only empty lines between rows, which loadtxt
    # skips; a whitespace-only line sends a text to the row loop.
    blank = _BLANK if draw(st.booleans()) else st.just("")
    for row in rows:
        lines += draw(st.lists(blank, max_size=1)) + [row]
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if ends and draw(st.booleans()):
        ends[-1] = ""
    return "".join(ln + end for ln, end in zip(lines, ends))


def _read(reader, path):
    """The reader's arrays as (dtype, shape, contiguity, bytes) each, or
    its exception's type and message."""
    try:
        t, v = reader(path)
    except Exception as exc:
        return type(exc), str(exc)
    return [(a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
            for a in (t, v)]


def _apply(path, out):
    """apply's exit code, stderr, warnings and output bytes."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as seen, \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        rc = main(["apply", "--in", path, "--order", "-0.5", "--out", out])
    body = None
    if os.path.exists(out):
        body = Path(out).read_bytes()
        os.remove(out)
    return (rc, err.getvalue(), [(w.category, str(w.message)) for w in seen],
            body)


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(text=csv_texts())
    def test_same_outcome_as_the_row_loop(self, text):
        # Arrays equal bit for bit (the sign of zero included), or the
        # same exception type and message; then the same apply run.
        with tempfile.TemporaryDirectory() as tmp:
            src, out = os.path.join(tmp, "in.csv"), os.path.join(tmp, "o.csv")
            with open(src, "w", newline="") as fh:
                fh.write(text)
            assert (_read(cli._read_csv_pairs, src)
                    == _read(csv_loop.read_csv_pairs, src))
            got = _apply(src, out)
            with mock.patch.object(cli, "_read_csv_pairs",
                                   csv_loop.read_csv_pairs):
                assert got == _apply(src, out)

    def test_plain_csv_takes_loadtxt(self, tmp_path):
        # A header, CRLF line ends, empty lines and an extra column stay
        # on the loadtxt path; only a failed parse reads the file again.
        src = tmp_path / "in.csv"
        src.write_bytes(b"t,value\r\n\r\n0,-0.0,x\r\n0.5,1e-320\r\n\n1,2")
        with mock.patch.object(cli, "_read_csv_rows",
                               side_effect=AssertionError("row loop ran")):
            t, v = cli._read_csv_pairs(str(src))
        assert t.tolist() == [0.0, 0.5, 1.0]
        assert v.tobytes() == np.array([-0.0, 1e-320, 2.0]).tobytes()


# Values the per-cell formatting must reproduce exactly: nan, both
# infinities, both zeros, subnormals and the ends of double range.
SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
           2.2250738585072009e-308, -1.5e-310, 1.7976931348623157e308,
           -1.7976931348623157e308, 2.2250738585072014e-308]


def _cellwise(header, cols):
    # The CSV text as it was written before the column-wise writer: one
    # format call per cell, row by row.
    rows = [header] + [",".join(format(float(v), ".17g") for v in row)
                       for row in zip(*cols)]
    return "\n".join(rows) + "\n"


class TestWriter:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 4095, 4096, 4097]),
        width=st.integers(min_value=1, max_value=4),
        pool=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                allow_subnormal=True), max_size=40),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_bytes_equal_cellwise_format(self, n, width, pool, seed):
        values = np.array(SPECIAL + pool)
        rng = np.random.default_rng(seed)
        cols = [values[rng.integers(0, values.size, n)]
                for _ in range(width)]
        header = ",".join(f"c{k}" for k in range(width))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "out.csv")
            _write(path, _csv_chunks(header, cols))
            got = Path(path).read_bytes()
        assert got == _cellwise(header, cols).encode()

    def test_stdout_bytes_equal_file_bytes(self, tmp_path):
        # 4 097 rows: the output crosses a chunk boundary.
        src = tmp_path / "ramp.csv"
        src.write_text("".join(f"{format(i * 0.01, '.17g')},"
                               f"{format(0.5 * i, '.17g')}\n"
                               for i in range(4097)))
        out = tmp_path / "out.csv"
        args = [sys.executable, "-m", "fodesolve", "apply", "--in",
                str(src), "--order", "-0.5", "--out"]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(Path(__file__).resolve().parents[1] / "src"),
                          env.get("PYTHONPATH")]))
        to_file = subprocess.run(args + [str(out)], env=env,
                                 capture_output=True, timeout=120)
        to_stdout = subprocess.run(args + ["-"], env=env,
                                   capture_output=True, timeout=120)
        assert to_file.returncode == 0 and to_stdout.returncode == 0
        assert to_file.stdout == b""
        assert to_stdout.stdout == out.read_bytes()
        assert out.read_bytes().count(b"\n") == 4098


class TestVerify:
    def test_exit_zero_and_report(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out

    def test_json_report(self, capsys):
        assert main(["verify", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert all(c["passed"] for c in payload["checks"])
        assert len(payload["checks"]) >= 10


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fodesolve", "verify", "--json"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["passed"] is True
