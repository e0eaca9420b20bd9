"""The package namespace resolves its names on first use, each
command-line subcommand loads only the modules it runs, reading a
problem file loads neither numpy nor dataclasses, and only the command
line's process entry sets the BLAS thread count.

Each import check runs in a fresh interpreter, so modules that other
tests imported do not leak in.
"""

import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fodesolve

ROOT = Path(__file__).resolve().parents[1]
PLATE = str(ROOT / "problems" / "bagley_torvik.fode")


def _fresh(code, *args, threads=None):
    """The last stdout line of code run in a fresh interpreter on the
    source tree, with OPENBLAS_NUM_THREADS set to threads, or unset."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run([sys.executable, "-c", code, *args], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1]


def _loaded(code, absent=()):
    """The fodesolve modules loaded after running code in a fresh
    interpreter on the source tree, once none of the modules named in
    absent has been loaded."""
    code += ("\nimport json, sys\n"
             f"for m in {tuple(absent)!r}:\n"
             "    assert m not in sys.modules, m\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('fodesolve'))))\n")
    return {m.removeprefix("fodesolve.") for m in json.loads(_fresh(code))}


def _cli_loaded(argv, absent=()):
    return _loaded("import fodesolve.cli\n"
                   f"assert fodesolve.cli.main({argv!r}) == 0\n", absent)


@pytest.fixture
def signal_csv(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("t,value\n0,0\n0.5,1\n1,2\n")
    return str(path)


class TestSubcommandImports:
    def test_import_loads_no_submodule(self):
        assert _loaded("import fodesolve") == {"fodesolve"}

    def test_problem_file_loads_no_numpy(self):
        # nor dataclasses, which imports inspect
        code = ("import fodesolve\n"
                f"with open({PLATE!r}) as fh:\n"
                "    problem = fodesolve.parse_problem(fh.read())\n"
                "assert problem.terms[0] == fodesolve.FracTerm(1.0, 2.0)\n")
        assert _loaded(code, absent=["numpy", "dataclasses"]) == {
            "fodesolve", "errors", "problemfile"}

    def test_apply(self, signal_csv, tmp_path):
        loaded = _cli_loaded(["apply", "--in", signal_csv, "--order", "-0.5",
                              "--out", str(tmp_path / "out.csv")])
        assert loaded == {"fodesolve", "cli", "errors", "operators"}

    def test_solve(self, tmp_path):
        loaded = _cli_loaded(["solve", "--problem", PLATE, "--step", "0.1",
                              "--t-end", "1",
                              "--out", str(tmp_path / "out.csv")],
                             absent=["numpy.polynomial"])
        assert "stepper" in loaded
        assert not loaded & {"oracle", "verify"}

    def test_convergence(self, tmp_path):
        loaded = _cli_loaded(["convergence", "--problem", PLATE, "--steps",
                              "0.1,0.05", "--t-end", "1", "--oracle", "gl",
                              "--out", str(tmp_path / "out.csv")],
                             absent=["numpy.polynomial"])
        assert "oracle" in loaded
        assert "verify" not in loaded

    def test_verify(self):
        assert "verify" in _cli_loaded(["verify", "--json"])


# The package's public names: the inverters and the decomposition, the
# problem's input types, the operators, the cross-check solver and the
# stepper.
PUBLIC = {
    "Babenko", "BabenkoTailWarning", "DirectVolterra", "babenko_invert",
    "build_system", "volterra_direct_invert",
    "ForcingSegment", "FracTerm", "PiecewiseForcing", "Polynomial",
    "PowerSumForcing", "ProblemSpec", "parse_problem",
    "SampleSeries", "apply_operator", "frac_derivative01",
    "frac_derivative_general", "frac_integral", "weight_table",
    "convergence_study", "gl_direct_solve", "manufacture", "power_rule",
    "SolverConfig", "reconstruct_derivatives", "solve",
    "__version__",
}

# Names that live only in their home modules.
HOME_ONLY = {
    "decompose": ("BabenkoResult", "DecomposedSystem", "RhsLink", "WLink"),
    "stepper": ("Diagnostics", "Trajectory"),
    "oracle": ("ConvergenceRow", "ManufacturedCase"),
    "problemfile": ("integer_order",),
    "errors": ("NonzeroOriginError", "ParseError", "SingularInversionError",
               "SingularOriginError", "UnsupportedProblemError"),
    "verify": ("CheckResult", "run_checks", "run_verify"),
}


class TestNamespace:
    def test_names_resolve_to_their_home_objects(self):
        assert len(set(fodesolve.__all__)) == len(fodesolve.__all__)
        assert set(fodesolve.__all__) == PUBLIC
        for gone in ("OperatorOrder", "reconstruct_y", "gamma", "GAMMA_MAX",
                     "format_problem"):
            with pytest.raises(AttributeError, match=gone):
                getattr(fodesolve, gone)
        for name, home in fodesolve._HOMES.items():
            module = importlib.import_module(f"fodesolve.{home}")
            value = getattr(fodesolve, name)
            assert value is getattr(module, name), name
            if hasattr(value, "__qualname__"):
                assert value.__module__ == module.__name__, name

    def test_fresh_interpreter_resolves_every_name(self):
        # A home module that is gone, or one that warns on import, fails
        # here rather than on a user's first access.
        code = ("import warnings\n"
                "warnings.simplefilter('error')\n"
                "import fodesolve\n"
                "for name in fodesolve.__all__:\n"
                "    getattr(fodesolve, name)\n"
                "exec('from fodesolve import *', {})\n"
                "print(len(fodesolve.__all__))\n")
        assert _fresh(code) == str(len(PUBLIC))

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from fodesolve import *", namespace)
        for name in fodesolve.__all__:
            assert namespace[name] is getattr(fodesolve, name), name

    def test_dir_lists_the_public_names(self):
        assert dir(fodesolve) == sorted(fodesolve.__all__)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(fodesolve, "no_such_name")
        with pytest.raises(ImportError):
            exec("from fodesolve import no_such_name", {})

    @pytest.mark.parametrize("home", sorted(HOME_ONLY))
    def test_home_only_names_stay_out_of_the_package(self, home):
        module = importlib.import_module(f"fodesolve.{home}")
        for name in HOME_ONLY[home]:
            assert hasattr(module, name), name
            with pytest.raises(AttributeError, match=name):
                getattr(fodesolve, name)

    def test_deleted_names_are_gone(self):
        assert importlib.util.find_spec("fodesolve.gammafn") is None
        problemfile = importlib.import_module("fodesolve.problemfile")
        assert not hasattr(problemfile, "format_problem")

    def test_parse_error_has_one_identity(self):
        import fodesolve.errors
        import fodesolve.problemfile

        assert fodesolve.problemfile.ParseError is fodesolve.errors.ParseError


# Runs the command line through one entry, as `python -m fodesolve` or
# as the console script's wrapper does, then reports the exit code,
# OPENBLAS_NUM_THREADS, whether numpy loaded and the thread count.
_ENTRY = """
import importlib, json, os, runpy, sys
route, sys.argv = sys.argv[1], ["fodesolve", *sys.argv[2:]]
try:
    if route == "-m":
        runpy.run_module("fodesolve", run_name="__main__", alter_sys=True)
    else:
        module, _, name = route.partition(":")
        sys.exit(getattr(importlib.import_module(module), name)())
except SystemExit as exc:
    code = exc.code
threads = None
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as fh:
        threads = next(int(ln.split()[1]) for ln in fh
                       if ln.startswith("Threads:"))
print(json.dumps([code, os.environ.get("OPENBLAS_NUM_THREADS"),
                  "numpy" in sys.modules, threads]))
"""

SCRIPT = re.search(r'^fodesolve = "(.+)"$',
                   (ROOT / "pyproject.toml").read_text(), re.M).group(1)


class TestProcessEntry:
    """The command line's process entry starts OpenBLAS on one thread
    unless the caller set a count; importing the package changes no
    environment variable."""

    @pytest.fixture(params=["-m", SCRIPT])
    def entry(self, request, signal_csv, tmp_path):
        argv = ["apply", "--in", signal_csv, "--order", "-0.5",
                "--out", str(tmp_path / "out.csv")]
        return lambda threads=None: json.loads(
            _fresh(_ENTRY, request.param, *argv, threads=threads))

    def test_one_blas_thread_by_default(self, entry):
        code, blas, numpy_loaded, threads = entry()
        assert (code, blas, numpy_loaded) == (0, "1", True)
        if threads is None:
            pytest.skip("no /proc/self/status to count threads")
        assert threads == 1

    def test_caller_setting_kept(self, entry):
        code, blas, numpy_loaded, _ = entry(threads="2")
        assert (code, blas, numpy_loaded) == (0, "2", True)

    @pytest.mark.parametrize("route", ["-m", SCRIPT])
    @pytest.mark.parametrize("command", ["solve", "convergence"])
    def test_malformed_problem_file_exits_before_numpy(self, route, command,
                                                       tmp_path):
        bad = tmp_path / "bad.fode"
        bad.write_text("term 1 2\ninit 0 zero\ninit 1 0\n")
        grid = (["--step", "0.1"] if command == "solve"
                else ["--steps", "0.1,0.05"])
        argv = [command, "--problem", str(bad), *grid, "--t-end", "1",
                "--out", str(tmp_path / "out.csv")]
        code, blas, numpy_loaded, _ = json.loads(_fresh(_ENTRY, route, *argv))
        assert (code, blas, numpy_loaded) == (2, "1", False)
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("module", ["fodesolve", "fodesolve.cli",
                                        "fodesolve.__main__"])
    def test_import_leaves_the_environment_alone(self, module):
        code = (f"import os, {module}\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert _fresh(code) == "None"
