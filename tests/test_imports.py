"""The package namespace resolves its names on first use, and each
command-line subcommand loads only the modules it runs.

Each import check runs in a fresh interpreter, so modules that other
tests imported do not leak in.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fodesolve

ROOT = Path(__file__).resolve().parents[1]
PLATE = str(ROOT / "problems" / "bagley_torvik.fode")


def _loaded(code):
    """The fodesolve modules loaded after running code in a fresh
    interpreter on the source tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    code += ("\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules"
             " if m.startswith('fodesolve'))))\n")
    run = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return {m.removeprefix("fodesolve.")
            for m in json.loads(run.stdout.splitlines()[-1])}


def _cli_loaded(argv):
    return _loaded("import fodesolve.cli\n"
                   f"assert fodesolve.cli.main({argv!r}) == 0\n")


@pytest.fixture
def signal_csv(tmp_path):
    path = tmp_path / "signal.csv"
    path.write_text("t,value\n0,0\n0.5,1\n1,2\n")
    return str(path)


class TestSubcommandImports:
    def test_import_loads_no_submodule(self):
        assert _loaded("import fodesolve") == {"fodesolve"}

    def test_apply(self, signal_csv, tmp_path):
        loaded = _cli_loaded(["apply", "--in", signal_csv, "--order", "-0.5",
                              "--out", str(tmp_path / "out.csv")])
        assert "operators" in loaded
        assert not loaded & {"decompose", "stepper", "oracle", "verify",
                             "problemfile"}

    def test_solve(self, tmp_path):
        loaded = _cli_loaded(["solve", "--problem", PLATE, "--step", "0.1",
                              "--t-end", "1",
                              "--out", str(tmp_path / "out.csv")])
        assert "stepper" in loaded
        assert not loaded & {"oracle", "verify"}

    def test_convergence(self, tmp_path):
        loaded = _cli_loaded(["convergence", "--problem", PLATE, "--steps",
                              "0.1,0.05", "--t-end", "1", "--oracle", "gl",
                              "--out", str(tmp_path / "out.csv")])
        assert "oracle" in loaded
        assert "verify" not in loaded

    def test_verify(self):
        assert "verify" in _cli_loaded(["verify", "--json"])


class TestNamespace:
    def test_names_resolve_to_their_home_objects(self):
        assert len(set(fodesolve.__all__)) == len(fodesolve.__all__)
        for gone in ("OperatorOrder", "reconstruct_y"):
            with pytest.raises(AttributeError, match=gone):
                getattr(fodesolve, gone)
        for name, home in fodesolve._HOMES.items():
            module = importlib.import_module(f"fodesolve.{home}")
            value = getattr(fodesolve, name)
            assert value is getattr(module, name), name
            if hasattr(value, "__qualname__"):
                assert value.__module__ == module.__name__, name

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

    def test_parse_error_has_one_identity(self):
        import fodesolve.errors
        import fodesolve.problemfile

        assert fodesolve.problemfile.ParseError is fodesolve.ParseError
        assert fodesolve.errors.ParseError is fodesolve.ParseError
