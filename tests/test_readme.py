"""The README's Python examples run as written against the package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                    re.DOTALL | re.MULTILINE)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS,
                         ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_example_runs(code):
    # A fresh interpreter on the source tree, so nothing imported by
    # other tests leaks in, with numpy's RuntimeWarnings as errors.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
