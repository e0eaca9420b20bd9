"""Results are reproducible bit for bit whatever the BLAS thread count.

Every causal history sum in the package is elementwise multiply-adds
over the near lags plus operators._far_block, one pocketfft rfft/irfft
pair per block size in each operators._close_blocks call (every leaf
start of a whole series, or one leaf start in a leaf solve).  The
quadratures of a group read one series and share every transform; one
that scales its blocks, or sums them directly by elementwise
multiply-adds where no scale flattens them, closes its blocks alone.
Neither route depends on BLAS threading: the package has no `@`,
matmul, einsum or tensordot at all.  The one
evaluator of the node form, operators._series, sums the near lags by
elementwise multiply-adds over the nodes; the four single-node
functions take the last node of its run over the prefix that ends at
their node.  Both solvers step 64-node leaves: each leaf's history
comes from the far field and the leaf itself from one matrix, applied
by operators._leaf_product, an elementwise product and a row sum, no
BLAS call either.  The oracle's
matrix (oracle.gl_direct_solve) is the inverse of the leaf's Toeplitz
matrix; the stepper's (stepper._leaf_map) is the node recurrence over
the leaf, and a nonlinear problem's sweeps inside a leaf take the same
product.  All of them take their far blocks through the one far-field
path, operators._close_blocks, and walk their leaves through one
driver, operators._leaf_run.  The subprocess tests check the promise
end to end through the CLI; the source scans keep a thread-dependent
reduction, a node-by-node history evaluator or a second far-field path
from coming back in some other function, and one more keeps a second
process cache out.
"""

import ast
import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fodesolve"

# np.dot and friends call the BLAS for long operands, and the BLAS
# splits the sum across threads.
THREADED = {"dot", "inner", "vdot", "convolve"}
REDUCTIONS = {"matmul", "einsum", "tensordot"}
# numpy's pocketfft runs on one thread.
FFT = {"fft", "rfft", "irfft"}


def _cli_hash(args, out, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "fodesolve", *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return hashlib.sha256(out.read_bytes()).hexdigest()


def _assert_same_bytes_on_1_and_2_threads(args, tmp_path):
    one = _cli_hash(args, tmp_path / "one.csv", 1)
    two = _cli_hash(args, tmp_path / "two.csv", 2)
    assert one == two


def test_solve_bytes_independent_of_blas_threads(tmp_path):
    # N = 15 000: the direct inversion and the derivative reconstruction
    # both sum histories long enough for a BLAS ddot to use threads.
    _assert_same_bytes_on_1_and_2_threads(
        ["solve", "--problem", str(ROOT / "problems/bagley_torvik.fode"),
         "--step", "0.002", "--t-end", "30", "--derivatives"], tmp_path)


def test_apply_bytes_independent_of_blas_threads(tmp_path):
    t = 0.001 * np.arange(12001)
    rows = ["t,value"] + [f"{a:.17g},{b:.17g}"
                          for a, b in zip(t, np.sin(3.0 * t) + t)]
    signal = tmp_path / "signal.csv"
    signal.write_text("\n".join(rows) + "\n")
    _assert_same_bytes_on_1_and_2_threads(
        ["apply", "--in", str(signal), "--order", "-0.5"], tmp_path)


def test_convergence_gl_bytes_independent_of_blas_threads(tmp_path):
    # The gl oracle at N = 10 001: its leaf solves and far field, and the
    # three stepper runs it is compared with.
    _assert_same_bytes_on_1_and_2_threads(
        ["convergence", "--problem",
         str(ROOT / "problems/bagley_torvik.fode"),
         "--steps", "0.008,0.004,0.002", "--t-end", "20", "--oracle", "gl"],
        tmp_path)


def test_two_couplings_on_one_series_independent_of_blas_threads(tmp_path):
    # Orders 1.5 and 0.7: a right-hand-side link and nu's reconstruction
    # share each leaf's far block transforms, and y takes nu's far field
    # from the run; N = 15 000 with the derivative row.
    problem = tmp_path / "indep.fode"
    problem.write_text("term 1 1.5\nterm 0.5 0.7\nnonlinear 1 0.5\n"
                       "forcing 0 inf 1 0.1\ninit 0 0\ninit 1 0\n")
    _assert_same_bytes_on_1_and_2_threads(
        ["solve", "--problem", str(problem), "--step", "0.002",
         "--t-end", "30", "--derivatives"], tmp_path)


def test_series_route_bytes_independent_of_blas_threads(tmp_path):
    # The 30-term series plate on [0, 30] at h = 0.01: the fold closes
    # its blocks alone and sums them directly from 2048 on, and the tail
    # pass scales every block of the last power.  The run warns of its
    # tail and exits 0.
    _assert_same_bytes_on_1_and_2_threads(
        ["solve", "--problem", str(ROOT / "problems/bagley_torvik.fode"),
         "--step", "0.01", "--t-end", "30", "--inversion", "babenko",
         "--babenko-terms", "30"], tmp_path)


def _walk(path, match):
    """(enclosing function, match(node)) for each AST node of one source
    file for which match returns a name."""
    hits = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        name = match(node)
        if name:
            hits.append((func, name))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), "<module>")
    return hits


def _reduction(node):
    # Each `@`, and each attribute named like a reduction.
    if (isinstance(node, (ast.BinOp, ast.AugAssign))
            and isinstance(node.op, ast.MatMult)):
        return "@"
    if isinstance(node, ast.Attribute) and node.attr in THREADED | REDUCTIONS:
        return node.attr
    return None


def _fft(node):
    # Each FFT named as an attribute (np.fft.rfft) or bare (rfft).
    name = getattr(node, "attr", getattr(node, "id", None))
    if isinstance(node, (ast.Attribute, ast.Name)) and name in FFT:
        return name
    return None


def _named(names):
    # Each definition, import, name or attribute spelled as one of names.
    def match(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.alias):
            name = node.asname or node.name
        else:
            name = getattr(node, "id", getattr(node, "attr", None))
        return name if name in names else None
    return match


def _call_of(name):
    # Each call of the named function, by bare name or as an attribute.
    def match(node):
        if isinstance(node, ast.Call):
            f = node.func
            if getattr(f, "id", getattr(f, "attr", None)) == name:
                return name
        return None
    return match


def test_no_thread_dependent_reduction():
    for path in sorted(PACKAGE.glob("*.py")):
        bad = [h for h in _walk(path, _reduction) if h[1] in THREADED]
        assert not bad, f"{path.name}: {bad}"


def test_history_primitive_is_the_only_reduction():
    # No function owns an `@` or a reduction call: the near lags are
    # summed by elementwise multiply-adds, one float at a time at a
    # single node.
    owners = {(path.name, func)
              for path in sorted(PACKAGE.glob("*.py"))
              for func, _ in _walk(path, _reduction)}
    assert owners == set()


def test_far_field_is_the_only_fft():
    owners = {(path.name, func)
              for path in sorted(PACKAGE.glob("*.py"))
              for func, _ in _walk(path, _fft)}
    assert owners == {("operators.py", "_far_block")}


def test_one_far_field_path():
    # The running and the whole-series evaluator fill their far field
    # through one function, so their block sums cannot drift apart.
    callers = {(path.name, func)
               for path in sorted(PACKAGE.glob("*.py"))
               for func, _ in _walk(path, _call_of("_far_block"))}
    assert callers == {("operators.py", "_close_blocks")}


def _leaf_starts(node):
    # Each walk over leaf starts: a range stepping by _LEAF, or a
    # counter advanced by _LEAF.
    if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
            == "range" and len(node.args) == 3):
        step = node.args[2]
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        step = node.value
    else:
        return None
    return "leaf starts" if getattr(step, "id", None) == "_LEAF" else None


def test_one_leaf_loop():
    # The stepper and the cross-check solver walk their leaves through
    # one driver, operators._leaf_run: no other function walks leaf
    # starts, and only it and the whole-series evaluator close far
    # blocks.
    callers = {(path.name, func)
               for path in sorted(PACKAGE.glob("*.py"))
               for func, _ in _walk(path, _call_of("_close_blocks"))}
    assert callers == {("operators.py", "_series"),
                       ("operators.py", "_leaf_run")}
    walkers = {(path.name, func)
               for path in sorted(PACKAGE.glob("*.py"))
               for func, _ in _walk(path, _leaf_starts)}
    assert walkers == {("operators.py", "_leaf_run")}


def _calls_in(path, name):
    """The names of the calls inside the function called name in one
    source file, its nested functions included; isfinite(...).all() is
    named "isfinite().all"."""
    func, = [node for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.FunctionDef) and node.name == name]
    calls = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            called = getattr(f, "id", getattr(f, "attr", None))
            if called == "all" and _call_of("isfinite")(f.value):
                called = "isfinite().all"
            calls.add(called)
    return calls


def test_leaf_solves_keep_no_non_finite_rule_of_their_own():
    # operators._leaf_product holds the one rule for non-finite values
    # in a leaf product.  The solvers that call it form no product of
    # their own, mask none and test no map's finiteness: a second rule
    # there could stop a run at another node.
    for path, name in ((PACKAGE / "stepper.py", "_leaf_solve"),
                       (PACKAGE / "oracle.py", "gl_direct_solve")):
        calls = _calls_in(path, name)
        assert "_leaf_product" in calls, name
        assert not calls & {"multiply", "where", "isfinite().all"}, name


SINGLE_NODE = ("frac_integral", "frac_derivative01",
               "frac_derivative_general", "volterra_direct_invert")


def test_history_is_summed_only_by_the_node_form():
    # The node form has one evaluator, the whole-series one: nothing in
    # the package defines, imports or names a single-node evaluator, and
    # the four single-node functions, each a whole-series pass over the
    # nodes up to its own, serve only the verification battery's
    # inversion check.  The solvers and the whole-series passes never
    # step a history node by node.
    named = [(path.name, hit)
             for path in sorted(PACKAGE.glob("*.py"))
             for hit in _walk(path, _named({"_node"}))]
    assert named == []
    callers = {(path.name, func, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for name in SINGLE_NODE
               for func, _ in _walk(path, _call_of(name))}
    assert callers == {("verify.py", "_check_inversion",
                        "volterra_direct_invert")}


def test_the_node_closure_sums_its_history_once():
    # The running node closure and its `@` history sum live in the
    # tests' reference loop (tests/node_loop.py) only: nothing in the
    # package defines, imports or names them.
    left = [(path.name, hit)
            for path in sorted(PACKAGE.glob("*.py"))
            for hit in _walk(path, _named({"_running", "_history",
                                           "_node_kernel"}))]
    assert left == []


def test_one_direct_inverter_owns_the_pivot():
    # Both direct-inversion callers share decompose._direct_inverter; the
    # oracle keeps its own pivot.  Outside the series fold, decompose
    # takes its link prefactors from the operators' integral quadrature.
    callers = {(path.name, func)
               for path in sorted(PACKAGE.glob("*.py"))
               for func, _ in _walk(path, _call_of("_guard_pivot"))}
    assert callers == {("decompose.py", "_direct_inverter"),
                       ("oracle.py", "gl_direct_solve")}
    prefs = {func for func, _ in _walk(PACKAGE / "decompose.py",
                                       _call_of("_integral_pref"))}
    assert prefs == {"_babenko_kernels"}


def test_one_process_cache():
    # The quadrature cache, operators._kernel_quad, is the one table a
    # process keeps: weight tables and every other build leave with the
    # call that made them.  functools' memoizers are named nowhere else.
    caches = [(path.name, func)
              for path in sorted(PACKAGE.glob("*.py"))
              for func, _ in _walk(path, _named({"lru_cache", "cache",
                                                 "cached_property"}))]
    assert caches == [("operators.py", "_kernel_quad")]
