"""`src/` holds only what the product runs.

A small product sweep runs in process under `sys.setprofile`: every
check at W = 5 on two catalog points (one generic, one on the reduction
locus), with `conjugation` kept in process (one CPU, so its forked
worker's calls are seen here), the perturbed identification control, a
failing control (the group element scaled by 8/7, so the failure paths
build their witnesses), a broken route pair (exit 3), the text and JSON
summaries with `--out`, a bad `--weight`, `list-checks` and the six
`tau` dumps.  Every function of `src/` that the sweep never enters is
listed below with its reason, as `tests/test_api.py` lists options.  A
call made by a test helper of `conftest.py` (`op_scale`, which scales
the group element of the failing control) is the helper's, not the
product's, and does not count.  A function that becomes dead fails
here, and so does a listed one that the product starts to enter.
"""

import inspect
import os
import sys
import types
from fractions import Fraction as F

import hodgekp
from hodgekp import algebra, cli, curve, kp, operators, tau
from hodgekp.cli import main

from conftest import cpus, op_scale

NEVER_ENTERED = {
    # read by the benchmark alone (ROADMAP item 12 part B: they move out
    # once perfbench reads counters from the report)
    "tau.psi_correlator": "perfbench reads it (item 12 part B)",
    "tau.theta_correlator": "perfbench reads it (item 12 part B)",
    "tau._constraint_sums": "perfbench reads it through the correlators (item 12 part B)",
    "tau._sub_multisets": "perfbench reads it through the correlators (item 12 part B)",
    "tau._psi_genus": "perfbench reads it through the correlators (item 12 part B)",
    "tau._theta_genus": "perfbench reads it through the correlators (item 12 part B)",
    "kp.hirota_full_check": "perfbench/child.py's perturbed-tau control (item 12 part B)",
    "kp.specialize_hbar": "perfbench/child.py's perturbed-tau control (item 12 part B)",
    "algebra.TPoly.diff": "perfbench's layer tracer wraps it by name (item 12 part B)",
    "algebra.TPoly.substitute": "perfbench's layer tracer wraps it by name (item 12 part B)",
    "algebra.TPoly.mul_var": "perfbench's layer tracer wraps it by name (item 12 part B)",
    "algebra.TPoly.variables": "TPoly.substitute calls it (item 12 part B)",
    # failure and guard paths that no run of the sweep reaches
    "algebra.ZSeries.__repr__": "failure path: the witness repr of a series, which no report prints",
    "operators.LinearOp.__repr__": "failure path: the repr of an operator, for an exception or a debugger",
    "algebra.Record.__repr__": "failure path: the repr of a record, for an exception or a debugger",
    "curve.CurveParams.__setattr__": "guard: a point is immutable, and any assignment raises",
    "curve.CurveParams.__delattr__": "guard: a point is immutable, and any deletion raises",
    # public algebra that the routes do not use, kept for callers of the
    # modules' __all__ (the tests among them)
    "algebra.Record.__eq__": "public: records compare by value; no route compares two",
    "algebra.HbarPoly.__eq__": "public: the routes compare integer numerators (same_value)",
    "algebra.HbarPoly.__add__": "public: coefficient arithmetic; operators sum their items as Fractions",
    "algebra.HbarPoly.__mul__": "public: coefficient arithmetic; the routes multiply integers",
    "algebra.HbarPoly.is_zero": "public: the routes test integer numerators",
    "algebra.HbarPoly.__neg__": "public: coefficient arithmetic; the routes negate integers",
    "algebra.HbarPoly.__sub__": "public: coefficient arithmetic; the routes subtract integers",
    "algebra.TPoly.is_zero": "public: the routes test integer numerators",
    "algebra.TPoly.terms": "public: the Fraction view of a polynomial; the routes read `num` and `den`",
    "operators.LinearOp.terms": "public: the Fraction view of an operator; the routes read `pairs` and `D`",
}


def _functions():
    """{qualified name: code key} of every def of the package's modules,
    methods and nested functions included (no lambdas or comprehensions)."""
    found = {}

    def walk(code, prefix, short):
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                name = const.co_name
                if name.startswith("<"):
                    continue
                qual = f"{prefix}.{name}" if prefix else name
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                    found[f"{short}.{qual}"] = (os.path.realpath(const.co_filename), const.co_firstlineno, name)
                walk(const, qual, short)

    for module in (algebra, cli, curve, kp, operators, tau, hodgekp):
        path = module.__file__
        with open(path) as fh:
            code = compile(fh.read(), path, "exec")
        short = module.__name__.rsplit(".", 1)[1] if "." in module.__name__ else module.__name__
        walk(code, "", short)
    return found


def _sweep(tmp_path, monkeypatch):
    # the one table memoized per process is built again, as a fresh
    # `hodgekp verify` process builds it
    kp.hirota_equation_table.cache_clear()
    point = ["--q", "1", "--p", "3", "--s", "2"]
    with cpus(1):
        assert main(["verify", "all", "--weight", "5", *point, "--format", "json", "--out", str(tmp_path / "a")]) == 0
        assert main(["verify", "all", "--weight", "5", "--q", "-1", "--p", "2", "--s", "1"]) == 0
        assert main(["verify", "identification", "--weight", "5", "--perturbed"]) == 0
        assert main(["verify", "lemma-laplace", "--weight", "abc"]) == 2
        assert main(["list-checks"]) == 0
        for kind in ("kw", "bgw"):
            assert main(["tau", kind, "--weight", "5"]) == 0
        for kind in ("hodge", "theta-hodge", "tau-qp", "tau-theta-qp"):
            assert main(["tau", kind, "--weight", "5", *point]) == 0
        with monkeypatch.context() as mp:
            # the failing control: every reader of the group element fails
            real = operators.virasoro_sum_op
            mp.setattr(operators, "virasoro_sum_op", lambda a, W: op_scale(real(a, W), F(8, 7)))
            checks = ["lemma-grunsky", "theorem-rl", "theorem-hodge", "conjugation"]
            for check in checks:
                assert main(["verify", check, "--weight", "4", *point, "--out", str(tmp_path / "b")]) == 1
        with monkeypatch.context() as mp:
            # a quantized pair that disagrees is an invariant violation
            real_direct = operators.givental_direct
            scaled = lambda couplings, W, mode="standard": real_direct({k: c * 2 for k, c in couplings.items()}, W, mode)
            mp.setattr(operators, "givental_direct", scaled)
            assert main(["verify", "theorem-hodge", "--weight", "4", *point, "--out", str(tmp_path / "c")]) == 3


def test_every_function_the_product_never_enters_is_listed(tmp_path, monkeypatch, capsys):
    functions = _functions()
    entered = set()
    helpers = op_scale.__code__.co_filename

    def profile(frame, event, arg):
        if event == "call" and not (frame.f_back and frame.f_back.f_code.co_filename == helpers):
            code = frame.f_code
            entered.add((os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        _sweep(tmp_path, monkeypatch)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    never = {name for name, key in functions.items() if key not in entered}
    assert sorted(never) == sorted(NEVER_ENTERED)
