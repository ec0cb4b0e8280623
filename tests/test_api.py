"""The option set of the public API, pinned.

Every optional parameter of a function named in a module's `__all__` is
listed here with the caller outside the tests that sets it (or, for the
one kept without such a caller, the reason it stays).  An option that
only tests set keeps a second code path alive that no route pair runs;
adding one, or removing one, changes this list on purpose.
"""

import inspect

from hodgekp import algebra, cli, curve, kp, operators, tau

OPTIONS = {
    "curve.givental_v_matrix.require_symplectic": "curve.identification_residual passes it on",
    "curve.identification_residual.require_symplectic": "cli._chk_identification, False for --perturbed",
    "curve.perturbed_control_curve.denominator": (
        "no caller outside the tests: the entry point of the hypothesis test of the paper's "
        "uniqueness claim, and a private twin would be the same option under another name"
    ),
    "operators.w_op.mode": "operators.givental_direct",
    "operators.exp_apply.inverse": "operators.virasoro_conjugation_check",
    "operators.givental_direct.mode": "operators.givental_routes",
    "operators.givental_factorized.mode": "operators.givental_routes",
    "operators.givental_routes.mode": "tau._quantized_action",
    "operators.transformed_variable_images.mode": "operators.givental_factorized",
    "operators.weight_monomials.odd_only": "operators.unit_monomials",
    "operators.unit_monomials.odd_only": "operators.rl_identity_check",
    "operators.operator_equality_check.label": "operators.virasoro_factorization_check",
    "operators.virasoro_conjugation_check.flip_sign": "perfbench/child.py, the flip-sign control of conj-w6",
    "operators.rl_transform_virasoro.mode": "tau._tau_identity",
    "operators.rl_identity_check.extra": "cli._chk_theorem_rl, the base tau-function",
    "tau.hodge_partition.mode": "cli._TAU_KINDS, the hodge and theta-hodge dumps",
    "tau.tau_qp_check.mode": "cli._agreed_tau, the tau-qp and tau-theta-qp dumps",
    "cli.main.argv": "the hodgekp console script and python -m hodgekp, whose None argparse reads as sys.argv",
}


def test_every_optional_parameter_has_a_listed_caller():
    found = set()
    for module in (algebra, curve, operators, tau, kp, cli):
        short = module.__name__.rsplit(".", 1)[1]
        for name in module.__all__:
            fn = getattr(module, name)
            if not inspect.isfunction(fn):
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.add(f"{short}.{name}.{param.name}")
    assert found == set(OPTIONS)
