"""Workload definitions and seeded parameter points for the benchmark.

Kept free of any hodgekp import so that the benchmark child process pays
for nothing but the program's own start-up before its first job.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Seed 0 runs the shipped 5-point catalog (`src/hodgekp/data/points.cfg`),
# loaded by the child through `hodgekp.cli.default_points()`.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    checks: tuple
    weight: int
    control: str  # name of the negative control run after the jobs


# Why each workload is in the benchmark: see perfbench/README.md.
WORKLOADS = {
    # operators stress: exp_apply / LinearOp.apply over sparse diff/mul_var.
    "conj-w6": Workload(("conjugation",), 6, "flip-sign"),
    # kp stress: dense TPoly products inside the Hirota checks, plus reuse.
    "kp-w11": Workload(
        ("kp-kw", "kp-bgw", "kp-hodge", "theorem-hodge", "theorem-theta", "kdv-reduction"),
        11,
        "perturbed-tau",
    ),
    # `verify all` traffic without conjugation: many short jobs.
    "sweep-w8": Workload(
        (
            "lemma-grunsky",
            "lemma-laplace",
            "identification",
            "lemma-factorization",
            "lemma-changevars",
            "theorem-rl",
            "theorem-hodge",
            "theorem-theta",
            "kp-kw",
            "kp-bgw",
            "kp-hodge",
            "kdv-reduction",
        ),
        8,
        "perturbed-identification",
    ),
}


def draw_points(seed: int) -> list[tuple[int, int, int]] | None:
    """The (q, p, s) points a seed selects; None means the shipped catalog.

    Any other seed draws 5 distinct integer points with s in {1, 2, 3},
    q in [-4, 4] and p = s^2 - q, exactly one of them on the reduction
    locus q = -s^2 (where p = -2q), in a seed-determined order.
    """
    if seed == DEFAULT_SEED:
        return None
    rng = random.Random(seed)
    candidates = [(q, s * s - q, s) for s in (1, 2, 3) for q in range(-4, 5)]
    locus = [pt for pt in candidates if pt[0] == -pt[2] ** 2]
    generic = [pt for pt in candidates if pt[0] != -pt[2] ** 2]
    points = [rng.choice(locus)] + rng.sample(generic, 4)
    rng.shuffle(points)
    return points
