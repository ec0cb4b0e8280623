"""Linear operators on weight-truncated polynomials.

Current and Virasoro modes on the t-side, quantized odd-power
generators on the T-side, their (nilpotent) exponentials, the two
changes of variables, and basis-wide operator-equality testing.
Operators are immutable descriptions; application is pure.
"""

from __future__ import annotations

import marshal
import math
import os
import sys
from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction

from .algebra import (
    BIG_T_SIDE,
    HbarPoly,
    InvariantViolation,
    Mono,
    Record,
    TPoly,
    T_SIDE,
    ZSeries,
    _reduce,
    _substitute_numerators,
    double_factorial,
    exp_weights,
    mono_lower,
    mono_str,
    mono_weight,
    same_value,
    var_weight,
    weight_monomials,
)
from .curve import CurveSeries

__all__ = [
    "LinearOp",
    "DILATON_TIME",
    "dilaton_time",
    "translation_op",
    "linear_change_generator",
    "linear_change",
    "virasoro_sum_op",
    "group_element",
    "exp_apply",
    "couplings_from_log_r",
    "givental_direct",
    "givental_kernel",
    "givental_factorized",
    "givental_routes",
    "transformed_variable_images",
    "tqp_forms",
    "tqp_forms_symbolic",
    "tqp_substitute",
    "odd_t_to_big_t",
    "weight_monomials",
    "unit_monomials",
    "EqualityReport",
    "operator_equality_check",
    "virasoro_factorization_check",
    "virasoro_conjugation_check",
    "rl_transform_quantized",
    "rl_transform_virasoro",
    "rl_identity_check",
]


# ---------------------------------------------------------------------------
# Elementary operator sums
# ---------------------------------------------------------------------------


class LinearOp:
    """A finite sum of elementary actions on TPoly values, held as the
    integer operator D·op.

    Term tags: "id" (scalar), "m" (multiply by one variable),
    "mm" (multiply by a product of two variables), "d" (one partial
    derivative), "dd" (two partial derivatives), "md" (differentiate,
    then multiply by a variable).  Every term records enough structure
    to bound its weight drop, making exponentials of weight-dropping
    operators finite sums.

    As `TPoly` does, the op keeps integers: D is the LCM of its
    coefficient denominators, `pairs` maps each term to the tuple of
    (hbar exponent, int) pairs of its coefficient in D·op, and a
    `Fraction` is built only where a coefficient is read (`terms`).  The
    constructor also indexes the terms for `_apply_plan`: the
    multiplicative ones ("id" merged into `scalar`, "m" and "mm" in
    `mults`, ascending in the weight they add) act on every monomial;
    the derivative ones are indexed by the variable they differentiate
    (for "dd", the smaller one) in `by_var`, which one function walks
    (`_derivative_walk`), so a monomial only meets the terms of the
    variables it contains.  Derivative coefficients are kept as
    {integer factor: pairs} memos, factor 1 being the coefficient itself,
    since a derivative multiplies by the variable's exponent.
    `hbar_free` says whether every coefficient is a multiple of hbar^0.

    For `exp_apply` the op also numbers monomials lazily (`ids` maps a
    monomial to its id, `monos` an id back to its monomial; nothing is
    numbered up front) and keeps one row per monomial once it is reached
    (`rows[id]`, None until then): the image of that unit monomial under
    D·op, as a tuple of (target id, hbar exponent, integer factor).  Only
    ops that drop weight by at least 1 reach `exp_apply`, so they have no
    "id", "m" or "mm" terms, a row is the images of the derivative terms
    alone (`compile_rows`), and every image lies strictly below its
    monomial's weight: no cap cuts a row, a row depends on its monomial
    alone, and it serves every iterate of every later call on the same
    op, exp(op) and exp(-op) alike.  Rows live and die with the op.
    """

    __slots__ = (
        "kind", "pairs", "D", "min_weight_drop", "scalar", "mults", "by_var", "hbar_free", "ids", "monos", "rows"
    )

    def __init__(self, kind: str, terms: Mapping[tuple, object] | None = None):
        """`terms` maps each term to its coefficient, an `HbarPoly` or, as
        `from_terms` passes it, the {hbar exponent: Fraction} map of one;
        zero coefficients are dropped."""
        self.kind = kind
        slots = [(key, c.terms if isinstance(c, HbarPoly) else c) for key, c in (terms or {}).items()]
        self.D = D = math.lcm(*(x.denominator for _, c in slots for x in c.values()))
        self.pairs = {
            key: pairs for key, c in slots if (pairs := tuple((e, x.numerator * (D // x.denominator)) for e, x in c.items() if x))
        }
        self.scalar = ()
        self.mults = []
        self.ids: dict[Mono, int] = {}
        self.monos: list[Mono] = []
        self.rows: list[tuple | None] = []
        self.hbar_free = all(e == 0 for pairs in self.pairs.values() for e, _ in pairs)
        w = lambda v: var_weight(kind, v)
        drops = []
        d_pairs, md, dd_same, dd_other = {}, {}, {}, {}
        for key, pairs in self.pairs.items():
            tag = key[0]
            if tag == "id":
                drop = 0
                self.scalar = pairs
            elif tag in ("m", "mm"):
                drop = -sum(map(w, key[1:]))
                self.mults.append((key[1:], -drop, pairs))
            elif tag == "d":
                drop = w(key[1])
                d_pairs[key[1]] = {1: pairs}
            elif tag == "md":
                a, b = key[1], key[2]
                drop = w(b) - w(a)
                md.setdefault(b, []).append((a, -drop, {1: pairs}))
            elif tag == "dd":
                a, b = key[1], key[2]
                drop = w(a) + w(b)
                if a == b:
                    dd_same[a] = {1: pairs}
                else:
                    dd_other.setdefault(a, {})[b] = {1: pairs}
            else:
                raise ValueError(f"unknown term tag {tag!r}")
            drops.append(drop)
        # the guaranteed weight drop per application (0 for an empty op)
        self.min_weight_drop = min(drops, default=0)
        self.mults.sort(key=lambda m: m[1])
        self.by_var = {
            v: (d_pairs.get(v), md.get(v, []), dd_same.get(v), dd_other.get(v)) for v in {*d_pairs, *md, *dd_same, *dd_other}
        }

    @classmethod
    def from_terms(cls, kind: str, items: Iterable[tuple]) -> "LinearOp":
        """items: iterables of (tag, indices..., coeff), coeff an int, a
        Fraction or an HbarPoly; the coefficients of one term are summed
        as {hbar exponent: Fraction}, which the constructor reads."""
        acc: dict[tuple, dict] = {}
        for tag, *idx, c in items:
            slot = acc.setdefault((tag, *(sorted(idx) if tag in ("dd", "mm") else idx)), {})
            for e, x in c.terms.items() if isinstance(c, HbarPoly) else ((0, c),):
                s = slot.get(e)
                slot[e] = x if s is None else s + x
        return cls(kind, acc)

    @property
    def terms(self) -> dict[tuple, HbarPoly]:
        """The coefficients as a new {term: HbarPoly} map, read-only."""
        return {key: HbarPoly({e: Fraction(c, self.D) for e, c in pairs}) for key, pairs in self.pairs.items()}

    def is_zero(self) -> bool:
        return not self.pairs

    def _check_side(self, P: TPoly):
        if P.kind != self.kind:
            raise ValueError(
                f"operator acts on {self.kind}-side polynomials, got {P.kind}-side"
            )

    def apply(self, P: TPoly) -> TPoly:
        """The image of P, in one pass over its monomials on integers (see
        `_apply_plan`): (D·op)(P.num) over D·P.den."""
        self._check_side(P)
        out = _apply_plan(self, P.max_weight, P.num.items())
        return TPoly._normal(self.kind, P.max_weight, out, self.D * P.den)

    def number(self, mono: Mono) -> int:
        """The id of the monomial, numbering it (with no row yet) if new."""
        i = self.ids.get(mono)
        if i is None:
            i = self.ids[mono] = len(self.monos)
            self.monos.append(mono)
            self.rows.append(None)
        return i

    def compile_rows(self, ids: list) -> None:
        """Build and keep the rows of the monomial ids `ids`, each from the
        derivative walk (`_derivative_walk`) on its monomial: one entry
        (target id, hbar exponent, c·exponent factor) per image and
        coefficient pair.  The op drops weight, so no term raises it (room
        0).  The images of distinct terms are distinct monomials and no
        entry is zero, so a row needs no merge; the steps sum what they
        read."""
        monos, rows, number, by_var = self.monos, self.rows, self.number, self.by_var
        for i in ids:
            row = []
            put = row.append
            for img, pairs in _derivative_walk(by_var, monos[i], 0):
                j = number(img)
                for e, c in pairs:
                    put((j, e, c))
            rows[i] = tuple(row)

    def __repr__(self) -> str:
        return f"LinearOp({self.kind}, {len(self.pairs)} terms, drop>={self.min_weight_drop})"


def _apply_plan(op: LinearOp, cap: int, items: Iterable[tuple]) -> dict:
    """The fused apply kernel: the image of the integer polynomial whose
    terms are `items`, pairs (monomial, {hbar exponent: int}), under the
    integer operator D·op, truncated at weight `cap`.

    Each monomial meets the multiplicative terms that keep it within cap
    and, through `_derivative_walk`, the derivative terms of the variables
    it contains; every product lands in one flat map from monomial to
    {hbar exponent: int}, returned with the zeros of cancellations.
    """
    odd = op.kind == BIG_T_SIDE  # weight(T_m) = 2m + 1, weight(t_k) = k
    scalar, mults, by_var = op.scalar, op.mults, op.by_var
    out: dict[Mono, dict] = {}
    citems = ()

    def emit(mono, pairs):
        slot = out.get(mono)
        if slot is None:
            slot = out[mono] = {}
        for e1, c1 in citems:
            for e2, c2 in pairs:
                v = c1 * c2
                s = slot.get(e1 + e2)
                slot[e1 + e2] = v if s is None else s + v

    for mono, slot in items:
        citems = tuple(slot.items())
        if scalar:
            emit(mono, scalar)
        w = sum(((2 * v + 1) if odd else v) * e for v, e in mono)
        for vars_, dw, pairs in mults:
            if w + dw > cap:
                break
            img = mono
            for a in vars_:
                img = _mono_times(img, a)
            emit(img, pairs)
        for img, pairs in _derivative_walk(by_var, mono, cap - w):
            emit(img, pairs)
    return out


def _derivative_walk(by_var: dict, mono: Mono, room: int) -> list[tuple]:
    """The images of the monomial under the derivative terms of an op's
    term index `by_var` (see `LinearOp`), as a list of (image, pairs),
    pairs the term's coefficient pairs times the exponent factor of the
    derivative.  An "md" term is skipped where it raises the weight by
    more than `room`.  The monomial visits only the terms of the
    variables it contains.  This is the one walk over a term index: the
    apply kernel and the row builder both read it."""
    out = []
    put = out.append
    for i, (v, e) in enumerate(mono):
        entry = by_var.get(v)
        if entry is None:
            continue
        d_pairs, md, dd_same, dd_other = entry
        dmono = mono_lower(mono, i)
        if d_pairs is not None:
            put((dmono, _scaled(d_pairs, e)))
        for a, gain, pairs in md:
            if gain <= room:
                put((_mono_times(dmono, a), _scaled(pairs, e)))
        if dd_same is not None and e > 1:
            put((mono_lower(dmono, i), _scaled(dd_same, e * (e - 1))))
        if dd_other:
            for j in range(i + 1, len(mono)):
                vb, eb = mono[j]
                pairs = dd_other.get(vb)
                if pairs is not None:
                    # in dmono vb sits at j, or at j - 1 if v's entry (at i < j) vanished
                    put((mono_lower(dmono, j if e > 1 else j - 1), _scaled(pairs, e * eb)))
    return out


def _mono_times(mono: Mono, a: int) -> Mono:
    """The monomial times the variable a (monomials are sorted (var, exp) tuples)."""
    for i, (v, e) in enumerate(mono):
        if v == a:
            return mono[:i] + ((a, e + 1),) + mono[i + 1 :]
        if v > a:
            return mono[:i] + ((a, 1),) + mono[i:]
    return mono + ((a, 1),)


def _scaled(pairs: dict, n: int) -> tuple:
    """The coefficient pairs times the integer n, memoized in `pairs` itself."""
    got = pairs.get(n)
    if got is None:
        got = pairs[n] = tuple((h, c * n) for h, c in pairs[1])
    return got


def exp_apply(op: LinearOp, P: TPoly, *, inverse: bool = False) -> TPoly:
    """exp(op) . P, or exp(-op) . P with `inverse`, as a finite sum; op
    must drop weight by at least 1.  The sum runs on integers, in
    `_exp_batch` (a batch of one); this builds the polynomial from its
    result."""
    if op.is_zero():
        return P
    op._check_side(P)
    return TPoly._normal(op.kind, P.max_weight, *_exp_batch(op, [(P.num, P.den)], P.max_weight, inverse)[0])


def _exp_batch(op: LinearOp, items: Sequence[tuple], cap: int, inverse: bool = False) -> list[tuple]:
    """exp(op), or exp(-op) with `inverse`, on each (num, den) of `items`, a
    value num / den, as the list of the (acc, d) of its images acc / d, not
    brought to lowest terms: num and acc map monomials of weight <= cap to
    {hbar exponent: int}, and d is den times a positive integer.  op must
    be zero or drop weight by at least 1.

    The sums run on op's monomial ids, in the lockstep loop
    (`_exp_lockstep`): the monomials are numbered on the way in and mapped
    back on the way out, the zeros of cancellations dropped.  An element
    whose coefficients, like all of op's, are multiples of hbar^0 runs on
    monomial ids; any other on (monomial id, hbar exponent) pairs, so
    hbar-Laurent coefficients pass through unchanged.
    """
    if op.is_zero():
        return list(items)
    number, monos = op.number, op.monos
    flat = [op.hbar_free and all(len(slot) == 1 and 0 in slot for slot in num.values()) for num, _ in items]
    us = [
        {number(mono): slot[0] for mono, slot in num.items()}
        if f
        else {(number(mono), e): c for mono, slot in num.items() for e, c in slot.items()}
        for f, (num, _) in zip(flat, items)
    ]
    out = []
    for f, (total, den) in zip(flat, _exp_lockstep(op, us, cap, inverse, [den for _, den in items], flat)):
        if f:
            out.append(({monos[i]: {0: c} for i, c in total.items() if c}, den))
            continue
        acc: dict[Mono, dict[int, int]] = {}
        for (i, e), c in total.items():
            if c:
                acc.setdefault(monos[i], {})[e] = c
        out.append((acc, den))
    return out


def _exp_lockstep(op: LinearOp, us: list, cap: int, inverse: bool, dens: list, flat: list) -> list[tuple]:
    """exp(op), or exp(-op) with `inverse`, on each u of `us` over its den of
    `dens`, as the list of the (total, d) of values total / d, the zeros of
    cancellations kept: u and total map op's monomial ids to ints where
    `flat`, and (monomial id, hbar exponent) pairs to ints elsewhere.  op
    must be zero, which returns the inputs, or drop weight by at least 1.

    With D the LCM of op's coefficient denominators, the iterates
    u_0 = u and u_n = (D·op) u_{n-1} = D^n·op^n u have integer
    coefficients, and the sum up to the last nonzero iterate u_N is

        exp(±op) . u = sum_n (±1)^n op^n u / n!
                     = sum_n u_n · (±1)^n (N!/n!) · D^(N-n) / (N!·D^N),

    every weight (±1)^n N!/n! · D^(N-n) an integer: exp(-op) reads the
    same iterates, and so the same rows, as exp(op), with the weights of
    the odd n negated.  Each step is a sparse integer matrix-vector
    product read from the rows of the integer operator D·op (see
    `LinearOp`); a row is built the first time its monomial is reached
    and kept on the op, so later iterates and later calls on the same op
    only look it up.

    The elements step in lockstep.  Before each step the rows of every
    monomial that a live element reaches for the first time are built in
    one kernel call, and an element is finished at its own last iterate
    N, with its own weights and denominator den·N!·D^N: one denominator
    for the batch would lengthen every element's integers to those of the
    element with the most iterates.
    """
    if op.is_zero():
        return list(zip(us, dens))
    if op.min_weight_drop < 1:
        raise ValueError("exponential does not terminate on truncated space")
    rows = op.rows
    bound = cap // op.min_weight_drop + 1
    out: list = [None] * len(us)
    live = [(b, [u], _flat_step if f else _keyed_step) for b, (u, f) in enumerate(zip(us, flat))]
    while live:
        # most reached ids have rows already, so only the unbuilt ones are
        # collected and deduplicated
        unseen = [i for _, its, step in live if step is _flat_step for i in its[-1] if rows[i] is None]
        unseen += [i for _, its, step in live if step is _keyed_step for i, _ in its[-1] if rows[i] is None]
        if unseen:
            op.compile_rows(list(dict.fromkeys(unseen)))
        stepped = []
        for b, its, step in live:
            u = step(its[-1], rows)
            if not u:
                out[b] = _exp_sum(its, op.D, inverse, dens[b])  # and its iterates go
                continue
            its.append(u)
            if len(its) > bound + 1:
                raise InvariantViolation("nilpotence bound exceeded in exp_apply")
            stepped.append((b, its, step))
        live = stepped
    return out


def _exp_sum(iterates: list[dict], D: int, inverse: bool, den: int) -> tuple[dict, int]:
    """(total, den·N!·D^N) for the iterates u_0..u_N of `_exp_lockstep`,
    total the sum of their weighted terms."""
    N = len(iterates) - 1
    weights = exp_weights(N, D)
    if inverse:
        weights[1::2] = [-w for w in weights[1::2]]
    total: dict = {}
    for u, weight in zip(iterates, weights):
        for key, c in u.items():
            s = total.get(key)
            total[key] = c * weight if s is None else s + c * weight
    return total, den * math.factorial(N) * D**N


def _flat_step(u: dict, rows: list) -> dict:
    """One step on monomial ids: {id: int} times the rows, zeros dropped."""
    nxt: dict = {}
    for i, c1 in u.items():
        for j, _, c2 in rows[i]:
            s = nxt.get(j)
            nxt[j] = c1 * c2 if s is None else s + c1 * c2
    return {j: c for j, c in nxt.items() if c}


def _keyed_step(u: dict, rows: list) -> dict:
    """One step on (id, hbar exponent) pairs, the row's exponent added."""
    nxt: dict = {}
    for (i, e1), c1 in u.items():
        for j, e2, c2 in rows[i]:
            key = (j, e1 + e2)
            s = nxt.get(key)
            nxt[key] = c1 * c2 if s is None else s + c1 * c2
    return {key: c for key, c in nxt.items() if c}


# The substitution core merges a batch onto hbar bands: element b's
# exponent e goes to b·BAND + e, far wider than any exponent a
# weight-truncated value reaches.
BAND = 1 << 32


def _split_bands(acc: Mapping, n: int) -> list[dict]:
    """The n values {monomial: {hbar exponent: int}} merged on hbar bands in
    acc ({monomial: {b·BAND + e: int}}, |e| < BAND/2), the zeros dropped.
    A band outside 0..n-1 is an exponent that left its band."""
    parts: list[dict] = [{} for _ in range(n)]
    for mono, slot in acc.items():
        for E, c in slot.items():
            if c:
                b = (E + BAND // 2) // BAND
                if not 0 <= b < n:
                    raise InvariantViolation(f"hbar exponent {E} outside the bands of a batch of {n}")
                parts[b].setdefault(mono, {})[E - b * BAND] = c
    return parts


# ---------------------------------------------------------------------------
# The standard generator families
# ---------------------------------------------------------------------------


def _virasoro_items(m: int, W: int, c):
    """The terms of c·L_m, the Virasoro mode on the t-side, at weight cap W:

    L_m = (1/2) sum_{a+b=-m} a b t_a t_b + sum_k k t_k d/dt_{k+m}
        + (1/2) sum_{a+b=m} d^2/dt_a dt_b,
    all indices strictly positive, so only one of the quadratic sums
    appears for each sign of m.
    """
    for k in range(max(1, 1 - m), min(W, W - m) + 1):
        yield ("md", k, k + m, k * c)
    for a in range(1, abs(m) // 2 + 1):
        b = abs(m) - a
        if m > 0 and b <= W:
            yield ("dd", a, b, Fraction(1, 2 if a == b else 1) * c)
        elif m < 0 and a + b <= W:
            yield ("mm", a, b, Fraction(a * b, 2 if a == b else 1) * c)


def _current_term(k: int) -> tuple[str, int, int]:
    """The one term of the current mode J_k on the t-side, as (tag,
    variable, c): c·d/dt_k with c = 1 for k > 0, and c·t_{-k} with c = -k
    for k < 0."""
    if k == 0:
        raise ValueError("the zero current mode is identically zero; calling it is a bug")
    return ("d", k, 1) if k > 0 else ("m", -k, -k)


# The two sides, by the index sigma of the time T_sigma that carries the
# dilaton shift T_sigma - hbar^{-1}: T_1 on the triple-Hodge side
# ("standard"), T_0 on its Theta-version ("theta").  sigma also picks the
# translation vector of the symmetry-group route (v or v0) and the
# dilaton index s = 2 sigma + 1 of the base tau-function (KW or BGW).
DILATON_TIME = {"standard": 1, "theta": 0}


def dilaton_time(mode: str) -> int:
    """sigma of the side `mode` (`DILATON_TIME`)."""
    try:
        return DILATON_TIME[mode]
    except KeyError:
        raise ValueError(f"unknown mode {mode!r}") from None


def _w_items(k: int, W: int, sigma: int, c):
    """The terms of c·W_k, the quantized odd-power generator (k >= 1) on
    the T-side, at weight cap W:

    W_k = -sum_m Ttilde_m d/dT_{m+2k-1}
          + (1/2) sum_{m=0}^{2k-2} (-1)^m d^2/dT_m dT_{2k-m-2},
    with the dilaton shift Ttilde_m = T_m - hbar^{-1} delta_{m,sigma},
    sigma the dilaton time of the side (`dilaton_time`).
    """
    M = (W - 1) // 2  # largest T-variable index at this weight cap
    for m in range(0, M - 2 * k + 2):
        yield ("md", m, m + 2 * k - 1, -c)
    if sigma + 2 * k - 1 <= M:
        yield ("d", sigma + 2 * k - 1, HbarPoly.hbar(-1, c))
    for a in range(0, k):
        b = 2 * k - 2 - a
        if b <= M:  # and so a <= M, as a <= k - 1 <= b
            yield ("dd", a, b, Fraction((-1) ** a, 2 if a == b else 1) * c)


def translation_op(coeffs: Mapping[int, object], W: int, kind: str) -> LinearOp:
    """sum_k c_k d/d(var_k); coefficients may carry hbar powers."""
    return LinearOp.from_terms(kind, (("d", k, c) for k, c in coeffs.items() if var_weight(kind, k) <= W))


def linear_change_generator(a: Sequence[Fraction], W: int) -> LinearOp:
    """sum_k a_k sum_m m t_m d/dt_{m+k}: the first-order parts only."""
    items = []
    for k, ak in enumerate(a, start=1):
        if not ak:
            continue
        for m in range(1, W + 1 - k):
            items.append(("md", m, m + k, Fraction(m) * ak))
    return LinearOp.from_terms(T_SIDE, items)


def virasoro_sum_op(a: Sequence[Fraction], W: int) -> LinearOp:
    """sum_{k>=1} a_k L_k as one operator (the terms of different k differ)."""
    items = (item for k, ak in enumerate(a[:W], start=1) if ak for item in _virasoro_items(k, W, ak))
    return LinearOp.from_terms(T_SIDE, items)


def group_element(curve: CurveSeries, cap: int) -> LinearOp:
    """sum_k a_k L_k of the curve, at a weight cap of at least `cap`: kept
    on the curve, and rebuilt only for a larger cap.  Every reader of any
    smaller cap gets the same rows: a term past a polynomial's cap
    differentiates a variable the polynomial lacks, so it acts as zero."""
    built = curve._ops.get("group")
    if built is None or built[0] < cap:
        built = curve._ops["group"] = (cap, virasoro_sum_op(curve.witt(cap), cap))
    return built[1]


def linear_change(curve: CurveSeries, W: int) -> LinearOp:
    """v_0 = `linear_change_generator` of the curve's flow coefficients
    a_1..a_W at weight cap W, built once per W and kept on the curve, so
    its rows are built once for every check that reads it."""
    key = ("v0", W)
    if key not in curve._ops:
        curve._ops[key] = linear_change_generator(curve.witt(W), W)
    return curve._ops[key]


# ---------------------------------------------------------------------------
# Group elements: direct and factorized quantized action
# ---------------------------------------------------------------------------


def couplings_from_log_r(logR: ZSeries, W: int) -> dict[int, Fraction]:
    """c_k = [z^(2k-1)] log R for the generators that can act below weight W."""
    for e in range(0, logR.order + 1, 2):
        if logR.coeff_or_zero(e):
            raise ValueError("log R must be odd in z")
    out = {}
    k = 1
    while 4 * k - 2 <= W:
        if 2 * k - 1 <= logR.order:
            c = logR.coeff_or_zero(2 * k - 1)
            if c:
                out[k] = c
        k += 1
    return out


PolyMap = Callable[[TPoly], TPoly]
Core = Callable[[Sequence[tuple]], list]


def _map_on(kind: str, W: int, core: Core, out: str | None = None) -> PolyMap:
    """The map of an integer core on the polynomials its operators were
    built for: `kind`-side, weight cap W (a larger cap would silently miss
    terms), with `out`-side images (default `kind`).  The core, kept as
    `.core`, sends a batch, the list of (num, den) of values num / den,
    num mapping monomials to {hbar exponent: int}, to the list of the
    (num, den) of their images, in no lowest terms; a polynomial is a
    batch of one."""

    def apply(P: TPoly) -> TPoly:
        if P.kind != kind or P.max_weight != W:
            raise ValueError(
                f"map built for {kind}-side polynomials of weight cap {W}, "
                f"got {P.kind}-side at cap {P.max_weight}"
            )
        return TPoly._normal(out or kind, W, *core([(P.num, P.den)])[0])

    apply.core = core
    return apply


def _exp_core(op: LinearOp, W: int) -> Core:
    """exp(op) at weight cap W as a core (`_exp_batch`)."""
    return lambda items: _exp_batch(op, items, W)


def _substitute_core(images: Mapping[int, TPoly], kind: str, W: int) -> Core:
    """The substitution of `images` as a core: a batch merged on hbar bands
    (`BAND`) over the LCM of its denominators, so one call of
    `_substitute_numerators` builds one table of image powers and one
    product chain per distinct monomial, then split by band."""

    def core(items: Sequence[tuple]) -> list:
        L = math.lcm(*(den for _, den in items))
        merged: dict[Mono, dict] = {}
        for b, (num, den) in enumerate(items):
            off, f = b * BAND, L // den
            for mono, slot in num.items():
                into = merged.setdefault(mono, {})
                for e, c in slot.items():
                    into[off + e] = c * f
        acc, den = _substitute_numerators(merged, L, images, kind, W)
        return [(part, den) for part in _split_bands(acc, len(items))]

    return core


def _chain(*cores: Core) -> Core:
    """The cores in turn.  An intermediate feeds the next core alone, so
    each element is brought to lowest terms only once its denominator
    passes 512 bits, as a tau-function's does at the frontier; below that
    the gcd pass costs more than the smaller integers save."""

    def core(items: Sequence[tuple]) -> list:
        for i, step in enumerate(cores):
            if i:
                items = [_reduce(num, den) if den.bit_length() > 512 else (num, den) for num, den in items]
            items = step(items)
        return items

    return core


def givental_direct(couplings: Mapping[int, Fraction], W: int, mode: str = "standard") -> PolyMap:
    """The map P -> exp(sum_k c_k W_k) . P on T-side polynomials of weight
    cap W, with the generators of the side `mode`, evaluated termwise
    (finite by nilpotence).  The operator is built once, from the terms
    of the W_k (`_w_items`); the returned map applies it."""
    sigma = dilaton_time(mode)  # an unknown mode fails even where no W_k acts
    items = (
        item for k, c in sorted(couplings.items()) if c and 4 * k - 2 <= W for item in _w_items(k, W, sigma, c)
    )
    return _map_on(BIG_T_SIDE, W, _exp_core(LinearOp.from_terms(BIG_T_SIDE, items), W))


def transformed_variable_images(
    R: ZSeries, W: int, mode: str = "standard"
) -> dict[int, TPoly]:
    """Affine substitution images of the transformed T-variables.

    T_k maps to sum_m [z^(k-m)]R(-z) T_m plus, for k > sigma, the
    constant -hbar^{-1} [z^(k-sigma)]R(-z) produced by transporting the
    dilaton shift of T_sigma, the time of the side `mode`.
    """
    sigma = dilaton_time(mode)
    M = (W - 1) // 2
    if R.order < M:
        raise ValueError("insufficient order of R for this weight cap")
    rb = R.subs_neg().num  # over R.den
    images: dict[int, TPoly] = {}
    for k in range(M + 1):
        acc = {((m, 1),): {0: rb[k - m]} for m in range(k + 1)}
        if k > sigma:
            acc[()] = {-1: -rb[k - sigma]}
        images[k] = TPoly._normal(BIG_T_SIDE, W, acc, R.den)
    return images


def givental_kernel(curve: CurveSeries, W: int) -> LinearOp:
    """(1/2) sum V_ij d^2/dT_i dT_j on T-side polynomials of weight cap W,
    the exponent of the factorized form's quadratic factor; it reads the
    curve's V matrix (`CurveSeries.givental`), built from R alone (to
    order 2((W - 1)//2 + 1)), not the mode."""
    size = (W - 1) // 2 + 1
    V = curve.givental(size)
    items = []
    for i in range(size):
        for j in range(i, size):
            if 2 * i + 1 + 2 * j + 1 > W:
                continue
            c = V.v(i, j)
            if not c:
                continue
            items.append(("dd", i, j, c if i != j else c / 2))
    return LinearOp.from_terms(BIG_T_SIDE, items)


def givental_factorized(R: ZSeries, W: int, mode: str = "standard", *, kernel: LinearOp) -> PolyMap:
    """Factorized form of the quantized action, as a map on T-side
    polynomials of weight cap W.

    Applies exp((1/2) sum V_ij d^2/dT_i dT_j) to P in its own variables
    and then performs the affine substitution of the transformed
    variables (which carries the translation constants).  Must agree
    exactly with givental_direct; the pair of routes is the standing
    cross-check.  The exponent is `kernel`, the `givental_kernel` of R's
    curve, which both sides share; the images are built once; the returned map
    applies them.
    """
    images = transformed_variable_images(R, W, mode)
    return _map_on(BIG_T_SIDE, W, _chain(_exp_core(kernel, W), _substitute_core(images, BIG_T_SIDE, W)))


def givental_routes(curve: CurveSeries, W: int, mode: str = "standard") -> tuple[PolyMap, PolyMap]:
    """The direct and the factorized map of the quantized action at weight
    cap W, with the dilaton shift of the side `mode`, built once per
    (mode, W) from the curve's log R and R, which the factorized form
    reads to order 2((W - 1)//2 + 1), and kept on the curve.  The
    factorized maps of both sides at one W share one kernel
    (`givental_kernel`), kept on the curve too; the direct map never
    reads it."""
    key = ("givental", mode, W)
    if key not in curve._ops:
        kernel = curve._ops.get(("kernel", W))
        if kernel is None:
            kernel = curve._ops["kernel", W] = givental_kernel(curve, W)
        curve._ops[key] = (
            givental_direct(couplings_from_log_r(curve.logR, W), W, mode),
            givental_factorized(curve.R, W, mode, kernel=kernel),
        )
    return curve._ops[key]


# ---------------------------------------------------------------------------
# Changes of variables between the two sides
# ---------------------------------------------------------------------------


def odd_t_to_big_t(P: TPoly) -> TPoly:
    """Relabel odd t-variables into T-variables: t_{2m+1} = T_m / (2m+1)!!."""
    if P.kind != T_SIDE:
        raise ValueError("expected a t-side polynomial")
    return TPoly._normal(BIG_T_SIDE, P.max_weight, *_odd_t_to_big_t([(P.num, P.den)])[0])


def _odd_t_to_big_t(items: Sequence[tuple]) -> list:
    """The core of `odd_t_to_big_t`."""
    out = []
    for num, den in items:
        factors = {}
        for mono in num:
            if any(v % 2 == 0 for v, _ in mono):
                raise ValueError("polynomial involves even time variables")
            factors[mono] = math.prod(double_factorial(v) ** e for v, e in mono)
        L = math.lcm(*factors.values())
        big = {
            tuple((v // 2, e) for v, e in mono): {h: c * (L // factors[mono]) for h, c in slot.items()}
            for mono, slot in num.items()
        }
        out.append((big, den * L))
    return out


def tqp_forms(params, max_index: int, W: int) -> list[TPoly]:
    """The linear t-side forms substituted for the T-variables.

    T_0 = t_1 and T_k = (q L_0 + ((2q+p)/s) L_{-1} + (L_{-2} - t_1^2/2))
    applied to T_{k-1}.  The quadratic parts of L_{-2} and -t_1^2/2
    cancel exactly; the result must stay linear, and any residual
    nonlinearity aborts.  The operator is built once, from the terms of
    the three modes (`_virasoro_items`).
    """
    modes = ((0, params.q), (-1, (2 * params.q + params.p) / params.s), (-2, 1))
    items = [item for m, c in modes for item in _virasoro_items(m, W, c)]
    items.append(("mm", 1, 1, Fraction(-1, 2)))
    op = LinearOp.from_terms(T_SIDE, items)
    forms = [TPoly.variable(T_SIDE, 1, W)]
    for _ in range(max_index):
        nxt = op.apply(forms[-1])
        if not nxt.is_linear():
            raise InvariantViolation("change-of-variables recursion left the linear span")
        forms.append(nxt)
    return forms


def tqp_forms_symbolic(params, max_index: int, W: int) -> list[TPoly]:
    """Independent route to the same forms through the symbol calculus.

    Iterate D = -((1+sz)(1+qz/s)/z) d/dz on 1/z and read the Laurent
    monomial z^{-k} as k*t_k.
    """
    n1, n2 = params.n1, params.n2
    phi = {1: Fraction(1)}  # exponent j means z^{-j}; starts at 1/z
    forms = []
    for _ in range(max_index + 1):
        poly = TPoly.zero(T_SIDE, W)
        for j, c in sorted(phi.items()):
            if c and j <= W:
                poly = poly + TPoly.variable(T_SIDE, j, W, c * j)
        forms.append(poly)
        nxt: dict[int, Fraction] = {}
        for j, c in phi.items():
            # D(z^-j) = j z^(-j-2) + j n1 z^(-j-1) + j n2 z^-j
            for shift, factor in ((2, Fraction(1)), (1, n1), (0, n2)):
                if factor:
                    key = j + shift
                    nxt[key] = nxt.get(key, Fraction(0)) + c * j * factor
        phi = {j: c for j, c in nxt.items() if c}
    return forms


# ---------------------------------------------------------------------------
# Basis enumeration and operator-equality harness
# ---------------------------------------------------------------------------


def unit_monomials(kind: str, W: int, *, odd_only: bool = False) -> list[TPoly]:
    """The monomials of `weight_monomials`, in its order, each as the
    polynomial 1·m of weight cap W, built in normal form ({m: {0: 1}}
    over 1)."""
    return [TPoly._normal(kind, W, {m: {0: 1}}, 1) for m in weight_monomials(kind, W, odd_only=odd_only)]


class EqualityReport(Record):
    """Outcome of comparing two polynomial maps on a monomial basis."""

    __slots__ = _fields = ("label", "checked", "failures")

    def __init__(self, label: str, checked: int = 0, failures: list | None = None):
        self.label = label
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        """No discrepancy on a basis of at least one element: a comparison
        that compared nothing does not pass."""
        return self.checked >= 1 and not self.failures

    def to_json_obj(self) -> dict:
        return {
            "label": self.label,
            "checked": self.checked,
            "status": "pass" if self.passed else "fail",
            "failures": self.failures[:10],
        }


# Basis elements per call of a core in `operator_equality_check`.  A batch
# pays each core's per-call work once: its exponentials step in lockstep,
# with one kernel call per step for the rows they reach, and its
# substitutions share one table of powers.  A larger batch holds more
# iterates at once (BENCH_31.json has the scan).
BATCH = 128

# Basis positions per call of the exponential loop in
# `virasoro_conjugation_check`, for each mode.  That check's images of V
# reach weight 2W, so a batch of its iterates holds far more than one of
# the basis checks' at the same W: at 128 it held 65 MB at W = 12 in
# process, against 29 MB at 16 (README has the scan).
CONJUGATION_BATCH = 16


def operator_equality_check(lhs: Core, rhs: Core, basis: Iterable[TPoly], label: str = "") -> EqualityReport:
    """Apply both maps, as the integer cores of maps that keep the side and
    weight cap of their input, to every basis element, `BATCH` elements
    per call, and collect the discrepancies in basis order: the two
    images of each element are compared by `same_value`, and a polynomial
    is built only for a failing witness."""
    report = EqualityReport(label=label)
    basis = list(basis)
    for start in range(0, len(basis), BATCH):
        chunk = basis[start : start + BATCH]
        items = [(P.num, P.den) for P in chunk]
        for P, left, right in zip(chunk, lhs(items), rhs(items), strict=True):
            report.checked += 1
            if not same_value(*left, *right):
                witness = _difference(P.kind, P.max_weight, left, right)
                report.failures.append({"input": repr(P), "difference": repr(witness)})
    return report


def _difference(kind: str, W: int, left: tuple, right: tuple) -> TPoly:
    """left - right, two (num, den) values, as a `kind`-side polynomial of
    weight cap W: the witness of a failed comparison."""
    return TPoly._normal(kind, W, *left) - TPoly._normal(kind, W, *right)


# ---------------------------------------------------------------------------
# The three operator-level identities
# ---------------------------------------------------------------------------


def virasoro_factorization_check(curve: CurveSeries, W: int) -> EqualityReport:
    """exp(sum a_k L_k) versus (linear change) o exp((1/2) sum v_km d_k d_m).

    The quadratic kernel v_km is the Grunsky matrix of h; equality on
    the full weight-<=W basis verifies the factorization of the
    upper-triangular group element.
    """
    big = group_element(curve, W)
    v0 = linear_change(curve, W)
    size = max(W - 1, 1)
    G = curve.grunsky(size)
    # the entries v_km with k <= m and k + m <= W; `from_terms` drops zeros
    pairs = ((k, m) for k in range(1, size + 1) for m in range(k, W - k + 1))
    quad = LinearOp.from_terms(T_SIDE, (("dd", k, m, G.v(k, m) / (2 if k == m else 1)) for k, m in pairs))
    return operator_equality_check(
        _exp_core(big, W),
        _chain(_exp_core(quad, W), _exp_core(v0, W)),
        unit_monomials(T_SIDE, W),
        label=f"virasoro-factorization W={W}",
    )


def _current_transform_series(curve: CurveSeries, max_j: int, max_n: int) -> tuple[dict, dict]:
    """The series the conjugated current modes are read from.

    `flow[j] = h' (h/z)^(-j-1)` for 1 <= j <= max_j and
    `mult[n] = h' h^(n-1)` for 1 <= n <= max_n, read from h to order
    max_j + 1; each depends only on that prefix and its index, not on
    the mode or the weight cap.
    """
    h = curve.h.truncate(max_j + 1)
    hp = h.derivative()
    inv = h.shift(-1).recip()  # z/h
    term = hp * inv
    flow = {}
    for j in range(1, max_j + 1):
        term = flow[j] = term * inv
    mult = {}
    hpow = ZSeries.one(h.order)
    for n in range(1, max_n + 1):
        mult[n] = (hp * hpow).truncate(hp.order)
        hpow = (hpow * h).truncate(h.order)
    return flow, mult


def _current_transform_coeffs(k: int, W: int, flow: dict, mult: dict) -> LinearOp:
    """The mode sum equal to the conjugated current mode.

    Coefficients are read off h'(z) h(z)^(-j-1): the conjugated mode k
    expands as sum_j c_{jk} J_j with c_{jk} = [z^(-k-1)] h' h^(-j-1).
    `flow` and `mult` come from `_current_transform_series`.
    """
    items = []
    for j in range(max(k, 1), W + 1):
        if j - k <= flow[j].order:
            c = flow[j].coeff_or_zero(j - k)
            if c:
                items.append(("d", j, c))
    for n in range(1, -k + 1):
        c = mult[n].coeff_or_zero(-k - 1)
        if c:
            items.append(("m", n, c * n))
    return LinearOp.from_terms(T_SIDE, items)


def virasoro_conjugation_check(curve: CurveSeries, W: int, *, flip_sign: bool = False) -> EqualityReport:
    """Check V J_k V^{-1} = (h-transformed current modes) on a monomial
    basis, for every mode k != 0 in [-W, W].

    V = exp(sum a_k L_k).  flip_sign negates the flow coefficients, so
    V = exp(-sum a_k L_k); the identity must then fail at first order,
    pinning the sign convention operationally.

    Each (mode, monomial) comparison is independent, so the basis is
    split in two by position, the even ones checked here and the odd ones
    in one forked worker (`_split_in_two`); the failures are merged back
    in (mode, basis) order, so the report is the same either way.  The
    flip-sign control stays in process: it stops at its first witness.

    Both sides stay integers on V's monomial ids (V is hbar-free):
    V^{-1}m in lowest terms, J_k as a memo on ids (`_current_memo`), V
    through the lockstep loop (`_exp_lockstep`) on `CONJUGATION_BATCH`
    basis positions per call, and X_k m, one kernel call, compared on
    V's ids (`_same_on_ids`); only a failing witness is mapped back to
    monomials, as a polynomial.
    """
    modes = [k for k in range(-W, W + 1) if k]
    # A mode k < 0 lifts the weight cap to W - k, so the caps reach 2W.  On
    # a weight-<=cap space every generator with index <= cap still acts
    # (through its second-derivative part), so the flow coefficients must
    # extend to the lifted cap, not just to W.
    max_cap = 2 * W
    basis_monos = weight_monomials(T_SIDE, W)
    # One operator for every cap and for both V and V^{-1} (exp(-A) reads
    # A's rows).  The inverse only drops weight, so its action on a
    # weight-<=W monomial does not depend on the ambient cap.
    big = group_element(curve, max_cap)
    inv_images = [exp_apply(big, P, inverse=not flip_sign) for P in unit_monomials(T_SIDE, W)]
    inv_images = [({big.number(mono): slot[0] for mono, slot in P.num.items()}, P.den) for P in inv_images]
    flow, mult = _current_transform_series(curve, max_cap, W)

    def check(start: int, step: int, poll: Callable[[], object] = lambda: None) -> tuple[int, list]:
        """Compare at the basis positions start, start + step, ... for
        every mode, calling `poll` before each batch of them: (checked,
        failures), each failure tagged with its mode and basis positions."""
        checked, failures = 0, []
        positions = range(start, len(basis_monos), step)
        support = list(dict.fromkeys(i for b in positions for i in inv_images[b][0]))
        for a, k in enumerate(modes):
            cap = W + max(0, -k)
            jk = _current_memo(k, cap, big, support)
            # X_k raises weight by at most the lift, so the cap cuts no image
            rhs = _current_transform_coeffs(k, cap, flow, mult)
            for first in range(0, len(positions), CONJUGATION_BATCH):
                poll()
                batch = positions[first : first + CONJUGATION_BATCH]
                invs = [inv_images[b] for b in batch]
                images = [{hit[0]: c * hit[1] for i, c in inv.items() if (hit := jk.get(i))} for inv, _ in invs]
                lefts = _exp_lockstep(big, images, cap, flip_sign, [den for _, den in invs], [True] * len(batch))
                for b, (left, dl) in zip(batch, lefts):
                    mono = basis_monos[b]
                    right = _apply_plan(rhs, cap, ((mono, {0: 1}),))
                    checked += 1
                    if not _same_on_ids(left, dl, right, rhs.D, big.ids):
                        left = {big.monos[i]: {0: c} for i, c in left.items() if c}
                        witness = _difference(T_SIDE, cap, (left, dl), (right, rhs.D))
                        failures.append((a, b, {"mode": k, "input": mono_str(T_SIDE, mono), "difference": repr(witness)}))
                        if flip_sign:
                            return checked, failures  # one witness is enough for the negative control
        return checked, failures

    if flip_sign or len(basis_monos) < 2:
        checked, failures = check(0, 1)
    else:
        checked, failures = _split_in_two(check)
    return EqualityReport(
        label=f"current-conjugation W={W}", checked=checked, failures=[f for _, _, f in failures]
    )


def _current_memo(k: int, cap: int, op: LinearOp, ids: list) -> dict:
    """J_k at weight cap `cap`, one term c·d/dt_v or c·t_v with c an
    integer (`_current_term`), on the monomial ids `ids` of `op`,
    monomials J_k keeps within cap: memo[i] = (j, f) when J_k sends
    monomial i to the integer f times monomial j (numbered into `op`), no
    entry where it gives 0.  J_k is injective on monomials, so it acts on
    a combination term by term."""
    tag, v, c = _current_term(k)
    monos, number, memo = op.monos, op.number, {}
    if v > cap:
        return memo
    for i in ids:
        mono = monos[i]
        if tag == "m":
            memo[i] = (number(_mono_times(mono, v)), c)
        else:
            for n, (var, e) in enumerate(mono):
                if var == v:
                    memo[i] = (number(mono_lower(mono, n)), c * e)
    return memo


def _same_on_ids(left: dict, dl: int, right: dict, dr: int, ids: dict) -> bool:
    """`same_value` for left on the monomial ids `ids` of an op ({id: int}) and
    right on monomials, zeros allowed: a nonzero right term off hbar^0 or
    on a monomial without an id fails, and once every nonzero right term
    matches, left may have no other nonzero term."""
    matched = 0
    for mono, slot in right.items():
        for e, c in slot.items():
            if c:
                i = ids.get(mono) if e == 0 else None
                if i is None or c * dl != left.get(i, 0) * dr:
                    return False
                matched += 1
    return matched == sum(1 for c in left.values() if c)


def _split_in_two(check: Callable[..., tuple[int, list]]) -> tuple[int, list]:
    """check(0, 2) and check(1, 2) merged: (checked, failures) with the
    failures sorted by their leading tags, as check(0, 1) gives them.

    The odd half runs in one forked worker, which inherits everything the
    caller built and sends its result back over a pipe with `marshal`,
    when the process can fork, its affinity mask holds at least two CPUs
    and it runs one thread (forking a threaded process can deadlock).
    Otherwise, or when the pipe or the fork fails, check(0, 1) runs here.
    The worker leaves through `os._exit` alone: it never returns into its
    caller's stack and never flushes buffers it inherited, and it leaves
    at the first poll (check's third argument) that finds its parent pid
    no longer the caller's, so a killed caller leaves no orphan.  A worker that
    fails, dies or sends nothing has its half recomputed here, so an
    exception it met is raised here as the in-process check raises it.
    The worker is reaped before this returns or raises, and killed first
    if the caller's half raised.
    """
    threading = sys.modules.get("threading")
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    if not hasattr(os, "fork") or cpus < 2 or (threading is not None and threading.active_count() != 1):
        return check(0, 1)
    try:
        r, w = os.pipe()
    except OSError:
        return check(0, 1)
    caller = os.getpid()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return check(0, 1)
    if pid == 0:
        code = 1
        try:
            os.close(r)
            poll = lambda: os.getppid() == caller or os._exit(1)
            data = memoryview(marshal.dumps(check(1, 2, poll)))
            while data:
                data = data[os.write(w, data) :]
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    try:
        checked, failures = check(0, 2)
        data = b"".join(iter(lambda: os.read(r, 1 << 16), b""))
    except BaseException:
        import signal  # only this path sends a signal

        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(r)
        status = os.waitpid(pid, 0)[1]
    odd = None
    if os.waitstatus_to_exitcode(status) == 0:
        try:
            odd = marshal.loads(data)
        except (EOFError, ValueError, TypeError):
            pass
    if odd is None:
        odd = check(1, 2)
    return checked + odd[0], sorted(failures + odd[1], key=lambda f: f[:2])


# ---------------------------------------------------------------------------
# The full operator identity between the two group actions
# ---------------------------------------------------------------------------


def tqp_substitute(forms: Sequence[TPoly]) -> PolyMap:
    """The map pushing a T-side polynomial through `forms`, the t-side
    forms of T_0..T_M that `tqp_forms` gives at weight cap W with
    M = (W - 1) // 2; the map acts on polynomials of cap W, and one
    without variables becomes its constant term."""
    W = forms[0].max_weight
    return _map_on(BIG_T_SIDE, W, _substitute_core(dict(enumerate(forms)), T_SIDE, W), T_SIDE)


def rl_transform_quantized(curve: CurveSeries, forms: Sequence[TPoly]) -> PolyMap:
    """Quantized route, as a map on odd-time polynomials of the weight cap
    W of `forms` (as in `tqp_substitute`): the input read in
    T-variables, acted on by the factorized group element, then pushed
    through the t-side change of variables.  The factorized map is the
    curve's (`givental_routes`)."""
    W = forms[0].max_weight
    act = givental_routes(curve, W)[1].core
    return _map_on(T_SIDE, W, _chain(_odd_t_to_big_t, act, tqp_substitute(forms).core))


def rl_transform_virasoro(curve: CurveSeries, W: int, mode: str = "standard") -> PolyMap:
    """Symmetry-group route, as a map on t-side polynomials of weight cap
    W: exp(sum a_k L_k), then the hbar^{-1}-weighted translation in the
    t-variables, by the dilaton-shifted vector v where sigma = 1 and by
    the order-zero vector v0 where sigma = 0, sigma of the side `mode`.
    The group element is the curve's (`group_element`); the map is built
    once per (mode, W) and kept on the curve, with its translation."""
    sigma = dilaton_time(mode)
    key = ("virasoro", mode, W)
    if key not in curve._ops:
        vector = curve.shifts().v if sigma else curve.shifts().v0
        trans = translation_op({k: HbarPoly.hbar(-1, c) for k, c in vector.items()}, W, T_SIDE)
        curve._ops[key] = _map_on(T_SIDE, W, _chain(_exp_core(group_element(curve, W), W), _exp_core(trans, W)))
    return curve._ops[key]


def rl_identity_check(
    curve: CurveSeries, forms: Sequence[TPoly], extra: Iterable[TPoly] = ()
) -> EqualityReport:
    """Equality of the two transforms on every odd-time monomial of
    weight <= W, the weight cap of `forms` (as in `tqp_substitute`),
    plus optional extra inputs such as a truncated tau-function."""
    W = forms[0].max_weight
    basis = unit_monomials(T_SIDE, W, odd_only=True)
    basis.extend(extra)
    return operator_equality_check(
        rl_transform_quantized(curve, forms).core,
        rl_transform_virasoro(curve, W).core,
        basis,
        label=f"group-identification W={W}",
    )
