"""weyl: Weyl-group sums on root systems held for the whole run.

One pass holds:

* ``whittaker_padic`` at 4 seeded generic (p, lambda, dominant a) on each
  of A1, A2, A3, B2, C3, G2, B3;
* ``leading_asymptotics`` at 4 seeded generic points on each of A2, B2,
  G2, A3;
* ``constant_term`` at one seeded rational lambda on each of A3, B3, A4,
  D4, B4;
* ``enumerate_weyl`` on B4, D4 and F4, each on a root system built inside
  the operation;
* the three Casselman-Shalika near-wall points of the named failure set.

Generic lambda keeps every positive coroot pairing at least ``MARGIN``
away from the walls 2 pi i Z / log p of the p-adic sum, and its imaginary
part at least ``MARGIN`` away from the real Gamma_R poles of the
asymptotic model.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as Q

from . import Op, digits, rng_for
from oracles import lie

IN_PROCESS = True
PADIC_TYPES = ["A1", "A2", "A3", "B2", "C3", "G2", "B3"]
ASYM_TYPES = ["A2", "B2", "G2", "A3"]
CT_TYPES = ["A3", "B3", "A4", "D4", "B4"]
ENUM_TYPES = ["B4", "D4", "F4"]
PER_TYPE = 4
PRIMES = (2, 3, 5, 7, 11, 13)
MARGIN = 0.1
# Casselman-Shalika near-wall points (A2, p = 5, a = from_coweights((2, 3))):
# the first two return values outside their claimed abs_err, the third raises
# SingularParameter, though W(a) is a polynomial in the Satake parameter.
WALL_EPS = (1e-6, 1e-8, 1e-11)


def setup(E, seed):
    held = {t: E.build_root_system(t) for t in sorted(set(PADIC_TYPES + ASYM_TYPES + CT_TYPES))}
    coroots = {t: [tuple(int(c) for c in cor) for cor in lie.positive_coroots(t)] for t in held}
    return {"held": held, "coroots": coroots, "seed": seed}


def _pairings(state, t, lam):
    return [sum(c * x for c, x in zip(cor, lam)) for cor in state["coroots"][t]]


def _padic_point(state, rng, t):
    n = int(t[1:])
    while True:
        p = rng.choice(PRIMES)
        lam = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0)) for _ in range(n))
        period = 2 * math.pi / math.log(p)
        if all(
            abs(z - 1j * period * round(z.imag / period)) >= MARGIN for z in _pairings(state, t, lam)
        ):
            return p, lam, tuple(rng.randint(0, 3) for _ in range(n))


def _asym_point(state, rng, t):
    n = int(t[1:])
    while True:
        lam = tuple(complex(rng.uniform(-0.5, 0.5), rng.uniform(-2.0, 2.0)) for _ in range(n))
        if all(abs(z.imag) >= MARGIN for z in _pairings(state, t, lam)):
            return lam, tuple(rng.randint(0, 2) for _ in range(n)), rng.uniform(0.5, 2.0)


def make_pass(state, seed, k):
    rng = rng_for(seed, k, "weyl")
    ops = []
    for t in PADIC_TYPES:
        ops += [Op("whittaker_padic", (t,) + _padic_point(state, rng, t)) for _ in range(PER_TYPE)]
    for t in ASYM_TYPES:
        ops += [Op("leading_asymptotics", (t,) + _asym_point(state, rng, t)) for _ in range(PER_TYPE)]
    for t in CT_TYPES:
        lam = tuple(Q(rng.randint(1, 20), rng.randint(1, 6)) for _ in range(int(t[1:])))
        ops.append(Op("constant_term", (t, lam)))
    ops += [Op("enumerate_weyl", (t,)) for t in ENUM_TYPES]
    ops += [Op("whittaker_padic", ("A2", 5, (eps, 0.3 + 0.7j), (2, 3)), named=True) for eps in WALL_EPS]
    return ops


def warmup(state, seed):
    rng = rng_for(seed, -1, "weyl-warmup")
    return [
        Op("whittaker_padic", ("A2",) + _padic_point(state, rng, "A2")),
        Op("leading_asymptotics", ("B2",) + _asym_point(state, rng, "B2")),
        Op("constant_term", ("A3", (Q(1), Q(2), Q(3)))),
        Op("enumerate_weyl", ("A2",)),
    ]


def run(E, state, op):
    kind, args = op.kind, op.args
    if kind == "whittaker_padic":
        t, p, lam, k = args
        rs = state["held"][t]
        return E.whittaker_padic(p, lam, E.TorusPoint.from_coweights(rs, k), rs).value
    if kind == "leading_asymptotics":
        t, lam, H, tt = args
        return E.leading_asymptotics(lam, state["held"][t], H, tt)
    if kind == "constant_term":
        t, lam = args
        return E.constant_term(state["held"][t], tuple(E.LinearForm(x) for x in lam))
    rs = E.build_root_system(args[0])
    return E.enumerate_weyl(rs)


def digest(state, op, out):
    """Exact outputs are checked at once, so no pass keeps them; numeric ones keep
    (value, claimed abs_err) for the 40-digit oracles."""
    if op.kind == "constant_term":
        return _check_structure(op, [
            (
                term.weyl.word,
                [(f.kind, f.argument.constant, bool(f.argument.terms), f.exponent)
                 for f in term.coefficient.factors],
                tuple(e.constant for e in term.exponent),
            )
            for term in out.terms
        ])
    if op.kind == "enumerate_weyl":
        return _check_structure(
            op, [(w.word, w.sign, tuple(sum(row) for row in w.weight_matrix)) for w in out]
        )
    return complex(out.value), float(out.abs_err)


def _weyl_apply(C, word, lam):
    """The engine's word (i, j) acts as s_i(s_j(v)); letters are 1-based."""
    return lie.apply_word(C, [i - 1 for i in reversed(word)], lam)


def _root_image(C, word, root):
    for i in reversed(word):
        k = sum(root[m] * C[m][i - 1] for m in range(len(root)))
        root = tuple(root[m] - (k if m == i - 1 else 0) for m in range(len(root)))
    return root


def _check_numeric(out, ref, scale):
    got, claimed = out
    err = abs(got - ref)
    if err > claimed:
        return False, None, f"error {err:.3g} exceeds claimed abs_err {claimed:.3g}"
    return True, digits(err, scale), ""


def _check_lengths(t, words):
    problems = []
    if len(words) != lie.weyl_order(t):
        problems.append(f"{len(words)} elements, |W| = {lie.weyl_order(t)}")
    if Counter(len(w) for w in words) != Counter(dict(enumerate(lie.poincare(t)))):
        problems.append("length distribution differs from the Poincare polynomial")
    return problems


def check(state, op, out):
    from oracles import mp

    kind, args = op.kind, op.args
    if kind == "whittaker_padic":
        t, p, lam, k = args
        ref, scale = mp.padic_weyl_sum(p, lam, k, t) if not op.named else (None, None)
        if t[0] == "A":
            ref = mp.padic_schur(p, lam, k)
            scale = scale if scale is not None else abs(ref)
        return _check_numeric(out, ref, scale)
    if kind == "leading_asymptotics":
        t, lam, H, tt = args
        ref, scale = mp.leading_asymptotics(lam, H, tt, t)
        return _check_numeric(out, ref, scale)
    return out  # the verdict taken by digest


def _check_structure(op, out):
    """constant_term and enumerate_weyl against the harness's own Weyl group."""
    kind, args = op.kind, op.args
    t = args[0]
    C = lie.cartan(t)
    problems = _check_lengths(t, [row[0] for row in out])
    if kind == "constant_term":
        lam = args[1]
        roots = lie.positive_roots(t)
        coroots = lie.positive_coroots(t)
        exps = set()
        for word, facs, expo in out:
            inv = [cor for r, cor in zip(roots, coroots) if any(x < 0 for x in _root_image(C, word, r))]
            want = Counter(sum(c * x for c, x in zip(cor, lam)) for cor in inv)
            got = Counter()
            for fkind, arg, symbolic, e in facs:
                if fkind != "c" or symbolic or e.denominator != 1:
                    problems.append(f"unexpected factor {fkind} {arg} ^{e}")
                got[arg] += int(e)
            if got != want or len(word) != len(inv):
                problems.append(f"term {word}: c-factors {dict(got)} != {dict(want)}")
            if expo != _weyl_apply(C, word, lam):
                problems.append(f"term {word}: exponent {expo} is not w(lambda)")
            exps.add(expo)
        if len(exps) != len(out):
            problems.append("exponents w(lambda) repeat for a regular lambda")
    else:
        rho = tuple(Q(1) for _ in C)
        images = set()
        for word, sign, wrho in out:
            if sign != (-1) ** len(word) or wrho != _weyl_apply(C, word, rho):
                problems.append(f"element {word}: sign or action wrong")
                break
            images.add(wrho)
        if len(images) != len(out):
            problems.append("two elements act alike on rho")
    return not problems, None, "; ".join(problems[:3])


def run_checks(E, state):
    """W-invariance in lambda and W(1) = 1 of whittaker_padic, on every p-adic type."""
    rng = rng_for(state["seed"], -1, "weyl-invariance")
    problems = []
    for t in PADIC_TYPES:
        rs = state["held"][t]
        C = lie.cartan(t)
        p, lam, k = _padic_point(state, rng, t)
        a = E.TorusPoint.from_coweights(rs, k)
        base = E.whittaker_padic(p, lam, a, rs).value
        for word in lie.weyl_words(t)[1:4]:
            wl = lie.apply_word(C, word, lam)
            other = E.whittaker_padic(p, wl, a, rs).value
            if abs(other.value - base.value) > other.abs_err + base.abs_err:
                problems.append(f"{t}: W(a) changes under w={word} acting on lambda")
        one = E.whittaker_padic(p, lam, E.TorusPoint.from_coweights(rs, [0] * len(k)), rs).value
        if abs(one.value - 1) > one.abs_err:
            problems.append(f"{t}: W(1) = {one.value}, not 1")
    return problems
