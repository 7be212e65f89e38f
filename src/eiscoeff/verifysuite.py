"""The catalogue of worked examples, run by ``eiscoeff verify`` and by pytest.

Each suite is one ordered table of named cases; a case is a name and a
zero-argument check returning a bool, so nothing is computed until a check
runs.  ``tests/test_verifysuite.py`` parametrizes over the same tables, so
every example is written once, here.

The "paper" suite re-derives the worked examples (pairing vectors,
first-coefficient tables for SL(3)/SL(4) and the exceptional parabolics,
Whittaker identities, completed-zeta facts); the "properties" suite runs
the structural invariants on a small sample.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction as Q
from typing import Callable

from .errors import CapExceeded
from .glcoords import (
    GLParameters,
    GLPartition,
    alpha_from_s,
    eisenstein_parameters,
    power_function_exponents,
    rho_P,
    z_symbols,
)
from .hecke import borel_eigenvalue, parabolic_eigenvalue
from .parabolic import ParabolicData, build_parabolic, unipotent_grading, wl_orbits
from .roots import RootSystem, build_root_system, enumerate_weyl, weyl_denominator_check
from .specfun import bessel_k, c_factor, gamma_r, zeta_star
from .symalg import Factor, FormulaExpression, LinearForm, Symbol, canonicalize, render
from .template import (
    SatakeAssignment,
    borel_alpha_arguments,
    classical_substitution,
    constant_term,
    first_coefficient,
    minimal_hecke_ratio_check,
    standard_assignment,
    to_alpha_coordinates,
    to_classical,
)
from .whittaker import TorusPoint, jacquet_sl2_closed_form, jacquet_sl2_quadrature, whittaker_padic, whittaker_sl2_arch

Check = tuple[str, bool]
Case = tuple[str, Callable[[], bool]]


# ---------------------------------------------------------------------------
# Builders, shared with the tests
# ---------------------------------------------------------------------------


def _lf(const=0, **coeffs) -> LinearForm:
    """Linear form in the engine's symbol families: s/z are s-variables, v
    classical, t spectral and imaginary; ``_p`` in a name stands for a prime."""
    terms = {}
    for name, c in coeffs.items():
        name = name.replace("_p", "'")
        imag = name.startswith("t")
        kind = "s_variable" if name[0] in "sz" else ("classical_v" if name[0] == "v" else "spectral")
        terms[Symbol(name, kind=kind, imaginary=imag)] = c
    return LinearForm.build(const, terms)


def _inv_zeta(arg):
    return Factor("zeta_star", arg, exponent=Q(-1))


def _inv_L(arg, rep):
    return Factor("L_star", arg, rep=rep, exponent=Q(-1))


def _formula(*factors, scalar="exact"):
    return canonicalize(FormulaExpression(tuple(factors), scalar))


@functools.cache
def _root_system(type_name: str) -> RootSystem:
    return build_root_system(type_name)


@functools.cache
def _parabolic(type_name: str, levi: frozenset[int]) -> ParabolicData:
    return build_parabolic(_root_system(type_name), levi)


def _assignment(type_name: str, levi) -> SatakeAssignment:
    """Standard assignment; root systems and parabolics are built once per process."""
    return standard_assignment(_parabolic(type_name, frozenset(levi)))


def _pairings(assign: SatakeAssignment) -> dict[tuple[int, ...], LinearForm]:
    return {rt.coords: assign.mu_pairing(rt) for rt in assign.parabolic.delta_U}


def _grouped_expands_to_flat(assign: SatakeAssignment) -> bool:
    """The flat factors are the W_L-orbits of the grouped ones, root by root."""
    flat = first_coefficient(assign, mode="flat")
    expanded = [
        assign.mu_pairing(rt) + 1 for orbit in wl_orbits(assign.parabolic).orbits for rt in orbit.roots
    ]
    return sorted((f.argument for f in flat.factors), key=lambda a: a.sort_key()) == sorted(
        expanded, key=lambda a: a.sort_key()
    )


def _weyl_denominator_holds(type_name: str, eps: Q) -> bool:
    lhs, rhs = weyl_denominator_check(_root_system(type_name), eps)
    return abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


# ---------------------------------------------------------------------------
# Data rows
# ---------------------------------------------------------------------------


def _partition(p: ParabolicData) -> GLPartition:
    cuts = (0, *p.sigma_L_complement, p.rs.rank + 1)
    return GLPartition(tuple(b - a for a, b in zip(cuts, cuts[1:])))


def _coefficient(type_name, levi, mode, normalization, chart) -> FormulaExpression:
    """First coefficient in the root, alpha (type A Borel) or classical (type A) chart."""
    assign = _assignment(type_name, levi)
    f = first_coefficient(assign, mode=mode, normalization=normalization)
    if chart == "alpha":
        return to_alpha_coordinates(f, assign.parabolic.rs.rank + 1)
    if chart == "classical":
        return to_classical(f, assign, _partition(assign.parabolic))
    return f


def _formulas(*rows) -> Callable[[], bool]:
    """Rows (type, Levi, mode, normalization, chart, expected factors[, text]).

    The check holds when each row's first coefficient is the product of its
    expected factors (built when the check runs) and, where given, renders
    as the text.  The scalar is exact only for the hecke normalization
    outside the classical chart.
    """

    def check():
        for type_name, levi, mode, normalization, chart, expected, *text in rows:
            f = _coefficient(type_name, levi, mode, normalization, chart)
            exact = normalization == "hecke" and chart != "classical"
            if f != _formula(*expected(), scalar="exact" if exact else "up_to_nonzero_constant"):
                return False
            if text and render(f, "text") != text[0]:
                return False
        return True

    return check


def _pairings_are(type_name, levi, expected) -> Callable[[], bool]:
    """Row (type, Levi) -> expected {root coordinates: <mu, alpha^vee>} over Delta_U."""
    return lambda: _pairings(_assignment(type_name, levi)) == expected()


# ---------------------------------------------------------------------------
# The paper suite
# ---------------------------------------------------------------------------

_E7 = frozenset(range(1, 8))
_D7 = frozenset(range(2, 9))
_CANCELLATION_CONFIGS = (
    ("A2", ()), ("A2", {1}), ("A2", {2}), ("A3", {1}), ("A3", {1, 3}),
    ("A3", {1, 2}), ("A4", {1, 2, 4}), ("A4", {2, 3}), ("D4", {1, 3, 4}), ("D4", {2}),
)


def _e8_enumeration_refused() -> bool:
    try:
        enumerate_weyl(_root_system("E8"), cap=10**6)
    except CapExceeded as exc:
        return exc.order == 696729600
    return False


def _norm(rep: str) -> Factor:
    return Factor("norm_symbol", LinearForm(Q(1)), rep=rep, exponent=Q(-1, 2))


# SL(4) Hecke eigenvalue shapes: numeric spot checks at m = p
_P = 7
_T = 0.37 + 0.81j
_Z1, _Z2 = 0.21 + 0.4j, -0.05 + 0.13j


def _lam_phi(c):
    return 1.0 if c == 1 else (2.0 * math.cos(1.1) if c == _P else 0.0)


def _hecke_211() -> bool:
    got = parabolic_eigenvalue(
        GLPartition((2, 1, 1)), (_Z1, _Z2, -2 * _Z1 - _Z2), _P, (_lam_phi, lambda c: 1.0, lambda c: 1.0)
    )
    expect = _lam_phi(_P) * _P**_Z1 + _P**_Z2 + _P ** (-2 * _Z1 - _Z2)
    return abs(got - expect) < 1e-10 * abs(expect)


def _hecke_22() -> bool:
    got = parabolic_eigenvalue(GLPartition((2, 2)), (_Z1, -_Z1), _P, (_lam_phi, _lam_phi))
    expect = _lam_phi(_P) * (_P**_Z1 + _P**-_Z1)
    return abs(got - expect) < 1e-10 * abs(expect)


def _hecke_borel() -> bool:
    alpha = (_T, -0.5 * _T, 0.25 * _T, _T * (-0.75))
    return abs(borel_eigenvalue(4, alpha, _P) - sum(_P**a for a in alpha)) < 1e-10


def _hecke_multiplicative() -> bool:
    alpha = (_T, -_T / 3, -2 * _T / 3)
    lam = lambda m: borel_eigenvalue(3, alpha, m)
    return abs(lam(6) - lam(2) * lam(3)) < 1e-10


# GL coordinate layer


def _sl3_langlands() -> bool:
    v1, v2 = _lf(0, v1=1), _lf(0, v2=1)
    params = alpha_from_s(3, (v1 + Q(1, 3), v2 + Q(1, 3)))
    return params.alpha == (2 * v1 + v2, -1 * v1 + v2, -1 * v1 - 2 * v2)


def _sl4_langlands() -> bool:
    v1, v2, v3 = _lf(0, v1=1), _lf(0, v2=1), _lf(0, v3=1)
    params = alpha_from_s(4, (v1 + Q(1, 4), v2 + Q(1, 4), v3 + Q(1, 4)))
    return params.alpha == (
        3 * v1 + 2 * v2 + v3,
        -1 * v1 + 2 * v2 + v3,
        -1 * v1 - 2 * v2 + v3,
        -1 * v1 - 2 * v2 - 3 * v3,
    )


def _eisenstein_alpha(parts, blocks) -> tuple[LinearForm, ...]:
    part = GLPartition(parts)
    s_gl = tuple(zi + ri for zi, ri in zip(z_symbols(part), rho_P(part)))
    return eisenstein_parameters(part, s_gl, blocks).alpha


def _eisenstein_21() -> bool:
    z1, v = _lf(0, z1=1), _lf(0, v=1)
    expect = (z1 + v, z1 - v, -2 * z1)
    _, classical = classical_substitution(_assignment("A2", {1}), GLPartition((2, 1)))
    return _eisenstein_alpha((2, 1), (GLParameters(2, (v, -1 * v)), None)) == expect and classical.alpha == expect


def _eisenstein_22() -> bool:
    z1, v, vp = _lf(0, z1=1), _lf(0, v=1), _lf(0, v_p=1)
    blocks = (GLParameters(2, (v, -1 * v)), GLParameters(2, (vp, -1 * vp)))
    return _eisenstein_alpha((2, 2), blocks) == (z1 + v, z1 - v, -1 * z1 + vp, -1 * z1 - vp)


def _gl3_power_exponents() -> bool:
    a1, a2 = _lf(0, a1=1), _lf(0, a2=1)
    exps = power_function_exponents(3, GLParameters(3, (a1, a2, -1 * a1 - a2)))
    return exps == (a1 + a2 + 1, a1 + 1)


def _constant_term_a1() -> bool:
    nu = LinearForm.build(0, {Symbol("nu"): 2})  # lambda = nu * alpha
    ct = constant_term(_root_system("A1"), (nu,))
    by_len = {t.weyl.length: t for t in ct.terms}
    c = by_len[1].coefficient.factors
    return (
        len(ct.terms) == 2
        and by_len[0].coefficient.factors == ()
        and [(f.kind, f.argument) for f in c] == [("c", nu)]
        and by_len[1].exponent == (-1 * nu,)
    )


def _constant_term_a2() -> bool:
    n1, n2 = Symbol("nu1"), Symbol("nu2")
    # lambda = nu1 alpha_1 + nu2 alpha_2 in weight coordinates
    lam = (LinearForm.build(0, {n1: 2, n2: -1}), LinearForm.build(0, {n2: 2, n1: -1}))
    ct = constant_term(_root_system("A2"), lam)
    wlong = [t for t in ct.terms if t.weyl.length == 3]
    return (
        len(ct.terms) == 6
        and len(wlong) == 1
        and len(wlong[0].coefficient.factors) == 3
        and {f.argument for f in wlong[0].coefficient.factors}
        == {*lam, LinearForm.build(0, {n1: 1, n2: 1})}
    )


# Whittaker identities
_LAM_A2 = (0.11 + 0.83j, -0.07 + 1.21j)


def _w_padic(p, lam, type_name, coweights) -> complex:
    rs = _root_system(type_name)
    return whittaker_padic(p, lam, TorusPoint.from_coweights(rs, coweights), rs).value.value


def _w_padic_weyl_invariant() -> bool:
    base = _w_padic(5, _LAM_A2, "A2", [1, 2])
    return all(
        abs(_w_padic(5, w.apply_weight_numeric(_LAM_A2), "A2", [1, 2]) - base) < 1e-10 * max(1.0, abs(base))
        for w in enumerate_weyl(_root_system("A2"), 100)
    )


def _gl2_geometric_sum() -> bool:
    nu = 0.23 + 0.071j
    for k in range(11):
        oracle = 5 ** (-k / 2) * sum(5 ** (nu * (k - 2 * j)) for j in range(k + 1))
        if not abs(_w_padic(5, (2 * nu,), "A1", [k]) - oracle) < 1e-10 * abs(oracle):
            return False
    return True


def _arch_nu_symmetric() -> bool:
    arch = whittaker_sl2_arch(0.4 + 0.1j, 1.3).value.value
    return abs(arch - whittaker_sl2_arch(-0.4 - 0.1j, 1.3).value.value) < 1e-11 * abs(arch)


PAPER_CASES: tuple[Case, ...] = (
    # root combinatorics of the running examples
    ("A2 positive roots {a1, a2, a1+a2}",
     lambda: {r.coords for r in _root_system("A2").positive_roots} == {(1, 0), (0, 1), (1, 1)}),
    ("E8 has 120 positive roots", lambda: len(_root_system("E8").positive_roots) == 120),
    ("E8 Weyl enumeration refused at cap 1e6", _e8_enumeration_refused),
    # pairing vectors
    ("Borel SL(3) pairings (s1, s2, s1+s2)", _pairings_are(
        "A2", (), lambda: {(1, 0): _lf(0, s1=1), (0, 1): _lf(0, s2=1), (1, 1): _lf(0, s1=1, s2=1)})),
    ("(2,1) pairings (s-it, s+it)", _pairings_are(
        "A2", {1}, lambda: {(0, 1): _lf(0, s=1, t=-1), (1, 1): _lf(0, s=1, t=1)})),
    ("(2,2) pairings s±it'±it''", _pairings_are("A3", {1, 3}, lambda: {
        (0, 1, 0): _lf(0, s=1, t_p=-1, t_p_p=-1),
        (1, 1, 0): _lf(0, s=1, t_p=1, t_p_p=-1),
        (0, 1, 1): _lf(0, s=1, t_p=-1, t_p_p=1),
        (1, 1, 1): _lf(0, s=1, t_p=1, t_p_p=1),
    })),
    ("(2,1,1) pairings", _pairings_are("A3", {1}, lambda: {
        (0, 1, 0): _lf(0, s2=1, t=-1),
        (1, 1, 0): _lf(0, s2=1, t=1),
        (0, 0, 1): _lf(0, s3=1),
        (0, 1, 1): _lf(0, s2=1, s3=1, t=-1),
        (1, 1, 1): _lf(0, s2=1, s3=1, t=1),
    })),
    ("(3,1) pairings with t2 = -t1-t3 applied", _pairings_are("A3", {1, 2}, lambda: {
        (0, 0, 1): _lf(0, s=1, t3=1),
        (0, 1, 1): _lf(0, s=1, t1=-1, t3=-1),  # printed s+it2 via t2 = -t1-t3
        (1, 1, 1): _lf(0, s=1, t1=1),
    })),
    # first-coefficient formulas
    ("SL(3) Borel first coefficient (three zeta* factors)", _formulas(
        ("A2", (), "flat", "hecke", "alpha", lambda: map(_inv_zeta, borel_alpha_arguments(3))))),
    ("SL(3) Borel latex rendering",
     lambda: render(_coefficient("A2", (), "flat", "hecke", "alpha"), "latex")
     == r"\left(\zeta^*(1+\alpha_1-\alpha_2)\zeta^*(1+\alpha_2-\alpha_3)"
     r"\zeta^*(1+\alpha_1-\alpha_3)\right)^{-1}"),
    ("SL(3) maximal parabolic grouped L*(s+1, pi)", _formulas(
        ("A2", {1}, "grouped", "hecke", "root", lambda: [_inv_L(_lf(1, s=1), "π")], "L*(s+1,π)^-1"),
        ("A2", {1}, "flat", "hecke", "root",
         lambda: [_inv_zeta(_lf(1, s=1, t=-1)), _inv_zeta(_lf(1, s=1, t=1))]),
    )),
    ("SL(3) (2,1) classical grouped L*(1+3z1, phi)", _formulas(
        ("A2", {1}, "grouped", "hecke", "classical", lambda: [_inv_L(_lf(1, z1=3), "φ")]))),
    ("SL(3) (2,1) classical flat arguments {1+3z1±v}", _formulas(
        ("A2", {1}, "flat", "hecke", "classical",
         lambda: [_inv_zeta(_lf(1, z1=3, v=1)), _inv_zeta(_lf(1, z1=3, v=-1))]))),
    ("petersson appends L*(1, Ad)^(-1/2)", _formulas(
        ("A2", {1}, "grouped", "petersson", "root", lambda: [_inv_L(_lf(1, s=1), "π"), _norm("Ad π")]),
        ("A2", {1}, "grouped", "petersson", "classical", lambda: [_inv_L(_lf(1, z1=3), "φ"), _norm("Ad φ")]),
    )),
    # SL(4) table in root-system coordinates
    ("SL(4) Borel grouped: six zeta* factors", _formulas(
        ("A3", (), "grouped", "hecke", "root", lambda: [
            _inv_zeta(_lf(1, s1=1)), _inv_zeta(_lf(1, s2=1)), _inv_zeta(_lf(1, s3=1)),
            _inv_zeta(_lf(1, s1=1, s2=1)), _inv_zeta(_lf(1, s2=1, s3=1)), _inv_zeta(_lf(1, s1=1, s2=1, s3=1)),
        ]),
        ("A3", (), "grouped", "hecke", "alpha", lambda: map(_inv_zeta, borel_alpha_arguments(4))),
    )),
    ("SL(4) (2,1,1) grouped", _formulas(
        ("A3", {1}, "grouped", "hecke", "root",
         lambda: [_inv_L(_lf(1, s2=1), "π"), _inv_L(_lf(1, s2=1, s3=1), "π"), _inv_zeta(_lf(1, s3=1))],
         "L*(s2+1,π)^-1 · L*(s2+s3+1,π)^-1 · ζ*(s3+1)^-1"))),
    ("SL(4) (2,2) grouped", _formulas(
        ("A3", {1, 3}, "grouped", "hecke", "root", lambda: [_inv_L(_lf(1, s=1), "π'×π''")],
         "L*(s+1,π'×π'')^-1"))),
    ("SL(4) (3,1) grouped", _formulas(
        ("A3", {1, 2}, "grouped", "hecke", "root", lambda: [_inv_L(_lf(1, s=1), "π")]))),
    # SL(4) Hecke eigenvalue shapes
    ("SL(4) (2,1,1) Hecke eigenvalue shape at m=p", _hecke_211),
    ("SL(4) (2,2) Hecke eigenvalue shape at m=p", _hecke_22),
    ("SL(4) Borel Hecke eigenvalue at m=p", _hecke_borel),
    ("Hecke multiplicativity lambda(6) = lambda(2)lambda(3)", _hecke_multiplicative),
    # exceptional examples
    ("E8/E7 orbit sizes {56, 1}",
     lambda: sorted(len(o.roots) for o in wl_orbits(_parabolic("E8", _E7)).orbits) == [1, 56]),
    ("E8/E7 grading levels {1: 56, 2: 1}",
     lambda: {j: len(v) for j, v in unipotent_grading(_parabolic("E8", _E7)).items()} == {1: 56, 2: 1}),
    ("E8/E7 formula L*(s+1, pi, 56) zeta*(2s+1)", _formulas(
        ("E8", _E7, "grouped", "hecke", "root", lambda: [_inv_L(_lf(1, s=1), "π,56"), _inv_zeta(_lf(1, s=2))],
         "L*(s+1,π,56)^-1 · ζ*(2s+1)^-1"))),
    ("E8/D7 orbit sizes {64, 14}",
     lambda: sorted(len(o.roots) for o in wl_orbits(_parabolic("E8", _D7)).orbits) == [14, 64]),
    ("E8/D7 formula L*(s+1, pi, Spin) L*(2s+1, pi, Stan)", _formulas(
        ("E8", _D7, "grouped", "hecke", "root",
         lambda: [_inv_L(_lf(1, s=1), "π,Spin"), _inv_L(_lf(1, s=2), "π,Stan")],
         "L*(s+1,π,Spin)^-1 · L*(2s+1,π,Stan)^-1"))),
    # GL coordinate layer
    ("SL(3) Langlands parameters (2v1+v2, -v1+v2, -v1-2v2)", _sl3_langlands),
    ("SL(4) Langlands parameters", _sl4_langlands),
    ("rho_P(2,1) = (1/2, -1)", lambda: rho_P(GLPartition((2, 1))) == (Q(1, 2), Q(-1))),
    ("(2,1) Eisenstein parameters (z1+v, z1-v, -2z1)", _eisenstein_21),
    ("(2,2) Eisenstein parameters (z1+v, z1-v, -z1+v', -z1-v')", _eisenstein_22),
    ("GL(3) power function exponents (1-alpha3, 1+alpha1)", _gl3_power_exponents),
    # cancellation identity behind the template
    ("Levi cancellation identity on 10 parabolic configurations",
     lambda: all(minimal_hecke_ratio_check(_assignment(t, s)) for t, s in _CANCELLATION_CONFIGS)),
    # constant term
    ("A1 constant term {e: 1, s1: c(2nu)}", _constant_term_a1),
    ("A2 constant term: 6 terms, w_long has 3 c-factors", _constant_term_a2),
    # special-function facts
    ("zeta*(2) = pi/6", lambda: abs(zeta_star(2).value - math.pi / 6) < 1e-12),
    ("zeta*(w) = zeta*(1-w)", lambda: abs(zeta_star(0.3 + 2j).value - zeta_star(1 - (0.3 + 2j)).value) < 1e-10),
    ("Gamma_R(1) = 1", lambda: abs(gamma_r(1).value - 1) < 1e-13),
    ("c(s) c(-s) = 1", lambda: abs(c_factor(0.7 + 0.3j).value * c_factor(-(0.7 + 0.3j)).value - 1) < 1e-10),
    ("K_nu = K_(-nu)", lambda: abs(bessel_k(0.7j, 2.0).value - bessel_k(-0.7j, 2.0).value) < 1e-12),
    # Whittaker identities
    ("W_p(e) = 1", lambda: abs(_w_padic(3, _LAM_A2, "A2", [0, 0]) - 1) < 1e-10),
    ("W_p Weyl invariance", _w_padic_weyl_invariant),
    ("W_p vanishes off the dominant cone", lambda: _w_padic(3, _LAM_A2, "A2", [1, -1]) == 0),
    ("GL(2) geometric-sum oracle, k <= 10", _gl2_geometric_sum),
    ("archimedean nu <-> -nu invariance", _arch_nu_symmetric),
    ("Jacquet quadrature matches the closed form",
     lambda: abs(jacquet_sl2_quadrature(0.3, 1.0).value.value - jacquet_sl2_closed_form(0.3, 1.0).value) < 1e-6),
    ("Gamma_R(2nu+1) times Jacquet equals the canonical value",
     lambda: abs(jacquet_sl2_quadrature(0.3, 1.0).value.value * gamma_r(1.6).value
                 - whittaker_sl2_arch(0.3, 1.0).value.value) < 1e-6),
    ("large-y asymptotics e^(-2 pi y)",
     lambda: abs(whittaker_sl2_arch(0.25j, 5.0).value.value / math.exp(-2 * math.pi * 5.0) - 1) < 0.02),
    # Weyl denominator identity
    ("Weyl denominator identity for A2", lambda: _weyl_denominator_holds("A2", Q(1, 10))),
    ("Weyl denominator identity for A3", lambda: _weyl_denominator_holds("A3", Q(1, 10))),
)


# ---------------------------------------------------------------------------
# The properties suite
# ---------------------------------------------------------------------------


def _two_rho_and_duality(type_name: str) -> bool:
    rs = _root_system(type_name)
    total = [sum(rt.coords[i] for rt in rs.positive_roots) for i in range(rs.rank)]
    wcoords = [sum(total[k] * rs.cartan[k][j] for k in range(rs.rank)) for j in range(rs.rank)]
    dual = all(
        rs.pairing_root_coroot(a, b) == (2 if i == j else rs.cartan[i][j])
        for i, a in enumerate(rs.simple_roots)
        for j, b in enumerate(rs.simple_roots)
    )
    return wcoords == [2] * rs.rank and dual


def _strip_points(rng: random.Random) -> list[complex]:
    return [complex(0.5 + rng.uniform(-3, 3), rng.uniform(-30, 30)) for _ in range(20)]


def _zeta_functional_equation() -> bool:
    return all(
        abs(zeta_star(w).value - zeta_star(1 - w).value) <= 1e-9 * max(1.0, abs(zeta_star(w).value))
        for w in _strip_points(random.Random(2024))
        if min(abs(w), abs(w - 1)) >= 0.05
    )


def _c_factor_pairs() -> bool:
    rng = random.Random(2024)
    _strip_points(rng)  # these points follow the strip points in the seeded stream
    points = [complex(rng.uniform(-2, 2), rng.uniform(-20, 20)) for _ in range(20)]
    return all(
        abs(c_factor(s).value * c_factor(-s).value - 1) <= 1e-9
        for s in points
        if min(abs(s), abs(s - 1), abs(s + 1)) >= 0.1
    )


PROPERTY_TYPES = ("A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2")

PROPERTY_CASES: tuple[Case, ...] = (
    *(
        (f"{name}: sum of positive roots = 2 rho; coroot duality", functools.partial(_two_rho_and_duality, name))
        for name in PROPERTY_TYPES
    ),
    ("zeta* functional equation on random strip points", _zeta_functional_equation),
    ("c(s) c(-s) = 1 on random points", _c_factor_pairs),
    ("grouped factors expand to the flat multiset",
     lambda: all(_grouped_expands_to_flat(_assignment(t, s))
                 for t, s in (("A2", {1}), ("A3", {1}), ("A3", {1, 3}), ("D4", {1, 3, 4})))),
    ("Weyl denominator identity for A4", lambda: _weyl_denominator_holds("A4", Q(1, 100))),
)


def _cases_hold(*names: str) -> bool:
    """Run the named cases of either suite; true when every one holds."""
    cases = dict(PAPER_CASES + PROPERTY_CASES)
    return all([cases[name]() for name in names])


def _run(cases) -> list[Check]:
    return [(name, bool(check())) for name, check in cases]


def paper_suite() -> list[Check]:
    return _run(PAPER_CASES)


def property_suite() -> list[Check]:
    return _run(PROPERTY_CASES)
