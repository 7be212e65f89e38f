"""The benchmark's oracles against closed forms on small cases.

    python3 -m pytest -q bench/tests

These tests import nothing from eiscoeff: the oracles must stand apart
from the program they check.
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction as Q
from pathlib import Path

import mpmath
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from oracles import formulas, lie, mp  # noqa: E402

ALL_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "D5", "E6", "F4", "G2"]


def close(a, b, rel=1e-25):
    return abs(complex(a) - complex(b)) <= rel * max(1.0, abs(complex(b)))


# -- lie ---------------------------------------------------------------------


def test_cartan_matrices_of_rank_two():
    assert lie.cartan("A2") == [[2, -1], [-1, 2]]
    assert lie.cartan("B2") == [[2, -2], [-1, 2]]  # alpha_2 short: <alpha_1, alpha_2^vee> = -2
    assert lie.cartan("C2") == [[2, -1], [-2, 2]]
    assert lie.cartan("G2") == [[2, -1], [-3, 2]]  # alpha_1 short


@pytest.mark.parametrize("name", ALL_TYPES + ["E7", "E8"])
def test_positive_roots_match_the_classical_counts(name):
    family, n = lie.parse_type(name)
    assert len(lie.positive_roots(name)) == lie.positive_root_count(family, n)


@pytest.mark.parametrize("name", ALL_TYPES + ["E7", "E8"])
def test_poincare_polynomial_counts_the_group(name):
    poly = lie.poincare(name)
    assert sum(poly) == lie.weyl_order(name)
    assert poly == poly[::-1]  # palindromic
    assert len(poly) - 1 == len(lie.positive_roots(name))  # top degree = length of w_0


def test_known_group_orders():
    assert [lie.weyl_order(t) for t in ("A3", "B4", "D4", "F4", "E6", "E8")] == [
        24, 384, 192, 1152, 51840, 696729600]
    assert lie.poincare("A2") == [1, 2, 2, 1]


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C3", "G2", "B3"])
def test_weyl_words_enumerate_the_group(name):
    words = lie.weyl_words(name)
    hist = [0] * len(lie.poincare(name))
    for w in words:
        hist[len(w)] += 1
    assert hist == lie.poincare(name)


def test_coroots_of_b2_are_the_roots_of_c2():
    assert sorted(lie.positive_coroots("B2")) == sorted(
        tuple(Q(c) for c in r) for r in [(1, 0), (0, 1), (2, 1), (1, 1)])


def test_unipotent_root_counts_of_the_paper_examples():
    assert lie.unipotent_root_count("E8", range(1, 8)) == 120 - 63  # Levi E7
    assert lie.unipotent_root_count("E8", range(2, 9)) == 120 - 42  # Levi D7
    assert lie.unipotent_root_count("A3", {1}) == 5  # SL(4), (2,1,1)
    assert lie.unipotent_root_count("F4", {2, 3}) == 24 - 4  # Levi B2
    assert lie.unipotent_root_count("D5", {1, 2, 3, 4, 5} - {1}) == 20 - 12  # Levi D4
    assert lie.unipotent_root_count("G2", set()) == 6


def test_coroot_coordinates_of_coweights():
    assert lie.coroot_coords_of_coweights("A1", [3]) == (Q(3, 2),)
    assert lie.coroot_coords_of_coweights("A2", [1, 0]) == (Q(2, 3), Q(1, 3))


# -- mp ----------------------------------------------------------------------


def test_special_values():
    assert close(mp.zeta(2)[0], math.pi**2 / 6, 1e-15)
    assert close(mp.zeta_star(2)[0], math.pi / 6, 1e-15)
    assert close(mp.gamma(5)[0], 24, 1e-15)
    assert close(mp.c_factor(2)[0], (math.pi / 6) / mp.zeta_star(3)[0], 1e-15)


def test_bessel_half_order_closed_form():
    for x in (0.3, 1.0, 7.5):
        assert close(mp.bessel_k(0.5, x)[0], math.sqrt(math.pi / (2 * x)) * math.exp(-x), 1e-15)
        assert close(mp.whittaker_sl2(0.5, x)[0], math.exp(-2 * math.pi * x), 1e-15)


def test_jacquet_at_half_is_the_cauchy_transform():
    for y in (0.05, 0.5, 3.0):
        assert close(mp.jacquet_sl2(0.5, y)[0], math.pi * math.exp(-2 * math.pi * y), 1e-15)


def test_schur_small_cases():
    x = [mpmath.mpf(2), mpmath.mpf(3), mpmath.mpf(5)]
    assert mp.schur((1,), x) == 10
    assert mp.schur((1, 1), x[:2]) == 6
    assert mp.schur((2,), x[:2]) == 4 + 6 + 9
    assert mp.schur((2, 1), [1, 1, 1]) == 8  # dimension of the adjoint representation of GL(3)
    assert mp.schur((3, 3, 3), x) == 30**3  # det^3


def test_gl2_padic_value_is_a_geometric_sum():
    nu, p = 0.23 + 0.071j, 5
    for k in range(6):
        want = p ** (-k / 2) * sum(p ** (nu * (k - 2 * j)) for j in range(k + 1))
        assert close(mp.padic_schur(p, (2 * nu,), (k,)), want, 1e-14)
        assert close(mp.padic_weyl_sum(p, (2 * nu,), (k,), "A1")[0], want, 1e-14)


@pytest.mark.parametrize("name", ["A2", "A3"])
def test_schur_agrees_with_the_weyl_sum(name):
    n = int(name[1:])
    lam = [complex(0.1 * (i + 1), 0.7 - 0.3 * i) for i in range(n)]
    k = [2, 1, 3][:n]
    ws, _ = mp.padic_weyl_sum(3, lam, k, name)
    assert close(mp.padic_schur(3, lam, k), ws, 1e-25)


@pytest.mark.parametrize("name", ["B2", "C3", "G2", "B3"])
def test_weyl_sum_is_one_at_the_identity_and_w_invariant(name):
    n = int(name[1:])
    lam = tuple(complex(0.13 * (i + 1), 0.9 - 0.4 * i) for i in range(n))
    assert close(mp.padic_weyl_sum(7, lam, [0] * n, name)[0], 1, 1e-25)
    base, _ = mp.padic_weyl_sum(7, lam, [1] * n, name)
    C = lie.cartan(name)
    for word in lie.weyl_words(name)[:5]:
        other, _ = mp.padic_weyl_sum(7, lie.apply_word(C, word, lam), [1] * n, name)
        assert close(other, base, 1e-13)  # w(lam) is rounded to double before the sum


def test_leading_asymptotics_rank_one():
    lam, t, H = 0.3 + 0.8j, 1.3, 2  # H = 2 in coweight exponents is the coroot alpha^vee
    g = lambda z: complex(mp.local_zeta("infty", z))
    want = cmath.exp(-t * (lam + 1)) * g(-lam) + cmath.exp(-t * (-lam + 1)) * g(lam)
    assert close(mp.leading_asymptotics((lam,), (H,), t, "A1")[0], want, 1e-14)


def test_normalization_factor_rank_one():
    lam = 0.2 + 1.1j
    assert close(mp.normalization_factor(3, (lam,), "A1")[0], 1 / (1 - 3 ** (-(lam + 1))), 1e-14)


def test_divisor_sums():
    a = (0.3j, -0.3j)
    assert close(mp.borel_eigenvalue(a, 1)[0], 1)
    assert close(mp.borel_eigenvalue(a, 7)[0], 7 ** a[0] + 7 ** a[1], 1e-14)
    b = (0.2 + 0.1j, -0.5j, 0.4j - 0.2)
    six = mp.borel_eigenvalue(b, 6)[0]
    assert close(six, mp.borel_eigenvalue(b, 2)[0] * mp.borel_eigenvalue(b, 3)[0], 1e-25)
    assert mp.borel_eigenvalue((0, 0, 0), 12)[0] == 18  # ordered factorizations of 12 into 3


# -- formulas ----------------------------------------------------------------


def test_gl3_borel_is_the_paper_formula():
    assert formulas.gl_borel_alpha(3) == {
        "ζ*(a1-a2+1)^-1", "ζ*(a2-a3+1)^-1", "ζ*(a1-a3+1)^-1"}


def test_parse_linear_form():
    assert formulas.parse_linear_form("3v1+2v2-v3") == {"v1": 3, "v2": 2, "v3": -1}
    assert formulas.parse_linear_form("-1/2v'1+1") == {"v'1": Q(-1, 2), "": 1}


def test_constant_term_lines():
    text = "w=[e] coeff=1 exponent=(a, b)\nw=[1,2] coeff=c(x) · c(y)^2 exponent=(c, d)"
    assert formulas.constant_term_lines(text) == [((), 0), ((1, 2), 3)]


def test_json_properties_flat_exponent_sum():
    doc = ('{"scalar": "exact", "factors": [{"kind": "zeta_star", "place": null, "rep": null,'
           ' "exponent": {"num": -2, "den": 1}, "argument": {"const": {"num": 1, "den": 1},'
           ' "terms": [{"sym": "s", "imag": false, "coef": {"num": 1, "den": 1}}]}}]}')
    assert formulas.json_properties(doc, "A1", set(), "flat", "hecke", "root", ()) == [
        "flat exponents sum to -2, expected -|Delta_U| = -1"]
