import cmath
import math
import random

import pytest

from eiscoeff.errors import SingularParameter
from eiscoeff.roots import build_root_system, enumerate_weyl, pair_numeric
from eiscoeff.specfun import gamma_r, local_zeta
from eiscoeff.whittaker import (
    TorusPoint,
    jacquet_sl2_closed_form,
    jacquet_sl2_quadrature,
    leading_asymptotics,
    normalization_factor,
    whittaker_padic,
    whittaker_sl2_arch,
)

A1 = build_root_system("A1")
A2 = build_root_system("A2")
A3 = build_root_system("A3")


def test_normalization_factor_a1_archimedean():
    nu = 0.37 + 0.11j
    lam = (2 * nu,)  # lambda = nu * alpha
    val = normalization_factor("infty", lam, A1).value
    assert abs(val - gamma_r(2 * nu + 1).value) < 1e-12 * abs(val)


def test_normalization_factor_constant_pairings():
    # lambda with <lam, alpha^vee> = 1 for all simple alpha on A2 gives
    # pairings 1,1,2; at p the factors are zeta_p(2), zeta_p(2), zeta_p(3)
    lam = (1.0, 1.0)
    p = 3
    val = normalization_factor(p, lam, A2).value
    expect = local_zeta(p, 2).value ** 2 * local_zeta(p, 3).value
    assert abs(val - expect) < 1e-12 * abs(expect)


def test_normalization_terms_structure():
    from eiscoeff.whittaker import normalization_terms

    lam = (0.2 + 1j, 0.1 - 0.5j)
    nf = normalization_terms(7, lam, A2)
    assert nf.place == 7
    assert len(nf.factors) == len(A2.positive_roots)
    roots = [alpha for alpha, _ in nf.factors]
    assert roots == list(A2.positive_roots)


def test_normalization_factor_matches_loop_oracle():
    rng = random.Random(5)
    lam = tuple(complex(rng.uniform(-0.3, 0.3), rng.uniform(-2, 2)) for _ in range(2))
    for place in ("infty", 2, 7):
        got = normalization_factor(place, lam, A2).value
        expect = 1.0
        for alpha in A2.positive_roots:
            expect *= local_zeta(place, pair_numeric(lam, alpha, A2) + 1).value
        assert abs(got - expect) < 1e-11 * abs(expect)


def test_torus_point_coweight_vs_coroot():
    a = TorusPoint.from_coroot_exponents(A1, [1])
    b = TorusPoint.from_coweights(A1, [2])
    assert a.coroot_coords == b.coroot_coords == (1,)
    assert a.dominant and b.dominant
    assert not TorusPoint.from_coweights(A2, [1, -1]).dominant


def test_padic_identity_is_one():
    rng = random.Random(11)
    for rs in (A1, A2, A3):
        for p in (2, 3, 5):
            lam = tuple(
                complex(rng.uniform(-0.2, 0.2), rng.uniform(0.5, 2.0)) for _ in range(rs.rank)
            )
            e = TorusPoint.from_coweights(rs, [0] * rs.rank)
            val = whittaker_padic(p, lam, e, rs).value.value
            assert abs(val - 1.0) < 1e-10


def test_padic_nondominant_vanishes():
    lam = (0.3 + 1.1j, 0.2 - 0.7j)
    a = TorusPoint.from_coweights(A2, [2, -1])
    assert whittaker_padic(3, lam, a, A2).value.value == 0


def _geometric_sum_oracle(p, nu, k):
    """Hand-simplified two-term Casselman-Shalika sum for A1."""
    return p ** (-k / 2) * sum(p ** (nu * (k - 2 * j)) for j in range(k + 1))


@pytest.mark.parametrize("k", range(0, 11))
def test_padic_a1_geometric_sum(k):
    p = 5
    nu = 0.23 + 0.071j
    lam = (2 * nu,)  # Satake parameter p^-nu
    a = TorusPoint.from_coweights(A1, [k])
    got = whittaker_padic(p, lam, a, A1).value.value
    assert abs(got - _geometric_sum_oracle(p, nu, k)) < 1e-10 * abs(got)


def test_padic_weyl_invariance():
    rng = random.Random(23)
    for rs in (A1, A2, A3):
        elements = enumerate_weyl(rs, 10**4)
        for p in (2, 3, 5):
            for _ in range(20):
                lam = tuple(
                    complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 2.5))
                    for _ in range(rs.rank)
                )
                a = TorusPoint.from_coweights(rs, [rng.randint(0, 2) for _ in range(rs.rank)])
                base = whittaker_padic(p, lam, a, rs).value.value
                for w in elements:
                    moved = whittaker_padic(p, w.apply_weight_numeric(lam), a, rs).value.value
                    assert abs(moved - base) <= 1e-10 * max(1.0, abs(base))


def test_padic_singular_reported():
    lam = (0.0,)  # 1 - p^0 vanishes
    a = TorusPoint.from_coweights(A1, [1])
    with pytest.raises(SingularParameter):
        whittaker_padic(5, lam, a, A1)


def test_sl2_arch_symmetry():
    nu = 0.4 + 0.1j
    y = 1.3
    a = whittaker_sl2_arch(nu, y).value.value
    b = whittaker_sl2_arch(-nu, y).value.value
    assert abs(a - b) <= 1e-11 * max(1.0, abs(a))


def test_sl2_arch_large_y_asymptotics():
    y = 5.0
    val = whittaker_sl2_arch(0.25j, y).value.value
    assert abs(val / math.exp(-2 * math.pi * y) - 1.0) < 0.02


def test_sl2_arch_closed_form_nu_half():
    # K_{1/2}(x) = sqrt(pi/(2x)) e^-x gives W = e^{-2 pi} at y = 1
    val = whittaker_sl2_arch(0.5, 1.0).value.value
    assert abs(val - math.exp(-2 * math.pi)) < 1e-12


@pytest.mark.parametrize("nu", [0.2, 0.5, 1.0, 1.5])
@pytest.mark.parametrize("y", [0.5, 1.0, 2.0, 5.0])
def test_jacquet_quadrature_grid(nu, y):
    got = jacquet_sl2_quadrature(nu, y).value.value
    expect = jacquet_sl2_closed_form(nu, y).value
    assert abs(got - expect) <= 1e-6


def test_jacquet_quadrature_spots():
    for nu, y in ((0.3, 1.0), (1.0, 0.5)):
        got = jacquet_sl2_quadrature(nu, y).value.value
        expect = jacquet_sl2_closed_form(nu, y).value
        assert abs(got - expect) <= 1e-6


def test_jacquet_times_gamma_r_matches_canonical():
    for nu, y in ((0.3, 1.0), (0.7, 2.0), (1.2, 0.5)):
        jac = jacquet_sl2_quadrature(nu, y).value.value
        canon = whittaker_sl2_arch(nu, y).value.value
        assert abs(jac * gamma_r(2 * nu + 1).value - canon) <= 1e-6


def test_gauss_legendre_rule_is_exact_to_degree_31():
    from eiscoeff.whittaker import _GL_RULE

    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(w * x**k for x, w in _GL_RULE) - exact) <= 1e-15
    try:
        import numpy
    except ImportError:
        return
    nodes, weights = numpy.polynomial.legendre.leggauss(16)
    assert _GL_RULE == tuple(zip(nodes.tolist(), weights.tolist()))


def test_jacquet_requires_positive_real_part():
    with pytest.raises(ValueError):
        jacquet_sl2_quadrature(-0.1, 1.0)


def test_leading_asymptotics_a1_small_y():
    nu = 0.3
    y = 1e-3
    t = -math.log(y)
    model = leading_asymptotics((2 * nu,), A1, [1], t).value
    truth = whittaker_sl2_arch(nu, y).value.value
    assert abs(model / truth - 1.0) < 0.01


def test_leading_asymptotics_wlong_dominates():
    # for t large and generic lam the long-element term dominates the model
    lam = (0.41 + 0.13j, 0.27 - 0.09j)
    t = 30.0
    total = leading_asymptotics(lam, A2, [1, 1], t).value
    pt = TorusPoint.from_coweights(A2, [1, 1])
    terms = {}
    for w in enumerate_weyl(A2, 100):
        wl = w.apply_weight_numeric(lam)
        pr = complex(1.0)
        for alpha in A2.positive_roots:
            pr *= gamma_r(-pair_numeric(wl, alpha, A2)).value
        terms[w.word] = cmath.exp(-t * pt.pair_weight(tuple(c + 1.0 for c in wl))) * pr
    dominant_word = max(terms, key=lambda k: abs(terms[k]))
    assert len(dominant_word) == 3  # reduced word of the long element
    mags = sorted(abs(x) for x in terms.values())
    assert mags[-1] / max(mags[-2], 1e-300) > 1e3
    assert abs(sum(terms.values()) - total) < 1e-9 * abs(total)


def test_leading_asymptotics_wall_singular():
    with pytest.raises(SingularParameter):
        leading_asymptotics((0.0,), A1, [1], 5.0)


# -- walls on a root that is not simple ------------------------------------------


def test_wall_on_a_non_simple_root_is_singular():
    # <lam, alpha_1^vee> and <lam, alpha_2^vee> are off every wall; the
    # pairing with (alpha_1 + alpha_2)^vee is 0, resp. 2 (a Gamma_R pole)
    a = TorusPoint.from_coweights(A2, [1, 2])
    with pytest.raises(SingularParameter):
        whittaker_padic(5, (0.3 + 0.2j, -0.3 - 0.2j), a, A2)
    with pytest.raises(SingularParameter):
        leading_asymptotics((1.3 + 0.2j, 0.7 - 0.2j), A2, [1, 2], 1.0)
