import math
import random
import time

import pytest

from eiscoeff.glcoords import GLPartition
from eiscoeff.hecke import (
    _ordered_factorizations,
    borel_eigenvalue,
    factorize,
    parabolic_eigenvalue,
    z_exponents,
)
from eiscoeff.roots import build_root_system
from eiscoeff.whittaker import TorusPoint, whittaker_padic


def _brute_force_borel(n, alpha, m):
    """Direct nested-loop enumeration over ordered factorizations."""
    if n == 1:
        return m ** alpha[0]
    total = 0.0 + 0.0j
    for c in range(1, m + 1):
        if m % c == 0:
            total += c ** alpha[0] * _brute_force_borel(n - 1, alpha[1:], m // c)
    return total


def _random_alpha(rng, n):
    parts = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-1.5, 1.5)) for _ in range(n - 1)]
    return tuple(parts) + (-sum(parts),)


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(1) == []
    assert factorize(97) == [(97, 1)]


def test_borel_m1():
    assert borel_eigenvalue(3, _random_alpha(random.Random(0), 3), 1) == 1


def test_borel_prime_gl2():
    alpha = (0.3 + 1j, -0.3 - 1j)
    got = borel_eigenvalue(2, alpha, 7)
    expect = 7 ** alpha[0] + 7 ** alpha[1]
    assert abs(got - expect) < 1e-12 * abs(expect)


@pytest.mark.parametrize("m", [2, 6, 12, 30, 360, 9973])
def test_borel_against_brute_force(m):
    rng = random.Random(m)
    for n in (2, 3, 4):
        alpha = _random_alpha(rng, n)
        got = borel_eigenvalue(n, alpha, m)
        expect = _brute_force_borel(n, alpha, m)
        assert abs(got - expect) <= 1e-10 * max(1.0, abs(expect))


def test_borel_multiplicative():
    rng = random.Random(17)
    pairs = [(2, 3), (4, 9), (8, 27), (16, 625), (7, 1000), (99, 101)]
    for n in (2, 3, 4):
        alpha = _random_alpha(rng, n)
        for a, b in pairs:
            if math.gcd(a, b) != 1 or a * b > 10**4:
                continue
            lhs = borel_eigenvalue(n, alpha, a * b)
            rhs = borel_eigenvalue(n, alpha, a) * borel_eigenvalue(n, alpha, b)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_borel_multiplicative_lambda6():
    rng = random.Random(5)
    alpha = _random_alpha(rng, 3)
    lhs = borel_eigenvalue(3, alpha, 6)
    rhs = borel_eigenvalue(3, alpha, 2) * borel_eigenvalue(3, alpha, 3)
    assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


def test_borel_rejects_nonzero_sum():
    with pytest.raises(ValueError):
        borel_eigenvalue(2, (0.5, 0.0), 2)


def test_parabolic_m1():
    part = GLPartition((2, 2))
    val = parabolic_eigenvalue(part, (0.3j, -0.3j), 1, (lambda c: 1.0, lambda c: 1.0))
    assert val == 1


def test_parabolic_22_prime_shape():
    part = GLPartition((2, 2))
    z1 = 0.4 + 0.2j
    p = 5
    lam1 = lambda c: 2.0 if c == p else 1.0
    lam2 = lambda c: 3.0 if c == p else 1.0
    got = parabolic_eigenvalue(part, (z1, -z1), p, (lam1, lam2))
    expect = lam1(p) * p**z1 + lam2(p) * p**-z1
    assert abs(got - expect) < 1e-12 * abs(expect)


def test_parabolic_reduces_to_borel():
    # callbacks = Borel eigenvalues of the blocks ==> eigenvalue of the refined Borel
    rng = random.Random(8)
    part = GLPartition((2, 1))
    beta = _random_alpha(rng, 2)  # GL(2) block parameters
    z1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-1, 1))
    z = (z1, -2 * z1)
    cb = (lambda c: borel_eigenvalue(2, beta, c), lambda c: 1.0)
    refined = (beta[0] + z[0], beta[1] + z[0], z[1])
    for m in (2, 6, 12, 100, 720):
        got = parabolic_eigenvalue(part, z, m, cb)
        expect = borel_eigenvalue(3, refined, m)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


def test_parabolic_reduces_to_borel_22():
    rng = random.Random(9)
    part = GLPartition((2, 2))
    b1 = _random_alpha(rng, 2)
    b2 = _random_alpha(rng, 2)
    z1 = complex(rng.uniform(-0.4, 0.4), rng.uniform(-1, 1))
    z = (z1, -z1)
    cb = (lambda c: borel_eigenvalue(2, b1, c), lambda c: borel_eigenvalue(2, b2, c))
    refined = (b1[0] + z1, b1[1] + z1, b2[0] - z1, b2[1] - z1)
    for m in (4, 36, 210):
        got = parabolic_eigenvalue(part, z, m, cb)
        expect = borel_eigenvalue(4, refined, m)
        assert abs(got - expect) <= 1e-9 * max(1.0, abs(expect))


@pytest.mark.parametrize("m,r", [(1, 3), (12, 2), (720, 3), (2**5 * 3, 4), (30030, 5)])
def test_parabolic_term_count_is_the_number_of_ordered_factorizations(m, r):
    count = math.prod(math.comb(e + r - 1, r - 1) for _, e in factorize(m))
    assert len(list(_ordered_factorizations(m, r))) == count


def test_parabolic_refuses_an_oversized_expansion_before_summing():
    # 720720 = 2^4 3^2 5 7 11 13: C(15,11) C(13,11) 12^4, about 2.2e9 ordered 12-part factorizations
    part = GLPartition((1,) * 12)
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the guard"):
        parabolic_eigenvalue(part, (0j,) * 12, 720720, (lambda c: 1.0,) * 12)
    assert time.perf_counter() - t0 < 0.1


def test_z_exponents_shapes():
    # the four standard SL(4) divisor-sum exponents in z-coordinates
    assert z_exponents(GLPartition((2, 1, 1)), (1.0, -0.5, -1.5)) == (0.0, 0.0, 0.0)
    part = GLPartition((3, 1))
    z = z_exponents(part, (0.5 + 1j, -1.5 - 3j))
    assert abs(z[1] - (-3) * z[0]) < 1e-12


def test_gl2_cross_check_with_whittaker():
    # lambda(p) from the divisor sum equals p^(1/2) * W_p at the first coweight
    rs = build_root_system("A1")
    rng = random.Random(123)
    for p in (2, 3, 5, 11):
        nu = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 2.0))
        alpha = (nu, -nu)
        lam_weight = (2 * nu,)  # lambda = nu * alpha in weight coordinates
        a = TorusPoint.from_coweights(rs, [1])
        w = whittaker_padic(p, lam_weight, a, rs).value.value
        direct = borel_eigenvalue(2, alpha, p)
        assert abs(p**0.5 * w - direct) <= 1e-10 * max(1.0, abs(direct))
