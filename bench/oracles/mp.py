"""Reference values at 40 significant digits, computed apart from eiscoeff.

Special functions come from mpmath; Weyl sums, Schur polynomials and
divisor sums are evaluated here term by term in mpmath arithmetic, with
the root data of ``lie.py``.  The references return ``(value, scale)``:
``value`` is the reference and ``scale`` the magnitude that accuracy is
measured against (``|value|`` for a single function value; the sum of the
magnitudes of the terms for a sum that can cancel).  ``schur`` and
``padic_schur`` return the value alone.
"""

from __future__ import annotations

from functools import lru_cache

import mpmath

from . import lie

DPS = 40


def _mpc(z):
    z = complex(z)
    return mpmath.mpc(z.real, z.imag)


def zeta(s):
    with mpmath.workdps(DPS):
        v = mpmath.zeta(_mpc(s))
        return complex(v), float(abs(v))


def gamma(z):
    with mpmath.workdps(DPS):
        v = mpmath.gamma(_mpc(z))
        return complex(v), float(abs(v))


def _zeta_star_mp(w):
    w = _mpc(w)
    return mpmath.pi ** (-w / 2) * mpmath.gamma(w / 2) * mpmath.zeta(w)


def zeta_star(w):
    with mpmath.workdps(DPS):
        v = _zeta_star_mp(w)
        return complex(v), float(abs(v))


def c_factor(s):
    with mpmath.workdps(DPS):
        v = _zeta_star_mp(s) / _zeta_star_mp(complex(s) + 1)
        return complex(v), float(abs(v))


def bessel_k(nu, x):
    with mpmath.workdps(DPS):
        v = mpmath.besselk(_mpc(nu), mpmath.mpf(x))
        return complex(v), float(abs(v))


def whittaker_sl2(nu, y):
    """2 sqrt(y) K_nu(2 pi y)."""
    with mpmath.workdps(DPS):
        y = mpmath.mpf(y)
        v = 2 * mpmath.sqrt(y) * mpmath.besselk(_mpc(nu), 2 * mpmath.pi * y)
        return complex(v), float(abs(v))


def jacquet_sl2(nu, y):
    """Closed form of int_R (y/(x^2+y^2))^(1/2+nu) e(-x) dx:
    2 pi^(nu+1/2) sqrt(y) K_nu(2 pi y) / Gamma(nu+1/2).

    The scale is the integral of the modulus of the integrand,
    sqrt(pi) Gamma(Re nu)/Gamma(Re nu + 1/2) y^(1/2 - Re nu): the value is
    e^(-2 pi y)-small against it, so that is what quadrature error is
    measured against.
    """
    with mpmath.workdps(DPS):
        n = _mpc(nu)
        y = mpmath.mpf(y)
        v = (
            2 * mpmath.pi ** (n + 0.5) * mpmath.sqrt(y)
            * mpmath.besselk(n, 2 * mpmath.pi * y) / mpmath.gamma(n + 0.5)
        )
        r = n.real
        env = mpmath.sqrt(mpmath.pi) * mpmath.gamma(r) / mpmath.gamma(r + 0.5) * y ** (0.5 - r)
        return complex(v), float(env)


def local_zeta(place, s):
    s = _mpc(s)
    if place == "infty":
        return mpmath.pi ** (-s / 2) * mpmath.gamma(s / 2)
    return 1 / (1 - mpmath.mpf(place) ** (-s))


def normalization_factor(place, lam, type_name):
    """prod over positive coroots of zeta_v(<lam, alpha^vee> + 1)."""
    with mpmath.workdps(DPS):
        lam = [_mpc(x) for x in lam]
        total = mpmath.mpc(1)
        for cor in lie.positive_coroots(type_name):
            z = sum(int(c) * x for c, x in zip(cor, lam)) + 1
            total *= local_zeta(place, z)
        return complex(total), float(abs(total))


@lru_cache(maxsize=None)
def _weyl_data(type_name):
    C = lie.cartan(type_name)
    words = lie.weyl_words(type_name)
    coroots = [tuple(int(c) for c in cor) for cor in lie.positive_coroots(type_name)]
    return C, words, coroots


def _orbit(type_name, lam):
    C, words, coroots = _weyl_data(type_name)
    return [lie.apply_word(C, w, tuple(lam)) for w in words], coroots


def padic_weyl_sum(p, lam, k, type_name):
    """Casselman-Shalika sum at 40 digits over the harness's own Weyl group:
    sum_w prod_{alpha>0} (1 - p^<w lam, alpha^vee>)^-1 p^(-<w lam + rho, a>),
    with a given by its coweight exponents k."""
    a = lie.coroot_coords_of_coweights(type_name, k)
    with mpmath.workdps(DPS):
        P = mpmath.mpf(p)
        orbit, coroots = _orbit(type_name, [_mpc(x) for x in lam])
        total = mpmath.mpc(0)
        mag = mpmath.mpf(0)
        for wl in orbit:
            den = mpmath.mpc(1)
            for cor in coroots:
                den *= 1 - P ** sum(c * x for c, x in zip(cor, wl))
            pa = sum((x + 1) * mpmath.mpf(q.numerator) / q.denominator for x, q in zip(wl, a))
            term = P ** (-pa) / den
            total += term
            mag += abs(term)
        return complex(total), float(mag)


def leading_asymptotics(lam, H, t, type_name):
    """sum_w exp(-t <w lam + rho, H>) prod_{alpha>0} Gamma_R(-<w lam, alpha^vee>),
    with H given by its coweight exponents."""
    a = lie.coroot_coords_of_coweights(type_name, H)
    with mpmath.workdps(DPS):
        orbit, coroots = _orbit(type_name, [_mpc(x) for x in lam])
        total = mpmath.mpc(0)
        mag = mpmath.mpf(0)
        for wl in orbit:
            prod = mpmath.mpc(1)
            for cor in coroots:
                prod *= local_zeta("infty", -sum(c * x for c, x in zip(cor, wl)))
            pa = sum((x + 1) * mpmath.mpf(q.numerator) / q.denominator for x, q in zip(wl, a))
            term = mpmath.exp(-mpmath.mpf(t) * pa) * prod
            total += term
            mag += abs(term)
        return complex(total), float(mag)


def schur(mu, xs):
    """Schur polynomial s_mu(x_1..x_n) by the branching rule
    s_mu(x_1..x_m) = sum over nu interlacing mu of x_m^(|mu|-|nu|) s_nu(x_1..x_{m-1}):
    a sum over semistandard tableaux, with no division."""
    n = len(xs)
    mu = tuple(mu) + (0,) * (n - len(mu))
    memo = {}

    def rec(lam, m):
        if m == 0:
            return mpmath.mpf(1) if not any(lam) else mpmath.mpf(0)
        if lam[m:] and any(lam[m:]):
            return mpmath.mpf(0)
        key = (lam, m)
        if key in memo:
            return memo[key]
        total = mpmath.mpc(0)
        # nu_i in [lam_{i+1}, lam_i] for i < m-1, nu_{m-1} = 0 (at most m-1 parts)
        def choose(i, acc):
            nonlocal total
            if i == m - 1:
                nu = tuple(acc) + (0,) * (n - len(acc))
                total += xs[m - 1] ** (sum(lam) - sum(nu)) * rec(nu, m - 1)
                return
            for v in range(lam[i + 1], lam[i] + 1):
                choose(i + 1, acc + [v])

        choose(0, [])
        memo[key] = total
        return total

    return rec(mu, n)


def padic_schur(p, lam, k):
    """Shintani's formula for GL(n), n = rank + 1:
    W(a) = p^(-<rho, a>) s_mu(p^(a_1), ..., p^(a_n)), mu_j = k_1 + ... + k_(n-j),
    with a_i the Langlands parameters of lam (a_i - a_(i+1) = lam_i, sum a_i = 0)."""
    r = len(lam)
    n = r + 1
    a_co = lie.coroot_coords_of_coweights(f"A{r}", k)
    with mpmath.workdps(DPS):
        lam = [_mpc(x) for x in lam]
        last = -sum((j + 1) * lam[j] for j in range(r)) / n
        params = [last + sum(lam[i:]) for i in range(r)] + [last]
        P = mpmath.mpf(p)
        xs = [P**ai for ai in params]
        mu = [sum(k[: n - j]) for j in range(1, n + 1)]
        rho_a = sum(mpmath.mpf(q.numerator) / q.denominator for q in a_co)
        return complex(P ** (-rho_a) * schur(mu, xs))


def _divisors(m):
    small = [d for d in range(1, int(m**0.5) + 1) if m % d == 0]
    return sorted(set(small) | {m // d for d in small})


def borel_eigenvalue(alpha, m):
    """Brute-force sum over ordered factorizations c_1 ... c_n = m of
    prod c_i^alpha_i, recursing over the divisors of m."""
    n = len(alpha)
    with mpmath.workdps(DPS):
        al = [_mpc(a) for a in alpha]
        memo = {}

        def rec(mm, i):
            if i == n - 1:
                v = mpmath.mpf(mm) ** al[i]
                return v, abs(v)
            key = (mm, i)
            if key not in memo:
                tot, mag = mpmath.mpc(0), mpmath.mpf(0)
                for d in _divisors(mm):
                    f = mpmath.mpf(d) ** al[i]
                    v, g = rec(mm // d, i + 1)
                    tot += f * v
                    mag += abs(f) * g
                memo[key] = (tot, mag)
            return memo[key]

        tot, mag = rec(m, 0)
        return complex(tot), float(mag)
