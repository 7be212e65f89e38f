"""Numerical special functions in double precision.

All functions are implemented in-repo with documented algorithms:

* Gamma: Lanczos approximation (g = 607/128, 15 coefficients) with the
  reflection formula on the left half-plane;
* zeta: alternating-series (eta-function) acceleration after
  Cohen-Rodriguez Villegas-Zagier, reflection for Re s < 0, and an
  Euler-Maclaurin fallback near the zeros of 1 - 2^(1-s);
* zeta_star: pi^(-w/2) Gamma(w/2) zeta(w);
* local factors: Gamma_R at the archimedean place, (1-p^-s)^-1 at p;
* bessel_k: tanh-sinh quadrature of the cosh integral representation;
  for |Im nu| > 4 and x < |Im nu|, where the integral cancels to an
  e^(-pi |Im nu|/2)-small value, in mpmath at dps = 24 + 0.7 |Im nu|
  digits.  That path cuts the integral at the first T in 1 + Z/2 with
  x cosh T - |Re nu| T >= x + 50 + pi |Im nu|/2, stops at the first level
  whose difference from the one before is at most 10^-(dps-4) K_|Re nu|(x)
  (a bound on the integral of the modulus), raises ConvergenceFailure when
  level 13 has not met that, and claims 1e-12 |K| plus that difference.

Each value carries a conservative absolute error estimate.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceFailure, PoleAt

__all__ = [
    "ComplexValue",
    "gamma",
    "gamma_r",
    "zeta",
    "zeta_star",
    "local_zeta",
    "c_factor",
    "bessel_k",
]


@dataclass(frozen=True)
class ComplexValue:
    """A complex result with a conservative absolute error bound."""

    value: complex
    abs_err: float

    @property
    def re(self) -> float:
        return self.value.real

    @property
    def im(self) -> float:
        return self.value.imag

    def __complex__(self) -> complex:
        return self.value


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey/Pugh set)
_LANCZOS_G = 607.0 / 128.0
_LANCZOS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def _is_nonpositive_integer(z: complex, tol: float = 1e-13) -> bool:
    if abs(z.imag) > tol:
        return False
    r = round(z.real)
    return r <= 0 and abs(z.real - r) <= tol * max(1.0, abs(z.real))


def _lanczos_gamma(z: complex) -> complex:
    # valid for Re z > 0.5
    zm1 = z - 1.0
    acc = _LANCZOS[0]
    for k in range(1, len(_LANCZOS)):
        acc += _LANCZOS[k] / (zm1 + k)
    t = zm1 + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (zm1 + 0.5) * cmath.exp(-t) * acc


def gamma(z: complex) -> ComplexValue:
    """Complex Gamma; relative error about 1e-13 for |z| <= 50."""
    z = complex(z)
    if _is_nonpositive_integer(z):
        raise PoleAt(z, "Gamma")
    if z.real >= 0.5:
        val = _lanczos_gamma(z)
    else:
        # reflection: Gamma(z) = pi / (sin(pi z) Gamma(1 - z))
        s = cmath.sin(cmath.pi * z)
        if s == 0:
            raise PoleAt(z, "Gamma")
        val = cmath.pi / (s * _lanczos_gamma(1.0 - z))
    return ComplexValue(val, 1e-13 * abs(val) + 5e-300)


def gamma_r(s: complex) -> ComplexValue:
    """Completed archimedean factor Gamma_R(s) = pi^(-s/2) Gamma(s/2)."""
    s = complex(s)
    if _is_nonpositive_integer(s / 2):
        raise PoleAt(s, "Gamma_R")
    g = gamma(s / 2)
    pref = cmath.exp(-s / 2 * math.log(math.pi))
    val = pref * g.value
    return ComplexValue(val, abs(pref) * g.abs_err + 1e-14 * abs(val))


# ---------------------------------------------------------------------------
# Riemann zeta
# ---------------------------------------------------------------------------

_CVZ_N = 120


def _eta_cvz(s: complex) -> complex:
    """Alternating zeta via the Cohen-Rodriguez Villegas-Zagier scheme."""
    n = _CVZ_N
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b = -1.0
    c = -d
    acc = 0.0 + 0.0j
    for k in range(n):
        c = b - c
        acc += c * (k + 1.0) ** (-s)
        b = (k + n) * (k - n) * b / ((k + 0.5) * (k + 1.0))
    return acc / d


def _zeta_euler_maclaurin(s: complex, N: int = 40, M: int = 12) -> complex:
    # Bernoulli numbers B_2, B_4, ... B_24
    bern = (
        1.0 / 6, -1.0 / 30, 1.0 / 42, -1.0 / 30, 5.0 / 66, -691.0 / 2730,
        7.0 / 6, -3617.0 / 510, 43867.0 / 798, -174611.0 / 330,
        854513.0 / 138, -236364091.0 / 2730,
    )
    acc = sum((k + 0.0) ** (-s) for k in range(1, N))
    acc += N ** (1 - s) / (s - 1) + 0.5 * N ** (-s)
    term = s * N ** (-s - 1)
    for j in range(1, M + 1):
        acc += bern[j - 1] / math.factorial(2 * j) * term
        term *= (s + 2 * j - 1) * (s + 2 * j) / (N * N)
    return acc


def zeta(s: complex) -> ComplexValue:
    """Riemann zeta; relative error about 1e-12 for |Im s| <= 50."""
    s = complex(s)
    if abs(s - 1.0) < 1e-13:
        raise PoleAt(1, "zeta")
    if s.real < 0:
        # zeta(s) = 2^s pi^(s-1) sin(pi s/2) Gamma(1-s) zeta(1-s)
        z1 = zeta(1.0 - s)
        pref = (
            2.0**s
            * cmath.pi ** (s - 1.0)
            * cmath.sin(cmath.pi * s / 2.0)
            * gamma(1.0 - s).value
        )
        val = pref * z1.value
        return ComplexValue(val, abs(pref) * z1.abs_err + 1e-12 * abs(val))
    denom = 1.0 - 2.0 ** (1.0 - s)
    if abs(denom) < 0.05:
        val = _zeta_euler_maclaurin(s)
    else:
        val = _eta_cvz(s) / denom
    return ComplexValue(val, 1e-12 * abs(val) + 1e-16 * (1.0 + abs(s.imag)))


def zeta_star(w: complex) -> ComplexValue:
    """Completed zeta: pi^(-w/2) Gamma(w/2) zeta(w); poles at 0 and 1."""
    w = complex(w)
    if abs(w) < 1e-13:
        raise PoleAt(0, "zeta_star")
    if abs(w - 1.0) < 1e-13:
        raise PoleAt(1, "zeta_star")
    gr = gamma_r(w)
    ze = zeta(w)
    val = gr.value * ze.value
    err = abs(gr.value) * ze.abs_err + abs(ze.value) * gr.abs_err
    return ComplexValue(val, err)


def local_zeta(place, s: complex) -> ComplexValue:
    """zeta_v: Gamma_R(s) at the archimedean place, (1-p^-s)^-1 at p."""
    s = complex(s)
    if place == "infty":
        return gamma_r(s)
    p = int(place)
    t = 1.0 - cmath.exp(-s * math.log(p))
    if abs(t) < 1e-13:
        raise PoleAt(s, f"zeta_{p}")
    val = 1.0 / t
    return ComplexValue(val, 1e-14 * abs(val))


def c_factor(s: complex) -> ComplexValue:
    """Global c(s) = zeta*(s)/zeta*(s+1)."""
    num = zeta_star(s)
    den = zeta_star(s + 1)
    val = num.value / den.value
    err = (num.abs_err + abs(val) * den.abs_err) / abs(den.value)
    return ComplexValue(val, err)


# ---------------------------------------------------------------------------
# K-Bessel via tanh-sinh quadrature of int_0^inf exp(-x cosh t) cosh(nu t) dt
# ---------------------------------------------------------------------------


def _tanh_sinh(f, a: float, b: float, max_level: int = 11, tol: float = 1e-13):
    """Tanh-sinh quadrature on [a, b]; returns (value, err_estimate)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)

    def phi(u: float):
        s = math.sinh(u)
        return math.tanh(0.5 * math.pi * s), 0.5 * math.pi * math.cosh(u) / (
            math.cosh(0.5 * math.pi * s) ** 2
        )

    u_max = 3.8  # abscissas beyond this are within 1e-16 of the endpoints
    prev = None
    err = math.inf
    total = 0.0 + 0.0j
    for level in range(max_level + 1):
        h = u_max / 2**level
        if level == 0:
            x, w = phi(0.0)
            total = w * f(mid + half * x)
            ks = range(1, int(u_max / h) + 1)
        else:
            ks = range(1, int(u_max / h) + 1, 2)  # only the new nodes
        for k in ks:
            u = k * h
            x, w = phi(u)
            total += w * (f(mid + half * x) + f(mid - half * x))
        val = total * h * half
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * abs(val) + 1e-300:
                return val, err
        prev = val
    return prev, err


def _truncation(x: float, sigma: float, margin: float) -> float:
    """Least T in 1 + Z/2 with x cosh T - sigma T >= x + margin."""
    T = 1.0
    while x * math.cosh(T) - sigma * T < x + margin:
        T += 0.5
    return T


def _cosh_integral(nu: complex, x: float, T: float):
    """Double-precision tanh-sinh of int_0^T exp(-x cosh t) cosh(nu t) dt."""

    def integrand(t: float) -> complex:
        return cmath.exp(-x * math.cosh(t)) * cmath.cosh(nu * t)

    return _tanh_sinh(integrand, 0.0, T)


_MP_LEVELS = 14  # tanh-sinh levels that _bessel_k_mp tries before it gives up


def _bessel_k_mp(nu: complex, x: float) -> ComplexValue:
    """Same cosh-integral tanh-sinh evaluation, in extended precision.

    Imaginary orders make the integral strongly cancellative (the value is
    e^(-pi |Im nu|/2)-small against an O(1) integrand), so the working
    precision is raised to absorb the digits lost to cancellation, and the
    tail is cut that much deeper than on the double path.  Rounding limits
    the level difference to about 10^-dps of int |integrand|, so the stop
    rule is relative to K_|Re nu|(x), which bounds that integral since
    |cosh(nu t)| <= cosh(Re nu t); relative to |K| it cannot be met.
    """
    import mpmath

    tau = abs(nu.imag)
    sigma = abs(nu.real)
    T = _truncation(x, sigma, 50.0 + 0.5 * math.pi * tau)
    scale = _cosh_integral(sigma, x, _truncation(x, sigma, 50.0))[0].real
    dps = int(16 + 0.7 * tau + 8)
    with mpmath.workdps(dps):
        nu_mp = mpmath.mpc(nu.real, nu.imag)
        x_mp = mpmath.mpf(x)
        half = mpmath.mpf(T) / 2
        pi_half = mpmath.pi / 2
        tol = mpmath.mpf(10) ** (-(dps - 4)) * scale

        def f(t):
            return mpmath.exp(-x_mp * mpmath.cosh(t)) * mpmath.cosh(nu_mp * t)

        u_max = mpmath.mpf(4.2)
        total = None
        prev = None
        for level in range(_MP_LEVELS):
            h = u_max / 2**level
            ks = range(0, int(u_max / h) + 1) if level == 0 else range(1, int(u_max / h) + 1, 2)
            for k in ks:
                u = k * h
                s = mpmath.sinh(u)
                xnode = mpmath.tanh(pi_half * s)
                w = pi_half * mpmath.cosh(u) / mpmath.cosh(pi_half * s) ** 2
                contrib = w * f(half + half * xnode)
                if k > 0:
                    contrib += w * f(half - half * xnode)
                total = contrib if total is None else total + contrib
            val = total * h * half
            if prev is not None:
                err = abs(val - prev)
                if err <= tol:
                    break
            prev = val
        else:
            raise ConvergenceFailure(float(err), float(tol))
    out = complex(val)
    return ComplexValue(out, 1e-12 * abs(out) + float(err))


def bessel_k(nu: complex, x: float) -> ComplexValue:
    """Modified Bessel K_nu(x) for real x > 0 and complex order.

    Contract: relative error <= 1e-10 for 0.05 <= x <= 50 and |nu| <= 20.
    """
    nu = complex(nu)
    x = float(x)
    if x <= 0:
        raise ValueError(f"bessel_k requires x > 0, got {x}")
    if abs(nu.imag) > 4.0 and x < abs(nu.imag):
        return _bessel_k_mp(nu, x)
    # truncation point: e^(-x cosh T + sigma T) below 1e-20 * e^(-x)
    val, err = _cosh_integral(nu, x, _truncation(x, abs(nu.real), 50.0))
    return ComplexValue(val, err + 1e-13 * abs(val))
