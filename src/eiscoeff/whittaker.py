"""Canonically normalized Whittaker functions.

Covers the normalizing factors N_v, exact p-adic values via the
Casselman-Shalika finite Weyl sum, the closed-form SL(2) archimedean
value 2*sqrt(y)*K_nu(2*pi*y), a direct oscillatory-quadrature oracle for
the SL(2) Jacquet integral, and the leading-term asymptotic model of the
archimedean function in the negative chamber.

Numeric weights are given by their pairings with the simple coroots
(fundamental-weight coordinates), matching the exact layer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Callable, Sequence

from ._linalg import mat, mat_inv, mat_vec
from .errors import ConvergenceFailure, PoleAt, SingularParameter
from .roots import RootSystem, enumerate_weyl, pair_numeric
from .specfun import ComplexValue, bessel_k, gamma, gamma_r, local_zeta

__all__ = [
    "TorusPoint",
    "WhittakerValue",
    "NormalizationFactor",
    "normalization_terms",
    "normalization_factor",
    "whittaker_padic",
    "whittaker_sl2_arch",
    "jacquet_sl2_quadrature",
    "jacquet_sl2_closed_form",
    "leading_asymptotics",
]


@dataclass(frozen=True)
class TorusPoint:
    """A p-adic torus point encoded by its cocharacter.

    ``coroot_coords`` expresses the cocharacter in the simple-coroot basis
    (rationals; the coweight lattice is allowed).  ``coweights`` are the
    pairings with the simple roots, i.e. the exponents in the
    fundamental-coweight basis; for type A_{n-1} these are the exponents
    (k_1, ..., k_{n-1}) of the classical diagonal point
    diag(p^(k_1+...+k_{n-1}), ..., p^(k_1), 1).
    """

    coroot_coords: tuple[Q, ...]
    coweights: tuple[Q, ...]
    dominant: bool

    @staticmethod
    def from_coweights(rs: RootSystem, k: Sequence[int]) -> "TorusPoint":
        if len(k) != rs.rank:
            raise ValueError(f"need {rs.rank} exponents, got {len(k)}")
        kq = tuple(Q(x) for x in k)
        coroot = mat_vec(mat_inv(mat(rs.cartan)), kq)
        return TorusPoint(tuple(coroot), kq, all(x >= 0 for x in kq))

    @staticmethod
    def from_coroot_exponents(rs: RootSystem, k: Sequence[int]) -> "TorusPoint":
        """Point prod_i h_{alpha_i}(p^{k_i}); dominance is the pairing of every
        simple root with sum_i k_i alpha_i^vee."""
        if len(k) != rs.rank:
            raise ValueError(f"need {rs.rank} exponents, got {len(k)}")
        kq = tuple(Q(x) for x in k)
        cow = tuple(
            sum(kq[i] * rs.cartan[j][i] for i in range(rs.rank)) for j in range(rs.rank)
        )
        return TorusPoint(kq, cow, all(x >= 0 for x in cow))

    def pair_weight(self, coords: Sequence[complex]) -> complex:
        """<mu, cocharacter> for a weight given in fundamental-weight coordinates."""
        return sum(complex(r) * c for r, c in zip(self.coroot_coords, coords))


@dataclass(frozen=True)
class WhittakerValue:
    value: ComplexValue
    method: str  # casselman_shalika | bessel_closed_form | quadrature


@dataclass(frozen=True)
class NormalizationFactor:
    """The factorization of N_v: one local zeta argument per positive root."""

    place: object  # "infty" or a prime
    factors: tuple[tuple[object, complex], ...]  # (root, <lam, alpha^vee> + 1)


def normalization_terms(place, lam: Sequence[complex], rs: RootSystem) -> NormalizationFactor:
    return NormalizationFactor(
        place,
        tuple((alpha, pair_numeric(lam, alpha, rs) + 1.0) for alpha in rs.positive_roots),
    )


def normalization_factor(place, lam: Sequence[complex], rs: RootSystem) -> ComplexValue:
    """N_v(lam) = prod over positive roots of zeta_v(<lam, alpha^vee> + 1)."""
    total = complex(1.0)
    err = 0.0
    for alpha, arg in normalization_terms(place, lam, rs).factors:
        try:
            f = local_zeta(place, arg)
        except PoleAt as exc:
            raise PoleAt(arg, f"N_v factor at root {alpha.coords}") from exc
        err = abs(f.value) * err + abs(total) * f.abs_err
        total *= f.value
    return ComplexValue(total, err)


def whittaker_padic(
    p: int,
    lam: Sequence[complex],
    a: TorusPoint,
    rs: RootSystem,
    cap: int = 10**6,
) -> WhittakerValue:
    """Canonical p-adic Whittaker value by the Casselman-Shalika sum:

        W(a) = sum_w prod_{alpha>0} (1 - p^{<w lam, alpha^vee>})^-1 * p^{-<w lam + rho, a>}

    for dominant a; zero for non-dominant a.
    """
    if not a.dominant:
        return WhittakerValue(ComplexValue(0.0, 0.0), "casselman_shalika")
    logp = math.log(p)
    elements = enumerate_weyl(rs, cap)
    total = complex(0.0)
    magsum = 0.0
    for w in elements:
        wlam = w.apply_weight_numeric(lam)
        denom = complex(1.0)
        for alpha in rs.positive_roots:
            z = pair_numeric(wlam, alpha, rs)
            d = 1.0 - cmath.exp(z * logp)
            if abs(d) < 1e-10:
                raise SingularParameter(
                    f"1 - p^<w lam, alpha^vee> vanishes at w={w.word}, alpha={alpha.coords}"
                )
            denom *= d
        shifted = tuple(c + 1.0 for c in wlam)  # w lam + rho
        term = cmath.exp(-a.pair_weight(shifted) * logp) / denom
        total += term
        magsum += abs(term)
    return WhittakerValue(
        ComplexValue(total, 1e-13 * magsum * len(elements) ** 0.5), "casselman_shalika"
    )


def whittaker_sl2_arch(nu: complex, y: float) -> WhittakerValue:
    """Canonical archimedean SL(2) value 2*sqrt(y)*K_nu(2*pi*y)."""
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    k = bessel_k(nu, 2.0 * math.pi * y)
    scale = 2.0 * math.sqrt(y)
    return WhittakerValue(ComplexValue(scale * k.value, scale * k.abs_err), "bessel_closed_form")


# ---------------------------------------------------------------------------
# SL(2) Jacquet integral by direct oscillatory quadrature
# ---------------------------------------------------------------------------

# 16-point Gauss-Legendre rule on [-1, 1], the values of numpy's
# leggauss(16): (node, weight) for the positive nodes; the rule is symmetric.
_GL_HALF = (
    (0.09501250983763744, 0.18945061045506864),
    (0.2816035507792589, 0.18260341504492364),
    (0.45801677765722737, 0.16915651939500265),
    (0.6178762444026438, 0.1495959888165767),
    (0.755404408355003, 0.12462897125553407),
    (0.8656312023878318, 0.0951585116824926),
    (0.9445750230732326, 0.062253523938647456),
    (0.9894009349916499, 0.027152459411754176),
)
# ascending nodes, in leggauss order
_GL_RULE = tuple((-x, w) for x, w in reversed(_GL_HALF)) + _GL_HALF


def _gl_panel(f: Callable[[float], complex], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return half * sum(w * f(mid + half * x) for x, w in _GL_RULE)


def jacquet_sl2_quadrature(
    nu: complex, y: float, tol: float = 1e-8, panels: int = 96
) -> WhittakerValue:
    """Direct evaluation of the SL(2) Jacquet integral

        int_R (y / (x^2 + y^2))^(1/2 + nu) e^(-2 pi i x) dx,

    absolutely convergent for Re nu > 0.  The even integrand is integrated
    per half-period of the oscillation and the alternating tail is summed
    with repeated averaging (van Wijngaarden condensation), giving absolute
    accuracy well below the 1e-8 target on the contract range.
    """
    nu = complex(nu)
    if nu.real <= 0:
        raise ValueError(f"quadrature requires Re nu > 0, got {nu}")
    if y <= 0:
        raise ValueError(f"y must be positive, got {y}")
    sigma = 0.5 + nu

    def g(x: float) -> complex:
        return cmath.exp(sigma * math.log(y / (x * x + y * y)))

    def f(x: float) -> complex:
        return g(x) * math.cos(2.0 * math.pi * x)

    head = _gl_panel(f, 0.0, 0.25)
    terms = []
    for m in range(panels):
        a = 0.25 + 0.5 * m
        terms.append(_gl_panel(f, a, a + 0.5))
    partial = []
    acc = head
    for t in terms:
        acc += t
        partial.append(acc)
    # repeated pairwise averaging of the partial sums of the alternating tail
    row = partial
    last_delta = math.inf
    while len(row) > 1:
        nxt = [0.5 * (row[i] + row[i + 1]) for i in range(len(row) - 1)]
        last_delta = abs(nxt[-1] - row[-1])
        row = nxt
    value = 2.0 * row[0]
    err = 2.0 * last_delta + 1e-12
    if err > tol:
        raise ConvergenceFailure(err, tol)
    return WhittakerValue(ComplexValue(value, err), "quadrature")


def jacquet_sl2_closed_form(nu: complex, y: float) -> ComplexValue:
    """2 pi^(nu+1/2) sqrt(y) K_nu(2 pi y) / Gamma(nu + 1/2)."""
    k = bessel_k(nu, 2.0 * math.pi * y)
    pref = 2.0 * cmath.exp((nu + 0.5) * math.log(math.pi)) * math.sqrt(y)
    gden = gamma(nu + 0.5)
    val = pref * k.value / gden.value
    err = abs(val) * (k.abs_err / max(abs(k.value), 1e-300) + 1e-12)
    return ComplexValue(val, err)


# ---------------------------------------------------------------------------
# Leading asymptotics of the canonical archimedean Whittaker function
# ---------------------------------------------------------------------------


def leading_asymptotics(
    lam: Sequence[complex],
    rs: RootSystem,
    H: Sequence,
    t: float,
    cap: int = 10**6,
) -> ComplexValue:
    """Leading-term model in the negative chamber:

        sum_w exp(-t (w lam + rho)(H)) prod_{alpha>0} Gamma_R(-<w lam, alpha^vee>).

    ``H`` is a dominant cocharacter given by its pairings with the simple
    roots (rational coweight exponents).  This is a model of the true
    function, not a full archimedean evaluation.
    """
    point = TorusPoint.from_coweights(rs, [Q(x) for x in H])
    elements = enumerate_weyl(rs, cap)
    total = complex(0.0)
    magsum = 0.0
    for w in elements:
        wlam = w.apply_weight_numeric(lam)
        prod = complex(1.0)
        for alpha in rs.positive_roots:
            z = -pair_numeric(wlam, alpha, rs)
            half = z / 2.0
            r = round(half.real)
            if abs(half.imag) < 1e-9 and r <= 0 and abs(half.real - r) < 1e-9:
                raise SingularParameter(
                    f"Gamma_R pole at <w lam, alpha^vee> = {-z} for w={w.word}"
                )
            prod *= gamma_r(z).value
        shifted = tuple(c + 1.0 for c in wlam)
        term = cmath.exp(-t * point.pair_weight(shifted)) * prod
        total += term
        magsum += abs(term)
    return ComplexValue(total, 1e-11 * magsum)
