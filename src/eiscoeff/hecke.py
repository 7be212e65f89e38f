"""Hecke eigenvalues of Eisenstein series as explicit divisor sums.

The Borel eigenvalue is the full divisor sum over ordered factorizations
c_1 * ... * c_n = m weighted by c_i^(alpha_i); the parabolic one replaces
blocks by lower-rank eigenvalue callbacks weighted by c_i^(z_i) with
z_i = s_i - rho_P(i).
"""

from __future__ import annotations

import cmath
from math import comb, prod
from typing import TYPE_CHECKING, Callable, Sequence

from .errors import DimensionMismatch

if TYPE_CHECKING:
    from .glcoords import GLPartition

__all__ = [
    "borel_eigenvalue",
    "parabolic_eigenvalue",
    "z_exponents",
]

_MAX_M = 10**6
_MAX_TERMS = 5 * 10**6


def factorize(m: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division (m <= 10^6 in this artifact)."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def _compositions(e: int, parts: int):
    """Weak compositions of e into `parts` ordered slots."""
    if parts == 1:
        yield (e,)
        return
    for first in range(e + 1):
        for rest in _compositions(e - first, parts - 1):
            yield (first,) + rest


def borel_eigenvalue(n: int, alpha: Sequence[complex], m: int) -> complex:
    """sum over c_1*...*c_n = m of c_1^alpha_1 ... c_n^alpha_n.

    Multiplicative in m, so computed prime by prime over compositions of
    each exponent.
    """
    if len(alpha) != n:
        raise DimensionMismatch(f"need {n} parameters, got {len(alpha)}")
    if not (1 <= m <= _MAX_M):
        raise ValueError(f"m must be in 1..{_MAX_M}")
    total = sum(alpha)
    if abs(total) > 1e-12:
        raise ValueError(f"Langlands parameters must sum to zero, got {total}")
    factors = factorize(m)
    count = prod(comb(e + n - 1, n - 1) for _, e in factors)
    if count > _MAX_TERMS:
        raise ValueError(f"divisor expansion of size {count} exceeds the guard")
    result = complex(1.0)
    for p, e in factors:
        logp = cmath.log(p)
        local = complex(0.0)
        for comp in _compositions(e, n):
            local += cmath.exp(logp * sum(ei * ai for ei, ai in zip(comp, alpha)))
        result *= local
    return result


def z_exponents(partition: GLPartition, s: Sequence[complex]) -> tuple[complex, ...]:
    """z_i = s_i - rho_P(i)."""
    from .glcoords import rho_P

    rho = rho_P(partition)
    if len(s) != partition.r:
        raise DimensionMismatch("one s-variable per part")
    return tuple(si - float(ri) for si, ri in zip(s, rho))


def _ordered_factorizations(m: int, r: int):
    if r == 1:
        yield (m,)
        return
    d = 1
    while d * d <= m:
        if m % d == 0:
            for rest in _ordered_factorizations(m // d, r - 1):
                yield (d,) + rest
            if d * d != m:
                for rest in _ordered_factorizations(d, r - 1):
                    yield (m // d,) + rest
        d += 1
    # note: the loop above emits each leading divisor exactly once


def parabolic_eigenvalue(
    partition: GLPartition,
    z: Sequence[complex],
    m: int,
    levi_eigs: Sequence[Callable[[int], complex]],
) -> complex:
    """sum over c_1*...*c_r = m of prod_i lambda_i(c_i) c_i^(z_i).

    ``levi_eigs`` holds one eigenvalue callback per part (the constant 1
    for GL(1) parts); ``z`` are the shifted exponents from z_exponents.
    """
    r = partition.r
    if len(z) != r or len(levi_eigs) != r:
        raise DimensionMismatch("need one exponent and one callback per part")
    if not (1 <= m <= _MAX_M):
        raise ValueError(f"m must be in 1..{_MAX_M}")
    count = prod(comb(e + r - 1, r - 1) for _, e in factorize(m))
    if count > _MAX_TERMS:
        raise ValueError(f"divisor expansion of size {count} exceeds the guard")
    total = complex(0.0)
    for tup in _ordered_factorizations(m, r):
        term = complex(1.0)
        for ci, zi, lam in zip(tup, z, levi_eigs):
            term *= lam(ci) * cmath.exp(cmath.log(ci) * zi)
        total += term
    return total
