"""numeric: special functions, archimedean Whittaker values and Hecke sums.

One pass holds, at fresh seeded points:

* ``zeta``, ``zeta_star``, ``gamma`` and ``c_factor``, 4 points each in
  three regions: the critical strip up to |Im s| = 50; Re s < 0 with
  |Im s| >= 0.5 (clear of the real poles); and the Euler-Maclaurin branch,
  within 0.07 of s = 1 (but not within 1e-3) or of 1 + 2 pi i k / log 2;
* ``bessel_k`` on its double path, 12 points: 6 with |Im nu| <= 1 and
  0.05 <= x <= 50, 6 with 1 < |Im nu| <= 4 and |Im nu| <= x <= 50 (x
  log-uniform, |Re nu| <= 2); the oscillatory range x < |Im nu| of this
  path is left out, because its claimed abs_err does not always hold there;
* ``bessel_k`` on its extended-precision path (4 < |Im nu| <= 12,
  x < |Im nu|), one point in each of four cost strata, so each pass costs
  about the same: two with |Im nu| in [4, 8], x/|Im nu| in [0.1, 0.99];
  one with |Im nu| in [8, 12], x/|Im nu| in [0.5, 0.99]; one with
  |Im nu| in [10.5, 12], x/|Im nu| in [0.004, 0.08];
* ``whittaker_sl2_arch`` and ``jacquet_sl2_quadrature``, 8 points each
  with Re nu in [0.2, 2], y in [0.5, 5], and |Im nu| <= 3 for the
  former (so 2 pi y > |Im nu|), |Im nu| <= 4 for the latter;
* ``borel_eigenvalue``, 3 points for each n = 2..5 with m <= 10^5;
* ``normalization_factor`` at a prime and at infinity on A1, A2, B2 and
  G2, with Re <lambda, alpha_i^vee> in [0.05, 0.4], clear of every pole;
* the three Jacquet small-y points of the named failure set.
"""

from __future__ import annotations

import cmath
import math

from . import Op, digits, no_check, rng_for

IN_PROCESS = True
PER_REGION = 4
ZETA_FAMILY = ("zeta", "zeta_star", "gamma", "c_factor")
REGIONS = ("strip", "negative", "euler_maclaurin")
NORM_TYPES = ("A1", "A2", "B2", "G2")
MP_STRATA = ((4.0, 8.0, 0.1, 0.99), (4.0, 8.0, 0.1, 0.99), (8.0, 12.0, 0.5, 0.99), (10.5, 12.0, 0.004, 0.08))
# jacquet_sl2_quadrature for y <= 0.1: the claimed abs_err 1e-12 is off by
# 6.6e-8, 3.7e-10 and 5.9e-4 at these points.
JACQUET_SMALL_Y = ((1.0, 0.05), (2.0, 0.1), (2 - 4.3j, 0.05))
run_checks = no_check


def setup(E, seed):
    return {t: E.build_root_system(t) for t in NORM_TYPES}


def _point(rng, region):
    if region == "strip":
        return complex(rng.uniform(0.02, 0.98), rng.uniform(-50.0, 50.0))
    if region == "negative":
        return complex(rng.uniform(-6.0, -0.05), rng.choice((-1, 1)) * rng.uniform(0.5, 50.0))
    k = rng.choice((0, 0, 0, 0, 0, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    r = rng.uniform(1e-3, 0.07) if k == 0 else rng.uniform(0.0, 0.07)
    return 1 + 2j * math.pi * k / math.log(2) + r * cmath.exp(1j * rng.uniform(0, 2 * math.pi))


def _nu(rng, re_lo, re_hi, im):
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(-im, im))


def make_pass(state, seed, k):
    rng = rng_for(seed, k, "numeric")
    ops = []
    for fn in ZETA_FAMILY:
        for region in REGIONS:
            ops += [Op(fn, (_point(rng, region),)) for _ in range(PER_REGION)]
    for i in range(12):
        tau = rng.uniform(0.0, 1.0) if i % 2 else rng.uniform(1.0, 4.0)
        nu = complex(rng.uniform(-2, 2), rng.choice((-1, 1)) * tau)
        x_lo = 0.05 if i % 2 else tau
        ops.append(Op("bessel_k", (nu, math.exp(rng.uniform(math.log(x_lo), math.log(50))))))
    for lo, hi, flo, fhi in MP_STRATA:
        tau = rng.uniform(lo, hi)
        nu = complex(rng.uniform(-1, 1), rng.choice((-1, 1)) * tau)
        ops.append(Op("bessel_k", (nu, tau * rng.uniform(flo, fhi))))
    ops += [Op("whittaker_sl2_arch", (_nu(rng, 0.2, 2, 3), rng.uniform(0.5, 5))) for _ in range(8)]
    ops += [Op("jacquet_sl2_quadrature", (_nu(rng, 0.2, 2, 4), rng.uniform(0.5, 5))) for _ in range(8)]
    for n in range(2, 6):
        for _ in range(3):
            alpha = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-2, 2)) for _ in range(n - 1)]
            ops.append(Op("borel_eigenvalue", (n, tuple(alpha + [-sum(alpha)]), rng.randint(1, 10**5))))
    for t in NORM_TYPES:
        lam = tuple(complex(rng.uniform(0.05, 0.4), rng.uniform(-2, 2)) for _ in range(int(t[1:])))
        ops.append(Op("normalization_factor", (rng.choice((2, 3, 5, 7)), lam, t)))
        ops.append(Op("normalization_factor", ("infty", lam, t)))
    ops += [Op("jacquet_sl2_quadrature", pt, named=True) for pt in JACQUET_SMALL_Y]
    return ops


def warmup(state, seed):
    rng = rng_for(seed, -1, "numeric-warmup")
    return [Op(fn, (_point(rng, "strip"),)) for fn in ZETA_FAMILY] + [
        Op("bessel_k", (_nu(rng, -2, 2, 4), 1.0)),
        Op("bessel_k", (complex(0.1, 5.0), 4.0)),
        Op("whittaker_sl2_arch", (0.5, 1.0)),
        Op("jacquet_sl2_quadrature", (0.5, 1.0)),
        Op("borel_eigenvalue", (2, (0.5j, -0.5j), 12)),
        Op("normalization_factor", (3, (0.2 + 1j,), "A1")),
    ]


def run(E, state, op):
    if op.kind == "normalization_factor":
        place, lam, t = op.args
        return E.normalization_factor(place, lam, state[t])
    out = getattr(E, op.kind)(*op.args)
    return out.value if hasattr(out, "method") else out


def digest(state, op, out):
    if op.kind == "borel_eigenvalue":
        return out, None
    return complex(out.value), float(out.abs_err)


def check(state, op, out):
    from oracles import mp

    got, claimed = out
    kind, args = op.kind, op.args
    if kind in ZETA_FAMILY or kind == "bessel_k":
        ref, scale = getattr(mp, kind)(*args)
    elif kind == "whittaker_sl2_arch":
        ref, scale = mp.whittaker_sl2(*args)
    elif kind == "jacquet_sl2_quadrature":
        ref, scale = mp.jacquet_sl2(*args)
    elif kind == "borel_eigenvalue":
        ref, scale = mp.borel_eigenvalue(args[1], args[2])
        claimed = 1e-12 * scale  # no claim of its own; divisor sums of this size hold 12 digits
    else:
        place, lam, t = args
        ref, scale = mp.normalization_factor(place, lam, t)
    err = abs(got - ref)
    if err > claimed:
        return False, None, f"error {err:.3g} exceeds claimed abs_err {claimed:.3g}"
    return True, digits(err, scale), ""
