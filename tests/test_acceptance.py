"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""

import math
import random
import time
from fractions import Fraction as Q
from pathlib import Path

from eiscoeff.cli import run as cli_run
from eiscoeff.hecke import borel_eigenvalue
from eiscoeff.roots import build_root_system, enumerate_weyl
from eiscoeff.specfun import bessel_k, c_factor, gamma_r, zeta_star
from eiscoeff.verifysuite import PROPERTY_TYPES, _cases_hold, _weyl_denominator_holds
from eiscoeff.whittaker import (
    TorusPoint,
    jacquet_sl2_closed_form,
    jacquet_sl2_quadrature,
    whittaker_padic,
    whittaker_sl2_arch,
)

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, description: str, ok: bool):
    print(f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_sl3_borel_golden(capsys):
    t0 = time.perf_counter()
    code = cli_run(["first-coeff", "--type", "A2", "--levi", "", "--format", "latex"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (
        code == 0
        and out == (GOLDEN / "borel_a2_latex.txt").read_text()
        and elapsed < 0.1
    )
    with capsys.disabled():
        _report(1, f"SL(3) Borel byte-exact golden ({elapsed*1e3:.0f} ms)", ok)


def test_criterion_2_sl3_21_parabolic(capsys):
    ok = _cases_hold(
        "SL(3) maximal parabolic grouped L*(s+1, pi)",
        "SL(3) (2,1) classical grouped L*(1+3z1, phi)",
        "petersson appends L*(1, Ad)^(-1/2)",
        "SL(3) (2,1) classical flat arguments {1+3z1±v}",
    )
    with capsys.disabled():
        _report(2, "SL(3) (2,1): grouped, petersson factor, flat multiset", ok)


def test_criterion_3_sl4_tables(capsys):
    t0 = time.perf_counter()
    ok = _cases_hold(
        "SL(4) Borel grouped: six zeta* factors",
        "SL(4) (2,1,1) grouped",
        "SL(4) (2,2) grouped",
        "SL(4) (3,1) grouped",
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        _report(3, f"SL(4) table: all four partitions ({elapsed*1e3:.0f} ms)", ok)


def test_criterion_4_exceptional(capsys):
    t0 = time.perf_counter()
    ok = _cases_hold(
        "E8/E7 orbit sizes {56, 1}",
        "E8/E7 grading levels {1: 56, 2: 1}",
        "E8/E7 formula L*(s+1, pi, 56) zeta*(2s+1)",
        "E8/D7 orbit sizes {64, 14}",
        "E8/D7 formula L*(s+1, pi, Spin) L*(2s+1, pi, Stan)",
    )
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    with capsys.disabled():
        _report(4, f"E8/E7 and E8/D7 orbits and formulas ({elapsed:.2f} s)", ok)


def test_criterion_5_pairing_vectors(capsys):
    ok = _cases_hold(
        "Borel SL(3) pairings (s1, s2, s1+s2)",
        "(2,1) pairings (s-it, s+it)",
        "(2,2) pairings s±it'±it''",
        "(2,1,1) pairings",
        "(3,1) pairings with t2 = -t1-t3 applied",
    )
    with capsys.disabled():
        _report(5, "pairing vectors for Borel, (2,1), (2,2), (2,1,1), (3,1)", ok)


def test_criterion_6_jacquet_quadrature(capsys):
    t0 = time.perf_counter()
    ok = True
    for nu in (0.2, 0.5, 1.0, 1.5):
        for y in (0.5, 1.0, 2.0, 5.0):
            quad = jacquet_sl2_quadrature(nu, y).value.value
            closed = jacquet_sl2_closed_form(nu, y).value
            ok = ok and abs(quad - closed) <= 1e-6
            canon = whittaker_sl2_arch(nu, y).value.value
            ok = ok and abs(quad * gamma_r(2 * nu + 1).value - canon) <= 1e-6
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    with capsys.disabled():
        _report(6, f"Jacquet quadrature vs closed form on 16-point grid ({elapsed:.1f} s)", ok)


def test_criterion_7_casselman_shalika(capsys):
    rng = random.Random(777)
    ok = True
    for name in ("A1", "A2", "A3"):
        rs = build_root_system(name)
        elements = enumerate_weyl(rs, 10**4)
        for p in (2, 3, 5):
            for _ in range(20):
                lam = tuple(
                    complex(rng.uniform(-0.2, 0.2), rng.uniform(0.4, 2.2))
                    for _ in range(rs.rank)
                )
                e = TorusPoint.from_coweights(rs, [0] * rs.rank)
                ok = ok and abs(whittaker_padic(p, lam, e, rs).value.value - 1.0) < 1e-12
                a = TorusPoint.from_coweights(rs, [rng.randint(0, 2) for _ in range(rs.rank)])
                base = whittaker_padic(p, lam, a, rs).value.value
                for w in elements:
                    moved = whittaker_padic(p, w.apply_weight_numeric(lam), a, rs).value.value
                    ok = ok and abs(moved - base) <= 1e-10 * max(1.0, abs(base))
    nu = 0.19 + 0.113j
    p = 5
    rs1 = build_root_system("A1")
    for k in range(11):
        got = whittaker_padic(p, (2 * nu,), TorusPoint.from_coweights(rs1, [k]), rs1).value.value
        oracle = p ** (-k / 2) * sum(p ** (nu * (k - 2 * j)) for j in range(k + 1))
        ok = ok and abs(got - oracle) <= 1e-10 * abs(oracle)
    with capsys.disabled():
        _report(7, "Casselman-Shalika: W(e)=1, Weyl invariance, GL(2) oracle", ok)


def test_criterion_8_special_functions(capsys):
    rng = random.Random(88)
    ok = True
    count = 0
    while count < 100:
        w = complex(0.5 + rng.uniform(-3, 3), rng.uniform(-30, 30))
        if min(abs(w), abs(w - 1), abs(w + 1), abs(w - 2)) < 0.05:
            continue
        count += 1
        a = zeta_star(w).value
        ok = ok and abs(a - zeta_star(1 - w).value) <= 1e-9 * max(1.0, abs(a))
        s = w - 0.5  # centred variant for the c-factor pair
        if min(abs(s), abs(s - 1), abs(s + 1)) > 0.05:
            ok = ok and abs(c_factor(s).value * c_factor(-s).value - 1.0) <= 1e-9
    ok = ok and abs(zeta_star(2).value - math.pi / 6) <= 1e-12
    kv = bessel_k(0.7j, 2.0).value
    ok = ok and abs(kv - bessel_k(-0.7j, 2.0).value) <= 1e-11 * max(1.0, abs(kv))
    with capsys.disabled():
        _report(8, "zeta* functional equation, c(s)c(-s)=1, zeta*(2), K symmetry", ok)


def test_criterion_9_structural_identities(capsys):
    ok = _cases_hold(
        *(f"{name}: sum of positive roots = 2 rho; coroot duality" for name in PROPERTY_TYPES),
        "Levi cancellation identity on 10 parabolic configurations",
    )
    ok = ok and all(
        _weyl_denominator_holds(name, eps)
        for name in ("A1", "A2", "A3", "A4", "D4")
        for eps in (Q(1, 100), Q(1, 10), Q(1))
    )
    with capsys.disabled():
        _report(9, "2rho identity, duality, Weyl denominator, Levi cancellation x10", ok)


def test_criterion_10_hecke(capsys):
    rng = random.Random(1010)
    ok = True
    for n in (2, 3, 4):
        parts = [complex(rng.uniform(-0.3, 0.3), rng.uniform(-1.2, 1.2)) for _ in range(n - 1)]
        alpha = tuple(parts) + (-sum(parts),)
        for a, b in ((16, 625), (8, 1215), (32, 243), (49, 100), (97, 101)):
            if a * b > 10**4 or math.gcd(a, b) != 1:
                continue
            lhs = borel_eigenvalue(n, alpha, a * b)
            rhs = borel_eigenvalue(n, alpha, a) * borel_eigenvalue(n, alpha, b)
            ok = ok and abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    rs1 = build_root_system("A1")
    for p in (2, 3, 5, 7, 11):
        nu = complex(rng.uniform(-0.2, 0.2), rng.uniform(0.3, 1.7))
        w = whittaker_padic(p, (2 * nu,), TorusPoint.from_coweights(rs1, [1]), rs1).value.value
        direct = borel_eigenvalue(2, (nu, -nu), p)
        ok = ok and abs(p**0.5 * w - direct) <= 1e-10 * max(1.0, abs(direct))
    with capsys.disabled():
        _report(10, "Hecke multiplicativity to 1e-10 and GL(2) Whittaker cross-check", ok)
