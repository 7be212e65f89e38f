import math
import random

import mpmath
import pytest

from eiscoeff import specfun
from eiscoeff.errors import ConvergenceFailure, PoleAt
from eiscoeff.specfun import (
    bessel_k,
    c_factor,
    gamma,
    gamma_r,
    local_zeta,
    zeta,
    zeta_star,
)

# frozen oracle values (30-digit independent multiprecision evaluation)
GAMMA_HALF_14I = complex(-1.44597629011760664962900239398e-10, -5.52290992555532575351554112584e-10)
ZETA_3 = 1.20205690315959428539973816151
ZETA_HALF_30I = complex(-0.120642287590043699914021147312, -0.583691214763706288757635825664)
ZETA_NEG = complex(4.26359028888919447803657050484, 1.45981661991756281289958517316)
ZETA_NEAR_ETA_ZERO_S = complex(1.0, 9.064720283654388)
ZETA_NEAR_ETA_ZERO = complex(1.346579542836317103742611208745, 0.109883136796269500792800382722)
GAMMA_12 = complex(7754835.64999160180280698872969, 35229566.3416054650976302738928)
GAMMA_NEG = complex(-0.000611908720383720446666940743215, 0.000346636306490024127824231940344)
K0_1 = 0.421024438240708333335627379213
K_07I_2 = 0.102844265619352608445378644621
K_25_10 = 2.39313258646278888787941199533e-5


def rel_err(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_gamma_basic():
    assert rel_err(gamma(1).value, 1.0) < 1e-13
    assert rel_err(gamma(0.5).value, math.sqrt(math.pi)) < 1e-13
    assert rel_err(gamma(10).value, math.factorial(9)) < 1e-13


def test_gamma_complex_oracle():
    assert rel_err(gamma(complex(0.5, 14.1347)).value, GAMMA_HALF_14I) < 1e-10
    assert rel_err(gamma(complex(12.3, -4.5)).value, GAMMA_12) < 1e-12
    assert rel_err(gamma(complex(-3.7, 2.2)).value, GAMMA_NEG) < 1e-12


def test_gamma_poles():
    for z in (0, -1, -5):
        with pytest.raises(PoleAt):
            gamma(z)


def test_gamma_recurrence_random():
    rng = random.Random(1)
    for _ in range(50):
        z = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        if abs(z.imag) < 0.2:
            z += 0.5j
        g1 = gamma(z + 1).value
        g0 = gamma(z).value
        assert rel_err(g1, z * g0) < 1e-11


def test_zeta_known_values():
    assert rel_err(zeta(2).value, math.pi**2 / 6) < 1e-12
    assert abs(zeta(0).value + 0.5) < 1e-12
    assert rel_err(zeta(3).value, ZETA_3) < 1e-12
    assert rel_err(zeta(complex(0.5, 30)).value, ZETA_HALF_30I) < 1e-10
    assert rel_err(zeta(complex(-2.5, 10)).value, ZETA_NEG) < 1e-10
    assert rel_err(zeta(-1).value, -1.0 / 12) < 1e-11


def test_zeta_near_eta_denominator_zero():
    assert rel_err(zeta(ZETA_NEAR_ETA_ZERO_S).value, ZETA_NEAR_ETA_ZERO) < 1e-9


def test_zeta_pole():
    with pytest.raises(PoleAt):
        zeta(1)


def test_zeta_star_closed_forms():
    assert rel_err(zeta_star(2).value, math.pi / 6) < 1e-12
    assert rel_err(zeta_star(4).value, math.pi**2 / 90) < 1e-12


def test_zeta_star_poles():
    for w in (0, 1):
        with pytest.raises(PoleAt):
            zeta_star(w)


def test_zeta_star_functional_equation_spot():
    w = complex(0.3, 2.0)
    assert abs(zeta_star(w).value - zeta_star(1 - w).value) < 1e-10


def test_zeta_star_functional_equation_strip():
    rng = random.Random(42)
    for _ in range(100):
        w = complex(0.5 + rng.uniform(-3, 3), rng.uniform(-30, 30))
        if abs(w) < 0.05 or abs(w - 1) < 0.05:
            continue
        a = zeta_star(w).value
        b = zeta_star(1 - w).value
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))


def test_local_zeta_p():
    val = local_zeta(2, complex(2, 1)).value
    assert abs(val * (1 - 2 ** -complex(2, 1)) - 1) < 1e-14


def test_gamma_r_at_one():
    assert rel_err(gamma_r(1).value, 1.0) < 1e-13


def test_c_factor_inverse_pair():
    s = complex(0.7, 0.3)
    prod = c_factor(s).value * c_factor(-s).value
    assert abs(prod - 1) < 1e-10


def test_c_factor_inverse_random_strip():
    rng = random.Random(3)
    for _ in range(100):
        s = complex(rng.uniform(-2.5, 2.5), rng.uniform(-25, 25))
        if min(abs(s), abs(s - 1), abs(s + 1)) < 0.1:
            continue
        prod = c_factor(s).value * c_factor(-s).value
        assert abs(prod - 1) <= 1e-9


def test_bessel_half_closed_form():
    x = 1.0
    expect = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert rel_err(bessel_k(0.5, x).value, expect) < 1e-10


def test_bessel_symmetry():
    a = bessel_k(0.7j, 2.0).value
    b = bessel_k(-0.7j, 2.0).value
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_bessel_oracle_values():
    assert rel_err(bessel_k(0.0, 1.0).value, K0_1) < 1e-10
    assert rel_err(bessel_k(0.7j, 2.0).value, K_07I_2) < 1e-10
    assert rel_err(bessel_k(2.5, 10.0).value, K_25_10) < 1e-10


def test_bessel_contract_corners():
    # large orders at the edges of the accuracy contract
    assert rel_err(bessel_k(19.5j, 1.0).value, 1.76520402847840670271288382726e-14) < 1e-10
    assert rel_err(bessel_k(20.0, 0.05).value, 6.68729013800814666878794693199e48) < 1e-10


def test_bessel_mp_path_stops_where_its_precision_runs_out(monkeypatch):
    # |Im nu| > 4, x < |Im nu|: the extended-precision path.  Each integrand
    # value costs one mpmath.exp; tanh-sinh levels 0..L use 2^(L+1) + 1 of them.
    nu, x = 0.06 + 11.26j, 0.413
    with mpmath.workdps(30):
        ref = complex(mpmath.besselk(mpmath.mpc(nu), x))
    calls = [0]
    exp = mpmath.exp

    def counting_exp(z):
        calls[0] += 1
        return exp(z)

    monkeypatch.setattr(mpmath, "exp", counting_exp)
    k = bessel_k(nu, x)
    assert calls[0] <= 2**10 + 1  # level 9; running all 14 levels costs 2^14 + 1
    assert abs(k.value - ref) <= k.abs_err


def test_bessel_mp_path_raises_when_levels_run_out(monkeypatch):
    monkeypatch.setattr(specfun, "_MP_LEVELS", 2)
    with pytest.raises(ConvergenceFailure) as failure:
        bessel_k(0.06 + 11.26j, 0.413)
    assert failure.value.achieved > failure.value.target


def test_bessel_domain_error():
    with pytest.raises(ValueError):
        bessel_k(0.3, -1.0)


def test_bessel_ode_residual():
    # x^2 K'' + x K' - (x^2 + nu^2) K = 0 via central differences
    for nu in (0.3, 1.2 + 0.5j):
        for x in (0.5, 2.0, 7.0):
            h = 1e-4 * x
            k0 = bessel_k(nu, x).value
            kp = bessel_k(nu, x + h).value
            km = bessel_k(nu, x - h).value
            d1 = (kp - km) / (2 * h)
            d2 = (kp - 2 * k0 + km) / (h * h)
            resid = x * x * d2 + x * d1 - (x * x + nu * nu) * k0
            scale = abs(x * x * d2) + abs((x * x + nu * nu) * k0)
            assert abs(resid) / scale < 1e-5
