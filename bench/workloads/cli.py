"""cli: cold-start ``python -m eiscoeff.cli`` runs, one at a time.

One pass runs one command per subcommand, ``first-coeff`` twice (the A2
Borel and E8 with Levi E7), in a fixed order.  ``params``, ``hecke``,
``whittaker-p``, ``whittaker-sl2`` and ``zeta`` take fresh seeded
arguments in every pass; the others are the paper's fixed examples.  Every
operation pays interpreter start and ``import eiscoeff``, so nothing
carries over between operations.

Printed numbers carry 12 significant digits, and components below 1e-13
print as 0, so each numeric command is checked to 1e-11 relative plus
1e-13 absolute.  ``whittaker-sl2`` keeps y <= 2, where the value is at
least about 1e-6 and keeps its digits when printed.
"""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction as Q

from . import Op, digits, no_check, rng_for
from checkout import ROOT, engine_env
from oracles import formulas, lie

IN_PROCESS = False
TIMEOUT_S = 120
REL_TOL, ABS_TOL = 1e-11, 1e-13
MARGIN = 0.1
run_checks = no_check


def setup(E, seed):
    return {"env": engine_env(), "cwd": str(ROOT)}


def _cnum(z: complex) -> str:
    return f"{z.real!r}{z.imag:+.17g}i"


def _decimal_pair(rng):
    """A complex number with three decimals in each part, as integers over 1000."""
    return rng.randint(-400, 400), rng.randint(-2000, 2000)


def make_pass(state, seed, k):
    rng = rng_for(seed, k, "cli")
    n = rng.randint(3, 6)
    parts = [_decimal_pair(rng) for _ in range(2)]
    parts.append((-sum(p[0] for p in parts), -sum(p[1] for p in parts)))  # sums to zero exactly
    alpha = ",".join(f"{re / 1000}{im / 1000:+}i" for re, im in parts)
    m = rng.randint(1, 10**5)
    while True:
        p = rng.choice((2, 3, 5, 7))
        nus = (complex(rng.uniform(-0.3, 0.3), rng.uniform(-1.5, 1.5)),
               complex(rng.uniform(-0.3, 0.3), rng.uniform(-1.5, 1.5)))
        lam = (2 * nus[0] - nus[1], 2 * nus[1] - nus[0])
        period = 2 * math.pi / math.log(p)
        if all(abs(z - 1j * period * round(z.imag / period)) >= MARGIN
               for z in (lam[0], lam[1], lam[0] + lam[1])):
            break
    cochar = (rng.randint(0, 3), rng.randint(0, 3))
    nu = complex(rng.uniform(0.0, 2.0), rng.uniform(-4.0, 4.0))
    y = rng.uniform(0.5, 2.0)
    s = complex(rng.uniform(0.02, 0.98), rng.uniform(-10.0, 10.0))
    return [
        Op("first-coeff", ("first-coeff", "--type", "A2", "--levi", "")),
        Op("first-coeff", ("first-coeff", "--type", "E8", "--levi-nodes", "1,2,3,4,5,6,7")),
        Op("constant-term", ("constant-term", "--type", "A3")),
        Op("params", ("params", "--gln", str(n))),
        Op("hecke", ("hecke", "--gln", "3", f"--alpha={alpha}", "--m", str(m))),
        Op("whittaker-p", ("whittaker-p", "--type", "A2", "--p", str(p),
                           f"--nu={','.join(_cnum(z) for z in nus)}",
                           "--cochar", f"{cochar[0]},{cochar[1]}")),
        Op("whittaker-sl2", ("whittaker-sl2", f"--nu={_cnum(nu)}", "--y", repr(y))),
        Op("zeta", ("zeta", _cnum(s), "--completed")),
        Op("verify", ("verify", "--suite", "paper")),
    ]


def warmup(state, seed):
    return [Op("zeta", ("zeta", "2"))]


def run(E, state, op):
    proc = subprocess.run(
        [sys.executable, "-m", "eiscoeff.cli", *op.args],
        env=state["env"], cwd=state["cwd"], capture_output=True, text=True, timeout=TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def digest(state, op, out):
    return out


def _flag(args, name):
    for i, a in enumerate(args):
        if a == name:
            return args[i + 1]
        if a.startswith(name + "="):
            return a.split("=", 1)[1]
    raise KeyError(name)


def _numeric(got_text, ref, scale):
    got = formulas.parse_complex(got_text)
    err = abs(got - ref)
    if err > REL_TOL * scale + ABS_TOL:
        return False, None, f"printed {got_text}, reference {ref}"
    return True, digits(err, scale), ""


def _combine(a, b, sign):
    keys = set(a) | set(b)
    out = {key: a.get(key, Q(0)) + sign * b.get(key, Q(0)) for key in keys}
    return {key: c for key, c in out.items() if c}


def _params_ok(alpha, n):
    """GL(n) Langlands parameters of s_i = v_i + 1/n: they sum to 0 and a_i - a_(i+1) = n v_i."""
    total: dict[str, Q] = {}
    for a in alpha:
        total = _combine(total, a, 1)
    return len(alpha) == n and not total and all(
        _combine(alpha[i], alpha[i + 1], -1) == {f"v{i + 1}": n} for i in range(n - 1)
    )


def check(state, op, out):
    from oracles import mp

    code, stdout, stderr = out
    if code != 0:
        return False, None, f"exit code {code}: {stderr.strip()[-200:]}"
    args, text = op.args, stdout.strip()
    if op.kind == "first-coeff":
        want = formulas.gl_borel_alpha(3) if args[2] == "A2" else formulas.PAPER_GROUPED[
            ("E8", frozenset(range(1, 8)))]
        ok = formulas.text_factors(text) == want
        return ok, None, "" if ok else f"formula {text}"
    if op.kind == "constant-term":
        lines = formulas.constant_term_lines(text)
        words = [w for w, _ in lines]
        ok = (
            len(set(words)) == lie.weyl_order("A3")
            and sorted(len(w) for w in words) == sorted(
                ell for ell, c in enumerate(lie.poincare("A3")) for _ in range(c))
            and all(count == len(w) for w, count in lines)
        )
        return ok, None, "" if ok else "constant term terms or c-factor counts wrong"
    if op.kind == "params":
        ok = _params_ok([formulas.parse_linear_form(a) for a in text.strip("()").split(", ")],
                        int(args[2]))
        return ok, None, "" if ok else f"parameters {text} fail sum 0 or a_i - a_(i+1) = n v_i"
    if op.kind == "hecke":
        alpha = [formulas.parse_complex(a) for a in _flag(args, "--alpha").split(",")]
        ref, scale = mp.borel_eigenvalue(alpha, int(_flag(args, "--m")))
        return _numeric(text, ref, scale)
    if op.kind == "whittaker-p":
        nus = [formulas.parse_complex(a) for a in _flag(args, "--nu").split(",")]
        C = lie.cartan("A2")
        lam = tuple(sum(nus[i] * C[i][j] for i in range(2)) for j in range(2))
        k = tuple(int(x) for x in _flag(args, "--cochar").split(","))
        p = int(_flag(args, "--p"))
        _, scale = mp.padic_weyl_sum(p, lam, k, "A2")
        return _numeric(text, mp.padic_schur(p, lam, k), scale)
    if op.kind == "whittaker-sl2":
        ref, scale = mp.whittaker_sl2(formulas.parse_complex(_flag(args, "--nu")), float(_flag(args, "--y")))
        return _numeric(text, ref, scale)
    if op.kind == "zeta":
        ref, scale = mp.zeta_star(formulas.parse_complex(args[1]))
        return _numeric(text, ref, scale)
    lines = text.splitlines()
    ok = lines and all(ln.startswith("ok ") for ln in lines[:-1]) and lines[-1] == (
        f"{len(lines) - 1}/{len(lines) - 1} checks passed")
    return bool(ok), None, "" if ok else "verify reported a failure"
