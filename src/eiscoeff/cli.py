"""Command-line front end.

Subcommands: first-coeff, constant-term, params, hecke, whittaker-p,
whittaker-sl2, zeta, verify.  Exit codes: 0 success, 2 usage error,
3 numeric failure, 4 verification mismatch.  Each subcommand imports the
layers it runs, so a cold start loads only those.
"""

from __future__ import annotations

import argparse
import sys

from .errors import CapExceeded, ConvergenceFailure, EngineError, PoleAt, SingularParameter

USAGE_ERROR, NUMERIC_ERROR, VERIFY_ERROR = 2, 3, 4


def _parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j").replace(" ", ""))


def _parse_int_list(text: str) -> list[int]:
    text = text.strip()
    if not text:
        return []
    return [int(x) for x in text.split(",")]


def _fmt_complex(z: complex, digits: int = 12) -> str:
    # a component is rounding noise only relative to the other one, never absolutely
    scale = max(abs(z.real), abs(z.imag))
    re = 0.0 if abs(z.real) < 1e-13 * scale else z.real
    im = 0.0 if abs(z.imag) < 1e-13 * scale else z.imag
    if im == 0.0:
        return f"{re:.{digits}g}"
    return f"{re:.{digits}g}{im:+.{digits}g}i"


def _gln(args) -> int:
    n = args.gln
    if not (2 <= n <= 12):
        raise argparse.ArgumentTypeError("--gln supports 2 <= n <= 12")
    return n


def _resolve_type(args):
    from .roots import CartanType

    if getattr(args, "gln", None):
        return CartanType("A", _gln(args) - 1)
    if getattr(args, "type", None):
        return CartanType.parse(args.type)
    raise argparse.ArgumentTypeError("one of --type or --gln is required")


def _levi_from_args(args, ctype):
    """Returns (levi simple-root indices, partition when given in A-type shorthand)."""
    from .glcoords import GLPartition

    nodes_arg = getattr(args, "levi_nodes", None)
    levi_arg = getattr(args, "levi", None)
    if nodes_arg is not None:
        return frozenset(_parse_int_list(nodes_arg)), None
    if levi_arg is None or levi_arg.strip() == "":
        return frozenset(), None
    parts = _parse_int_list(levi_arg)
    if ctype.family != "A":
        raise argparse.ArgumentTypeError("--levi partitions apply to type A; use --levi-nodes")
    part = GLPartition(tuple(parts))
    if part.n != ctype.rank + 1:
        raise argparse.ArgumentTypeError(
            f"partition {parts} sums to {part.n}, expected {ctype.rank + 1}"
        )
    nodes = set(range(1, ctype.rank + 1)) - set(part.boundaries())
    return frozenset(nodes), part


def _cmd_first_coeff(args) -> int:
    from .parabolic import build_parabolic
    from .roots import build_root_system
    from .symalg import formula_to_json, render
    from .template import first_coefficient, standard_assignment, to_alpha_coordinates, to_classical

    ctype = _resolve_type(args)
    rs = build_root_system(ctype)
    levi, partition = _levi_from_args(args, ctype)
    parabolic = build_parabolic(rs, levi)
    bases = args.symbols.split(",") if getattr(args, "symbols", None) else None
    assign = standard_assignment(parabolic, spectral_bases=bases)
    formula = first_coefficient(assign, mode=args.mode, normalization=args.normalization)
    coords = args.coords
    if coords == "auto":
        coords = "alpha" if (ctype.family == "A" and parabolic.is_borel) else "root"
    if coords == "alpha":
        if ctype.family != "A" or not parabolic.is_borel:
            raise argparse.ArgumentTypeError("--coords alpha applies to type A Borel series")
        formula = to_alpha_coordinates(formula, ctype.rank + 1)
    elif coords == "classical":
        if partition is None:
            raise argparse.ArgumentTypeError("--coords classical needs --levi <partition>")
        formula = to_classical(formula, assign, partition)
    if args.format == "json":
        extra = {"grouping": "W_L-orbit heuristic"} if args.mode == "grouped" else None
        print(formula_to_json(formula, extra))
    else:
        print(render(formula, args.format))
    return 0


def _cmd_constant_term(args) -> int:
    from .roots import build_root_system
    from .symalg import LinearForm, Symbol, expand_c_factors, render, render_linear_form
    from .template import constant_term

    ctype = _resolve_type(args)
    rs = build_root_system(ctype)
    if rs.rank == 1:
        names = ["nu"]
    else:
        names = [f"nu{i}" for i in range(1, rs.rank + 1)]
    # lambda = sum nu_i alpha_i, given here by its fundamental-weight coordinates
    lam = []
    for j in range(rs.rank):
        form = LinearForm()
        for i, name in enumerate(names):
            c = rs.cartan[i][j]
            if c != 0:
                form = form + LinearForm.build(0, {Symbol(name): c})
        lam.append(form)
    expansion = constant_term(rs, tuple(lam), cap=args.cap)
    for term in expansion.terms:
        coeff = expand_c_factors(term.coefficient) if args.expand_c else term.coefficient
        word = ",".join(str(i) for i in term.weyl.word) or "e"
        expo = ", ".join(render_linear_form(f, args.format) for f in term.exponent)
        print(f"w=[{word}] coeff={render(coeff, args.format)} exponent=({expo})")
    return 0


def _cmd_params(args) -> int:
    from fractions import Fraction as Q

    from .glcoords import GLPartition, alpha_from_s, eisenstein_parameters, rho_P, z_symbols
    from .symalg import LinearForm, Symbol, render_linear_form
    from .template import classical_block_parameters

    ctype = _resolve_type(args)
    n = ctype.rank + 1
    if ctype.family != "A":
        raise argparse.ArgumentTypeError("params applies to type A / GL(n)")
    levi_arg = getattr(args, "levi", None)
    if levi_arg is None or levi_arg.strip() == "" or all(
        p == 1 for p in _parse_int_list(levi_arg)
    ):
        vs = tuple(
            LinearForm.build(Q(1, n), {Symbol(f"v{i}", kind="classical_v"): 1})
            for i in range(1, n)
        )
        params = alpha_from_s(n, vs)
    else:
        part = GLPartition(tuple(_parse_int_list(levi_arg)))
        if part.n != n:
            raise argparse.ArgumentTypeError(f"partition must sum to {n}")
        z = z_symbols(part)
        s_gl = tuple(zi + ri for zi, ri in zip(z, rho_P(part)))
        params = eisenstein_parameters(part, s_gl, classical_block_parameters(part))
    body = ", ".join(render_linear_form(a, args.format) for a in params.alpha)
    print(f"({body})")
    return 0


def _cmd_hecke(args) -> int:
    from .hecke import borel_eigenvalue

    n = _gln(args) if args.gln else _resolve_type(args).rank + 1
    alpha = [_parse_complex(x) for x in args.alpha.split(",")]
    if len(alpha) != n:
        raise argparse.ArgumentTypeError(f"--alpha needs {n} entries")
    print(_fmt_complex(borel_eigenvalue(n, alpha, args.m)))
    return 0


def _cmd_whittaker_p(args) -> int:
    from .roots import build_root_system
    from .whittaker import TorusPoint, whittaker_padic

    ctype = _resolve_type(args)
    rs = build_root_system(ctype)
    nus = [_parse_complex(x) for x in args.nu.split(",")]
    if len(nus) != rs.rank:
        raise argparse.ArgumentTypeError(f"--nu needs {rs.rank} entries")
    # lambda = sum nu_i alpha_i; convert to fundamental-weight coordinates
    lam = tuple(
        sum(nus[i] * rs.cartan[i][j] for i in range(rs.rank)) for j in range(rs.rank)
    )
    k = _parse_int_list(args.cochar)
    if len(k) != rs.rank:
        raise argparse.ArgumentTypeError(f"--cochar needs {rs.rank} entries")
    a = TorusPoint.from_coweights(rs, k)
    val = whittaker_padic(args.p, lam, a, rs, cap=args.cap)
    print(_fmt_complex(val.value.value))
    return 0


def _cmd_whittaker_sl2(args) -> int:
    from .whittaker import whittaker_sl2_arch

    val = whittaker_sl2_arch(_parse_complex(args.nu), args.y)
    print(_fmt_complex(val.value.value))
    return 0


def _cmd_zeta(args) -> int:
    from .specfun import zeta, zeta_star

    s = _parse_complex(args.s)
    val = zeta_star(s) if args.completed else zeta(s)
    print(_fmt_complex(val.value))
    return 0


def _cmd_verify(args) -> int:
    from . import verifysuite

    checks = verifysuite.paper_suite() if args.suite == "paper" else verifysuite.property_suite()
    failures = 0
    for name, ok in checks:
        print(f"{'ok' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else VERIFY_ERROR


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="eiscoeff")
    sub = top.add_subparsers(dest="command", required=True)

    def add_type_flags(p):
        p.add_argument("--type", help="Cartan type, e.g. A3, D4, E8")
        p.add_argument("--gln", type=int, help="GL(n) shorthand for A_{n-1}")

    p = sub.add_parser("first-coeff", help="first Fourier coefficient formula")
    add_type_flags(p)
    p.add_argument("--levi", help='A-type partition, e.g. "2,1"; "" for the Borel')
    p.add_argument("--levi-nodes", help="simple-root indices of the Levi, e.g. 1,3")
    p.add_argument("--mode", choices=("flat", "grouped"), default="grouped")
    p.add_argument("--normalization", choices=("hecke", "petersson"), default="hecke")
    p.add_argument("--coords", choices=("auto", "root", "alpha", "classical"), default="auto")
    p.add_argument("--symbols", help="override spectral base names, one per Levi component")
    p.add_argument("--format", choices=("text", "latex", "json"), default="text")
    p.set_defaults(func=_cmd_first_coeff)

    p = sub.add_parser("constant-term", help="Langlands constant term expansion")
    add_type_flags(p)
    p.add_argument("--cap", type=int, default=10**6)
    p.add_argument("--expand-c", action="store_true", help="expand c(x) to zeta*(x)/zeta*(x+1)")
    p.add_argument("--format", choices=("text", "latex"), default="text")
    p.set_defaults(func=_cmd_constant_term)

    p = sub.add_parser("params", help="Langlands parameters of a GL(n) Eisenstein series")
    add_type_flags(p)
    p.add_argument("--levi", help="partition; omit for the generic spectral point")
    p.add_argument("--format", choices=("text", "latex"), default="text")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("hecke", help="Hecke eigenvalue divisor sum")
    add_type_flags(p)
    p.add_argument("--alpha", required=True, help="comma list of Langlands parameters")
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=_cmd_hecke)

    p = sub.add_parser("whittaker-p", help="p-adic canonical Whittaker value")
    add_type_flags(p)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--nu", required=True, help="comma list: lambda = sum nu_i alpha_i")
    p.add_argument("--cochar", required=True, help="comma list of coweight exponents")
    p.add_argument("--cap", type=int, default=10**6)
    p.set_defaults(func=_cmd_whittaker_p)

    p = sub.add_parser("whittaker-sl2", help="archimedean SL(2) canonical Whittaker value")
    p.add_argument("--nu", required=True)
    p.add_argument("--y", type=float, required=True)
    p.set_defaults(func=_cmd_whittaker_sl2)

    p = sub.add_parser("zeta", help="Riemann zeta / completed zeta value")
    p.add_argument("s", help="complex argument, e.g. 0.5+14.1i")
    p.add_argument("--completed", action="store_true")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("verify", help="run the built-in verification suites")
    p.add_argument("--suite", choices=("paper", "properties"), default="paper")
    p.set_defaults(func=_cmd_verify)

    return top


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (PoleAt, SingularParameter, ConvergenceFailure, CapExceeded) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
