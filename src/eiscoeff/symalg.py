"""Exact symbolic layer: linear forms in formal spectral symbols and
canonical products of completed zeta/L factors.

Everything here is immutable and exact (rational coefficients only).
Imaginary combinations such as ``it`` are represented by a rational
coefficient on a Symbol carrying ``imaginary=True``; the ``i`` lives in
the symbol, never in the coefficient.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction as Q
from typing import Iterable, Mapping, Union

__all__ = [
    "Symbol",
    "LinearForm",
    "Factor",
    "FormulaExpression",
    "lf",
    "canonicalize",
    "expand_c_factors",
    "render",
    "parse_formula_json",
    "FORMULA_JSON_SCHEMA",
]

Rational = Union[int, Q]

_NAME_RE = re.compile(r"^([A-Za-z]+)('*)(\d*)$")


def _natural_key(name: str) -> tuple:
    m = _NAME_RE.match(name)
    if not m:
        return (9, name, 0, 0)
    base, primes, digits = m.groups()
    # s- and z-type variables print before spectral symbols, classical v last
    rank = 0 if base[0] in "sz" else (2 if base[0] == "v" else 1)
    return (rank, base, len(primes), int(digits) if digits else -1)


@dataclass(frozen=True)
class Symbol:
    """A formal symbol; ``imaginary=True`` means the symbol stands for i*t (t real)."""

    name: str
    kind: str = field(default="spectral", compare=False)
    imaginary: bool = False

    def sort_key(self) -> tuple:
        # computed once per instance and kept outside the compared fields; the
        # name breaks ties such as t01/t1, so distinct symbols never share a key
        key = self.__dict__.get("_sort_key")
        if key is None:
            key = self.__dict__["_sort_key"] = _natural_key(self.name) + (self.imaginary, self.name)
        return key

    @property
    def is_spectral(self) -> bool:
        return self.kind in ("spectral", "classical_v")


@dataclass(frozen=True)
class LinearForm:
    """constant + sum(coef * symbol), all coefficients exact rationals."""

    constant: Q = Q(0)
    terms: tuple[tuple[Symbol, Q], ...] = ()

    @staticmethod
    def build(constant: Rational = 0, terms: Mapping[Symbol, Rational] | None = None) -> "LinearForm":
        items = []
        for sym, coef in (terms or {}).items():
            c = coef if type(coef) is Q else Q(coef)
            if c != 0:
                items.append((sym, c))
        items.sort(key=lambda t: t[0].sort_key())
        return LinearForm(Q(constant), tuple(items))

    @staticmethod
    def combine(parts: Iterable[tuple["LinearForm", Rational]], constant: Rational = 0) -> "LinearForm":
        """constant + sum(scale * form for form, scale in parts), built once.

        Integral coefficients with integer scales are summed as ints."""
        const = Q(constant)
        acc: dict[Symbol, Rational] = {}
        for form, scale in parts:
            if form.constant:
                const += form.constant * scale
            whole = type(scale) is int
            for sym, coef in form.terms:
                v = coef.numerator * scale if whole and coef.denominator == 1 else coef * scale
                old = acc.get(sym)
                acc[sym] = v if old is None else old + v
        return LinearForm.build(const, acc)

    def as_dict(self) -> dict[Symbol, Q]:
        return dict(self.terms)

    def __add__(self, other: "LinearForm | Rational") -> "LinearForm":
        if isinstance(other, (int, Q)):
            return LinearForm(self.constant + Q(other), self.terms)
        d = self.as_dict()
        for sym, coef in other.terms:
            d[sym] = d.get(sym, Q(0)) + coef
        return LinearForm.build(self.constant + other.constant, d)

    __radd__ = __add__

    def __neg__(self) -> "LinearForm":
        return LinearForm(-self.constant, tuple((s, -c) for s, c in self.terms))

    def __sub__(self, other: "LinearForm | Rational") -> "LinearForm":
        if isinstance(other, (int, Q)):
            return self + (-Q(other))
        return self + (-other)

    def __mul__(self, scalar: Rational) -> "LinearForm":
        c = Q(scalar)
        if c == 0:
            return LinearForm()
        return LinearForm(self.constant * c, tuple((s, k * c) for s, k in self.terms))

    __rmul__ = __mul__

    def has_spectral_symbol(self) -> bool:
        return any(s.is_spectral for s, _ in self.terms)

    def substitute(self, mapping: Mapping[Symbol, "LinearForm"]) -> "LinearForm":
        return LinearForm.combine(
            ((mapping[sym] if sym in mapping else LinearForm(Q(0), ((sym, Q(1)),)), coef)
             for sym, coef in self.terms),
            self.constant,
        )

    def evaluate(self, values: Mapping[str, complex]) -> complex:
        total = complex(self.constant)
        for sym, coef in self.terms:
            v = values[sym.name]
            if sym.imaginary:
                v = 1j * v
            total += complex(coef) * v
        return total

    def _span_key(self) -> tuple[int, int]:
        # difference forms over one indexed family (a1-a3, s2+s3, ...) are
        # graded by index span so factor products print in root-height order
        idxs: list[int] = []
        bases: set[str] = set()
        for sym, _ in self.terms:
            m = _NAME_RE.match(sym.name)
            if not m or not m.group(3):
                return (0, 0)
            bases.add(m.group(1) + m.group(2))
            idxs.append(int(m.group(3)))
        if len(bases) != 1 or not idxs:
            return (0, 0)
        return (max(idxs) - min(idxs), min(idxs))

    def sort_key(self) -> tuple:
        # computed once per instance and kept outside the compared fields, so
        # equality and hashing still see only (constant, terms)
        key = self.__dict__.get("_sort_key")
        if key is None:
            term_key = tuple(s.sort_key() + (c.numerator, c.denominator) for s, c in self.terms)
            key = self._span_key() + (term_key, self.constant.numerator, self.constant.denominator)
            self.__dict__["_sort_key"] = key
        return key

    def __str__(self) -> str:
        return render_linear_form(self, "text")


def lf(constant: Rational = 0, **symbol_coeffs: Rational) -> LinearForm:
    """Convenience builder: lf(1, s2=1, s3=1) -> s2+s3+1 (plain symbols only)."""
    return LinearForm.build(constant, {Symbol(n): c for n, c in symbol_coeffs.items()})


# ---------------------------------------------------------------------------
# Factors and formula expressions
# ---------------------------------------------------------------------------

_KIND_ORDER = {"norm_symbol": 0, "L_star": 1, "zeta_star": 2, "local_zeta": 3, "c": 4}


@dataclass(frozen=True)
class Factor:
    """One completed-zeta/L-type factor with a linear-form argument.

    kind: zeta_star | L_star | local_zeta | norm_symbol | c
    place: None, "infty", or a prime (local_zeta only)
    rep: optional representation label ("pi", "pi'xpi''", "pi,56", "Ad pi", ...)
    exponent: nonzero rational; -1 marks an inverted factor
    """

    kind: str
    argument: LinearForm
    rep: str | None = None
    place: object = None
    exponent: Q = Q(-1)

    def __post_init__(self):
        if self.exponent == 0:
            raise ValueError("factor exponent must be nonzero")
        if self.kind not in _KIND_ORDER:
            raise ValueError(f"unknown factor kind {self.kind!r}")
        if self.kind == "zeta_star" and self.rep is not None:
            raise ValueError("zeta_star factors carry no rep label")

    def key(self) -> tuple:
        return (
            _KIND_ORDER[self.kind],
            self.rep or "",
            self.argument.sort_key(),
            str(self.place) if self.place is not None else "",
        )


@dataclass(frozen=True)
class FormulaExpression:
    """A multiset of factors; equality of formulas is equality of canonical forms."""

    factors: tuple[Factor, ...] = ()
    scalar: str = "exact"  # or "up_to_nonzero_constant"

    def canonical(self) -> "FormulaExpression":
        return canonicalize(self)

    def __mul__(self, other: "FormulaExpression") -> "FormulaExpression":
        scalar = (
            "up_to_nonzero_constant"
            if "up_to_nonzero_constant" in (self.scalar, other.scalar)
            else "exact"
        )
        return FormulaExpression(self.factors + other.factors, scalar)

    def inverse(self) -> "FormulaExpression":
        inv = tuple(
            Factor(f.kind, f.argument, f.rep, f.place, -f.exponent) for f in self.factors
        )
        return FormulaExpression(inv, self.scalar)


def canonicalize(f: FormulaExpression) -> FormulaExpression:
    """Sort and merge factors; drops factors whose exponents cancel. Idempotent."""
    merged: dict[tuple, tuple[Factor, Q]] = {}
    for fac in f.factors:
        k = fac.key()[:2] + (fac.argument.sort_key(), str(fac.place))
        if k in merged:
            base, exp = merged[k]
            merged[k] = (base, exp + fac.exponent)
        else:
            merged[k] = (fac, fac.exponent)
    out = [
        Factor(base.kind, base.argument, base.rep, base.place, exp)
        for base, exp in merged.values()
        if exp != 0
    ]
    out.sort(key=Factor.key)
    return FormulaExpression(tuple(out), f.scalar)


def expand_c_factors(f: FormulaExpression) -> FormulaExpression:
    """Replace every c(x) atom by zeta*(x)/zeta*(x+1)."""
    out: list[Factor] = []
    for fac in f.factors:
        if fac.kind == "c":
            out.append(Factor("zeta_star", fac.argument, None, None, fac.exponent))
            out.append(Factor("zeta_star", fac.argument + 1, None, None, -fac.exponent))
        else:
            out.append(fac)
    return canonicalize(FormulaExpression(tuple(out), f.scalar))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

_LATEX_BASE = {"a": r"\alpha", "alpha": r"\alpha", "nu": r"\nu", "pi": r"\pi", "phi": r"\phi"}


def _frac_str(q: Q) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _symbol_text(sym: Symbol) -> str:
    return ("i" + sym.name) if sym.imaginary else sym.name


def _symbol_latex(sym: Symbol) -> str:
    m = _NAME_RE.match(sym.name)
    if m:
        base, primes, digits = m.groups()
        base = _LATEX_BASE.get(base, base)
        s = base + primes + (f"_{digits}" if digits else "")
    else:
        s = sym.name
    return ("i" + s) if sym.imaginary else s


def render_linear_form(form: LinearForm, fmt: str = "text") -> str:
    """text puts the constant last (s2+s3+1); latex puts it first (1+s_2+s_3)."""
    symf = _symbol_latex if fmt == "latex" else _symbol_text
    pieces: list[tuple[bool, str]] = []  # (negative, magnitude-string)
    for sym, coef in form.terms:
        mag = abs(coef)
        body = ("" if mag == 1 else _frac_str(mag)) + symf(sym)
        pieces.append((coef < 0, body))
    const_piece = None
    if form.constant != 0 or not form.terms:
        const_piece = (form.constant < 0, _frac_str(abs(form.constant)))
    if fmt == "latex" and const_piece is not None:
        pieces.insert(0, const_piece)
    elif const_piece is not None:
        pieces.append(const_piece)
    out = ""
    for i, (neg, body) in enumerate(pieces):
        if i == 0:
            out += ("-" if neg else "") + body
        else:
            out += ("-" if neg else "+") + body
    return out


def _exponent_text(e: Q) -> str:
    return "" if e == 1 else "^" + _frac_str(e)


def _factor_name(fac: Factor, fmt: str) -> str:
    if fac.kind == "zeta_star":
        return "ζ*" if fmt == "text" else r"\zeta^*"
    if fac.kind in ("L_star", "norm_symbol"):
        return "L*" if fmt == "text" else r"L^*"
    if fac.kind == "local_zeta":
        tag = "∞" if fac.place == "infty" else str(fac.place)
        return f"ζ_{tag}" if fmt == "text" else r"\zeta_{" + tag + "}"
    return "c"


def _rep_latex(rep: str) -> str:
    out = rep.replace("π", r"\pi").replace("φ", r"\phi").replace("×", r"\times ")
    return out


def _factor_body(fac: Factor, fmt: str) -> str:
    arg = render_linear_form(fac.argument, fmt)
    rep = ""
    if fac.rep is not None:
        rep = "," + (_rep_latex(fac.rep) if fmt == "latex" else fac.rep)
    return _factor_name(fac, fmt) + "(" + arg + rep + ")"


def render(f: FormulaExpression, fmt: str = "text") -> str:
    """Deterministic rendering of a canonical formula in text, latex, or json."""
    f = canonicalize(f)
    if fmt == "json":
        return formula_to_json(f)
    if not f.factors:
        return "1"
    if fmt == "latex":
        exps = {fac.exponent for fac in f.factors}
        if len(f.factors) > 1 and len(exps) == 1 and f.factors[0].exponent != 1:
            inner = "".join(_factor_body(fac, "latex") for fac in f.factors)
            e = f.factors[0].exponent
            return r"\left(" + inner + r"\right)^{" + _frac_str(e) + "}"
        parts = []
        for fac in f.factors:
            body = _factor_body(fac, "latex")
            if fac.exponent != 1:
                body += "^{" + _frac_str(fac.exponent) + "}"
            parts.append(body)
        return "".join(parts)
    parts = [_factor_body(fac, "text") + _exponent_text(fac.exponent) for fac in f.factors]
    return " · ".join(parts)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

FORMULA_JSON_SCHEMA = {
    "type": "object",
    "required": ["scalar", "factors"],
    "properties": {
        "scalar": {"enum": ["exact", "up_to_nonzero_constant"]},
        "factors": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["kind", "place", "rep", "exponent", "argument"],
                "properties": {
                    "kind": {"enum": ["zeta_star", "L_star", "local_zeta", "norm_symbol"]},
                    "place": {"type": ["null", "string", "integer"]},
                    "rep": {"type": ["null", "string"]},
                    "exponent": {
                        "type": "object",
                        "required": ["num", "den"],
                        "properties": {"num": {"type": "integer"}, "den": {"type": "integer"}},
                    },
                    "argument": {
                        "type": "object",
                        "required": ["const", "terms"],
                        "properties": {
                            "const": {"type": "object"},
                            "terms": {"type": "array"},
                        },
                    },
                },
            },
        },
    },
}


def _q_json(q: Q) -> dict:
    return {"num": q.numerator, "den": q.denominator}


def _lf_json(form: LinearForm) -> dict:
    return {
        "const": _q_json(form.constant),
        "terms": [
            {"sym": s.name, "imag": s.imaginary, "coef": _q_json(c)} for s, c in form.terms
        ],
    }


def formula_to_json(f: FormulaExpression, extra: Mapping[str, object] | None = None) -> str:
    f = expand_c_factors(canonicalize(f))  # c-atoms are not part of the wire schema
    doc: dict = {
        "scalar": f.scalar,
        "factors": [
            {
                "kind": fac.kind,
                "place": fac.place,
                "rep": fac.rep,
                "exponent": _q_json(fac.exponent),
                "argument": _lf_json(fac.argument),
            }
            for fac in f.factors
        ],
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc, ensure_ascii=False)


def _infer_kind(name: str) -> str:
    if name[:1] in ("s", "z"):
        return "s_variable"
    if name[:1] == "v":
        return "classical_v"
    return "spectral"


def _q_from_json(d: dict) -> Q:
    return Q(d["num"], d["den"])


def parse_formula_json(text: str) -> FormulaExpression:
    doc = json.loads(text)
    factors = []
    for fd in doc["factors"]:
        terms = {
            Symbol(t["sym"], _infer_kind(t["sym"]), t["imag"]): _q_from_json(t["coef"])
            for t in fd["argument"]["terms"]
        }
        arg = LinearForm.build(_q_from_json(fd["argument"]["const"]), terms)
        factors.append(
            Factor(fd["kind"], arg, fd["rep"], fd["place"], _q_from_json(fd["exponent"]))
        )
    return canonicalize(FormulaExpression(tuple(factors), doc["scalar"]))
