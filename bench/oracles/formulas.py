"""Worked formulas of the paper and properties of first-coefficient output.

Expected formulas are written here as text factors, in the engine's
documented text format, and compared as sets, so the engine's factor
order is not assumed.  Properties read the JSON wire format with the
standard json module only.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q

from . import lie

# E8 with Levi E7 (nodes 1..7) and with Levi D7 (nodes 2..8); SL(4) with
# Levi (2,1,1) (A3, node 1), in root-system coordinates, hecke normalization.
PAPER_GROUPED = {
    ("E8", frozenset(range(1, 8))): {"L*(s+1,π,56)^-1", "ζ*(2s+1)^-1"},
    ("E8", frozenset(range(2, 9))): {"L*(s+1,π,Spin)^-1", "L*(2s+1,π,Stan)^-1"},
    ("A3", frozenset({1})): {"L*(s2+1,π)^-1", "L*(s2+s3+1,π)^-1", "ζ*(s3+1)^-1"},
}


def gl_borel_alpha(n: int) -> set[str]:
    """GL(n) Borel first coefficient prod_{j<k} zeta*(1 + a_j - a_k)^-1 (A2: the paper's case)."""
    return {f"ζ*(a{j}-a{k}+1)^-1" for j in range(1, n + 1) for k in range(j + 1, n + 1)}


def text_factors(text: str) -> set[str]:
    return set(text.split(" · ")) if text != "1" else set()


def component_labels(count: int) -> list[str]:
    """Levi component labels of the engine's documented naming: π; π', π''; π1, π2, ..."""
    if count == 1:
        return ["π"]
    if count == 2:
        return ["π'", "π''"]
    return [f"π{i + 1}" for i in range(count)]


def petersson_factors(count: int) -> set[str]:
    return {f"L*(1,Ad {lab})^-1/2" for lab in component_labels(count)}


def _q(d) -> Q:
    return Q(d["num"], d["den"])


def json_properties(doc_text: str, type_name: str, levi, mode: str, norm: str, chart: str,
                    bases) -> list[str]:
    """Problems found in one first-coefficient JSON document (empty when it is right)."""
    doc = json.loads(doc_text)
    problems = []
    comps = lie.levi_components(type_name, levi)
    want_scalar = "up_to_nonzero_constant" if (norm == "petersson" or chart == "classical") else "exact"
    if doc["scalar"] != want_scalar:
        problems.append(f"scalar {doc['scalar']} != {want_scalar}")
    norm_f = [f for f in doc["factors"] if f["kind"] == "norm_symbol"]
    want_norm = len(comps) if norm == "petersson" else 0
    if len(norm_f) != want_norm or any(_q(f["exponent"]) != Q(-1, 2) for f in norm_f):
        problems.append(f"{len(norm_f)} norm factors, expected {want_norm} with exponent -1/2")
    body = [f for f in doc["factors"] if f["kind"] != "norm_symbol"]
    if mode == "flat":
        total = sum(_q(f["exponent"]) for f in body)
        du = lie.unipotent_root_count(type_name, levi)
        if total != -du:
            problems.append(f"flat exponents sum to {total}, expected -|Delta_U| = {-du}")
    n = lie.parse_type(type_name)[1]
    outside = [i for i in range(1, n + 1) if i not in levi]
    if chart == "alpha":
        allowed = lambda s: re.fullmatch(r"a\d+", s) is not None
    elif chart == "classical":
        allowed = lambda s: re.fullmatch(r"z\d+|v'*\d*", s) is not None
    else:
        s_names = {"s"} if len(outside) == 1 else {f"s{i}" for i in outside}
        spectral = tuple(bases) if mode == "flat" else ()
        allowed = lambda s: s in s_names or any(
            re.fullmatch(re.escape(b) + r"\d*", s) for b in spectral
        )
    for f in body:
        for t in f["argument"]["terms"]:
            if not allowed(t["sym"]):
                problems.append(f"unexpected symbol {t['sym']} in {chart}/{mode}")
                return problems
    return problems


# -- CLI text output -------------------------------------------------------

_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?([a-z]+'*\d*)?")


def parse_linear_form(text: str) -> dict[str, Q]:
    """'3v1+2v2-1/2' -> {'v1': 3, 'v2': 2, '': -1/2}."""
    out: dict[str, Q] = {}
    pos = 0
    text = text.replace(" ", "")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, coef, sym = m.groups()
        c = Q(coef) if coef else Q(1)
        if sign == "-":
            c = -c
        key = sym or ""
        out[key] = out.get(key, Q(0)) + c
        pos = m.end()
    return {k: v for k, v in out.items() if v != 0}


def parse_complex(text: str) -> complex:
    return complex(text.strip().replace("i", "j"))


def constant_term_lines(text: str) -> list[tuple[tuple[int, ...], int]]:
    """(word, sum of c-factor exponents) for each 'w=[...] coeff=... exponent=(...)' line."""
    out = []
    for line in text.strip().splitlines():
        m = re.fullmatch(r"w=\[([\d,]*|e)\] coeff=(.*) exponent=\((.*)\)", line)
        if not m:
            raise ValueError(f"unexpected constant-term line {line!r}")
        word = () if m.group(1) == "e" else tuple(int(x) for x in m.group(1).split(","))
        count = 0
        if m.group(2) != "1":
            for fac in m.group(2).split(" · "):
                e = re.fullmatch(r"c\(.*\)(?:\^(-?\d+))?", fac)
                if not e:
                    raise ValueError(f"unexpected factor {fac!r}")
                count += int(e.group(1) or 1)
        out.append((word, count))
    return out
