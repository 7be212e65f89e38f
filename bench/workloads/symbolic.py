"""symbolic: first-coefficient formulas for seeded standard parabolics.

One pass holds, for each of 17 Cartan types and each of the four
(mode, normalization) pairs, one operation on a freshly drawn proper Levi
subset, plus one type-A Borel operation in the alpha chart.  Each
operation starts from the Cartan type string, as ``first-coeff`` does:
build the root system and the parabolic, name the symbols, compute the
formula and render it as text, LaTeX and JSON.  Type-A operations also go
through a GL(n) chart (alpha for the Borel, classical otherwise) and
render both formulas.

Non-Borel operations draw fresh spectral symbol names, so no operation's
inputs repeat within a run; the 24 type-A Borel inputs of the alpha slot
repeat only after 24 passes.  Pass 0 pins three slots to the paper's
worked examples (E8/E7, E8/D7 and SL(4) (2,1,1)).  No operation
enumerates a Weyl group.
"""

from __future__ import annotations

from . import Op, no_check, rng_for
from oracles import formulas, lie

IN_PROCESS = True
TYPES = ["A3", "A4", "A5", "A6", "A7", "A8", "B4", "C4", "D4", "D5", "D6", "D7",
         "E6", "E7", "E8", "F4", "G2"]
COMBOS = [("flat", "hecke"), ("flat", "petersson"), ("grouped", "hecke"), ("grouped", "petersson")]
FORMATS = ("text", "latex", "json")
# base letters for spectral symbols: not s/z (s-variables), v (classical), a (GL
# parameters), i (the imaginary prefix)
LETTERS = "bcdefghjklmnopqrtuwxy"
PAPER_SLOTS = {
    ("E8", "grouped", "hecke"): frozenset(range(1, 8)),
    ("E8", "grouped", "petersson"): frozenset(range(2, 9)),
    ("A3", "grouped", "hecke"): frozenset({1}),
}
run_checks = no_check


def _partition(n: int, levi) -> tuple[int, ...]:
    """GL(n+1) block sizes of the Levi of A_n with simple roots ``levi``."""
    parts, cur = [], 1
    for i in range(1, n + 1):
        if i in levi:
            cur += 1
        else:
            parts.append(cur)
            cur = 1
    return tuple(parts) + (cur,)


def _chart(t: str, levi) -> str:
    if t[0] != "A":
        return "root"
    return "alpha" if not levi else "classical"


def setup(E, seed):
    rng = rng_for(seed, -1, "alpha-order")
    borels = [(t, m, n) for t in TYPES if t[0] == "A" for m, n in COMBOS]
    rng.shuffle(borels)
    return {"used": set(), "borels": borels}


def _bases(rng, count):
    names: list[str] = []
    while len(names) < count:
        name = "".join(rng.choice(LETTERS) for _ in range(2))
        if name not in names:
            names.append(name)
    return tuple(names)


def make_pass(state, seed, k):
    rng = rng_for(seed, k, "symbolic")
    ops = []
    for t in TYPES:
        n = int(t[1:])
        for mode, norm in COMBOS:
            levi = PAPER_SLOTS.get((t, mode, norm)) if k == 0 else None
            while True:
                if levi is None:
                    levi = frozenset(i for i in range(1, n + 1) if rng.random() < 0.5)
                    if len(levi) == n:
                        levi = None
                        continue
                bases = _bases(rng, len(lie.levi_components(t, levi)))
                key = (t, levi, mode, norm, bases)
                if key not in state["used"]:
                    break
                levi = None
            state["used"].add(key)
            ops.append(Op("first_coefficient", (t, levi, mode, norm, _chart(t, levi), bases)))
    t, mode, norm = state["borels"][k % len(state["borels"])]
    ops.append(Op("first_coefficient", (t, frozenset(), mode, norm, "alpha", ())))
    return ops


def warmup(state, seed):
    return [Op("first_coefficient", ("A2", frozenset({1}), "flat", "petersson", "classical", ("kq",)))]


def run(E, state, op):
    t, levi, mode, norm, chart, bases = op.args
    rs = E.build_root_system(t)
    parabolic = E.build_parabolic(rs, levi)
    assign = E.standard_assignment(parabolic, spectral_bases=list(bases) if bases else None)
    formula = E.first_coefficient(assign, mode=mode, normalization=norm)
    out = {"root": [E.render(formula, fmt) for fmt in FORMATS]}
    if chart == "alpha":
        g = E.to_alpha_coordinates(formula, rs.rank + 1)
        out[chart] = [E.render(g, fmt) for fmt in FORMATS]
    elif chart == "classical":
        g = E.to_classical(formula, assign, E.GLPartition(_partition(rs.rank, levi)))
        out[chart] = [E.render(g, fmt) for fmt in FORMATS]
    return out


def digest(state, op, out):
    """The checks need no numerical oracle, so the verdict is taken at once."""
    import eiscoeff as E  # the program's own parser, for the round trip

    t, levi, mode, norm, chart, bases = op.args
    problems = []
    for ch, (text, latex, js) in out.items():
        back = E.parse_formula_json(js)
        if (E.render(back, "text"), E.render(back, "latex"), E.render(back, "json")) != (text, latex, js):
            problems.append(f"{ch}: JSON round trip changes the formula")
        problems += formulas.json_properties(js, t, levi, mode, norm, ch, bases)
    text = out["root"][0]
    extra = formulas.petersson_factors(len(lie.levi_components(t, levi))) if norm == "petersson" else set()
    paper = formulas.PAPER_GROUPED.get((t, levi)) if mode == "grouped" else None
    if paper is not None and formulas.text_factors(text) != paper | extra:
        problems.append(f"paper formula mismatch: {text}")
    if chart == "alpha" and formulas.text_factors(out["alpha"][0]) != formulas.gl_borel_alpha(int(t[1:]) + 1):
        problems.append(f"GL Borel formula mismatch: {out['alpha'][0]}")
    return not problems, None, "; ".join(problems)


def check(state, op, verdict):
    return verdict
