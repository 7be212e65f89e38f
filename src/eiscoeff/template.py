"""The template engine: symbolic first-coefficient formulas (flat and
grouped), the Langlands constant-term expansion, and coordinate charts
(root-system s-variables, GL Langlands-parameter differences, classical
z-variables).

The Satake parameter of the Eisenstein series is mu = lam + mu(pi) with
lam = sum of s_alpha * varpi_alpha over the simple roots outside the Levi
and mu(pi) the spectral parameter of the inducing form, stored in the
simple-root basis of its Levi component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Sequence

from .errors import DimensionMismatch
from .glcoords import GLParameters, GLPartition, eisenstein_parameters, rho_P, z_symbols
from .parabolic import ParabolicData, wl_orbits
from .roots import Root, RootSystem, WeylElement, enumerate_weyl, pair
from .symalg import (
    Factor,
    FormulaExpression,
    LinearForm,
    Symbol,
    canonicalize,
)

__all__ = [
    "SatakeAssignment",
    "ConstantTermExpansion",
    "standard_assignment",
    "first_coefficient",
    "constant_term",
    "minimal_hecke_ratio_check",
    "to_alpha_coordinates",
    "classical_block_parameters",
    "classical_substitution",
    "to_classical",
    "borel_alpha_arguments",
]

# representation names of the graded pieces for the hardcoded exceptional examples
_REP_ALIASES = {
    ("E8", "E7"): {1: "56"},
    ("E8", "D7"): {1: "Spin", 2: "Stan"},
}


@dataclass(frozen=True)
class SatakeAssignment:
    """Symbols and spectral data attached to one standard parabolic.

    The weight coordinates of mu are built once, at construction, and each
    pairing <mu, alpha^vee> once, on first use.  The fields cannot be
    reassigned, so neither goes stale; the dicts they hold are not to be
    mutated either.
    """

    parabolic: ParabolicData
    s_symbols: dict[int, Symbol]  # Sigma^L node -> symbol
    levi_spectral: dict[int, dict[int, LinearForm]]  # component id -> {node -> coefficient}
    component_labels: dict[int, str]

    def __post_init__(self):
        self.__dict__["_spectral_coords"] = tuple(self.spectral_weight_coords())
        self.__dict__["_mu_pairings"] = {}  # root -> <mu, alpha^vee>
        self.mu_weight_coords()

    def spectral_weight_coords(self, component: int | None = None) -> list[LinearForm]:
        """Coordinates <mu(pi), alpha_j^vee> of the spectral part alone, or of
        one Levi component's part when ``component`` is given."""
        rs = self.parabolic.rs
        parts = self.levi_spectral.values() if component is None else (self.levi_spectral[component],)
        terms: list[list[tuple[LinearForm, int]]] = [[] for _ in range(rs.rank)]
        for spectral in parts:
            for node, coef in spectral.items():
                for j, c in enumerate(rs.cartan[node - 1]):
                    if c != 0:
                        terms[j].append((coef, c))
        return [LinearForm.combine(t) for t in terms]

    def mu_weight_coords(self) -> tuple[LinearForm, ...]:
        """Coordinates <mu, alpha_j^vee> of the full Satake parameter, built
        on the first call and kept."""
        coords = self.__dict__.get("_mu_coords")
        if coords is None:
            coords = list(self._spectral_coords)
            for node, sym in self.s_symbols.items():
                coords[node - 1] = coords[node - 1] + LinearForm.build(0, {sym: 1})
            coords = self.__dict__["_mu_coords"] = tuple(coords)
        return coords

    def mu_pairing(self, alpha: Root) -> LinearForm:
        table = self._mu_pairings
        form = table.get(alpha)
        if form is None:
            form = table[alpha] = pair(self._mu_coords, alpha, self.parabolic.rs)
        return form

    def spectral_pairing(self, alpha: Root) -> LinearForm:
        """<mu(pi), alpha^vee> alone (no s-part)."""
        return pair(self._spectral_coords, alpha, self.parabolic.rs)


_PRIMES = ("", "'", "''", "'''", "''''")


def _component_base_names(count: int) -> list[str]:
    if count == 1:
        return ["t"]
    if count == 2:
        return ["t'", "t''"]
    pool = ("t", "u", "w", "x", "q", "r", "o", "m")  # s, z, v, a, nu are reserved
    if count > len(pool):
        raise ValueError(f"too many Levi components ({count}) for automatic naming")
    return list(pool[:count])


def _component_labels(count: int) -> list[str]:
    if count == 1:
        return ["π"]
    if count == 2:
        return ["π'", "π''"]
    return [f"π{i+1}" for i in range(count)]


def standard_assignment(
    parabolic: ParabolicData, spectral_bases: Sequence[str] | None = None
) -> SatakeAssignment:
    """Auto-named symbols: s (or s_i indexed by the Sigma^L node), and per
    Levi component a spectral family following the GL conventions.

    Rank-1 components get i*t on their simple root; rank-2 A-type ones get
    i*t1 and -i*t3 (the middle GL parameter is eliminated by the zero-sum
    relation); larger components get one symbol per node.  Pass
    ``spectral_bases`` to override the per-component base names.
    """
    sigma = parabolic.sigma_L_complement
    if len(sigma) == 1:
        s_syms = {sigma[0]: Symbol("s", kind="s_variable")}
    else:
        s_syms = {i: Symbol(f"s{i}", kind="s_variable") for i in sigma}
    comps = parabolic.levi_components
    if spectral_bases is not None:
        if len(spectral_bases) != len(comps):
            raise DimensionMismatch(
                f"{len(spectral_bases)} symbol bases for {len(comps)} Levi components"
            )
        bases = list(spectral_bases)
    else:
        bases = _component_base_names(len(comps))
    labels = _component_labels(len(comps))
    spectral: dict[int, dict[int, LinearForm]] = {}
    comp_labels: dict[int, str] = {}
    for comp, base, label in zip(comps, bases, labels):
        comp_labels[comp.id] = label
        nodes = comp.simple_indices
        if comp.rank == 1:
            syms = {nodes[0]: LinearForm.build(0, {Symbol(base, imaginary=True): 1})}
        elif comp.rank == 2 and comp.cartan_type.family == "A":
            syms = {
                nodes[0]: LinearForm.build(0, {Symbol(base + "1", imaginary=True): 1}),
                nodes[1]: LinearForm.build(0, {Symbol(base + "3", imaginary=True): -1}),
            }
        else:
            syms = {
                node: LinearForm.build(0, {Symbol(f"{base}{k+1}", imaginary=True): 1})
                for k, node in enumerate(nodes)
            }
        spectral[comp.id] = syms
    return SatakeAssignment(parabolic, s_syms, spectral, comp_labels)


# ---------------------------------------------------------------------------
# First coefficient
# ---------------------------------------------------------------------------


def _orbit_common_argument(assign: SatakeAssignment, orbit_roots: Sequence[Root]) -> LinearForm:
    n = len(orbit_roots)
    common = LinearForm.combine(((assign.mu_pairing(rt), Q(1, n)) for rt in orbit_roots), 1)
    if common.has_spectral_symbol():
        raise ValueError(
            "spectral symbols survive orbit averaging; grouping rule violated"
        )
    return common


def _orbit_rep_label(
    assign: SatakeAssignment, parabolic: ParabolicData, orbit, level: int | None
) -> str:
    label = "×".join(assign.component_labels[cid] for cid in orbit.touches)
    if parabolic.is_maximal and level is not None:
        comps = parabolic.levi_components
        if len(comps) == 1:
            key = (str(parabolic.rs.cartan_type), str(comps[0].cartan_type))
            alias = _REP_ALIASES.get(key, {}).get(level)
            if alias:
                label = f"{label},{alias}" if label else alias
    return label


def first_coefficient(
    assign: SatakeAssignment,
    mode: str = "grouped",
    normalization: str = "hecke",
) -> FormulaExpression:
    """First (generic) Fourier coefficient of the Eisenstein series.

    flat: one inverted zeta* factor per root of Delta_U with the explicit
    pairing argument; grouped: one inverted completed L-factor per
    W_L-orbit (zeta* for spectral-free singletons).  The petersson
    normalization appends a formal L*(1, Ad ...)^(-1/2) per cuspidal Levi
    component and the result is only defined up to a nonzero constant.
    """
    if mode not in ("flat", "grouped"):
        raise ValueError(f"unknown mode {mode!r}")
    if normalization not in ("hecke", "petersson"):
        raise ValueError(f"unknown normalization {normalization!r}")
    p = assign.parabolic
    factors: list[Factor] = []
    if mode == "flat":
        for rt in p.delta_U:
            factors.append(Factor("zeta_star", assign.mu_pairing(rt) + 1, exponent=Q(-1)))
    else:
        for orbit in wl_orbits(p).orbits:
            arg = _orbit_common_argument(assign, orbit.roots)
            level = p.rs.coroot(orbit.roots[0])[p.sigma_L_complement[0] - 1] if p.is_maximal else None
            if len(orbit.roots) == 1 and not (assign.mu_pairing(orbit.roots[0]) + 1).has_spectral_symbol():
                factors.append(Factor("zeta_star", arg, exponent=Q(-1)))
            else:
                rep = _orbit_rep_label(assign, p, orbit, level)
                factors.append(Factor("L_star", arg, rep=rep or None, exponent=Q(-1)))
    scalar = "exact"
    if normalization == "petersson":
        scalar = "up_to_nonzero_constant"
        for comp in p.levi_components:
            factors.append(
                Factor(
                    "norm_symbol",
                    LinearForm(Q(1)),
                    rep=f"Ad {assign.component_labels[comp.id]}",
                    exponent=Q(-1, 2),
                )
            )
    return canonicalize(FormulaExpression(tuple(factors), scalar))


def minimal_hecke_ratio_check(assign: SatakeAssignment) -> bool:
    """Exact multiset identity behind the template method: the Levi's
    normalizing factors cancel inside the full ones, leaving exactly one
    zeta-type argument per root of Delta_U."""
    from collections import Counter

    p = assign.parabolic
    big = Counter(assign.mu_pairing(rt) + 1 for rt in p.rs.positive_roots)
    levi = Counter(assign.spectral_pairing(rt) + 1 for rt in p.delta_L)
    u_args = Counter(assign.mu_pairing(rt) + 1 for rt in p.delta_U)
    diff = big.copy()
    diff.subtract(levi)
    if any(v < 0 for v in diff.values()):
        return False
    # the Levi factors must agree with the full-mu pairings on Delta_L
    for rt in p.delta_L:
        if assign.mu_pairing(rt) != assign.spectral_pairing(rt):
            return False
    return +diff == u_args


# ---------------------------------------------------------------------------
# Constant term
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantTermTerm:
    weyl: WeylElement
    coefficient: FormulaExpression  # product of c(x) atoms
    exponent: tuple[LinearForm, ...]  # weight coordinates of w(lam)


@dataclass(frozen=True)
class ConstantTermExpansion:
    terms: tuple[ConstantTermTerm, ...]


def constant_term(
    rs: RootSystem, lam: Sequence[LinearForm], cap: int = 10**6
) -> ConstantTermExpansion:
    """Langlands constant term of the Borel Eisenstein series: for each w,
    the coefficient prod over {alpha > 0 : w(alpha) < 0} of c(<lam, alpha^vee>)
    multiplying the power function with exponent w(lam)."""
    if len(lam) != rs.rank:
        raise DimensionMismatch(f"need {rs.rank} weight coordinates")
    elements = enumerate_weyl(rs, cap)
    c_factors = [Factor("c", pair(lam, alpha, rs), exponent=Q(1)) for alpha in rs.positive_roots]
    terms = []
    for w in elements:
        facs = tuple(c_factors[k] for k in w.inversions)
        terms.append(
            ConstantTermTerm(w, canonicalize(FormulaExpression(facs)), w.apply_weight_forms(lam))
        )
    return ConstantTermExpansion(tuple(terms))


# ---------------------------------------------------------------------------
# Coordinate charts for type A
# ---------------------------------------------------------------------------


def borel_alpha_arguments(n: int) -> list[LinearForm]:
    """Arguments 1 + a_j - a_k (j < k) of the GL(n) Borel first coefficient."""
    syms = [Symbol(f"a{i}") for i in range(1, n + 1)]
    out = []
    for j in range(n):
        for k in range(j + 1, n):
            out.append(LinearForm.build(1, {syms[j]: 1, syms[k]: -1}))
    return out


def to_alpha_coordinates(formula: FormulaExpression, n: int) -> FormulaExpression:
    """Substitute the Borel s-variables by Langlands parameter differences
    s_i -> a_i - a_{i+1} (type A_{n-1} Borel only)."""
    mapping: dict[Symbol, LinearForm] = {}
    for i in range(1, n):
        target = LinearForm.build(0, {Symbol(f"a{i}"): 1, Symbol(f"a{i+1}"): -1})
        mapping[Symbol(f"s{i}", kind="s_variable")] = target
        if n == 2:
            mapping[Symbol("s", kind="s_variable")] = target
    out = [
        Factor(f.kind, f.argument.substitute(mapping), f.rep, f.place, f.exponent)
        for f in formula.factors
    ]
    return canonicalize(FormulaExpression(tuple(out), formula.scalar))


def classical_block_parameters(partition: GLPartition) -> list[GLParameters | None]:
    """Classical spectral parameters per block: (v, -v) for GL(2) blocks,
    the standard (2v1+v2, -v1+v2, -v1-2v2) for GL(3), and zero-sum chains
    of v-symbols in general; None for GL(1) blocks."""
    cuspidal = sum(1 for p in partition.parts if p > 1)
    names = ["v" + _PRIMES[i] for i in range(cuspidal)] if cuspidal <= len(_PRIMES) else [
        f"v{i+1}" for i in range(cuspidal)
    ]
    out: list[GLParameters | None] = []
    k = 0
    for part in partition.parts:
        if part == 1:
            out.append(None)
            continue
        base = names[k]
        k += 1
        if part == 2:
            v = LinearForm.build(0, {Symbol(base, kind="classical_v"): 1})
            out.append(GLParameters(2, (v, -1 * v)))
        else:
            from .glcoords import alpha_from_s

            s = tuple(
                LinearForm.build(Q(1, part), {Symbol(f"{base}{j}", kind="classical_v"): 1})
                for j in range(1, part)
            )
            out.append(alpha_from_s(part, s))
    return out


def classical_substitution(
    assign: SatakeAssignment, partition: GLPartition
) -> tuple[dict[Symbol, LinearForm], GLParameters]:
    """Dictionary from the root-coordinate symbols (s_i and the spectral
    t-family) to classical z/v coordinates, together with the classical
    Langlands parameter vector of the Eisenstein series."""
    p = assign.parabolic
    rs = p.rs
    if rs.cartan_type.family != "A" or partition.n != rs.rank + 1:
        raise DimensionMismatch("classical coordinates apply to type A only")
    if set(partition.boundaries()) != set(p.sigma_L_complement):
        raise ValueError("partition does not match the parabolic")
    z = z_symbols(partition)
    s_gl = tuple(zi + ri for zi, ri in zip(z, rho_P(partition)))
    blocks = classical_block_parameters(partition)
    params = eisenstein_parameters(partition, s_gl, blocks)
    mapping: dict[Symbol, LinearForm] = {}
    # spectral symbols: it_j of a block matches the j-th classical parameter
    comp_iter = iter(p.levi_components)
    for block in blocks:
        if block is None:
            continue
        comp = next(comp_iter)
        # <mu(pi), beta_j^vee> = alpha_j - alpha_{j+1} of the block, where the
        # root-side pairing is a LinearForm in this component's t-symbols
        coords = assign.spectral_weight_coords(comp.id)
        for j, node in enumerate(comp.simple_indices):
            # solve one symbol at a time
            _accumulate_solution(mapping, coords[node - 1], block.alpha[j] - block.alpha[j + 1])
    _resolve_mapping(mapping)
    diffs = params.difference_coords()
    for node, sym in assign.s_symbols.items():
        spectral_part = assign.spectral_pairing(rs.simple_roots[node - 1])
        mapping[sym] = diffs[node - 1] - spectral_part.substitute(mapping)
    return mapping, params


def _resolve_mapping(mapping: dict[Symbol, LinearForm]) -> None:
    """Substitute mapped symbols out of the images until none remain."""
    for _ in range(len(mapping) + 1):
        dirty = False
        for sym in list(mapping):
            img = mapping[sym].substitute(mapping)
            if img != mapping[sym]:
                mapping[sym] = img
                dirty = True
        if not dirty:
            return
    raise ValueError("cyclic spectral dictionary")


def _accumulate_solution(
    mapping: dict[Symbol, LinearForm], lhs: LinearForm, rhs: LinearForm
) -> None:
    """Extend ``mapping`` so that lhs |-> rhs, solving for one new symbol."""
    lhs = lhs.substitute(mapping)
    unknowns = [(s, c) for s, c in lhs.terms if s not in mapping]
    if not unknowns:
        if lhs != rhs:
            raise ValueError("inconsistent spectral dictionary")
        return
    sym, coef = unknowns[0]
    rest = lhs - LinearForm.build(0, {sym: coef})
    mapping[sym] = (rhs - rest) * (Q(1) / coef)


_CLASSICAL_LABELS = {"π": "φ", "π'": "φ1", "π''": "φ2"}


def _classical_rep(rep: str | None) -> str | None:
    if rep is None:
        return None
    out = rep
    for src, dst in sorted(_CLASSICAL_LABELS.items(), key=lambda kv: -len(kv[0])):
        out = out.replace(src, dst)
    return out


def to_classical(
    formula: FormulaExpression, assign: SatakeAssignment, partition: GLPartition
) -> FormulaExpression:
    """Rewrite a first-coefficient formula in classical z/v coordinates.

    Labels change pi -> phi following the classical sections' conventions,
    and the scalar is only pinned up to a nonzero constant there.
    """
    mapping, _ = classical_substitution(assign, partition)
    out = [
        Factor(f.kind, f.argument.substitute(mapping), _classical_rep(f.rep), f.place, f.exponent)
        for f in formula.factors
    ]
    return canonicalize(FormulaExpression(tuple(out), "up_to_nonzero_constant"))
