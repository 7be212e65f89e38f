import dataclasses
import itertools
from fractions import Fraction as Q

import pytest

from eiscoeff import template
from eiscoeff.glcoords import GLPartition, eisenstein_parameters, rho_P, z_symbols
from eiscoeff.parabolic import wl_orbits
from eiscoeff.roots import build_root_system
from eiscoeff.symalg import LinearForm, Symbol, expand_c_factors
from eiscoeff.template import (
    classical_block_parameters,
    classical_substitution,
    constant_term,
    first_coefficient,
    minimal_hecke_ratio_check,
    to_classical,
)
from eiscoeff.verifysuite import (
    _assignment,
    _cases_hold,
    _formula,
    _grouped_expands_to_flat,
    _inv_L,
    _inv_zeta,
    _lf,
)


# -- worked examples: each runs its cases of the verify catalogue -----------------


def test_borel_a2_flat_alpha_coordinates():
    assert _cases_hold("SL(3) Borel first coefficient (three zeta* factors)", "SL(3) Borel latex rendering")


def test_maximal_parabolic_a2_grouped_and_flat():
    assert _cases_hold("SL(3) maximal parabolic grouped L*(s+1, pi)")


def test_petersson_normalization_appends_adjoint_factor():
    assert _cases_hold("petersson appends L*(1, Ad)^(-1/2)")


def test_sl4_borel_grouped_is_six_zetas():
    assert _cases_hold("SL(4) Borel grouped: six zeta* factors")


def test_sl4_211_grouped():
    assert _cases_hold("SL(4) (2,1,1) grouped")


def test_sl4_22_grouped():
    assert _cases_hold("SL(4) (2,2) grouped")


def test_sl4_31_grouped():
    assert _cases_hold("SL(4) (3,1) grouped")


def test_pairings_borel_a2():
    assert _cases_hold("Borel SL(3) pairings (s1, s2, s1+s2)")


def test_pairings_21():
    assert _cases_hold("(2,1) pairings (s-it, s+it)")


def test_pairings_22():
    assert _cases_hold("(2,2) pairings s±it'±it''")


def test_pairings_211():
    assert _cases_hold("(2,1,1) pairings")


def test_pairings_31_with_relation_applied():
    assert _cases_hold("(3,1) pairings with t2 = -t1-t3 applied")


def test_e8_e7_formula():
    assert _cases_hold("E8/E7 formula L*(s+1, pi, 56) zeta*(2s+1)")


def test_e8_d7_formula():
    assert _cases_hold("E8/D7 formula L*(s+1, pi, Spin) L*(2s+1, pi, Stan)")


def test_constant_term_a1():
    assert _cases_hold("A1 constant term {e: 1, s1: c(2nu)}")


def test_constant_term_a2_term_count_and_wlong():
    assert _cases_hold("A2 constant term: 6 terms, w_long has 3 c-factors")


def test_classical_21():
    assert _cases_hold(
        "(2,1) Eisenstein parameters (z1+v, z1-v, -2z1)",
        "SL(3) (2,1) classical grouped L*(1+3z1, phi)",
        "SL(3) (2,1) classical flat arguments {1+3z1±v}",
    )


# -- structural properties -------------------------------------------------------


@pytest.mark.parametrize(
    "type_name,levi",
    [
        ("A2", set()),
        ("A2", {1}),
        ("A2", {2}),
        ("A3", {1}),
        ("A3", {1, 3}),
        ("A3", {1, 2}),
        ("A4", {1, 2, 4}),
        ("D4", {1, 3, 4}),
        ("D4", {2}),
        ("A4", {2, 3}),
    ],
)
def test_flat_and_grouped_have_identical_flat_expansions(type_name, levi):
    assign = _assignment(type_name, levi)
    assert _grouped_expands_to_flat(assign)
    # grouped exponent count matches the orbit count
    grouped = first_coefficient(assign, mode="grouped")
    assert len(grouped.factors) == len(wl_orbits(assign.parabolic).orbits)


@pytest.mark.parametrize(
    "type_name,levi",
    [
        ("A2", set()),
        ("A2", {1}),
        ("A3", {1}),
        ("A3", {1, 3}),
        ("A3", {1, 2}),
        ("A4", {1, 2, 4}),
        ("A4", {2, 3}),
        ("D4", {1, 3, 4}),
        ("D4", {2}),
        ("E6", {1, 3, 4, 5, 6}),
    ],
)
def test_minimal_hecke_ratio_cancellation(type_name, levi):
    assign = _assignment(type_name, levi)
    assert minimal_hecke_ratio_check(assign)


def test_maximal_parabolic_level_structure():
    # factor arguments at grading level j have the form j*s + spectral + 1
    for type_name, levi in (("A3", {1, 2}), ("E8", set(range(1, 8))), ("E8", set(range(2, 9)))):
        assign = _assignment(type_name, levi)
        p = assign.parabolic
        node = p.sigma_L_complement[0]
        s_sym = assign.s_symbols[node]
        for rt in p.delta_U:
            level = p.rs.coroot(rt)[node - 1]
            arg = assign.mu_pairing(rt) + 1
            assert arg.as_dict().get(s_sym) == level


def test_borel_flat_factor_count():
    for name in ("A2", "A3", "D4"):
        assign = _assignment(name, set())
        flat = first_coefficient(assign, mode="flat")
        assert len(flat.factors) == len(assign.parabolic.rs.positive_roots)


# -- each exact quantity is computed once per assignment -------------------------


@pytest.mark.parametrize("type_name, levi", [("E8", set(range(1, 8))), ("E7", set(range(1, 7))), ("A4", set())])
def test_first_coefficient_builds_weight_coordinates_once(monkeypatch, type_name, levi):
    calls = []
    original = template.SatakeAssignment.spectral_weight_coords

    def counted(self, component=None):
        calls.append(component)
        return original(self, component)

    monkeypatch.setattr(template.SatakeAssignment, "spectral_weight_coords", counted)
    assign = _assignment(type_name, levi)
    for mode, normalization in itertools.product(("flat", "grouped"), ("hecke", "petersson")):
        first_coefficient(assign, mode=mode, normalization=normalization)
    assert len(calls) <= 1


@pytest.mark.parametrize("type_name, levi", [("E8", set(range(1, 8))), ("E7", set(range(1, 7))), ("A4", set())])
def test_first_coefficient_pairs_each_root_once(monkeypatch, type_name, levi):
    paired = []
    original = template.pair

    def counted(lam, alpha, rs):
        paired.append(alpha)
        return original(lam, alpha, rs)

    monkeypatch.setattr(template, "pair", counted)
    assign = _assignment(type_name, levi)
    for mode in ("flat", "grouped"):
        first_coefficient(assign, mode=mode)
    assert len(paired) == len(set(paired)) <= len(assign.parabolic.delta_U)
    assert set(paired) <= set(assign.parabolic.delta_U)


def test_assignment_is_frozen():
    assign = _assignment("A3", {1})
    with pytest.raises(dataclasses.FrozenInstanceError):
        assign.s_symbols = {}
    assert assign.mu_weight_coords() is assign.mu_weight_coords()


# -- constant term ---------------------------------------------------------------


def test_constant_term_c_expansion():
    rs = build_root_system("A1")
    nu = Symbol("nu")
    exp = constant_term(rs, (LinearForm.build(0, {nu: 2}),))
    coef = exp.terms[1].coefficient if exp.terms[1].weyl.length == 1 else exp.terms[0].coefficient
    expanded = expand_c_factors(coef)
    kinds = {(f.kind, f.exponent) for f in expanded.factors}
    assert kinds == {("zeta_star", Q(1)), ("zeta_star", Q(-1))}


def test_constant_term_exponents_distinct_at_generic_numeric_point():
    rs = build_root_system("A2")
    n1, n2 = Symbol("nu1"), Symbol("nu2")
    lam = (
        LinearForm.build(0, {n1: 2, n2: -1}),
        LinearForm.build(0, {n2: 2, n1: -1}),
    )
    exp = constant_term(rs, lam)
    vals = {"nu1": 0.31 + 0.7j, "nu2": 0.12 - 0.4j}
    points = {tuple(c.evaluate(vals) for c in t.exponent) for t in exp.terms}
    assert len(points) == 6


# -- classical coordinates --------------------------------------------------------


def test_classical_22():
    assign = _assignment("A3", {1, 3})
    part = GLPartition((2, 2))
    grouped = to_classical(first_coefficient(assign), assign, part)
    z1 = _lf(0, z1=1)
    assert grouped == _formula(_inv_L(2 * z1 + 1, "φ1×φ2"), scalar="up_to_nonzero_constant")


def test_classical_211():
    assign = _assignment("A3", {1})
    part = GLPartition((2, 1, 1))
    grouped = to_classical(first_coefficient(assign), assign, part)
    z1, z2 = _lf(0, z1=1), _lf(0, z2=1)
    z3 = -2 * z1 - z2
    assert grouped == _formula(
        _inv_L(z1 - z2 + 1, "φ"),
        _inv_L(z1 - z3 + 1, "φ"),
        _inv_zeta(z2 - z3 + 1),
        scalar="up_to_nonzero_constant",
    )


def test_classical_31():
    assign = _assignment("A3", {1, 2})
    part = GLPartition((3, 1))
    grouped = to_classical(first_coefficient(assign), assign, part)
    z1 = _lf(0, z1=1)
    assert grouped == _formula(_inv_L(4 * z1 + 1, "φ"), scalar="up_to_nonzero_constant")


def _gl_pairs_oracle(partition):
    """Independent classical route: one zeta* factor per matrix position
    (j, k) outside the Levi blocks, with argument 1 + alpha_j - alpha_k."""
    z = z_symbols(partition)
    s_gl = tuple(zi + ri for zi, ri in zip(z, rho_P(partition)))
    params = eisenstein_parameters(partition, s_gl, classical_block_parameters(partition))
    blocks = []
    start = 0
    for p in partition.parts:
        blocks.append(range(start, start + p))
        start += p
    args = []
    for bi, bj in itertools.combinations(range(len(blocks)), 2):
        for j in blocks[bi]:
            for k in blocks[bj]:
                args.append(params.alpha[j] - params.alpha[k] + 1)
    return sorted(args, key=lambda a: a.sort_key())


@pytest.mark.parametrize("parts,levi", [((2, 1), {1}), ((2, 2), {1, 3}), ((2, 1, 1), {1}), ((3, 1), {1, 2})])
def test_classical_flat_matches_gl_pairs_oracle(parts, levi):
    part = GLPartition(parts)
    assign = _assignment(f"A{part.n - 1}", levi)
    flat = to_classical(first_coefficient(assign, mode="flat"), assign, part)
    ours = sorted((f.argument for f in flat.factors), key=lambda a: a.sort_key())
    assert ours == _gl_pairs_oracle(part)


@pytest.mark.parametrize("parts,levi", [((2, 1), {1}), ((2, 2), {1, 3}), ((2, 1, 1), {1}), ((3, 1), {1, 2})])
def test_classical_dictionary_matches_weight_coordinates(parts, levi):
    # the substituted root-system Satake coordinates equal the consecutive
    # differences of the classical Langlands parameter vector
    part = GLPartition(parts)
    assign = _assignment(f"A{part.n - 1}", levi)
    mapping, params = classical_substitution(assign, part)
    ours = tuple(c.substitute(mapping) for c in assign.mu_weight_coords())
    assert ours == params.difference_coords()
