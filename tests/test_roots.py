import math
from collections import Counter
from fractions import Fraction as Q
from itertools import combinations

import pytest

from eiscoeff.errors import CapExceeded
from eiscoeff.roots import (
    CartanType,
    Root,
    build_root_system,
    enumerate_weyl,
    long_element,
    pair,
    reflect,
    weyl_denominator_check,
    weyl_order,
)
from eiscoeff.symalg import LinearForm, Symbol

ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "B2", "B3", "C3", "D4", "E6", "E7", "E8", "F4", "G2"]

POSITIVE_COUNTS = {
    "A1": 1, "A2": 3, "A3": 6, "A4": 10, "A5": 15,
    "B2": 4, "B3": 9, "C3": 9, "D4": 12,
    "E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6,
}


def test_cartan_type_validation():
    with pytest.raises(ValueError):
        CartanType("E", 5)
    with pytest.raises(ValueError):
        CartanType("D", 2)
    with pytest.raises(ValueError):
        CartanType("G", 3)
    with pytest.raises(ValueError):
        CartanType("X", 2)
    assert str(CartanType.parse("e8")) == "E8"


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_root_counts(name):
    rs = build_root_system(name)
    assert len(rs.positive_roots) == POSITIVE_COUNTS[name]


def test_a2_positive_roots():
    rs = build_root_system("A2")
    assert [r.coords for r in rs.positive_roots] == [(1, 0), (0, 1), (1, 1)]


def test_a1_trivial():
    rs = build_root_system("A1")
    assert [r.coords for r in rs.positive_roots] == [(1,)]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_sum_of_positive_roots_is_2rho(name):
    rs = build_root_system(name)
    total = [0] * rs.rank
    for rt in rs.positive_roots:
        for i, c in enumerate(rt.coords):
            total[i] += c
    # convert to the weight basis and compare with 2*rho = (2,...,2)
    wcoords = [
        sum(total[k] * rs.cartan[k][j] for k in range(rs.rank)) for j in range(rs.rank)
    ]
    assert wcoords == [2] * rs.rank


@pytest.mark.parametrize("name", ALL_TYPES)
def test_fundamental_weight_duality(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        lam = [LinearForm() for _ in range(rs.rank)]
        lam[i] = LinearForm(Q(1))
        for j, alpha in enumerate(rs.simple_roots):
            expect = LinearForm(Q(1)) if i == j else LinearForm()
            assert pair(lam, alpha, rs) == expect


@pytest.mark.parametrize("name", ALL_TYPES)
def test_cartan_matrix_shape(name):
    rs = build_root_system(name)
    for i in range(rs.rank):
        assert rs.cartan[i][i] == 2
        for j in range(rs.rank):
            if i != j:
                assert rs.cartan[i][j] <= 0
    # the simple roots are the first positive roots, in node order
    assert rs.simple_roots == tuple(Root(tuple(int(i == j) for j in range(rs.rank))) for i in range(rs.rank))
    assert rs.simple_roots == rs.positive_roots[: rs.rank]
    # C[i][j] = <alpha_i, alpha_j^vee>
    for i, a in enumerate(rs.simple_roots):
        for j, b in enumerate(rs.simple_roots):
            assert rs.pairing_root_coroot(a, b) == rs.cartan[i][j]


# -- independent oracle: the e_i - e_j model for type A ----------------------


def _type_a_oracle_positive_roots(n: int) -> set[tuple[int, ...]]:
    """Positive roots of A_{n-1} as sums of consecutive simple roots."""
    out = set()
    for j, k in combinations(range(n), 2):
        coords = tuple(1 if j <= i < k else 0 for i in range(n - 1))
        out.add(coords)
    return out


@pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
def test_type_a_against_matrix_model(rank):
    rs = build_root_system(f"A{rank}")
    assert {r.coords for r in rs.positive_roots} == _type_a_oracle_positive_roots(rank + 1)


def _reflect_in_e_coords(alpha, beta):
    """Matrix-model reflection oracle for type A (vectors in R^n)."""
    num = sum(a * b for a, b in zip(alpha, beta))
    den = sum(b * b for b in beta)
    return tuple(a - 2 * num // den * b for a, b in zip(alpha, beta))


def _root_to_e(coords, n):
    v = [0] * n
    for i, c in enumerate(coords):
        v[i] += c
        v[i + 1] -= c
    return tuple(v)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_reflection_against_matrix_model(rank):
    rs = build_root_system(f"A{rank}")
    n = rank + 1
    for alpha in rs.positive_roots:
        for beta in rs.positive_roots:
            ours = reflect(alpha, beta, rs)
            oracle = _reflect_in_e_coords(_root_to_e(alpha.coords, n), _root_to_e(beta.coords, n))
            assert _root_to_e(ours.coords, n) == oracle


def test_reflection_basics():
    rs = build_root_system("A2")
    a1, a2 = rs.simple_roots
    assert reflect(a2, a1, rs).coords == (1, 1)
    for rt in rs.positive_roots:
        assert reflect(rt, rt, rs) == -rt
        assert reflect(reflect(rt, a1, rs), a1, rs) == rt


# -- independent oracle: E8 closure under reflection in R^8 ------------------


def test_e8_count_against_reflection_closure():
    simple = [
        (Q(1, 2), -Q(1, 2), -Q(1, 2), -Q(1, 2), -Q(1, 2), -Q(1, 2), -Q(1, 2), Q(1, 2)),
        (1, 1, 0, 0, 0, 0, 0, 0),
        (1, -1, 0, 0, 0, 0, 0, 0),
        (0, 1, -1, 0, 0, 0, 0, 0),
        (0, 0, 1, -1, 0, 0, 0, 0),
        (0, 0, 0, 1, -1, 0, 0, 0),
        (0, 0, 0, 0, 1, -1, 0, 0),
        (0, 0, 0, 0, 0, 1, -1, 0),
    ]
    simple = [tuple(Q(x) for x in v) for v in simple]

    def refl(v, b):
        num = sum(x * y for x, y in zip(v, b))
        den = sum(y * y for y in b)
        return tuple(x - 2 * num / den * y for x, y in zip(v, b))

    roots = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for v in frontier:
            for b in simple:
                w = refl(v, b)
                if w not in roots:
                    roots.add(w)
                    new.append(w)
        frontier = new
    assert len(roots) == 240
    assert len(build_root_system("E8").positive_roots) == 120


# -- Weyl group ---------------------------------------------------------------


def test_weyl_orders():
    assert weyl_order(CartanType("A", 2)) == 6
    assert weyl_order(CartanType("D", 4)) == 192
    assert weyl_order(CartanType("E", 8)) == 696729600
    assert weyl_order(CartanType("F", 4)) == 1152
    assert weyl_order(CartanType("G", 2)) == 12


def _perm_matrices(n):
    """Brute-force S_n as permutation action oracle."""
    import itertools

    return list(itertools.permutations(range(n)))


def _signed_root(rs, v):
    """The root that a signed index of ``WeylElement.root_images`` stands for."""
    n = len(rs.positive_roots)
    return rs.positive_roots[v] if v < n else -rs.positive_roots[v - n]


def _along_word(rs, word, rt):
    """w(rt) by simple reflections along the word: (i, j) acts as s_i(s_j(rt)),
    and s_i(b) = b - <b, alpha_i^vee> alpha_i."""
    b, C = list(rt.coords), rs.cartan
    for i in reversed(word):
        b[i - 1] -= sum(x * C[j][i - 1] for j, x in enumerate(b))
    return Root(tuple(b))


def _root_images(rs, w):
    return [_signed_root(rs, v) for v in w.root_images]


def test_enumerate_a2_against_s3():
    rs = build_root_system("A2")
    elements = enumerate_weyl(rs, cap=100)
    assert len(elements) == 6
    w0 = long_element(rs)
    assert w0.length == 3
    # the Weyl action permutes the six roots faithfully
    images = set()
    for w in elements:
        got = _root_images(rs, w)
        assert got == [_along_word(rs, w.word, r) for r in rs.positive_roots]
        images.add(tuple(got))
    assert len(images) == 6
    assert len(_perm_matrices(3)) == 6


def test_enumerate_a1():
    rs = build_root_system("A1")
    elements = enumerate_weyl(rs, cap=10)
    assert [w.word for w in elements] == [(), (1,)]


def test_cap_exceeded_e8():
    rs = build_root_system("E8")
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(rs, cap=10**6)
    assert exc.value.order == 696729600


def _reference_closure(rs):
    """The former engine: breadth-first closure on words, composing exact
    matrices (integer in the root basis, Fraction in the weight basis) and
    sorting by (length, word).  Entries are (word, sign, weight_matrix, root_matrix)."""
    r, C = rs.rank, rs.cartan

    def mul(a, b):
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r)) for j in range(r)) for i in range(r))

    gens = []
    for i in range(r):
        # s_i(alpha_j) = alpha_j - C[j][i] alpha_i;  (s_i mu)_j = mu_j - mu_i C[i][j]
        rootm = [[int(a == b) for b in range(r)] for a in range(r)]
        weightm = [[Q(int(a == b)) for b in range(r)] for a in range(r)]
        for j in range(r):
            rootm[i][j] -= C[j][i]
            weightm[j][i] -= C[i][j]
        gens.append(((i + 1,), -1, tuple(map(tuple, weightm)), tuple(map(tuple, rootm))))
    eye = tuple(tuple(int(a == b) for b in range(r)) for a in range(r))
    ident = ((), 1, tuple(tuple(Q(x) for x in row) for row in eye), eye)
    seen = {eye: ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for word, sign, wm, rm in frontier:
            for gword, gsign, gwm, grm in gens:
                cand = (word + gword, sign * gsign, mul(wm, gwm), mul(rm, grm))
                if cand[3] not in seen:
                    seen[cand[3]] = cand
                    nxt.append(cand)
        frontier = nxt
    return sorted(seen.values(), key=lambda e: (len(e[0]), e[0]))


ENGINE_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C3", "C4", "D4", "G2", "F4"]


@pytest.mark.parametrize("name", ENGINE_TYPES)
def test_enumeration_matches_reference_closure(name):
    rs = build_root_system(name)
    elements = enumerate_weyl(rs)
    reference = _reference_closure(rs)
    assert [(w.word, w.sign, w.weight_matrix) for w in elements] == [e[:3] for e in reference]
    for w, (_, _, _, root_matrix) in zip(elements, reference):
        assert all(type(x) is int for row in w.weight_matrix for x in row)
        want = [
            Root(tuple(sum(m * b for m, b in zip(row, rt.coords)) for row in root_matrix))
            for rt in rs.positive_roots
        ]
        assert _root_images(rs, w) == want


@pytest.mark.parametrize("name", ENGINE_TYPES)
def test_inversion_sets(name):
    rs = build_root_system(name)
    for w in enumerate_weyl(rs):
        want = [k for k, a in enumerate(rs.positive_roots) if not _along_word(rs, w.word, a).is_positive]
        assert list(w.inversions) == want
        assert len(want) == w.length


@pytest.mark.parametrize("name, degrees", [("F4", (2, 6, 8, 12)), ("D5", (2, 4, 5, 6, 8))])
def test_length_distribution_is_poincare_polynomial(name, degrees):
    # sum_w q^l(w) = prod_i (1 + q + ... + q^(d_i - 1))
    poly = [1]
    for d in degrees:
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for k in range(d):
                out[i + k] += c
        poly = out
    elements = enumerate_weyl(build_root_system(name))
    assert len(elements) == math.prod(degrees)
    assert Counter(w.length for w in elements) == Counter(dict(enumerate(poly)))


def _refuse_walk(rs):
    raise AssertionError(f"enumerated {rs}")


def test_enumeration_is_memoized(monkeypatch):
    from eiscoeff import roots

    rs = build_root_system("B3")
    first = enumerate_weyl(rs)
    monkeypatch.setattr(roots, "_descent_walk", _refuse_walk)
    second = enumerate_weyl(rs)
    assert second is not first and len(second) == 48
    assert all(a is b for a, b in zip(first, second))
    # each call hands out its own list
    first.clear()
    second.reverse()
    assert enumerate_weyl(rs) == second[::-1]
    # the cap is checked before the memo is consulted
    with pytest.raises(CapExceeded):
        enumerate_weyl(rs, cap=47)


@pytest.mark.parametrize("name, order", [("E7", 2903040), ("E8", 696729600)])
def test_cap_refuses_before_enumerating(monkeypatch, name, order):
    from eiscoeff import roots

    monkeypatch.setattr(roots, "_descent_walk", _refuse_walk)
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(build_root_system(name), cap=10**6)
    assert exc.value.order == order


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "G2"])
def test_weyl_properties(name):
    rs = build_root_system(name)
    elements = enumerate_weyl(rs, cap=10**4)
    pos = list(rs.positive_roots)
    allroots = set(rs.all_roots)
    for w in elements:
        images = _root_images(rs, w)
        assert images == [_along_word(rs, w.word, r) for r in pos]
        assert set(images) | {-r for r in images} == allroots
    w0 = long_element(rs)
    assert set(_root_images(rs, w0)) == {-r for r in pos}
    assert w0.apply_weight(rs.rho).coords == tuple(-Q(1) for _ in range(rs.rank))


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2"])
def test_sign_is_homomorphism(name):
    from eiscoeff.roots import compose

    rs = build_root_system(name)
    elements = enumerate_weyl(rs, cap=10**4)
    for w1 in elements:
        for w2 in elements:
            w = compose(w1, w2)
            assert w.sign == w1.sign * w2.sign
            # the product carries its inversion set: the roots that w1(w2(.)) sends below 0
            want = [k for k, a in enumerate(rs.positive_roots) if not _along_word(rs, w.word, a).is_positive]
            assert list(w.inversions) == want
    for w in elements:
        assert w.sign == (-1) ** w.length


# -- coroots ------------------------------------------------------------------

COROOT_TYPES = (
    [f"A{n}" for n in range(1, 9)]
    + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)]
    + [f"D{n}" for n in range(3, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


def _reference_coroot(rs, rt):
    """The former Fraction formula: alpha^vee = sum_i (b_i d_i / d_alpha) alpha_i^vee
    with d_alpha = (alpha, alpha)/2 = a^T (C D) a / 2."""
    length_sq = sum(
        Q(a * b) * rs.cartan[i][j] * rs.symmetrizer[j]
        for i, a in enumerate(rt.coords)
        for j, b in enumerate(rt.coords)
    )
    out = []
    for b, d in zip(rt.coords, rs.symmetrizer):
        c = Q(b) * d / (length_sq / 2)
        assert c.denominator == 1
        out.append(int(c))
    return tuple(out)


@pytest.mark.parametrize("name", COROOT_TYPES)
def test_coroots_pair_to_two_and_match_reference(name):
    rs = build_root_system(name)
    for rt in rs.positive_roots:
        assert rs.pairing_root_coroot(rt, rt) == 2
        assert rs.coroot(rt) == _reference_coroot(rs, rt)
        assert all(type(c) is int for c in rs.coroot(rt))
        if name[0] in "ADE":  # simply laced: every coroot is its root
            assert rs.coroot(rt) == rt.coords


@pytest.mark.parametrize("n", range(2, 9))
def test_coroots_of_b_are_roots_of_c(n):
    for src, dst in ((f"B{n}", f"C{n}"), (f"C{n}", f"B{n}")):
        rs = build_root_system(src)
        coroots = sorted(rs.coroot(rt) for rt in rs.positive_roots)
        assert coroots == sorted(rt.coords for rt in build_root_system(dst).positive_roots)


@pytest.mark.parametrize("name", ["F4", "G2"])
def test_coroots_are_roots_of_reversed_dual_diagram(name):
    # the transposed Cartan matrix of F4 (G2) is that of F4 (G2) with the nodes reversed
    rs = build_root_system(name)
    coroots = sorted(rs.coroot(rt)[::-1] for rt in rs.positive_roots)
    assert coroots == sorted(rt.coords for rt in rs.positive_roots)


# -- pairings from the worked examples ---------------------------------------


def test_pair_a2_sum_root():
    rs = build_root_system("A2")
    s1 = Symbol("s1", kind="s_variable")
    s2 = Symbol("s2", kind="s_variable")
    lam = [LinearForm.build(0, {s1: 1}), LinearForm.build(0, {s2: 1})]
    highest = Root((1, 1))
    assert pair(lam, highest, rs) == LinearForm.build(0, {s1: 1, s2: 1})


def test_pair_a3_with_relation_applied():
    # mu = s*w3 + it1*a1 - it3*a2 paired against a2+a3 gives s - it1 - it3
    rs = build_root_system("A3")
    s = Symbol("s", kind="s_variable")
    t1 = Symbol("t1", imaginary=True)
    t3 = Symbol("t3", imaginary=True)
    lam_weight = [LinearForm(), LinearForm(), LinearForm.build(0, {s: 1})]
    # spectral part in root coordinates contributes via the Cartan matrix
    spectral_root_coords = {0: LinearForm.build(0, {t1: 1}), 1: LinearForm.build(0, {t3: -1})}
    mu = list(lam_weight)
    for k, form in spectral_root_coords.items():
        for j in range(rs.rank):
            mu[j] = mu[j] + form * rs.cartan[k][j]
    target = Root((0, 1, 1))
    assert pair(mu, target, rs) == LinearForm.build(0, {s: 1, t1: -1, t3: -1})


# -- Weyl denominator identity ------------------------------------------------


def test_weyl_denominator_a1_eps0():
    lhs, rhs = weyl_denominator_check(build_root_system("A1"), 0)
    assert lhs == 0 and rhs == 0


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A4", "D4"])
@pytest.mark.parametrize("eps", [Q(1, 100), Q(1, 10), Q(1)])
def test_weyl_denominator_identity(name, eps):
    rs = build_root_system(name)
    lhs, rhs = weyl_denominator_check(rs, eps)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
