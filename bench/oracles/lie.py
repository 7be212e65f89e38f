"""Root-system data written apart from eiscoeff.

Everything here starts from the Dynkin diagram (Bourbaki numbering) and the
squared lengths of the simple roots, never from eiscoeff's tables:

* Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> from the inner products;
* positive roots and coroots as the W-orbits of the simple (co)roots;
* Weyl groups as the orbit of rho under simple reflections (BFS depth is
  the length, the BFS path a reduced word);
* |W| and the length distribution from the Poincare polynomial
  prod_i (1 + q + ... + q^(d_i - 1)) of the classical degrees d_i;
* positive-root counts of the classical families, and the Cartan type of
  a connected Levi sub-diagram.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction as Q

LONG, SHORT = Q(2), Q(1)


def _diagram(family: str, rank: int):
    """(edges, squared lengths of the simple roots), nodes 0-based."""
    n = rank
    lengths = [LONG] * n
    if family in "ABC":
        edges = [(i, i + 1) for i in range(n - 1)]
        if family == "B":
            lengths[n - 1] = SHORT
        elif family == "C":
            lengths = [SHORT] * (n - 1) + [LONG]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    elif family == "E":
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        edges = list(zip(chain, chain[1:])) + [(1, 3)]
    elif family == "F":
        edges = [(0, 1), (1, 2), (2, 3)]
        lengths = [LONG, LONG, SHORT, SHORT]
    elif family == "G":
        edges = [(0, 1)]
        lengths = [Q(2, 3), LONG]
    else:
        raise ValueError(family)
    return edges, lengths


def parse_type(name: str) -> tuple[str, int]:
    return name[0].upper(), int(name[1:])


def inner_products(name: str) -> list[list[Q]]:
    family, n = parse_type(name)
    edges, lengths = _diagram(family, n)
    B = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        B[i][i] = lengths[i]
    for i, j in edges:
        B[i][j] = B[j][i] = -max(lengths[i], lengths[j]) / 2
    return B


def cartan(name: str) -> list[list[int]]:
    B = inner_products(name)
    n = len(B)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            c = 2 * B[i][j] / B[j][j]
            assert c.denominator == 1
            out[i][j] = int(c)
    return out


def positive_roots(name: str) -> list[tuple[int, ...]]:
    """Positive roots in the simple-root basis, as the W-orbit of the simple roots."""
    C = cartan(name)
    n = len(C)
    start = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    seen = set(start)
    stack = list(start)
    while stack:
        v = stack.pop()
        for i in range(n):
            k = sum(v[m] * C[m][i] for m in range(n))  # <v, alpha_i^vee>
            w = tuple(v[m] - (k if m == i else 0) for m in range(n))
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(r for r in seen if all(c >= 0 for c in r))


def positive_coroots(name: str) -> list[tuple[Q, ...]]:
    """alpha^vee = 2 alpha/(alpha, alpha) in the simple-coroot basis."""
    B = inner_products(name)
    n = len(B)
    out = []
    for r in positive_roots(name):
        la = sum(r[i] * r[j] * B[i][j] for i in range(n) for j in range(n))
        out.append(tuple(r[k] * B[k][k] / la for k in range(n)))
    for c in out:
        assert all(x.denominator == 1 for x in c)
    return out


def reflect_weight(C, i: int, lam):
    """s_i on fundamental-weight coordinates: (s_i lam)_j = lam_j - lam_i C[i][j]."""
    li = lam[i]
    return tuple(lam[j] - li * C[i][j] for j in range(len(lam)))


def weyl_words(name: str) -> list[tuple[int, ...]]:
    """One reduced word per element (0-based letters, first letter applied first)."""
    C = cartan(name)
    n = len(C)
    rho = tuple([1] * n)
    words = {rho: ()}
    frontier = [rho]
    while frontier:
        nxt = []
        for v in frontier:
            for i in range(n):
                w = reflect_weight(C, i, v)
                if w not in words:
                    words[w] = words[v] + (i,)
                    nxt.append(w)
        frontier = nxt
    return list(words.values())


def apply_word(C, word, lam):
    for i in word:
        lam = reflect_weight(C, i, lam)
    return lam


def degrees(name: str) -> tuple[int, ...]:
    family, n = parse_type(name)
    if family == "A":
        return tuple(range(2, n + 2))
    if family in "BC":
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(sorted(list(range(2, 2 * n - 1, 2)) + [n]))
    return {
        "E6": (2, 5, 6, 8, 9, 12),
        "E7": (2, 6, 8, 10, 12, 14, 18),
        "E8": (2, 8, 12, 14, 18, 20, 24, 30),
        "F4": (2, 6, 8, 12),
        "G2": (2, 6),
    }[f"{family}{n}"]


def poincare(name: str) -> list[int]:
    """Coefficients of prod_i (1 + q + ... + q^(d_i - 1)): element counts by length."""
    poly = [1]
    for d in degrees(name):
        out = [0] * (len(poly) + d - 1)
        for k, c in enumerate(poly):
            for m in range(d):
                out[k + m] += c
        poly = out
    return poly


def weyl_order(name: str) -> int:
    return math.prod(degrees(name))


def positive_root_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in "BC":
        return n * n
    if family == "D":
        return n * (n - 1)
    return {"E6": 36, "E7": 63, "E8": 120, "F4": 24, "G2": 6}[f"{family}{n}"]


def levi_components(name: str, levi) -> list[tuple[int, ...]]:
    """Connected components (1-based nodes) of the diagram restricted to ``levi``."""
    family, n = parse_type(name)
    edges, _ = _diagram(family, n)
    adj = {i + 1: set() for i in range(n)}
    for i, j in edges:
        adj[i + 1].add(j + 1)
        adj[j + 1].add(i + 1)
    left = set(levi)
    comps = []
    while left:
        comp = {min(left)}
        stack = list(comp)
        while stack:
            for b in adj[stack.pop()] & left:
                if b not in comp:
                    comp.add(b)
                    stack.append(b)
        left -= comp
        comps.append(tuple(sorted(comp)))
    return comps


def component_root_count(name: str, nodes) -> int:
    """Positive roots of the Levi component on ``nodes``, by classifying its type."""
    family, n = parse_type(name)
    edges, lengths = _diagram(family, n)
    idx = {v - 1 for v in nodes}
    sub = [(i, j) for i, j in edges if i in idx and j in idx]
    k = len(idx)
    multi = [(i, j) for i, j in sub if lengths[i] != lengths[j]]
    if multi:
        i, j = multi[0]
        ratio = max(lengths[i], lengths[j]) / min(lengths[i], lengths[j])
        if ratio == 3:
            return positive_root_count("G", 2)
        if k == 4 and family == "F":
            return positive_root_count("F", 4)
        return positive_root_count("B", k)  # B_k and C_k both have k^2
    deg = Counter(v for edge in sub for v in edge)
    if max(deg.values(), default=0) <= 2:
        return positive_root_count("A", k)
    # one branch node: D_k has two leaves next to it, E_k only one
    branch = next(v for v, d in deg.items() if d == 3)
    leaves = sum(1 for edge in sub if branch in edge and deg[edge[0] + edge[1] - branch] == 1)
    return positive_root_count("D" if leaves >= 2 else "E", k)


def unipotent_root_count(name: str, levi) -> int:
    """|Delta_U| = |Phi+| - sum over Levi components of their positive-root counts."""
    family, n = parse_type(name)
    total = positive_root_count(family, n)
    return total - sum(component_root_count(name, c) for c in levi_components(name, levi))


def coroot_coords_of_coweights(name: str, k) -> tuple[Q, ...]:
    """Cocharacter with <alpha_j, a> = k_j, written in the simple-coroot basis.

    <alpha_j, sum_i c_i alpha_i^vee> = sum_i C[j][i] c_i, so c solves C c = k.
    """
    C = cartan(name)
    n = len(C)
    aug = [[Q(C[r][c]) for c in range(n)] + [Q(k[r])] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(row[n] for row in aug)
