"""Root systems, exact pairings, Weyl reflections, and bounded Weyl enumeration.

Conventions (fixed throughout the package):

* roots are stored as integer vectors in the simple-root basis;
* weights are stored as rational vectors in the fundamental-weight basis,
  so the pairing with the j-th simple coroot reads off coordinate j;
* the inner product is normalized so long roots have squared length 2.

Simple-root and Levi indices in the public API are 1-based, matching the
usual Bourbaki labelling of Dynkin diagrams.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction as Q
from typing import TYPE_CHECKING, Sequence

from . import _linalg
from .errors import CapExceeded, DimensionMismatch
from .symalg import LinearForm

if TYPE_CHECKING:
    import mpmath

__all__ = [
    "CartanType",
    "Root",
    "Weight",
    "RootSystem",
    "WeylElement",
    "build_root_system",
    "cartan_matrix",
    "weyl_order",
    "pair",
    "pair_numeric",
    "reflect",
    "enumerate_weyl",
    "weyl_denominator_check",
]

_RANK_CONSTRAINTS = {
    "A": lambda r: r >= 1,
    "B": lambda r: r >= 2,
    "C": lambda r: r >= 2,
    "D": lambda r: r >= 3,
    "E": lambda r: r in (6, 7, 8),
    "F": lambda r: r == 4,
    "G": lambda r: r == 2,
}


@dataclass(frozen=True)
class CartanType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in _RANK_CONSTRAINTS:
            raise ValueError(f"unknown family {self.family!r}")
        if not _RANK_CONSTRAINTS[self.family](self.rank):
            raise ValueError(f"unsupported rank {self.rank} for family {self.family}")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    @staticmethod
    def parse(text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or not text[0].isalpha():
            raise ValueError(f"cannot parse Cartan type {text!r}")
        return CartanType(text[0].upper(), int(text[1:]))


@dataclass(frozen=True)
class Root:
    """Coefficients in the simple-root basis; positive roots are all-nonnegative."""

    coords: tuple[int, ...]

    def __post_init__(self):
        pos = any(c > 0 for c in self.coords)
        neg = any(c < 0 for c in self.coords)
        if pos and neg:
            raise ValueError(f"mixed-sign root coordinates {self.coords}")

    @property
    def height(self) -> int:
        return sum(self.coords)

    @property
    def is_positive(self) -> bool:
        return self.height > 0

    def __neg__(self) -> "Root":
        return Root(tuple(-c for c in self.coords))

    def key(self) -> tuple:
        # graded by height; within a height, earlier simple roots first
        return (self.height, tuple(-c for c in self.coords))


@dataclass(frozen=True)
class Weight:
    """Coefficients in the fundamental-weight basis, exact rationals."""

    coords: tuple[Q, ...]


def cartan_matrix(ctype: CartanType) -> tuple[tuple[int, ...], ...]:
    """Bourbaki Cartan matrix C[i][j] = <alpha_i, alpha_j^vee> (0-based rows/cols)."""
    r = ctype.rank
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def link(i: int, j: int, cij: int = -1, cji: int = -1):
        C[i][j] = cij
        C[j][i] = cji

    fam = ctype.family
    if fam in ("A", "B", "C", "F", "G"):
        for i in range(r - 1):
            link(i, i + 1)
        if fam == "B":  # alpha_r short
            link(r - 2, r - 1, -2, -1)
        elif fam == "C":  # alpha_r long
            link(r - 2, r - 1, -1, -2)
        elif fam == "F":  # alpha_3, alpha_4 short
            link(1, 2, -2, -1)
        elif fam == "G":  # alpha_1 short, alpha_2 long
            link(0, 1, -1, -3)
    elif fam == "D":
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 3, r - 1)
    elif fam == "E":
        # chain 1-3-4-5-6(-7)(-8), node 2 hangs off node 4
        chain = [0, 2, 3, 4, 5, 6, 7][: r - 1]
        for a, b in zip(chain, chain[1:]):
            link(a, b)
        link(1, 3)
    return tuple(tuple(row) for row in C)


_WEYL_DEGREES = {
    "E6": (2, 5, 6, 8, 9, 12),
    "E7": (2, 6, 8, 10, 12, 14, 18),
    "E8": (2, 8, 12, 14, 18, 20, 24, 30),
    "F4": (2, 6, 8, 12),
    "G2": (2, 6),
}


def weyl_order(ctype: CartanType) -> int:
    """|W| from the product-of-degrees formula."""
    r = ctype.rank
    if ctype.family == "A":
        return math.factorial(r + 1)
    if ctype.family in ("B", "C"):
        return (2**r) * math.factorial(r)
    if ctype.family == "D":
        return (2 ** (r - 1)) * math.factorial(r)
    return math.prod(_WEYL_DEGREES[str(ctype)])


def _symmetrizer(C: tuple[tuple[int, ...], ...]) -> tuple[Q, ...]:
    """d_i = (alpha_i, alpha_i)/2 with the normalization max d_i = 1 (long roots length^2 = 2)."""
    r = len(C)
    d: list[Q | None] = [None] * r
    for start in range(r):
        if d[start] is not None:
            continue
        d[start] = Q(1)
        stack = [start]
        while stack:
            i = stack.pop()
            for j in range(r):
                if i != j and C[i][j] != 0 and d[j] is None:
                    d[j] = d[i] * C[j][i] / C[i][j]
                    stack.append(j)
    vals = [x for x in d if x is not None]
    top = max(vals)
    return tuple(x / top for x in d)  # type: ignore[misc]


class RootSystem:
    """Immutable container for the combinatorics of one Cartan type."""

    def __init__(self, ctype: CartanType):
        self.cartan_type = ctype
        self.rank = ctype.rank
        self.cartan = cartan_matrix(ctype)
        self.symmetrizer = _symmetrizer(self.cartan)
        self.positive_roots = self._generate_positive_roots()
        self._root_index = {rt.coords: i for i, rt in enumerate(self.positive_roots)}
        self.coroot_coeffs = self._coroot_expansions()
        self.rho = Weight(tuple(Q(1) for _ in range(self.rank)))
        # height-1 roots sort first, in node order
        self.simple_roots = self.positive_roots[: self.rank]

    # -- construction -------------------------------------------------------

    def _generate_positive_roots(self) -> tuple[Root, ...]:
        # closure under root strings: beta + alpha_i is a root iff p - <beta, alpha_i^vee> > 0,
        # where p counts how far the string extends below beta.  Each root is
        # kept with its pairings <beta, alpha_j^vee>; those of beta + alpha_i
        # are the same plus row i of the Cartan matrix.
        r, C = self.rank, self.cartan
        known = {tuple(int(j == i) for j in range(r)): C[i] for i in range(r)}
        frontier = list(known)
        while frontier:
            new: list[tuple[int, ...]] = []
            for coords in frontier:
                pairings = known[coords]
                for i in range(r):
                    p = 0
                    below = list(coords)
                    while below[i] > 0:
                        below[i] -= 1
                        if tuple(below) not in known:
                            break
                        p += 1
                    if p > pairings[i]:
                        up = list(coords)
                        up[i] += 1
                        t = tuple(up)
                        if t not in known:
                            known[t] = tuple(a + b for a, b in zip(pairings, C[i]))
                            new.append(t)
            frontier = new
        roots = [Root(c) for c in known]
        roots.sort(key=Root.key)
        return tuple(roots)

    def _coroot_expansions(self) -> dict[Root, tuple[int, ...]]:
        # alpha^vee = sum_i (2 b_i d_i / (alpha, alpha)) alpha_i^vee.  With the
        # symmetrizer scaled to integers D_i = L d_i, n = L (alpha, alpha) =
        # sum_ij b_i b_j C_ij D_j and c_i = 2 b_i D_i / n, all in integers.
        scale = math.lcm(*(d.denominator for d in self.symmetrizer))
        D = [int(d * scale) for d in self.symmetrizer]
        CD = [[c * d for c, d in zip(row, D)] for row in self.cartan]
        out = {}
        for rt in self.positive_roots:
            b = rt.coords
            support = [(i, x) for i, x in enumerate(b) if x]
            n = sum(x * sum(CD[i][j] * y for j, y in support) for i, x in support)
            coeffs = []
            for x, d in zip(b, D):
                c, rem = divmod(2 * x * d, n)
                if rem:
                    raise RuntimeError(f"non-integral coroot coefficient for {rt}")
                coeffs.append(c)
            out[rt] = tuple(coeffs)
        return out

    # -- exact geometry ------------------------------------------------------

    def coroot(self, rt: Root) -> tuple[int, ...]:
        if rt.is_positive:
            return self.coroot_coeffs[rt]
        return tuple(-c for c in self.coroot_coeffs[-rt])

    def pairing_root_coroot(self, alpha: Root, beta: Root) -> int:
        """<alpha, beta^vee> as an exact integer."""
        cor = [(i, c) for i, c in enumerate(self.coroot(beta)) if c]
        C = self.cartan
        return sum(a * sum(c * C[k][i] for i, c in cor) for k, a in enumerate(alpha.coords) if a)

    def weight_to_root_coords(self, w: Weight) -> tuple[Q, ...]:
        inv = getattr(self, "_cartan_t_inv", None)
        if inv is None:  # only the Weyl denominator check needs it
            inv = self._cartan_t_inv = _linalg.mat_inv(_linalg.transpose(_linalg.mat(self.cartan)))
        return _linalg.mat_vec(inv, w.coords)

    def weight_inner(self, mu: Weight, nu: Weight) -> Q:
        """(mu, nu) with (alpha,alpha)=2 on long roots."""
        m = self.weight_to_root_coords(mu)
        return sum(mk * nk * dk for mk, nk, dk in zip(m, nu.coords, self.symmetrizer))

    def root_rho_inner(self, rt: Root, rho_like: Weight) -> Q:
        return sum(
            Q(a) * w * d for a, w, d in zip(rt.coords, rho_like.coords, self.symmetrizer)
        )

    @property
    def all_roots(self) -> tuple[Root, ...]:
        return self.positive_roots + tuple(-r for r in self.positive_roots)

    def __repr__(self) -> str:
        return f"RootSystem({self.cartan_type})"


def build_root_system(ctype: CartanType | str) -> RootSystem:
    if isinstance(ctype, str):
        ctype = CartanType.parse(ctype)
    return RootSystem(ctype)


# ---------------------------------------------------------------------------
# Pairings
# ---------------------------------------------------------------------------


def pair(lam: Sequence[LinearForm], alpha: Root, rs: RootSystem) -> LinearForm:
    """<lam, alpha^vee> for a weight given by LinearForm coordinates in the
    fundamental-weight basis: sum_i c_i(alpha^vee) * lam_i."""
    if len(lam) != rs.rank:
        raise DimensionMismatch(f"weight has {len(lam)} coords, rank is {rs.rank}")
    return LinearForm.combine((form, c) for c, form in zip(rs.coroot(alpha), lam) if c)


def pair_numeric(coords: Sequence[complex], alpha: Root, rs: RootSystem) -> complex:
    return sum(c * x for c, x in zip(rs.coroot(alpha), coords))


def reflect(alpha: Root, beta: Root, rs: RootSystem) -> Root:
    """s_beta(alpha) = alpha - <alpha, beta^vee> beta."""
    n = rs.pairing_root_coroot(alpha, beta)
    return Root(tuple(a - n * b for a, b in zip(alpha.coords, beta.coords)))


# ---------------------------------------------------------------------------
# Weyl group
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class WeylElement:
    """A Weyl-group element with its action on weights as an integer matrix
    and on roots as a signed permutation.

    ``word`` is a (not necessarily reduced) product of simple reflections
    with 1-based indices, composed left-to-right: word=(i, j) acts as
    v -> s_i(s_j(v)).  W preserves the weight lattice, so the weight matrix
    is integral.

    ``root_images`` has one byte per positive root beta_k =
    ``rs.positive_roots[k]``: byte k is the signed index v of w(beta_k),
    which is beta_v for v < N and -beta_(v-N) for v >= N, N = |Phi+|.
    """

    word: tuple[int, ...]
    weight_matrix: tuple[tuple[int, ...], ...]  # action in the fundamental-weight basis
    sign: int
    root_images: bytes

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def inversions(self) -> tuple[int, ...]:
        """The inversion set {beta_k > 0 : w(beta_k) < 0} as ascending indices k."""
        n = len(self.root_images)
        return tuple(k for k, v in enumerate(self.root_images) if v >= n)

    def apply_weight(self, w: Weight) -> Weight:
        return Weight(_linalg.mat_vec(self.weight_matrix, w.coords))

    def apply_weight_numeric(self, coords: Sequence[complex]) -> tuple[complex, ...]:
        return tuple(sum(m * c for m, c in zip(row, coords)) for row in self.weight_matrix)

    def apply_weight_forms(self, coords: Sequence[LinearForm]) -> tuple[LinearForm, ...]:
        out = []
        for row in self.weight_matrix:
            acc = LinearForm()
            for m, form in zip(row, coords):
                if m != 0:
                    acc = acc + form * m
            out.append(acc)
        return tuple(out)


def _signed_action(images: bytes) -> bytes:
    """w on all 2N signed root indices, as a ``bytes.translate`` table:
    v -> images[v] and v + N -> the index of -w(beta_v)."""
    n = len(images)
    flip = (bytes(range(n, 2 * n)) + bytes(range(n))).ljust(256, b"\0")
    return (images + images.translate(flip)).ljust(256, b"\0")


def compose(a: WeylElement, b: WeylElement) -> WeylElement:
    """(a∘b)(v) = a(b(v)), with its root images and so its inversion set;
    the word a.word + b.word need not be reduced."""
    return WeylElement(
        a.word + b.word,
        _linalg.mat_mul(a.weight_matrix, b.weight_matrix),
        a.sign * b.sign,
        b.root_images.translate(_signed_action(a.root_images)),
    )


def _descent_walk(rs: RootSystem) -> tuple[WeylElement, ...]:
    """All of W in (length, word) order, each with its lexicographically least
    reduced word, from the orbit of rho under the simple reflections.

    Track x = w^-1 rho in fundamental-weight coordinates.  l(w s_g) > l(w)
    exactly when x_g = <w^-1 rho, alpha_g^vee> > 0, and then
    (w s_g)^-1 rho = s_g x.  Walking level by level, with each level in word
    order and g ascending, the first word reaching an orbit point is the
    least reduced word of its element.  Along the step w -> w s_g:

    * weight matrix: only column g changes, to col_g - sum_k C[g][k] col_k;
    * root images: (w s_g)(beta_k) = w(s_g beta_k), the root images of s_g
      translated by the signed action of w.
    """
    r, C = rs.rank, rs.cartan
    row_nz = [tuple((k, c) for k, c in enumerate(C[g]) if c) for g in range(r)]
    index, n = rs._root_index, len(rs.positive_roots)
    # s_g sends alpha_g (index g) to -alpha_g and permutes the other positive roots
    reflections = []
    for g in range(r):
        images = []
        for rt in rs.positive_roots:
            image = list(rt.coords)
            image[g] -= sum(a * C[k][g] for k, a in enumerate(rt.coords))
            images.append(g + n if image[g] < 0 else index[tuple(image)])
        reflections.append(bytes(images))

    # A matrix row's update depends only on the row and g, and few distinct
    # rows occur across W, so rows are computed once and shared.
    @functools.cache
    def weight_row(row: tuple[int, ...], g: int) -> tuple[int, ...]:
        new = list(row)
        new[g] -= sum(c * row[k] for k, c in row_nz[g])
        return tuple(new)

    eye = tuple(tuple(int(a == b) for b in range(r)) for a in range(r))
    start = (1,) * r  # rho
    level = [(start, WeylElement((), eye, 1, bytes(range(n))))]
    seen = {start}
    out = []
    while level:
        nxt = []
        for x, w in level:
            out.append(w)
            action = _signed_action(w.root_images)
            for g in range(r):
                xg = x[g]
                if xg <= 0:
                    continue
                y = list(x)
                for k, c in row_nz[g]:
                    y[k] -= xg * c
                y = tuple(y)
                if y in seen:
                    continue
                seen.add(y)
                weight_m = tuple([weight_row(row, g) for row in w.weight_matrix])
                images = reflections[g].translate(action)
                nxt.append((y, WeylElement(w.word + (g + 1,), weight_m, -w.sign, images)))
        level = nxt
    return tuple(out)


def enumerate_weyl(rs: RootSystem, cap: int = 10**6) -> list[WeylElement]:
    """All of W in (length, word) order, each element under its
    lexicographically least reduced word and with its root images.

    W is enumerated once per RootSystem, as the orbit of rho under the
    simple reflections walked in integer arithmetic (see ``_descent_walk``),
    and kept on it; every call returns a new list of the same elements.

    The cap is checked first: CapExceeded(|W|) is raised without
    enumerating when the product-of-degrees formula gives more than ``cap``
    elements, so the default 10**6 refuses E7 and E8 at once.  It admits E6,
    whose 51840 elements take 0.4-0.7 s and keep 21 MB, at a peak RSS of
    47 MB for the whole interpreter (Python 3.11 on a 2-core Xeon).
    """
    order = weyl_order(rs.cartan_type)
    if order > cap:
        raise CapExceeded(order, cap)
    elements = getattr(rs, "_weyl_elements", None)
    if elements is None:
        elements = rs._weyl_elements = _descent_walk(rs)
        assert len(elements) == order, f"enumerated {len(elements)}, expected {order}"
    return list(elements)


def long_element(rs: RootSystem, cap: int = 10**6) -> WeylElement:
    """The longest element, which sends every positive root to a negative root."""
    return enumerate_weyl(rs, cap)[-1]


def weyl_denominator_check(
    rs_L: RootSystem, epsilon: Q | int, precision: int = 40, cap: int = 10**6
) -> tuple[mpmath.mpf, mpmath.mpf]:
    """Evaluate both sides of the Weyl denominator identity for rs_L.

    lhs = sum_{w in W} sgn(w) exp(eps (w rho, rho));
    rhs = prod_{alpha > 0} (exp(eps (alpha, rho)/2) - exp(-eps (alpha, rho)/2)).

    Returns high-precision reals; the identity makes them equal for every eps.
    """
    import mpmath

    eps = Q(epsilon)
    elements = enumerate_weyl(rs_L, cap)
    with mpmath.workdps(precision):
        epsf = mpmath.mpf(eps.numerator) / eps.denominator
        lhs = mpmath.mpf(0)
        for w in elements:
            inner = rs_L.weight_inner(w.apply_weight(rs_L.rho), rs_L.rho)
            lhs += w.sign * mpmath.exp(epsf * mpmath.mpf(inner.numerator) / inner.denominator)
        rhs = mpmath.mpf(1)
        for alpha in rs_L.positive_roots:
            a = rs_L.root_rho_inner(alpha, rs_L.rho)
            x = epsf * mpmath.mpf(a.numerator) / a.denominator / 2
            rhs *= mpmath.exp(x) - mpmath.exp(-x)
        return lhs, rhs
