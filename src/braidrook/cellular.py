"""Cell structure of the partial-permutation algebra: triples (dom, pi, im),
the inflation maps phi/theta/psi, the U(k) module of k-subsets, the cell
dimension combinatorics c^r_lambda, the branching (Bratteli) diagram, and
the q-free certificates on Steinberg's groupoid basis: the Gram determinant
and the two duality dimensions (there phi is Steinberg's isomorphism and
psi_k a character of S_k, not the inflation maps phi and psi).

A rank-k basis diagram is equivalently a triple (u, b, v): a k-subset u (its
domain), a permutation b of {1..k} (written in sorted coordinates), and a
k-subset v (its image). Products act on these triples through phi_k and
theta_k modulo diagrams of lower rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import comb, factorial, prod
from operator import itemgetter
from typing import Sequence

from .diagrams import (
    PartialPermutation,
    check_enumeration_bound,
    compose_perms,
    cycle_link_decompose,
    generator_diagrams,
    relations,
)
from .linalg import rref
from .scalars import IdentityError, format_scalar, scalar

# -- partitions ----------------------------------------------------------------


def partitions_of(k: int) -> list[tuple[int, ...]]:
    """Partitions of k as weakly decreasing tuples, in descending
    lexicographic order: (k), (k-1,1), ..., (1,)*k."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out: list[tuple[int, ...]] = []

    def grow(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            grow(remaining - part, part, prefix)
            prefix.pop()

    grow(k, k, [])
    return out


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(isinstance(p, int) and p >= 1 for p in parts) and all(
        a >= b for a, b in zip(parts, parts[1:])
    )


def hook_lengths(parts: tuple[int, ...]) -> list[list[int]]:
    conj = [sum(1 for p in parts if p > i) for i in range(parts[0])] if parts else []
    return [
        [(parts[i] - j) + (conj[j] - i) - 1 for j in range(parts[i])]
        for i in range(len(parts))
    ]


def standard_tableaux_count(parts: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    k = sum(parts)
    denom = 1
    for row in hook_lengths(parts):
        for h in row:
            denom *= h
    f, rem = divmod(factorial(k), denom)
    assert rem == 0
    return f


def gl_weyl_dim(parts: tuple[int, ...], m: int) -> int:
    """Dimension of the irreducible polynomial GL_m module with highest
    weight lambda (padded with zeros): the Weyl product
    prod_{i<j} (lambda_i - lambda_j + j - i)/(j - i), which counts
    semistandard tableaux of shape lambda with entries in 1..m."""
    parts = tuple(parts)
    if not is_partition(parts):
        raise ValueError(f"not a partition: {parts}")
    if len(parts) > m:
        return 0
    lam = list(parts) + [0] * (m - len(parts))
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    d, rem = divmod(num, den)
    assert rem == 0
    return d


def partition_plus_boxes(parts: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions obtained by adding one box."""
    out = []
    for i in range(len(parts)):
        if i == 0 or parts[i] < parts[i - 1]:
            out.append(parts[:i] + (parts[i] + 1,) + parts[i + 1 :])
    out.append(parts + (1,))
    return out


@dataclass(frozen=True)
class CellLabel:
    """A cell label (k, lambda) with lambda a partition of k."""

    k: int
    parts: tuple[int, ...]

    def __post_init__(self):
        if not is_partition(self.parts) or sum(self.parts) != self.k:
            raise ValueError(f"lambda={self.parts} is not a partition of {self.k}")

    def fits_length(self, n: int) -> bool:
        """Length bound used by the tensor-space theory: l(lambda) <= n-1."""
        return len(self.parts) <= n - 1


def cell_labels(r: int) -> list[CellLabel]:
    """The label set: all partitions of k for 0 <= k <= r, k ascending and
    each batch in descending lexicographic order."""
    return [CellLabel(k, p) for k in range(r + 1) for p in partitions_of(k)]


# -- triples -------------------------------------------------------------------


@dataclass(frozen=True)
class CellTriple:
    """(dom, pi, im): sorted k-subsets and the permutation of {1..k} written
    in sorted coordinates: x_i d = y_{pi(i)}."""

    dom: tuple[int, ...]
    pi: tuple[int, ...]
    im: tuple[int, ...]

    def __post_init__(self):
        k = len(self.dom)
        if len(self.im) != k or len(self.pi) != k:
            raise ValueError("dom, pi, im must share one size k")
        if tuple(sorted(self.dom)) != self.dom or tuple(sorted(self.im)) != self.im:
            raise ValueError("dom and im must be sorted")
        if sorted(self.pi) != list(range(1, k + 1)):
            raise ValueError("pi must be a permutation of 1..k")


def triple_of(d: PartialPermutation) -> CellTriple:
    xs = tuple(sorted(d.dom))
    ys = tuple(sorted(d.im))
    pos = {y: j + 1 for j, y in enumerate(ys)}
    m = d.mapping()
    pi = tuple(pos[m[x]] for x in xs)
    return CellTriple(xs, pi, ys)


def diagram_of(t: CellTriple, r: int) -> PartialPermutation:
    return PartialPermutation(r, [(x, t.im[t.pi[i] - 1]) for i, x in enumerate(t.dom)])


def k_subsets(r: int, k: int) -> list[tuple[int, ...]]:
    """k-subsets of {1..r} in lexicographic order; the U(k) basis order."""
    return list(combinations(range(1, r + 1), k))


# -- inflation maps -------------------------------------------------------------


def phi(a: PartialPermutation, u, z) -> tuple[Fraction, frozenset[int]] | None:
    """phi_k(a, u) = z^(r - rank a) * (preimage of u under a) when u is
    contained in im(a), r = a.r; None (zero) otherwise.

    This is also the action of a on the k-subset module U(k): a full
    permutation w sends u to its preimage (u)w^{-1}, and p_j multiplies by
    z when j is outside u and kills u otherwise."""
    u = frozenset(u)
    if not u <= a.im:
        return None
    inv = {y: x for x, y in a.pairs}
    return scalar(z) ** (a.r - a.rank), frozenset(inv[y] for y in u)


def theta(a: PartialPermutation, u) -> tuple[int, ...] | None:
    """theta_k(a, u): the permutation of {1..k} carried by the restriction
    of a to the preimage of u, in sorted coordinates; None if u is not
    contained in im(a)."""
    u = frozenset(u)
    if not u <= a.im:
        return None
    pairs = [(x, y) for x, y in a.pairs if y in u]
    return triple_of(PartialPermutation(a.r, pairs)).pi


def psi(y, u, z, r: int) -> Fraction:
    """psi_k(y, u) = z^(r-k) if y = u, else 0 (coefficient of the identity of
    the rank-k symmetric group algebra)."""
    y, u = frozenset(y), frozenset(u)
    if len(y) != len(u):
        raise ValueError("subsets must share one size k")
    return scalar(z) ** (r - len(u)) if y == u else Fraction(0)


# -- dimension combinatorics ------------------------------------------------------


def dim_recursion(r: int) -> dict[CellLabel, int]:
    """c^r_lambda for lambda in the label set of r, by the branching rule
    c^r_lambda = [|lambda| <= r-1] c^(r-1)_lambda + sum over removing a box:
    the number of paths from () to lambda in bratteli(r)."""
    leaves = bratteli(r).leaf_counts()
    return {label: leaves[label.parts] for label in cell_labels(r)}


def cell_dim(r: int, parts: tuple[int, ...]) -> int:
    """dim of the cell module with label lambda: C(r,k) f^lambda."""
    parts = tuple(parts)
    k = sum(parts)
    if k > r:
        raise ValueError("|lambda| exceeds r")
    return comb(r, k) * standard_tableaux_count(parts)


def shape_dimensions(n: int, r: int) -> list[tuple[tuple[int, ...], int, int]]:
    """The Schur-Weyl shapes of E^(x r), E = Q^n: (lambda, gl_weyl_dim(lambda,
    n - 1), cell_dim(r, lambda)) for each partition lambda of k <= r with at
    most n - 1 rows, in cell_labels order."""
    return [(c.parts, gl_weyl_dim(c.parts, n - 1), cell_dim(r, c.parts)) for c in cell_labels(r) if c.fits_length(n)]


def dims_table(r: int) -> list[dict]:
    """One row per label: the branching-path count, the closed form, and
    the square contribution to dim P'_r."""
    rec = dim_recursion(r)
    rows = []
    for label, c in rec.items():
        closed = cell_dim(r, label.parts)
        rows.append(
            {
                "k": label.k,
                "lambda": list(label.parts),
                "c": c,
                "binomial_times_hooks": closed,
                "square": c * c,
            }
        )
    return rows


def rook_dimension(r: int) -> int:
    return sum(comb(r, k) ** 2 * factorial(k) for k in range(r + 1))


# -- branching diagram --------------------------------------------------------------


def partition_label(parts) -> str:
    """A partition as its parts joined by commas, "()" when empty."""
    return ",".join(str(p) for p in parts) if parts else "()"


@dataclass
class BratteliDiagram:
    """rows[t] lists the vertex labels at level t; edges[t] joins row t to
    row t+1 as index pairs (i, j)."""

    rows: list[list[tuple[int, ...]]]
    edges: list[list[tuple[int, int]]]

    def path_counts(self) -> list[list[int]]:
        counts = [[1]]
        for t, edge_list in enumerate(self.edges):
            nxt = [0] * len(self.rows[t + 1])
            for i, j in edge_list:
                nxt[j] += counts[t][i]
            counts.append(nxt)
        return counts

    def leaf_counts(self) -> dict[tuple[int, ...], int]:
        return dict(zip(self.rows[-1], self.path_counts()[-1]))

    def to_dot(self) -> str:
        lines = ["digraph bratteli {", "  rankdir=TB;", "  node [shape=plaintext];"]
        for t, row in enumerate(self.rows):
            names = " ".join(f'"L{t}_{i}"' for i in range(len(row)))
            lines.append(f"  {{ rank=same; {names} }}")
            for i, parts in enumerate(row):
                lines.append(f'  "L{t}_{i}" [label="{partition_label(parts)}"];')
        for t, edge_list in enumerate(self.edges):
            for i, j in edge_list:
                lines.append(f'  "L{t}_{i}" -> "L{t+1}_{j}";')
        lines.append("}")
        return "\n".join(lines)


def bratteli(r: int) -> BratteliDiagram:
    """Rows built by copying row t-1 and appending the partitions of t in
    descending lexicographic order; edges keep a label or add one box."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    rows: list[list[tuple[int, ...]]] = [[()]]
    edges: list[list[tuple[int, int]]] = []
    for t in range(1, r + 1):
        row = list(rows[t - 1]) + partitions_of(t)
        index = {p: j for j, p in enumerate(row)}
        edge_list = []
        for i, mu in enumerate(rows[t - 1]):
            if mu in index:
                edge_list.append((i, index[mu]))
            for lam in partition_plus_boxes(mu):
                if lam in index:
                    edge_list.append((i, index[lam]))
        rows.append(row)
        edges.append(sorted(edge_list))
    return BratteliDiagram(rows, edges)


# -- semisimplicity -----------------------------------------------------------------


def _code(r: int, pairs) -> tuple[tuple[int, ...], int, int]:
    """The diagram with these pairs as the int tuple (0, d(1), ..., d(r)),
    0 where d is undefined, and its dom and im bitmasks. The product d then e
    is e's tuple read at d's entries, and N = r - |im d u dom e| is one
    popcount."""
    m = [0] * (r + 1)
    dom = im = 0
    for x, y in pairs:
        m[x] = y
        dom |= 1 << x
        im |= 1 << y
    return tuple(m), dom, im


def generator_rows(basis: Sequence[PartialPermutation]) -> list[tuple[int, list[tuple[int, int]]]]:
    """For each generator g of diagrams.generator_diagrams(r), in order, g's
    index in basis = rook_elements(r) and the row of (k, N) over the basis,
    g b = z^N a_k in the algebra, N = r - |im g u dom b| as in
    PartialPermutation.compose. No PartialPermutation is built.

    Every entry is checked against N = r + rank(gb) - rank g - rank b, the
    ranks read off the pairs, not the bitmasks; a failure raises
    IdentityError."""
    r = basis[0].r
    codes = [_code(r, d.pairs) for d in basis]
    index = {m: i for i, (m, _, _) in enumerate(codes)}
    rows = []
    for g in generator_diagrams(r):
        m_g, _, im_g = _code(r, g.pairs)
        then = itemgetter(*m_g)
        row = []
        for b, (m, dom_b, _) in zip(basis, codes):
            k, n = index[then(m)], r - (im_g | dom_b).bit_count()
            if n != r + basis[k].rank - g.rank - b.rank:
                raise IdentityError(
                    f"N = {n} breaks N = r + rank(ab) - rank a - rank b at a = {g!r}, b = {b!r}"
                )
            row.append((k, n))
        rows.append((index[m_g], row))
    return rows


def _steinberg(d: PartialPermutation) -> dict[int, tuple[tuple[int, ...], int]]:
    """phi(d), the sum of the 2^rank(d) arrows [d|T] over T in dom d, as
    {dom T: (map, im T)} with map and the masks as in _code: phi(d) has
    exactly one arrow per domain."""
    arrows = {}
    for keep in range(1 << d.rank):
        m, dom, im = _code(d.r, [pair for t, pair in enumerate(d.pairs) if keep >> t & 1])
        arrows[dom] = (m, im)
    return arrows


def _arrow_product(x: dict, y: dict) -> dict:
    """x y in Q[G_r] for sums x, y of arrows with distinct domains, as
    _steinberg writes them. [s][t] = [s then t] when im s = dom t and 0
    otherwise, so the arrow s of x meets one arrow of y at most, the one
    with domain im s: one lookup per arrow of x, and x y again has one
    arrow per domain."""
    out = {}
    for dom, (m, im) in x.items():
        if im in y:
            m_t, im_t = y[im]
            out[dom] = (tuple(map(m_t.__getitem__, m)), im_t)  # s then t reads t's map at s's entries
    return out


def steinberg_failure(r: int, rels) -> str | None:
    """None when every chain of rels = diagrams.relations(r) holds on
    Steinberg's phi of its letters, in the groupoid algebra Q[G_r] at
    z = 1; otherwise the first relation that fails.

    The groupoid G_r has the bijections between subsets of {1..r} as
    arrows, [s][t] = [s then t] when im s = dom t and 0 otherwise, and
    phi(x) = sum of [x|T] over T in dom x (B. Steinberg, JCTA 113, 2006;
    L. Solomon, J. Algebra 256, 2002). Each word is a product of its
    letters' phi, the empty word the identity phi(1) = sum of the [id_T].
    Passing makes phi an algebra isomorphism Phi: Q[R_r] -> Q[G_r]:
    - it is an algebra map. Popova's presentation of R_r on s_1..s_(r-1),
      p_1 follows from the list (tensor.duality_report says how), so the
      checked letters extend to a monoid map into the multiplication of
      Q[G_r], and linearly to Q[R_r]. The product of phi(a) and phi(b)
      keeps [a|S][b|a(S)] for each S in dom(ab), which is [ab|S], and no
      other arrow, so Phi(d) = phi(d) along any word for d;
    - it is onto. The product of the phi(p_j) over j outside K is
      E_K = sum of [id_T] over T in K, so Moebius inversion puts every
      [id_K] in the image. For a permutation w the product of the phi(s_i)
      along a word for w is the sum of the [w|T], and [id_K] times it is
      [w|K]. Every arrow is some [w|K];
    - it is bijective. R_r and the arrows of G_r are the same set, the
      bijections between subsets of {1..r}, so both algebras have
      dimension sum_k C(r,k)^2 k!.
    Q[G_r] is the sum of the M_C(r,k)(Q S_k), so Q[R_r] is semisimple by
    Maschke's theorem."""
    letters = dict.fromkeys(d for _, chain in rels for word in chain for d in word)
    phis = {d: _steinberg(d) for d in letters}
    one = _steinberg(PartialPermutation.identity(r))
    for name, chain in rels:
        first, *rest = (reduce(_arrow_product, map(phis.get, word)) if word else one for word in chain)
        if any(value != first for value in rest):
            return f"{name} fails on phi of its letters in the groupoid algebra"
    return None


def groupoid_block(n: int, k: int) -> list[list[int]]:
    """The k! x k! matrix [psi_k(s t^-1)] over s, t in S_k, the identity
    first and products read left to right, psi_k(s) = (n - 1)^cyc(s): the
    character of S_k on [id_K] V, K = {1..k}, for a Q[R_r]-module V of
    character chi = n^cyc. As chi(x) = chi_G(phi(x)), psi_k(s) is the
    Moebius sum over T in {1..k} of (-1)^(k - |T|) n^cyc(s|T), s|T keeping
    the cycles of s inside T, and each cycle gives n - 1: n when T holds
    it, and -1 summed over the T that miss one of its points."""
    perms = list(permutations(range(1, k + 1)))
    # a permutation decomposes into cycles alone
    psi = {w: (n - 1) ** len(cycle_link_decompose(PartialPermutation(k, enumerate(w, 1)))) for w in perms}
    inverse = {w: tuple(sorted(range(1, k + 1), key=lambda x: w[x - 1])) for w in perms}
    return [[psi[compose_perms(s, inverse[t])] for t in perms] for s in perms]


def groupoid_dimensions(n: int, r: int) -> tuple[Fraction, int]:
    """(dim End_A(V), dim of the image of A in End V) for a module V of
    A = Q[R_r] whose character is n^cyc, read off one groupoid_block per k;
    steinberg_failure must have passed.

    Through phi, V is the sum over k of C(r,k) copies of the S_k-module
    W_k = [id_K] V, of character psi_k. So End_A(V) is the sum of the
    End(W_k), of dimension <psi_k, psi_k> = (1/k!) sum of psi_k(s)
    psi_k(s^-1), and the image is the sum of the M_C(r,k)(image of Q S_k).
    The trace form tr_W(xy) of that semisimple image is nondegenerate on it
    and zero on the kernel: its dimension is rank [psi_k(s t^-1)]."""
    centralizer, image = Fraction(0), 0
    for k in range(r + 1):
        block = groupoid_block(n, k)
        # row 0 holds psi_k(t^-1), over all of S_k
        centralizer += Fraction(sum(x * x for x in block[0]), factorial(k))
        image += comb(r, k) ** 2 * len(rref(block)[1])
    return centralizer, image


def _gram_counts(r: int) -> tuple[int, int, int]:
    """(m, e_r, I_r) in closed form: m = |R_r| = sum_k C(r,k)^2 k!, the sum
    e_r of r - rank over R_r, sum_k C(r,k)^2 k! (r - k), and the number I_r
    of partial involutions, sum_k C(r,k) t_k, t_k the number of involutions
    of S_k (t_k = t_(k-1) + (k - 1) t_(k-2)): a partial involution is an
    involution of its domain K."""
    t = [1, 1]
    for k in range(2, r + 1):
        t.append(t[-1] + (k - 1) * t[-2])
    e_r = sum(comb(r, k) ** 2 * factorial(k) * (r - k) for k in range(r + 1))
    return rook_dimension(r), e_r, sum(comb(r, k) * t[k] for k in range(r + 1))


def semisimplicity_certificate(r: int, z) -> dict:
    """Certify that the algebra at parameter z is semisimple by a nonzero
    Gram determinant det G(z), G(z)_ij = Tr(L_{a_i a_j}), of its regular
    trace form, L_x left multiplication by x. No rook diagram is
    enumerated; r stays within diagrams.ENUMERATION_BOUND, as det G(z)
    has over 10^4 digits at r = 6.

    Why det G(z) != 0 suffices: over Q, an element x of the Jacobson
    radical J makes every x y lie in J, so L_{xy} is nilpotent and
    Tr(L_{xy}) = 0; hence J lies in the radical of the trace form. A
    nondegenerate form forces J = 0, and a finite-dimensional algebra with
    J = 0 is semisimple. In characteristic 0 the converse holds too (the
    regular trace form of a semisimple algebra is nondegenerate), so
    det G(z) = 0 proves that the algebra is not semisimple.

    Why det G(z) = z^(2 e_r) det G(1), with e_r = sum over the basis of
    r - rank a (e_3 = 39, e_4 = 292): a basis product is ab = z^N c with
    N = r - |im a u dom b|. The strands of ab are the x in dom a with
    a(x) in dom b, so rank(ab) = |im a n dom b|, and by inclusion-exclusion
    |im a u dom b| = rank a + rank b - rank(ab). So on every pair
    N = r + rank(ab) - rank a - rank b, and the rescaled z^-(r - rank a) a
    multiply as the rook monoid R_r. So G(z) = D G(1) D with
    D = diag(z^(r - rank a)), and det D = z^(e_r).
    diagrams.rescale_iso_check checks the identity against compose on
    every pair.

    Why det G(1) = (-1)^((m - I_r)/2) prod over k of
    (C(r,k) k!)^(C(r,k)^2 k!), m = |R_r|, I_r the number of partial
    involutions: steinberg_failure checks Steinberg's phi on the letters
    of diagrams.relations(r), in Q[G_r] at z = 1, and its docstring
    writes out why that makes phi an algebra isomorphism onto Q[G_r]:
    Popova's presentation extends phi to an algebra map, Moebius
    inversion of E_K = sum of [id_T] over T in K makes it onto, and |R_r|
    is the number of arrows of G_r, so it is bijective. An isomorphism
    keeps every Tr(L_x), so G(1) = P^T H P, with P the matrix of
    phi(d) = sum of [d|T] over T in dom d, unitriangular in the
    restriction order, and H the Gram matrix on the arrows. L_[s] fixes
    the arrow [t] only when s is the identity on dom t, so the entry at
    ([s], [t]) is C(r,k) k!, the number of arrows with the domain of s,
    when t = star(s), the flip of s top to bottom, and 0 otherwise: a
    weighted permutation matrix of the involution s -> star(s). Its fixed
    points are the d with star(d) = d, exactly the partial involutions,
    I_r of them. m, e_r and I_r are read in closed form (_gram_counts). A
    failed relation raises IdentityError; no determinant is eliminated.

    Negative control, z = 0: D is zero at every diagram of rank < r (p_j,
    the empty diagram), so the rows of G(0) = D G(1) D there are zero, and
    det G(0) = 0^(2 e_r) det G(1) = 0 for every r >= 1. At r = 0, e_0 = 0
    and the determinant is 1.
    """
    z = scalar(z)
    check_enumeration_bound(r)
    failure = steinberg_failure(r, relations(r))
    if failure:
        raise IdentityError(failure)
    m, e_r, involutions = _gram_counts(r)
    weights = prod(
        (comb(r, k) * factorial(k)) ** (comb(r, k) ** 2 * factorial(k)) for k in range(r + 1)
    )
    gram_det = z ** (2 * e_r) * (-1) ** ((m - involutions) // 2) * weights
    nondegenerate = gram_det != 0
    return {
        "r": r,
        "z": str(z),
        "gram_size": m,
        "gram_det": format_scalar(gram_det),
        "gram_nondegenerate": nondegenerate,
        "semisimple": nondegenerate,
    }
