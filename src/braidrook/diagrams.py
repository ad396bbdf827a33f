"""The rook monoid of partial permutations and its algebra with the z^N
composition rule.

A diagram on r strands is a partial permutation d of {1..r}: a bijection
between its domain dom(d) and its image im(d), each strand x in dom(d)
joining top node x to bottom node d(x). Diagrams compose by stacking d1
ABOVE d2: x(d1 d2) = (x d1) d2, and each of the N middle nodes outside
im(d1) u dom(d2) is a component that touches neither boundary; in the
algebra it is dropped and the product picks up a factor z^N. Maps read
left to right.

Only the JSON of `braidrook rook enumerate` numbers the 2r nodes: top j is
node j and bottom j is node r + j, and a diagram is written as the set
partition of 1..2r into its strands and its unmatched nodes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .scalars import scalar

ENUMERATION_BOUND = 6  # |P'_6| = 13327; full-basis operations stay tractable


def check_enumeration_bound(r: int) -> None:
    """Refuse r < 0, and r above ENUMERATION_BOUND: the rank past which
    rook_elements, the exact duality path and the Gram determinant (over
    10^4 digits at r = 6) are refused."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r > ENUMERATION_BOUND:
        raise ValueError(f"r={r} above enumeration bound {ENUMERATION_BOUND}")


# -- permutations as tuples --------------------------------------------------
# A permutation of {1..r} is a tuple w with w[i-1] = image of i; maps act on
# the right, so composing a then b is t[i] = b[a[i]].


def compose_perms(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """First a, then b."""
    return tuple(b[a[i] - 1] for i in range(len(a)))


class PartialPermutation:
    """A bijection between subsets of {1..r}: pairs (x, y) with distinct
    tops and bottoms, stored sorted by top. The hash is taken once, here:
    diagrams key the letter operators and the words of the relations."""

    __slots__ = ("r", "pairs", "_hash")

    def __init__(self, r: int, pairs: Iterable[tuple[int, int]]):
        ps = tuple(sorted((int(x), int(y)) for x, y in pairs))
        tops = [x for x, _ in ps]
        bottoms = [y for _, y in ps]
        if len(set(tops)) != len(tops) or len(set(bottoms)) != len(bottoms):
            raise ValueError("tops and bottoms must be distinct")
        if ps and not (1 <= min(tops + bottoms) and max(tops + bottoms) <= r):
            raise ValueError("indices outside 1..r")
        self.r = r
        self.pairs = ps
        self._hash = hash((r, ps))

    @staticmethod
    def identity(r: int) -> "PartialPermutation":
        return PartialPermutation(r, [(j, j) for j in range(1, r + 1)])

    @property
    def rank(self) -> int:
        return len(self.pairs)

    @property
    def dom(self) -> frozenset[int]:
        return frozenset(x for x, _ in self.pairs)

    @property
    def im(self) -> frozenset[int]:
        return frozenset(y for _, y in self.pairs)

    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    def compose(self, other: "PartialPermutation") -> tuple["PartialPermutation", int]:
        """(self then other, N); N = r - |im(self) u dom(other)| middle
        components are dropped when the product is taken in the algebra."""
        if self.r != other.r:
            raise ValueError("size mismatch")
        m2 = other.mapping()
        pairs = [(x, m2[y]) for x, y in self.pairs if y in m2]
        n_dropped = self.r - len(self.im | other.dom)
        return PartialPermutation(self.r, pairs), n_dropped

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PartialPermutation)
            and self.r == other.r
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{x}->{y}" for x, y in self.pairs)
        return f"PartialPermutation(r={self.r}: {body})"


def rook_elements(r: int) -> list[PartialPermutation]:
    """All partial permutations on r points; sum over k of C(r,k)^2 k!."""
    check_enumeration_bound(r)
    universe = range(1, r + 1)
    out = []
    for k in range(r + 1):
        for dom in combinations(universe, k):
            for im in combinations(universe, k):
                for image in permutations(im):
                    out.append(PartialPermutation(r, zip(dom, image)))
    return out


# -- generators ---------------------------------------------------------------


def transposition(i: int, j: int, r: int) -> PartialPermutation:
    if i == j or not (1 <= i <= r and 1 <= j <= r):
        raise ValueError("bad transposition indices")
    pairs = [(x, x) for x in range(1, r + 1) if x not in (i, j)]
    pairs += [(i, j), (j, i)]
    return PartialPermutation(r, pairs)


def projection(j: int, r: int) -> PartialPermutation:
    """p_j: the partial identity that forgets strand j."""
    if not 1 <= j <= r:
        raise ValueError(f"p index {j} outside 1..{r}")
    return PartialPermutation(r, [(x, x) for x in range(1, r + 1) if x != j])


def generator_diagrams(r: int) -> list[PartialPermutation]:
    """The paper's generators of R_r: s_1..s_(r-1), then p_1 (none at r = 0).
    They generate R_r: the s_i give every permutation, p_j = (1 j) p_1 (1 j),
    and every partial permutation is a product of p_j's and a permutation."""
    swaps = [transposition(i, i + 1, r) for i in range(1, r)]
    return swaps + [projection(1, r)] if r else []


# -- cycle-link structure ------------------------------------------------------


def cycle_link_decompose(d: PartialPermutation) -> list[tuple[str, tuple[int, ...]]]:
    """Munn decomposition into disjoint cycles and links, ordered by minimum
    element. A link [j_1..j_m] is a maximal chain j_1 -> ... -> j_m -> undefined
    with j_1 outside im(d); a point in neither dom nor im is a length-1 link."""
    m = d.mapping()
    dom, im = d.dom, d.im
    factors: list[tuple[str, tuple[int, ...]]] = []
    seen: set[int] = set()
    for start in range(1, d.r + 1):
        if start in seen or start in im:
            continue
        chain = [start]
        x = start
        while x in dom:
            x = m[x]
            chain.append(x)
        seen.update(chain)
        factors.append(("link", tuple(chain)))
    for start in range(1, d.r + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = m[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = m[x]
        factors.append(("cycle", tuple(cyc)))
    factors.sort(key=lambda f: f[1][0])
    return factors


def format_cycle_link(factors: Sequence[tuple[str, tuple[int, ...]]]) -> str:
    parts = []
    for kind, nodes in factors:
        inner = ",".join(str(x) for x in nodes)
        parts.append(f"[{inner}]" if kind == "link" else f"({inner})")
    return "".join(parts)


# -- presentation and rescaling reports -----------------------------------------


def _monomial(d: PartialPermutation, c: Fraction) -> tuple[PartialPermutation, Fraction] | None:
    """The algebra element c d; None is the zero element."""
    return (d, c) if c else None


def _product(z: Fraction, *factors: PartialPermutation) -> tuple[PartialPermutation, Fraction] | None:
    """factors[0] factors[1] ... in the algebra at z: the composite diagram
    times z^N, N the middle components dropped over all the compositions."""
    d, n = factors[0], 0
    for f in factors[1:]:
        d, dropped = d.compose(f)
        n += dropped
    return _monomial(d, z**n)


def relations(r: int) -> list[tuple[str, list[tuple[PartialPermutation, ...]]]]:
    """The rook-monoid relations as (name, chain) pairs, each chain a list of
    equal words in s_i = (i, i+1), p_j and (i, j), the empty word being 1:
    (a) p_j^2 = p_j and the p's commute; (b) the symmetric group relations
    of the s_i; (c) the mixed relations, and the derived insertion rule
    (i,j) p_i p_j = p_i p_j (i,j) = p_i p_j. In the algebra at z a word w is
    z^e(w) times its monoid value, e(w) the sum of r - rank over its
    letters: p_j^2 = z p_j. The list implies Popova's presentation of R_r
    on s_1..s_(r-1), p_1 (tensor.duality_report says how)."""
    s = [None] + [transposition(i, i + 1, r) for i in range(1, r)]
    p = [None] + [projection(j, r) for j in range(1, r + 1)]
    pairs = list(combinations(range(1, r + 1), 2))
    out = []
    for j in range(1, r + 1):
        out.append((f"p_{j}^2 = z p_{j}", [(p[j], p[j]), (p[j],)]))
    for i, j in pairs:
        out.append((f"p_{i} p_{j} = p_{j} p_{i}", [(p[i], p[j]), (p[j], p[i])]))
    for i in range(1, r):
        out.append((f"s_{i}^2 = 1", [(s[i], s[i]), ()]))
    for i in range(1, r - 1):
        braid = [(s[i], s[i + 1], s[i]), (s[i + 1], s[i], s[i + 1])]
        out.append((f"s_{i} s_{i+1} s_{i} = s_{i+1} s_{i} s_{i+1}", braid))
    for i, j in pairs:
        if 1 < j - i and j < r:
            out.append((f"s_{i} s_{j} = s_{j} s_{i}", [(s[i], s[j]), (s[j], s[i])]))
    for i in range(1, r):
        pp = (p[i], p[i + 1])
        out.append((f"s_{i} p_{i} p_{i+1} = p_{i} p_{i+1}", [(s[i], *pp), pp]))
        out.append((f"p_{i} p_{i+1} s_{i} = p_{i} p_{i+1}", [(*pp, s[i]), pp]))
        out.append((f"s_{i} p_{i} s_{i} = p_{i+1}", [(s[i], p[i], s[i]), (p[i + 1],)]))
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                out.append((f"s_{i} p_{j} = p_{j} s_{i}", [(s[i], p[j]), (p[j], s[i])]))
    for i, j in pairs:
        t, pp = transposition(i, j, r), (p[i], p[j])
        out.append((f"({i},{j}) p_{i} p_{j} = p_{i} p_{j} = p_{i} p_{j} ({i},{j})", [(t, *pp), pp, (*pp, t)]))
    return out


def verify_presentation(r: int, z) -> dict:
    """Check the relations of relations(r) on diagrams at parameter z: each
    word w of a chain, times z^(e - e(w)) with e the largest e(w) of the
    chain, gives one pair (diagram, c) by _product, and the pairs of a
    chain must agree. At z = 0 a side with a dropped component is the zero
    element, and p_j^2 = z p_j holds with both sides zero. r = 0 is
    refused: relations(0) is empty, so its check would hold vacuously."""
    if r < 1:
        raise ValueError("presentation needs r >= 1")
    z = scalar(z)
    one = PartialPermutation.identity(r)

    def value(word: tuple[PartialPermutation, ...], e: int) -> tuple[PartialPermutation, Fraction] | None:
        d, c = _product(z, *(word or (one,))) or (one, 0)
        return _monomial(d, c * z ** (e - sum(r - f.rank for f in word)))

    checks = []
    for name, chain in relations(r):
        e = max(sum(r - f.rank for f in word) for word in chain)
        first, *rest = (value(word, e) for word in chain)
        checks.append({"name": name, "status": "pass" if all(v == first for v in rest) else "fail"})
    return {
        "r": r,
        "z": str(z),
        "degenerate_z": z == 0,
        "relations": checks,
        "all_pass": all(c["status"] == "pass" for c in checks),
    }


def rescale_iso_check(r: int, z) -> dict:
    """Verify that rescaling a rank-k basis diagram by z^(r-k) intertwines
    the products at parameter z with the products at parameter 1. On ranks
    k1, k2 whose product has rank k and carries z^N, that is
    z^(2r-k1-k2) = z^(N+r-k), true at every z != 0 exactly when
    N = r + k - k1 - k2: the rescaling identity is that N identity, which
    is what is checked, on all basis pairs, with N read off
    PartialPermutation.compose. A pair that breaks it is reported as
    (a, b, N, r + k - k1 - k2)."""
    z = scalar(z)
    if z == 0:
        raise ValueError("rescaling needs z != 0")
    elements = rook_elements(r)
    pairs_checked = 0
    failures = []
    for a in elements:
        for b in elements:
            prod, dropped = a.compose(b)
            expect = r + prod.rank - a.rank - b.rank
            pairs_checked += 1
            if dropped != expect:
                failures.append((repr(a), repr(b), dropped, expect))
    return {
        "r": r,
        "z": str(z),
        "pairs_checked": pairs_checked,
        "failures": failures,
        "all_pass": not failures,
    }
