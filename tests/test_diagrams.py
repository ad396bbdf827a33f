"""Diagram composition, the rook monoid, and the z^N algebra structure."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidrook.cli import _blocks
from braidrook.diagrams import (
    PartialPermutation,
    _monomial,
    _product,
    compose_perms,
    cycle_link_decompose,
    format_cycle_link,
    generator_diagrams,
    projection,
    relations,
    rescale_iso_check,
    rook_elements,
    transposition,
    verify_presentation,
)
from rook_factorization import (
    canonical_extension,
    perm_from_cycles,
    permutation_diagram,
    projection_factorization,
)

ROOK_SIZES = [1, 2, 7, 34, 209, 1546, 13327]


# -- an independent composition oracle ------------------------------------------


def stack(r, upper, lower):
    """Stack the strands `upper` above the strands `lower` (pair lists on r
    points) over 3r nodes: tops 0..r-1, middle r..2r-1, bottoms 2r..3r-1.
    Union-find the strands and return (outer pairs sorted by top, number of
    components that lie entirely in the middle row)."""
    parent = list(range(3 * r))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in upper:
        parent[find(x - 1)] = find(r + y - 1)
    for x, y in lower:
        parent[find(r + x - 1)] = find(2 * r + y - 1)
    classes = {}
    for node in range(3 * r):
        classes.setdefault(find(node), []).append(node)
    pairs, dropped = [], 0
    for members in classes.values():
        tops = [x + 1 for x in members if x < r]
        bottoms = [x - 2 * r + 1 for x in members if x >= 2 * r]
        if not tops and not bottoms:
            dropped += 1
        elif tops and bottoms:
            pairs.append((tops[0], bottoms[0]))
    return sorted(pairs), dropped


def test_stack_oracle_worked_example():
    # p_2 above s_1 on 3 strands: top 1 -> middle 1 -> bottom 2, top 3 ->
    # bottom 3, top 2 is cut, middle 2 -> bottom 1 hangs from the bottom
    assert stack(3, [(1, 1), (3, 3)], [(1, 2), (2, 1), (3, 3)]) == ([(1, 2), (3, 3)], 0)
    # p_1 above p_1: middle node 1 touches neither boundary
    assert stack(2, [(2, 2)], [(2, 2)]) == ([(2, 2)], 1)


# -- canonical form ------------------------------------------------------------------


def test_diagram_canonical_form_and_json():
    d = PartialPermutation(2, [(2, 1), (1, 2)])
    assert d.pairs == ((1, 2), (2, 1))
    same = PartialPermutation(2, [(1, 2), (2, 1)])
    assert d == same and hash(d) == hash(same)
    # the enumerate JSON: top j is node j, bottom j is node r + j
    assert _blocks(d) == [[1, 4], [2, 3]]
    assert _blocks(PartialPermutation(3, [(3, 1)])) == [[1], [2], [3, 4], [5], [6]]


def test_identity_diagram():
    d = PartialPermutation.identity(3)
    assert d.pairs == ((1, 1), (2, 2), (3, 3))
    assert _blocks(d) == [[1, 4], [2, 5], [3, 6]]


# -- composition: worked examples ----------------------------------------------


def test_projection_squared_drops_one_component():
    # stacking p_j on itself leaves a floating middle point: p_j p_j = z p_j
    r = 3
    pj = projection(2, r)
    assert pj.compose(pj) == (pj, 1)


def test_conjugating_projection_by_swap():
    r = 4
    s2 = transposition(2, 3, r)
    step1, n1 = s2.compose(projection(2, r))
    step2, n2 = step1.compose(s2)
    assert (n1, n2) == (0, 0)
    assert step2 == projection(3, r)


def test_compose_identity_neutral():
    r = 3
    ident = PartialPermutation.identity(r)
    for d in [transposition(1, 2, r), projection(2, r), PartialPermutation(r, [(1, 3)])]:
        assert ident.compose(d) == (d, 0)
        assert d.compose(ident) == (d, 0)


def test_compose_associative_on_random_diagrams():
    rng = random.Random(7)
    pool = rook_elements(3)
    for _ in range(2000):
        a, b, c = (rng.choice(pool) for _ in range(3))
        ab, n_ab = a.compose(b)
        bc, n_bc = b.compose(c)
        left, n_l = ab.compose(c)
        right, n_r = a.compose(bc)
        assert left == right
        assert n_ab + n_l == n_bc + n_r  # total dropped components agree


# -- partial permutations ------------------------------------------------------


def test_rook_sizes():
    for r, size in enumerate(ROOK_SIZES[:6]):
        elems = rook_elements(r)
        assert len(elems) == size
        assert len(set(elems)) == size
    with pytest.raises(ValueError):
        rook_elements(7)


def test_hash_is_taken_once_and_keeps_equality():
    # equal diagrams hash alike however their pairs were listed, to the
    # value hash((r, pairs)) that a dict lookup has always seen
    a = PartialPermutation(3, [(2, 1), (1, 2)])
    b = PartialPermutation(3, iter([(1, 2), (2, 1)]))
    assert a == b and hash(a) == hash(b) == hash((3, ((1, 2), (2, 1))))
    assert a != PartialPermutation(4, a.pairs) and len({a, b, PartialPermutation(3, a.pairs)}) == 1
    assert a._hash == hash(a)


def test_rook_size_six():
    assert len(rook_elements(6)) == ROOK_SIZES[6]


def test_partial_permutation_dom_im_rank():
    d = PartialPermutation(4, [(2, 2), (1, 3)])
    assert d.pairs == ((1, 3), (2, 2))
    assert d.dom == frozenset({1, 2})
    assert d.im == frozenset({2, 3})
    assert d.rank == 2


def test_partial_permutation_validation():
    with pytest.raises(ValueError):
        PartialPermutation(3, [(1, 2), (1, 3)])  # repeated top
    with pytest.raises(ValueError):
        PartialPermutation(3, [(1, 2), (3, 2)])  # repeated bottom
    with pytest.raises(ValueError):
        PartialPermutation(3, [(1, 4)])


def test_compose_matches_diagram_stacking_exhaustive():
    for r in (1, 2, 3):
        elems = rook_elements(r)
        for a in elems:
            for b in elems:
                direct, n_direct = a.compose(b)
                assert (list(direct.pairs), n_direct) == stack(r, a.pairs, b.pairs)


def test_compose_matches_diagram_stacking_random_r5():
    rng = random.Random(11)
    elems = rook_elements(5)
    for _ in range(300):
        a, b = rng.choice(elems), rng.choice(elems)
        direct, n_direct = a.compose(b)
        assert (list(direct.pairs), n_direct) == stack(5, a.pairs, b.pairs)


@pytest.mark.parametrize("r", range(6))
def test_compose_matches_diagram_stacking_on_every_generator_row(r):
    # g b and b g for each of the r generators g and every basis diagram b:
    # the products the groupoid and character oracles read off compose
    elems = rook_elements(r)
    gens = generator_diagrams(r)
    assert len(gens) == r and all(g in elems for g in gens)
    for g in gens:
        for b in elems:
            for a, c in ((g, b), (b, g)):
                prod, dropped = a.compose(c)
                assert (list(prod.pairs), dropped) == stack(r, a.pairs, c.pairs)


def test_compose_props_formulas():
    # the through part is Z = im(a) n dom(b): rank = |Z|, dom = Z a^{-1},
    # im = Z b, and N = r - |im(a) u dom(b)|
    for r in (2, 3):
        elems = rook_elements(r)
        for a in elems:
            for b in elems:
                prod, dropped = a.compose(b)
                through = a.im & b.dom
                inv_a = {y: x for x, y in a.pairs}
                assert prod.rank == len(through)
                assert prod.dom == frozenset(inv_a[y] for y in through)
                assert prod.im == frozenset(b.mapping()[y] for y in through)
                assert dropped == r - len(a.im | b.dom)


def test_full_rank_elements_form_symmetric_group():
    r = 3
    perms = [d for d in rook_elements(r) if d.rank == r]
    assert len(perms) == 6
    for a in perms:
        for b in perms:
            prod, dropped = a.compose(b)
            assert dropped == 0
            assert prod.rank == r
            assert prod in perms
    ident = PartialPermutation.identity(r)
    for a in perms:
        inverse = PartialPermutation(r, [(y, x) for x, y in a.pairs])
        assert a.compose(inverse) == (ident, 0)


# -- permutation helpers ---------------------------------------------------------


@given(st.permutations(tuple(range(1, 7))))
def test_perm_inverse_roundtrip(w):
    w = tuple(w)
    inverse = tuple(w.index(i) + 1 for i in range(1, 7))
    assert compose_perms(w, inverse) == compose_perms(inverse, w) == tuple(range(1, 7))
    cycles, seen = [], set()
    for start in range(1, 7):
        if start not in seen:
            cycle = [start]
            while w[cycle[-1] - 1] != start:
                cycle.append(w[cycle[-1] - 1])
            seen.update(cycle)
            cycles.append(cycle)
    assert perm_from_cycles(6, cycles) == w


def test_compose_perms_is_left_to_right():
    a = (2, 1, 3)  # swap 1,2
    b = (1, 3, 2)  # swap 2,3
    # first swap 1,2 then swap 2,3: 1 -> 2 -> 3
    assert compose_perms(a, b) == (3, 1, 2)


# -- cycle-link decomposition ----------------------------------------------------


def test_cycle_link_worked_example():
    # d sends 1->2->3, fixes the 2-cycle on {4,5}, and sends 8->7->6
    d = PartialPermutation(8, [(1, 2), (2, 3), (4, 5), (5, 4), (8, 7), (7, 6)])
    factors = cycle_link_decompose(d)
    assert factors == [
        ("link", (1, 2, 3)),
        ("cycle", (4, 5)),
        ("link", (8, 7, 6)),
    ]
    assert format_cycle_link(factors) == "[1,2,3](4,5)[8,7,6]"
    w = canonical_extension(d)
    assert w == perm_from_cycles(8, [(1, 2, 3), (4, 5), (8, 7, 6)])

    assert all(w[x - 1] == y for x, y in d.pairs)


def test_cycle_link_singletons():
    # a point in neither dom nor im is its own length-1 link
    d = PartialPermutation(3, [(1, 1)])
    assert cycle_link_decompose(d) == [
        ("cycle", (1,)),
        ("link", (2,)),
        ("link", (3,)),
    ]
    assert format_cycle_link(cycle_link_decompose(d)) == "(1)[2][3]"


def test_extensions_restrict_to_d():
    # w(d) is a full permutation that agrees with d on dom(d)
    for d in rook_elements(4):
        w = canonical_extension(d)
        assert sorted(w) == list(range(1, 5))
        assert all(w[x - 1] == y for x, y in d.pairs)


def test_projection_factorization_identity():
    rng = random.Random(5)
    r, z = 4, Fraction(3)
    elems = rook_elements(r)
    ident = PartialPermutation.identity(r)
    for _ in range(40):
        d = rng.choice(elems)
        x_rest, w, y_rest = projection_factorization(d)
        w_diag = permutation_diagram(w)
        p_left = [projection(j, r) for j in sorted(x_rest)]
        p_right = [projection(j, r) for j in sorted(y_rest)]
        assert _product(z, ident, *p_left, w_diag) == (d, 1)
        assert _product(z, w_diag, *p_right) == (d, 1)


# -- monomials --------------------------------------------------------------------


def test_element_projection_relation_with_z():
    z = Fraction(5, 2)
    p1 = projection(1, 2)
    assert _product(z, p1, p1) == _monomial(p1, z) == (p1, z)
    # at z = 0 the dropped component makes the product the zero element
    assert _product(Fraction(0), p1, p1) is None
    assert _product(Fraction(0), p1) == (p1, 1)


# -- presentation report -----------------------------------------------------------


@pytest.mark.parametrize("r,z", [(2, Fraction(3)), (3, Fraction(5, 3)), (4, Fraction(1))])
def test_presentation_passes(r, z):
    report = verify_presentation(r, z)
    assert report["all_pass"]
    assert not report["degenerate_z"]
    names = [c["name"] for c in report["relations"]]
    assert f"s_1 p_1 s_1 = p_2" in names
    assert len(names) == len(set(names))


def test_presentation_degenerate_flag():
    report = verify_presentation(3, 0)
    assert report["degenerate_z"]
    # p_j^2 = z p_j still holds literally (both sides vanish)
    assert report["all_pass"]


def test_presentation_rejects_r_0():
    # relations(0) is empty, so a check at r = 0 would hold vacuously
    with pytest.raises(ValueError, match=r"^presentation needs r >= 1$"):
        verify_presentation(0, 2)


def test_relations_at_r_0_and_1():
    # R_0 is trivial, and R_1 = {1, p_1} is presented by p_1^2 = p_1
    p1 = projection(1, 1)
    assert relations(0) == []
    assert relations(1) == [("p_1^2 = z p_1", [(p1, p1), (p1,)])]


@pytest.mark.parametrize("r", range(7))
def test_every_relation_chain_holds_under_compose(r):
    # the words of a chain, each folded by compose from the identity, give
    # one diagram d, with N - e(w) = rank d - r for e(w) the sum of r - rank
    # over the letters: the rescaled letters z^-(r - rank) multiply as R_r
    for name, chain in relations(r):
        products = set()
        for word in chain:
            d, dropped = PartialPermutation.identity(r), 0
            for letter in word:
                d, n = d.compose(letter)
                dropped += n
            assert dropped - sum(r - letter.rank for letter in word) == d.rank - r, name
            products.add(d)
        assert len(products) == 1, name


def _mutated_compose(monkeypatch, mutate, at=lambda a, b: True):
    """compose with mutate(product, N) in place of (product, N) on the
    pairs a, b where at(a, b) holds."""
    real = PartialPermutation.compose

    def compose(self, other):
        out = real(self, other)
        return mutate(*out) if at(self, other) else out

    monkeypatch.setattr(PartialPermutation, "compose", compose)


def _statuses(report):
    return {c["name"]: c["status"] for c in report["relations"]}


def test_presentation_fails_on_extra_dropped_component(monkeypatch):
    """Negative control: a compose that reports one middle component too
    many gives every product a wrong power of z. At z = 3 that breaks
    p_j^2 = z p_j. At z = 1 every power of z is 1, so a wrong z-power is
    invisible there by design; only the diagrams themselves are checked."""
    _mutated_compose(monkeypatch, lambda d, n: (d, n + 1))
    report = verify_presentation(3, 3)
    assert report["all_pass"] is False
    status = _statuses(report)
    assert all(status[f"p_{j}^2 = z p_{j}"] == "fail" for j in (1, 2, 3))
    assert verify_presentation(3, 1)["all_pass"]


def test_presentation_fails_on_lost_strand(monkeypatch):
    # negative control: a rank-r product that loses one strand breaks s_i^2 = 1
    def lose_strand(d, n):
        if d.rank == d.r:
            d = PartialPermutation(d.r, d.pairs[1:])
        return d, n

    _mutated_compose(monkeypatch, lose_strand)
    report = verify_presentation(3, 3)
    assert report["all_pass"] is False
    status = _statuses(report)
    assert status["s_1^2 = 1"] == status["s_2^2 = 1"] == "fail"


# -- rescaling isomorphism -----------------------------------------------------------


@pytest.mark.parametrize("r,z", [(2, Fraction(3)), (3, Fraction(-7, 2)), (4, Fraction(7))])
def test_rescale_iso(r, z):
    report = rescale_iso_check(r, z)
    assert report["all_pass"]
    assert report["pairs_checked"] == ROOK_SIZES[r] ** 2


def test_rescale_rejects_zero():
    with pytest.raises(ValueError):
        rescale_iso_check(2, 0)


def test_rescale_iso_checks_the_product_table(monkeypatch):
    """Negative control: compose with N one off at the one pair s_2 p_1, in
    either direction, or with a strand of that product lost, fails exactly
    that pair: N is held to r + rank(ab) - rank a - rank b."""
    s2, p1 = transposition(2, 3, 3), projection(1, 3)
    prod, n = s2.compose(p1)
    lost = PartialPermutation(3, prod.pairs[1:])
    for wrong, expect in (((prod, n + 1), n), ((prod, n - 1), n), ((lost, n), n - 1)):
        with monkeypatch.context() as m:
            _mutated_compose(m, lambda d, dropped, wrong=wrong: wrong, lambda a, b: (a, b) == (s2, p1))
            report = rescale_iso_check(3, 7)
        assert not report["all_pass"]
        assert report["failures"] == [(repr(s2), repr(p1), wrong[1], expect)]


def test_rescale_iso_check_reports_a_wrong_n_on_a_whole_row(monkeypatch):
    """Negative control: N one low on every product p_1 b breaks the
    identity the rescaling to z = 1 rests on at every b. The check reports
    each pair, in basis order, and raises nothing."""
    p1 = projection(1, 3)
    with monkeypatch.context() as m:
        _mutated_compose(m, lambda d, dropped: (d, dropped - 1), lambda a, b: a == p1)
        report = rescale_iso_check(3, 7)
    want = [(repr(p1), repr(b), p1.compose(b)[1] - 1, p1.compose(b)[1]) for b in rook_elements(3)]
    assert not report["all_pass"] and report["failures"] == want


# -- generator validation --------------------------------------------------------------


def test_generator_bounds():
    with pytest.raises(ValueError):
        transposition(3, 4, 3)  # s_3 on 3 strands
    with pytest.raises(ValueError):
        transposition(0, 1, 3)
    with pytest.raises(ValueError):
        transposition(2, 2, 3)
    with pytest.raises(ValueError):
        projection(4, 3)
    with pytest.raises(ValueError):
        projection(0, 3)


def test_transposition_matches_s_generator():
    # s_2 on 4 strands crosses strands 2 and 3 and keeps 1 and 4
    assert transposition(2, 3, 4).pairs == ((1, 1), (2, 3), (3, 2), (4, 4))
