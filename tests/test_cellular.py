"""Cell triples, inflation maps, dimension combinatorics, branching diagram,
semisimplicity certificates."""

import random
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial

import pytest

import groupoid_oracle
from braidrook import cellular, diagrams, linalg
from braidrook.cellular import (
    CellLabel,
    CellTriple,
    _gram_counts,
    bratteli,
    cell_dim,
    cell_labels,
    diagram_of,
    dim_recursion,
    dims_table,
    generator_rows,
    groupoid_block,
    groupoid_dimensions,
    hook_lengths,
    k_subsets,
    partition_plus_boxes,
    partitions_of,
    phi,
    psi,
    rook_dimension,
    semisimplicity_certificate,
    shape_dimensions,
    standard_tableaux_count,
    steinberg_failure,
    theta,
    triple_of,
)
from braidrook.diagrams import (
    PartialPermutation,
    _monomial,
    _product,
    compose_perms,
    generator_diagrams,
    projection,
    relations,
    rook_elements,
    transposition,
)
from braidrook.linalg import det
from braidrook.scalars import IdentityError
from character_oracle import moebius_block, moebius_dimensions
from gram_oracle import product_table, regular_trace_gram, tensor_character, tensor_dimensions
from groupoid_oracle import bump_arrow, drop_empty_arrow, groupoid_failure, star
from rook_factorization import permutation_diagram

# -- partitions -----------------------------------------------------------------


def test_partitions_descending_lex():
    assert partitions_of(0) == [()]
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(partitions_of(6)) == 11


def test_partition_box_moves():
    assert partition_plus_boxes((2, 1)) == [(3, 1), (2, 2), (2, 1, 1)]
    assert partition_plus_boxes(()) == [(1,)]


def test_hooks_and_tableaux_counts():
    assert hook_lengths((2, 1)) == [[3, 1], [1]]
    assert standard_tableaux_count((2, 1)) == 2
    assert standard_tableaux_count((2, 2)) == 2
    assert standard_tableaux_count(()) == 1
    for k in range(7):
        assert standard_tableaux_count((k,) if k else ()) == 1
    # sum of squares over partitions of k is k!
    for k in range(1, 8):
        assert sum(standard_tableaux_count(p) ** 2 for p in partitions_of(k)) == factorial(k)
    with pytest.raises(ValueError):
        standard_tableaux_count((1, 2))


def test_cell_labels_and_length_filter():
    labels = cell_labels(3)
    assert [l.parts for l in labels] == [
        (),
        (1,),
        (2,),
        (1, 1),
        (3,),
        (2, 1),
        (1, 1, 1),
    ]
    assert CellLabel(2, (1, 1)).fits_length(3)
    assert not CellLabel(2, (1, 1)).fits_length(2)
    with pytest.raises(ValueError):
        CellLabel(3, (2, 2))


# -- triples --------------------------------------------------------------------


def test_triple_worked_example():
    d = PartialPermutation(8, [(1, 2), (2, 3), (4, 5), (5, 4), (8, 7), (7, 6)])
    t = triple_of(d)
    assert t.dom == (1, 2, 4, 5, 7, 8)
    assert t.pi == (1, 2, 4, 3, 5, 6)
    assert t.im == (2, 3, 4, 5, 6, 7)
    assert diagram_of(t, 8) == d


def test_triple_identity():
    d = PartialPermutation.identity(4)
    t = triple_of(d)
    assert t == CellTriple((1, 2, 3, 4), (1, 2, 3, 4), (1, 2, 3, 4))


def test_triple_roundtrip_all_r3():
    for d in rook_elements(3):
        assert diagram_of(triple_of(d), 3) == d


def test_triple_validation():
    with pytest.raises(ValueError):
        CellTriple((2, 1), (1, 2), (1, 2))  # dom unsorted
    with pytest.raises(ValueError):
        CellTriple((1, 2), (1, 1), (1, 2))  # pi not a permutation
    with pytest.raises(ValueError):
        CellTriple((1, 2), (1, 2), (1,))  # size mismatch


def test_star_is_triple_flip_with_inverted_pi():
    for d in rook_elements(3):
        t, ts = triple_of(d), triple_of(star(d))
        assert ts.dom == t.im and ts.im == t.dom
        assert ts.pi == tuple(t.pi.index(i) + 1 for i in range(1, len(t.pi) + 1))
        assert star(star(d)) == d


def test_star_diagram_antihomomorphism():
    rng = random.Random(2)
    elems = rook_elements(3)
    for _ in range(60):
        a, b = rng.choice(elems), rng.choice(elems)
        prod, n1 = a.compose(b)
        flipped, n2 = star(b).compose(star(a))
        assert flipped == star(prod) and n1 == n2


# -- inflation maps ---------------------------------------------------------------


def test_phi_examples():
    r, z = 2, Fraction(5)
    ident = PartialPermutation.identity(r)
    assert phi(ident, {2}, z) == (Fraction(1), frozenset({2}))
    p1 = projection(1, r)
    assert phi(p1, {2}, z) == (z, frozenset({2}))
    assert phi(p1, {1}, z) is None


def test_theta_examples():
    r = 4
    ident = PartialPermutation.identity(r)
    assert theta(ident, {1, 3}) == (1, 2)
    w = permutation_diagram((2, 3, 1, 4))
    # preimage of u={1,3}: 3->1, 2->3; sorted dom (2,3), sorted im (1,3):
    # 2 -> 3 = y_2, 3 -> 1 = y_1
    assert theta(w, {1, 3}) == (2, 1)
    assert theta(projection(1, r), {1, 2}) is None


def test_psi_rules():
    assert psi({1}, {1}, Fraction(7), 3) == 49
    assert psi({1, 2}, {1, 2}, Fraction(7), 3) == 7
    assert psi({1, 2}, {1, 3}, Fraction(7), 3) == 0
    assert psi({1}, {1}, Fraction(9), 1) == 1
    with pytest.raises(ValueError):
        psi({1}, {1, 2}, 7, 3)


def test_uk_action_generator_rules():
    r, z = 2, Fraction(3)
    assert phi(projection(1, r), {2}, z) == (z, frozenset({2}))
    assert phi(projection(2, r), {2}, z) is None
    w = transposition(1, 2, r)
    assert phi(w, {2}, z) == (Fraction(1), frozenset({1}))
    assert phi(PartialPermutation.identity(r), {1}, z) == (
        Fraction(1),
        frozenset({1}),
    )


def test_uk_action_multiplicative():
    # acting by g then by f agrees with acting by the algebra product f*g
    rng = random.Random(17)
    r, z = 4, Fraction(5, 2)
    elems = rook_elements(r)
    subsets = k_subsets(r, 2)
    for _ in range(200):
        f, g = rng.choice(elems), rng.choice(elems)
        u = frozenset(rng.choice(subsets))
        inner = phi(g, u, z)
        if inner is None:
            stepwise = None
        else:
            c, u2 = inner
            outer = phi(f, u2, z)
            stepwise = None if outer is None else (c * outer[0], outer[1])
        prod, dropped = f.compose(g)
        combined = phi(prod, u, z)
        if combined is not None:
            combined = (combined[0] * z**dropped, combined[1])
        assert stepwise == combined


def test_inflation_multiplication_rule_exhaustive_top_cell():
    # at k = r the triple diagrams are the full permutations; multiply any
    # basis element against them and compare with the phi/theta prediction
    r, z = 3, Fraction(7, 3)
    perms = [d for d in rook_elements(r) if d.rank == r]
    u = frozenset(range(1, r + 1))
    for a in rook_elements(r):
        for b in perms:
            lhs = _product(z, a, b)
            pred = phi(a, u, z)
            if pred is None:
                assert lhs[0].rank < r
                continue
            coeff, u_new = pred
            tb = triple_of(b)
            expected = diagram_of(
                CellTriple(
                    tuple(sorted(u_new)), compose_perms(theta(a, u), tb.pi), tb.im
                ),
                r,
            )
            assert lhs == _monomial(expected, coeff)


def test_inflation_multiplication_rule_sampled_lower_cells():
    # rank-k component of a * (u, b, v) is coeff * (phi-subset, theta∘b, v);
    # every other component has strictly smaller rank
    rng = random.Random(23)
    r, z = 4, Fraction(3)
    elems = rook_elements(r)
    for _ in range(300):
        a = rng.choice(elems)
        k = rng.randint(0, r)
        u = tuple(sorted(rng.sample(range(1, r + 1), k)))
        v = tuple(sorted(rng.sample(range(1, r + 1), k)))
        b = tuple(rng.sample(range(1, k + 1), k))
        d = diagram_of(CellTriple(u, b, v), r)
        prod, dropped = a.compose(d)
        pred = phi(a, set(u), z)
        if pred is None:
            assert prod.rank < k
            continue
        coeff, u_new = pred
        expected = diagram_of(
            CellTriple(tuple(sorted(u_new)), compose_perms(theta(a, set(u)), b), v), r
        )
        assert prod == expected
        assert z**dropped == coeff


# -- dimensions -------------------------------------------------------------------


def test_dim_recursion_small_tables():
    assert {l.parts: c for l, c in dim_recursion(0).items()} == {(): 1}
    row3 = dim_recursion(3)
    assert [c for c in row3.values()] == [1, 3, 3, 3, 1, 2, 1]
    assert sum(c * c for c in row3.values()) == 34
    row4 = {l.parts: c for l, c in dim_recursion(4).items()}
    assert row4[(2, 1)] == 8
    assert row4[(2, 2)] == 2


def test_cell_dim_closed_form():
    assert cell_dim(4, (2, 1)) == comb(4, 3) * 2 == 8
    assert cell_dim(4, (2, 2)) == 2
    with pytest.raises(ValueError):
        cell_dim(2, (2, 1))


def test_shape_dimensions_at_r2():
    # the shapes of E^(x 2): every lambda of k <= 2 with at most n - 1 rows
    assert shape_dimensions(3, 2) == [((), 1, 1), ((1,), 2, 2), ((2,), 3, 1), ((1, 1), 1, 1)]
    assert shape_dimensions(2, 2) == [((), 1, 1), ((1,), 1, 2), ((2,), 1, 1)]


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("r", range(6))
def test_shape_dimensions_count_the_tensor_space_and_the_algebra(n, r):
    # E^(x r) is the sum of W_lambda (x) C_lambda: sum d c = n^r; when
    # n > r no shape of k <= r is cut off, and sum c^2 = |R_r|
    table = shape_dimensions(n, r)
    assert [lam for lam, *_ in table] == [c.parts for c in cell_labels(r) if len(c.parts) < n]
    assert sum(d * c for _, d, c in table) == n**r
    if n > r:
        assert sum(c * c for *_, c in table) == rook_dimension(r)


def test_three_way_dimension_agreement():
    # recursion = binomial * hook-length = branching path count, r <= 6
    for r in range(7):
        rec = dim_recursion(r)
        leaves = bratteli(r).leaf_counts()
        assert len(rec) == len(leaves)
        for label, c in rec.items():
            assert c == cell_dim(r, label.parts)
            assert c == leaves[label.parts]
        assert sum(c * c for c in rec.values()) == rook_dimension(r)


def test_rook_dimension_sequence():
    assert [rook_dimension(r) for r in range(7)] == [1, 2, 7, 34, 209, 1546, 13327]


def test_dims_table_shape():
    rows = dims_table(2)
    assert rows == [
        {"k": 0, "lambda": [], "c": 1, "binomial_times_hooks": 1, "square": 1},
        {"k": 1, "lambda": [1], "c": 2, "binomial_times_hooks": 2, "square": 4},
        {"k": 2, "lambda": [2], "c": 1, "binomial_times_hooks": 1, "square": 1},
        {"k": 2, "lambda": [1, 1], "c": 1, "binomial_times_hooks": 1, "square": 1},
    ]


# -- branching diagram ---------------------------------------------------------------


def test_bratteli_rows_follow_copy_then_append():
    b = bratteli(3)
    assert b.rows[0] == [()]
    assert b.rows[1] == [(), (1,)]
    assert b.rows[2] == [(), (1,), (2,), (1, 1)]
    assert b.rows[3] == [(), (1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1)]


def test_bratteli_edge_rule():
    b = bratteli(2)
    # row1 -> row2: () keeps or adds to (1); (1) keeps or adds to (2),(1,1)
    assert set(b.edges[1]) == {(0, 0), (0, 1), (1, 1), (1, 2), (1, 3)}


def test_bratteli_path_counts():
    assert bratteli(0).leaf_counts() == {(): 1}
    assert bratteli(2).leaf_counts() == {(): 1, (1,): 2, (2,): 1, (1, 1): 1}
    leaves4 = bratteli(4).leaf_counts()
    assert len(leaves4) == 12
    assert leaves4[(2, 1)] == 8


def test_bratteli_dot_output():
    dot = bratteli(1).to_dot()
    assert dot.startswith("digraph bratteli {")
    assert '"L0_0" -> "L1_1"' in dot
    assert 'label="1"' in dot and 'label="()"' in dot
    assert dot.endswith("}")


# -- k-subsets ------------------------------------------------------------------------


def test_k_subsets_lexicographic():
    assert k_subsets(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert k_subsets(3, 0) == [()]
    assert len(k_subsets(5, 2)) == 10


# -- semisimplicity ---------------------------------------------------------------------


def test_semisimplicity_r2():
    report = semisimplicity_certificate(2, Fraction(7))
    assert report["gram_size"] == 7
    assert report["semisimple"]


def test_semisimplicity_r3_z1():
    report = semisimplicity_certificate(3, 1)
    assert report["gram_size"] == 34
    assert report["gram_nondegenerate"]
    assert report["semisimple"]


@pytest.mark.parametrize("r", [1, 2, 3])
def test_semisimplicity_negative_control_at_z0(r):
    # at z = 0 every row of G(0) = D G(1) D at a diagram of rank < r is zero
    report = semisimplicity_certificate(r, 0)
    assert report["gram_det"] == "0"
    assert not report["gram_nondegenerate"] and not report["semisimple"]
    basis, gram = _gram(r)
    for i, a in enumerate(basis):
        if a.rank < r:
            assert all(
                _gram_at(gram, basis, i, j, Fraction(0)) == 0 for j in range(len(basis))
            )


def test_semisimplicity_r0_is_the_ground_field():
    for z in (0, 7):
        report = semisimplicity_certificate(0, z)
        assert report["gram_size"] == 1 and report["gram_det"] == "1"
        assert report["semisimple"]


def _gram(r):
    """The basis rook_elements(r) and its G(1), read off the oracle's table."""
    basis = rook_elements(r)
    return basis, regular_trace_gram(product_table(basis))


def _gram_entry_by_pair(a, b, basis, z):
    """The per-pair formula the multiplication table replaced: Tr(L_{ab})
    by composing ab with every basis diagram."""

    def regular_trace(c, power):
        total = Fraction(0)
        for e in basis:
            prod, dropped = c.compose(e)
            if prod == e:
                total += z ** (power + dropped)
        return total

    prod, dropped = a.compose(b)
    return regular_trace(prod, dropped)


def _gram_at(gram, basis, i, j, z):
    """Entry (i, j) of G(z) = D G(1) D, D = diag(z^(r - rank a))."""
    r = basis[i].r
    return z ** (2 * r - basis[i].rank - basis[j].rank) * gram[i][j]


@pytest.mark.parametrize(
    "z", [Fraction(0), Fraction(1), Fraction(7), Fraction(-1, 3), Fraction(7, 3)], ids=str
)
def test_regular_trace_gram_matches_the_per_pair_formula(z):
    for r in range(4):
        basis, gram = _gram(r)
        assert [len(row) for row in gram] == [len(basis)] * len(basis)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert _gram_at(gram, basis, i, j, z) == _gram_entry_by_pair(a, b, basis, z)


@pytest.mark.parametrize("r", range(5))
def test_regular_trace_gram_is_dense_int_rows(r):
    # the Bareiss oracle for the Gram determinant runs on ints, no Fraction
    _, gram = _gram(r)
    m = rook_dimension(r)
    assert len(gram) == m and all(len(row) == m for row in gram)
    assert all(type(x) is int for row in gram for x in row)


def test_regular_trace_gram_matches_the_per_pair_formula_sampled_r4():
    z = Fraction(7, 3)
    basis, gram = _gram(4)
    rng = random.Random(8)
    for _ in range(300):
        i, j = rng.randrange(len(basis)), rng.randrange(len(basis))
        assert _gram_at(gram, basis, i, j, z) == _gram_entry_by_pair(basis[i], basis[j], basis, z)


@pytest.mark.parametrize("r", range(6))
def test_product_table_matches_compose_on_every_pair(r):
    # every generator x basis pair of the rows both certificates read
    basis = rook_elements(r)
    index = {d: i for i, d in enumerate(basis)}
    rows = generator_rows(basis)
    assert [basis[gi] for gi, _ in rows] == generator_diagrams(r)
    for gi, row in rows:
        assert len(row) == len(basis)
        for b, entry in zip(basis, row):
            prod, dropped = basis[gi].compose(b)
            assert entry == (index[prod], dropped)


def test_generator_rows_at_r4_are_r_rows_of_m_entries():
    # the r generator rows, not the m x m table
    rows = generator_rows(rook_elements(4))
    assert len(rows) == 4 and [len(row) for _, row in rows] == [209] * 4


def test_gram_certificate_makes_no_compose_call(monkeypatch):
    calls = 0
    compose = PartialPermutation.compose

    def counted(self, other):
        nonlocal calls
        calls += 1
        return compose(self, other)

    monkeypatch.setattr(PartialPermutation, "compose", counted)
    report = semisimplicity_certificate(3, Fraction(7))
    assert report["gram_size"] == 34 and calls == 0


# det G_3(7), as the per-pair formula gave it before the table
GRAM_DET_R3_Z7 = (
    "77155772309645030268428083665023828198527526127085335500975857247642904353947998467653632"
)


def test_gram_certificate_pinned_r3_z7():
    assert semisimplicity_certificate(3, 7)["gram_det"] == GRAM_DET_R3_Z7


def test_gram_certificate_enumerates_no_diagram(monkeypatch):
    # the relation check reads the letters of relations(r), and m, e_r and
    # I_r are closed forms
    calls = []
    for name in ("rook_elements", "generator_rows"):
        for module in (cellular, diagrams):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, lambda *a, name=name: calls.append(name))
    assert semisimplicity_certificate(5, 7)["gram_size"] == 1546 and calls == []


@pytest.mark.parametrize("r", [7, 8])
def test_gram_certificate_keeps_the_enumeration_bound(r):
    # det G(z) has over 10^4 digits at r = 6
    with pytest.raises(ValueError, match=f"^r={r} above enumeration bound 6$"):
        semisimplicity_certificate(r, 7)
    with pytest.raises(ValueError, match="^r must be nonnegative$"):
        semisimplicity_certificate(-1, 7)


def test_gram_certificate_raises_on_a_wrong_generator_product(monkeypatch):
    """Negative control: phi(s_1) with its arrow [s_1|{1}] sent to 1 -> 3
    makes phi(s_1)^2 send 1 to 3, where s_1^2 = 1 needs the identity."""
    bump_arrow(monkeypatch, transposition(1, 2, 3))
    with pytest.raises(IdentityError, match=r"^s_1\^2 = 1 fails on phi of its letters in the groupoid algebra$"):
        semisimplicity_certificate(3, 7)


def test_gram_certificate_raises_on_a_bumped_p1_arrow(monkeypatch):
    """Negative control: phi(p_1) with its arrow [p_1|{2}] sent to 2 -> 3
    still squares to itself, but phi(p_1) phi(p_2) keeps the arrow 2 -> 3
    that phi(p_2) phi(p_1) drops."""
    bump_arrow(monkeypatch, projection(1, 3))
    with pytest.raises(IdentityError, match=r"^p_1 p_2 = p_2 p_1 fails on phi"):
        semisimplicity_certificate(3, 7)


def test_groupoid_check_fails_with_one_restriction_dropped(monkeypatch):
    # phi(p_1) without its empty restriction: s_1 phi(p_1) s_1 has no empty
    # arrow, and phi(p_2) has one
    drop_empty_arrow(monkeypatch, projection(1, 3))
    with pytest.raises(IdentityError, match=r"^s_1 p_1 s_1 = p_2 fails on phi"):
        semisimplicity_certificate(3, 7)


@pytest.mark.parametrize("r", range(6))
def test_groupoid_check_passes_on_the_true_table(r):
    # the relation check on the letters and the all-basis oracle agree
    basis = rook_elements(r)
    assert groupoid_failure(basis, generator_rows(basis)) is None
    assert steinberg_failure(r, relations(r)) is None
    assert len(generator_diagrams(r)) == r


BUMPED_LETTERS = [transposition(1, 2, 4), transposition(2, 3, 4), projection(1, 4), projection(3, 4), transposition(1, 3, 4)]


@pytest.mark.parametrize("letter", BUMPED_LETTERS, ids=repr)
def test_relation_check_and_the_oracle_both_fail_on_a_bumped_arrow(monkeypatch, letter):
    # the arrow that bump_arrow moves, moved in the oracle's phi too
    x, y = letter.pairs[0]
    moved = cellular._code(4, [(x, y % 4 + 1)])
    real = groupoid_oracle.arrows

    def arrows(d):
        return [moved if a[1] == moved[1] else a for a in real(d)] if d == letter else real(d)

    monkeypatch.setattr(groupoid_oracle, "arrows", arrows)
    bump_arrow(monkeypatch, letter)
    basis = rook_elements(4)
    assert groupoid_failure(basis, generator_rows(basis)) is not None
    assert steinberg_failure(4, relations(4)) is not None


@pytest.mark.parametrize("r", range(7))
def test_gram_counts_match_the_enumerated_basis(r):
    # m, e_r and I_r in closed form against the count over R_r
    basis = rook_elements(r)
    m, e_r, involutions = _gram_counts(r)
    assert m == len(basis) == rook_dimension(r)
    assert e_r == sum(r - d.rank for d in basis)
    assert involutions == sum(star(d) == d for d in basis)


GRAM_ZS = [Fraction(7), Fraction(13, 4), Fraction(0), Fraction(-1, 3), Fraction(7, 4), Fraction(3)]


@pytest.mark.parametrize("r", range(5))
def test_gram_det_matches_the_bareiss_oracle(r):
    # det G(z) = z^(2 e_r) det G(1), with det G(1) eliminated from the
    # m x m oracle rows, against the groupoid's closed form
    basis, gram = _gram(r)
    e_r = sum(r - d.rank for d in basis)
    det_g1 = det(gram)
    for z in GRAM_ZS:
        assert semisimplicity_certificate(r, z)["gram_det"] == str(z ** (2 * e_r) * det_g1)


def test_semisimplicity_certificate_makes_no_det_call(monkeypatch):
    calls = 0
    real = linalg.det

    def counted(rows):
        nonlocal calls
        calls += 1
        return real(rows)

    for module in (linalg, cellular):
        if getattr(module, "det", None) is real:
            monkeypatch.setattr(module, "det", counted)
    assert semisimplicity_certificate(3, 7)["gram_det"] == GRAM_DET_R3_Z7
    assert calls == 0


@pytest.mark.parametrize("n,r", [(3, 2), (2, 3), (4, 3), (2, 4), (3, 4)])
def test_groupoid_dimensions_match_the_eliminations(n, r):
    # sum <psi_k, psi_k> = chi^T G(1)^-1 chi and sum C(r,k)^2 rank psi_k =
    # rank chi(ab), for chi = n^cyc, the character of the tensor space
    assert groupoid_dimensions(n, r) == tensor_dimensions(n, r)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_groupoid_blocks_are_the_moebius_inversion_of_n_cyc(n):
    # psi_k = (n - 1)^cyc against the 2^k-term Moebius sum of n^cyc over
    # every block k <= 5, so groupoid_dimensions(n, r) reads the same blocks
    # for r <= 5; the dimensions themselves agree for r <= 4
    for k in range(6):
        basis = rook_elements(k)
        value = {d.pairs: x for d, x in zip(basis, tensor_character(n, basis))}
        assert groupoid_block(n, k) == moebius_block(value, k)
    for r in range(5):
        basis = rook_elements(r)
        assert groupoid_dimensions(n, r) == moebius_dimensions(basis, tensor_character(n, basis))


def test_groupoid_dimensions_move_with_a_miscounted_cycle(monkeypatch):
    # psi_3(1) = (n - 1)^2 where the identity of S_3 has 3 cycles
    real = cellular.cycle_link_decompose

    def miscounted(d):
        factors = real(d)
        return factors[1:] if d == PartialPermutation.identity(3) else factors

    true = groupoid_dimensions(3, 3)
    monkeypatch.setattr(cellular, "cycle_link_decompose", miscounted)
    assert true == (35, 33)
    assert groupoid_dimensions(3, 3) == (27, 34)


def test_semisimplicity_r4_z7_pinned():
    # the value the per-pair formula gave before the multiplication table
    report = semisimplicity_certificate(4, 7)
    assert report["gram_size"] == 209 and report["semisimple"]
    assert Fraction(report["gram_det"]) == -(2**536) * 3**192 * 7**584


def test_semisimplicity_r5_z7_pinned():
    # 7076 digits, over the 4300 that str(int) allows by default;
    # e_5 = 2505 and I_5 = 142
    limit = sys.get_int_max_str_digits()
    report = semisimplicity_certificate(5, 7)
    assert sys.get_int_max_str_digits() == limit
    assert report["gram_size"] == 1546 and report["semisimple"]
    expected = 2**3760 * 3**1320 * 5**1545 * 7**5010
    assert report["gram_det"] == str(Decimal(expected))
    assert len(report["gram_det"]) == 7076
    basis = rook_elements(5)
    assert sum(5 - d.rank for d in basis) == 2505
    assert sum(star(d) == d for d in basis) == 142
