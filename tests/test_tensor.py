"""Commuting tensor actions, centralizers, enveloping algebras, duality."""

import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import permutations, product

import pytest
from dense import unit
import character_oracle
from gram_oracle import eliminated_dimensions, product_table, tensor_character
from groupoid_oracle import bump_arrow, drop_empty_arrow
from rook_factorization import projection_factorization

from braidrook import _modlinalg, acceptance, burau, cellular, diagrams, linalg, matrix, tensor
from braidrook.burau import BurauParams, projection_p, split_generators, unreduced_generator
from braidrook.diagrams import (
    PartialPermutation,
    generator_diagrams,
    projection,
    relations,
    rook_elements,
    transposition,
)
from braidrook.linalg import commutant, matrix_span, span_closure, spans_equal
from braidrook.matrix import Matrix, kron
from braidrook.tensor import (
    MATRIX_SIZE_BUDGET,
    braid_generators,
    centralizer_of_braid,
    diagram_op,
    duality_report,
    enveloping_braid,
    q1_special_solve,
    rook_generators,
    rook_image,
    schur_algebra,
    schur_algebra_intersection,
)

P32 = BurauParams.preset(3)  # (q1, q2) = (1, -2), q = 2
P22 = BurauParams.preset(2)


def _shape_sums(n, r):
    """(sum c^2, sum d^2, sum d c) over cellular.shape_dimensions(n, r): the
    cell, GL_(n-1) and bimodule sums of the duality report."""
    table = cellular.shape_dimensions(n, r)
    return sum(c * c for *_, c in table), sum(d * d for _, d, _ in table), sum(d * c for _, d, c in table)


def swap_op(i, p, r):
    """The operator of the paper's s_i = (i, i+1) on E^(x r)."""
    return diagram_op(transposition(i, i + 1, r), p, r)


def projection_op(j, p, r):
    """The operator of the paper's p_j on E^(x r)."""
    return diagram_op(projection(j, r), p, r)


# -- generator construction -------------------------------------------------------


def test_braid_tensor_gen_r1_is_unreduced():
    assert braid_generators(P32, 1) == [unreduced_generator(i, P32) for i in (1, 2)]


def test_braid_tensor_gen_is_kron_power():
    g = unreduced_generator(1, P22)
    assert braid_generators(P22, 2) == [kron(g, g)]


def test_braid_relations_at_tensor_level():
    b1, b2 = braid_generators(P32, 2)
    assert b1 * b2 * b1 == b2 * b1 * b2


def test_place_swap_squares_to_identity():
    s = swap_op(1, P32, 2)
    assert s * s == Matrix.identity(9)


def test_projection_op_idempotent_up_to_quantum_integer():
    for p, r in [(P32, 2), (P22, 3)]:
        z = p.quantum(p.n)
        for j in range(1, r + 1):
            pj = projection_op(j, p, r)
            assert pj * pj == pj.scale(z)


def test_projection_abstract_formula_n2():
    # q = 2: p_1 e_2 = q^(2-1) (e_1 + e_2)
    p1 = projection_op(1, P22, 1)
    assert [p1[(i, 1)] for i in range(2)] == [Fraction(2), Fraction(2)]
    assert [p1[(i, 0)] for i in range(2)] == [Fraction(1), Fraction(1)]


def test_rook_tensor_gen_bounds():
    with pytest.raises(ValueError):
        swap_op(2, P32, 2)
    with pytest.raises(ValueError):
        projection_op(3, P32, 2)


def test_mixed_relation_conjugating_projection():
    s = swap_op(1, P32, 2)
    p1 = projection_op(1, P32, 2)
    p2 = projection_op(2, P32, 2)
    assert s * p1 * s == p2


# -- the diagram action is multiplicative -------------------------------------------


def test_diagram_action_homomorphism_exhaustive_r2():
    p, r = P22, 2
    z = p.quantum(p.n)
    elems = rook_elements(r)
    ops = {d: diagram_op(d, p, r) for d in elems}
    for a in elems:
        for b in elems:
            prod, dropped = a.compose(b)
            assert ops[a] * ops[b] == ops[prod].scale(z**dropped)


def test_diagram_action_homomorphism_sampled_r3():
    rng = random.Random(31)
    p, r = P22, 3
    z = p.quantum(p.n)
    elems = rook_elements(r)
    for _ in range(40):
        a, b = rng.choice(elems), rng.choice(elems)
        prod, dropped = a.compose(b)
        lhs = diagram_op(a, p, r) * diagram_op(b, p, r)
        assert lhs == diagram_op(prod, p, r).scale(z**dropped)


def diagram_op_direct(d, p, r):
    """Oracle for diagram_op from the basis-vector rule: e_J goes to the
    product of q^(J_t - 1) over t outside im(d), times the sum of all e_K
    with K_s = J_{(s)d} on dom(d) and the other slots free. Tuples are
    flattened with the first slot most significant."""
    n, q = p.n, p.q
    size = n**r

    def flat(j_tuple):
        return sum((j - 1) * n ** (r - 1 - s) for s, j in enumerate(j_tuple))

    entries = [Fraction(0)] * (size * size)
    mapping = d.mapping()
    free_slots = [s for s in range(1, r + 1) if s not in d.dom]
    for j_tuple in product(range(1, n + 1), repeat=r):
        coeff = Fraction(1)
        for t in range(1, r + 1):
            if t not in d.im:
                coeff *= q ** (j_tuple[t - 1] - 1)
        base = {s: j_tuple[mapping[s] - 1] for s in d.dom}
        for fill in product(range(1, n + 1), repeat=len(free_slots)):
            k_tuple = tuple(
                base[s] if s in base else fill[free_slots.index(s)]
                for s in range(1, r + 1)
            )
            entries[flat(k_tuple) * size + flat(j_tuple)] += coeff
    return Matrix(size, size, entries)


def place_permutation_matrix(w, n):
    """e_J goes to e_(J o w), (J o w)_s = J_(w(s)), for a permutation w of
    the r slots given as the tuple of images."""
    r = len(w)
    size = n**r
    tuples = list(product(range(1, n + 1), repeat=r))
    flat = {j_tuple: i for i, j_tuple in enumerate(tuples)}
    ones = {}
    for col, j_tuple in enumerate(tuples):
        moved = tuple(j_tuple[w[s] - 1] for s in range(r))
        ones[flat[moved] * size + col] = 1
    return Matrix(size, size, ones)


def slot_projection(j, p, r):
    """The paper's P (burau.projection_p) in slot j, the identity elsewhere."""
    mats = [projection_p(p) if s == j else Matrix.identity(p.n) for s in range(1, r + 1)]
    return reduce(kron, mats)


def factorized_op(d, p, r, w):
    """(prod of p_j over j outside dom(d)) followed by the place permutation
    of w; equals the operator of d when the permutation w extends d."""
    op = Matrix.identity(p.n**r)
    for j in sorted(set(range(1, r + 1)) - d.dom):
        op = op * slot_projection(j, p, r)
    return op * place_permutation_matrix(w, p.n)


def swap_word(w):
    """Indices i_1, ..., i_k with s_(i_1) ... s_(i_k) = w, by bubble sort:
    w = s_i w' where w' is w with the images at i and i + 1 exchanged."""
    images, word = list(w), []
    while images != sorted(images):
        i = next(i for i in range(1, len(images)) if images[i - 1] > images[i])
        images[i - 1], images[i] = images[i], images[i - 1]
        word.append(i)
    return word


FACTORIZED_CASES = [
    (BurauParams.preset(n, q), r)
    for n, r in [(3, 2), (2, 3), (4, 2), (3, 3), (2, 4)]
    for q in (Fraction(2), Fraction(-1, 2))
] + [(BurauParams.degenerate(3, 1, -1), 2)]


def test_factorized_matches_direct_action():
    # on every basis diagram the closed form equals the basis-vector rule
    # and the factorized product through each permutation w that extends
    # d; the canonical w(d) of projection_factorization is one of them
    for p, r in FACTORIZED_CASES:
        perms = list(permutations(range(1, r + 1)))
        for d in rook_elements(r):
            op = diagram_op(d, p, r)
            assert op == diagram_op_direct(d, p, r), (p, r, d)
            _, canonical, _ = projection_factorization(d)
            extensions = [w for w in perms if all(w[x - 1] == y for x, y in d.pairs)]
            assert canonical in extensions
            for w in extensions:
                assert op == factorized_op(d, p, r, w), (p, r, d, w)


def test_permutation_operator_is_a_product_of_swaps():
    for p, r in FACTORIZED_CASES:
        swaps = [None] + [swap_op(i, p, r) for i in range(1, r)]
        for d in rook_elements(r):
            if d.rank < r:
                continue
            composite, op = PartialPermutation.identity(r), Matrix.identity(p.n**r)
            for i in swap_word([y for _, y in d.pairs]):
                composite, _ = composite.compose(transposition(i, i + 1, r))
                op = op * swaps[i]
            assert composite == d
            assert diagram_op(d, p, r) == op, (p, r, d)


@pytest.mark.parametrize(
    "params,r", [(P22, 3), (P32, 2), (BurauParams.preset(4, Fraction(-1, 2)), 2)]
)
def test_rook_tensor_gen_matches_the_paper_generators(params, r):
    # s_i is the place permutation of the transposition (i, i+1), and p_j
    # is the paper's P in slot j
    for i in range(1, r):
        w = tuple(i + 1 if s == i else i if s == i + 1 else s for s in range(1, r + 1))
        assert swap_op(i, params, r) == place_permutation_matrix(w, params.n)
    for j in range(1, r + 1):
        assert projection_op(j, params, r) == slot_projection(j, params, r)


def test_projection_operator_is_conjugate_to_p1():
    # op(p_j) = op((1 j)) op(p_1) op((1 j)): with the s_i, the operator of
    # p_1 alone generates every diagram operator, so the commute check of
    # duality_report needs no other p_j
    for p, r in FACTORIZED_CASES:
        p1 = diagram_op(projection(1, r), p, r)
        for j in range(2, r + 1):
            swap = diagram_op(transposition(1, j, r), p, r)
            assert diagram_op(projection(j, r), p, r) == swap * p1 * swap, (p, r, j)


def test_identity_diagram_acts_as_identity():
    assert diagram_op(PartialPermutation.identity(2), P32, 2) == Matrix.identity(9)


# -- bimodule -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "params,r",
    [(P22, 2), (P32, 2), (P22, 3), (P32, 3), (BurauParams(3, 1, 2), 2)],
)
def test_actions_commute(params, r):
    for b in braid_generators(params, r):
        for g in rook_generators(params, r):
            assert b * g == g * b


# -- centralizers ----------------------------------------------------------------------


def test_centralizer_n3_r1():
    dim, basis = centralizer_of_braid(3, 1, P32)
    assert dim == 2
    assert all(m.rows == 3 for m in basis)


def test_centralizer_n3_r2():
    dim, _ = centralizer_of_braid(3, 2, P32)
    assert dim == 7 == _shape_sums(3, 2)[0]


def test_centralizer_n2_r2():
    dim, _ = centralizer_of_braid(2, 2, P22)
    assert dim == 6 == _shape_sums(2, 2)[0]


def test_centralizer_budget():
    with pytest.raises(ValueError):
        centralizer_of_braid(4, 5, BurauParams.preset(4))
    assert MATRIX_SIZE_BUDGET == 256


def test_q1_control_centralizer_is_partition_algebra_dim():
    # with q = 1 the braid action factors through the symmetric group and
    # the commutant on two tensor factors of Q^4 has dimension Bell(4) = 15
    params = BurauParams.degenerate(4, 1, -1)
    dim, _ = centralizer_of_braid(4, 2, params)
    assert dim == 15


# -- rook image and faithfulness ----------------------------------------------------


def _basis_ops(params, r):
    return [diagram_op(d, params, r) for d in rook_elements(r)]


def test_rook_image_faithful_n3_r2():
    assert rook_image(_basis_ops(P32, 2)) == 7


def test_rook_image_not_faithful_n2_r2():
    assert rook_image(_basis_ops(P22, 2)) == 6


def test_n2_dependence_relation():
    # p_1 - s p_1 - p_1 s + p_2 - (1+q)(1 - s) = 0 on E^(x 2) when n = 2
    p, r = P22, 2
    q = p.q
    s = swap_op(1, p, r)
    p1 = projection_op(1, p, r)
    p2 = projection_op(2, p, r)
    one = Matrix.identity(4)
    lhs = p1 - s * p1 - p1 * s + p2 - (one - s).scale(1 + q)
    assert lhs.is_zero()


@pytest.mark.parametrize("params,expected", [(P32, 7), (P22, 6)])
def test_seven_element_operator_span(params, expected):
    r = 2
    s = swap_op(1, params, r)
    p1 = projection_op(1, params, r)
    p2 = projection_op(2, params, r)
    one = Matrix.identity(params.n**r)
    seven = [one, s, p1, p2, s * p1, p1 * s, p1 * p2]
    assert matrix_span(seven).dim == expected


# -- enveloping algebra ---------------------------------------------------------------


def test_enveloping_n2_r1():
    dim, _ = enveloping_braid(2, 1, P22)
    assert dim == 2


def test_enveloping_n2_r2():
    dim, _ = enveloping_braid(2, 2, P22)
    assert dim == 3 == _shape_sums(2, 2)[1]


def test_enveloping_n3_r2():
    dim, _ = enveloping_braid(3, 2, P32)
    assert dim == 15 == _shape_sums(3, 2)[1]


def test_enveloping_n4_r2():
    dim, _ = enveloping_braid(4, 2, BurauParams.preset(4))
    assert dim == 55 == _shape_sums(4, 2)[1]


# -- duality reports -------------------------------------------------------------------


def _assert_all_pass(report):
    failing = [c for c in report["checks"] if c["status"] != "pass"]
    assert report["all_pass"], failing


def test_duality_n3_r2():
    report = duality_report(3, 2, P32)
    _assert_all_pass(report)
    assert report["faithful"]
    assert report["z"] == "7"
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["enveloping_dimension_sum"] == (
        "enveloping dim 15, sum of squared GL_(n-1) Weyl dims 15"
    )
    assert details["actions_commute"] == "2 braid generators against 2 rook generators"
    assert _shape_sums(3, 2)[2] == 9


def test_duality_n2_r2_not_faithful():
    report = duality_report(2, 2, P22)
    _assert_all_pass(report)
    assert not report["faithful"]


def test_duality_n2_r3():
    report = duality_report(2, 3, P22)
    _assert_all_pass(report)
    assert _shape_sums(2, 3)[0::2] == (20, 8)


def test_duality_n3_r3():
    report = duality_report(3, 3, P32)
    _assert_all_pass(report)
    assert not report["faithful"]
    assert _shape_sums(3, 3)[:2] == (33, 35)


def test_duality_special_q_matching_classical_dimension():
    # q = -2 gives [3]_q = 3 = n, so the rook action specializes the
    # z = n partition-algebra picture while q stays generic
    q = q1_special_solve(3)
    params = BurauParams(3, 1, -q)
    assert params.q == q and params.quantum(3) == 3
    report = duality_report(3, 2, params)
    _assert_all_pass(report)


def test_duality_report_budget_argument():
    with pytest.raises(ValueError, match="exceeds budget 3"):
        duality_report(2, 2, P22, budget=3)
    assert duality_report(2, 2, P22, budget=4)["all_pass"]


# -- the character certificate and its exact fallback ------------------------------


def _shape_bound(params, r, prime):
    """_modlinalg.envelope_bound on the inputs the duality report gives it."""
    gens = [Matrix.diagonal([params.q1]), *split_generators(params)]
    shapes = [(lam, d) for lam, d, _ in cellular.shape_dimensions(params.n, r)]
    return _modlinalg.envelope_bound(gens, r, shapes, prime)


def _exact_dims(n, r, params):
    return {
        "image": rook_image(_basis_ops(params, r)),
        "braid_centralizer": centralizer_of_braid(n, r, params)[0],
        "envelope": enveloping_braid(n, r, params)[0],
        "rook_centralizer": commutant(rook_generators(params, r), size=n**r)[0],
    }


@pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 2), Fraction(-2)], ids=str)
@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3)])
def test_sandwich_dimensions_match_exact(n, r, q):
    # sum d_lambda^2 over the full, separated shape blocks <= envelope
    # <= C(rook) = sum <psi_k, psi_k>, and
    # sum C(r,k)^2 rank psi_k is the image: each number equals the exact
    # dimension it stands for
    params = BurauParams.preset(n, q)
    report = duality_report(n, r, params)
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["fallback_reason"] is None
    assert cert["prime"] == _modlinalg.SANDWICH_PRIMES[0] and cert["primes_skipped"] == []
    exact = _exact_dims(n, r, params)
    assert exact["envelope"] == exact["rook_centralizer"]
    assert exact["image"] == exact["braid_centralizer"]
    assert cert["bounds"] == {
        "envelope_lower": exact["envelope"],
        "rook_centralizer": exact["rook_centralizer"],
        "rook_image": exact["image"],
    }
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert f"closure mod {cert['prime']}" in details["rook_image_equals_centralizer_of_braid"]
    assert "sum <psi_k, psi_k>" in details["enveloping_equals_centralizer_of_rook_image"]
    assert "sum d_lambda^2 over the full, separated shape blocks" in details[
        "enveloping_equals_centralizer_of_rook_image"
    ]


def test_duality_n4_r3_on_the_character_path():
    # n^r = 64, where the two commutant systems this certificate replaced
    # took over a minute
    report = duality_report(4, 3, BurauParams.preset(4))
    _assert_all_pass(report)
    assert report["faithful"]
    assert report["certificate"]["path"] == "character"
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["centralizer_dimension_sum"].startswith("centralizer dim 34,")
    assert details["enveloping_dimension_sum"].startswith("enveloping dim 220,")


def test_duality_n5_r3_on_the_character_path():
    # n^r = 125: the closure runs on one block per shape, the largest of
    # dimension 20, where on U = 1 + 4 + 16 + 64 it had 85^2 coordinates
    report = duality_report(5, 3, BurauParams.preset(5))
    _assert_all_pass(report)
    assert report["certificate"]["path"] == "character"
    assert report["certificate"]["bounds"]["envelope_lower"] == 969
    assert report["certificate"]["bounds"]["rook_image"] == 34


def test_duality_n2_r4_on_the_character_path():
    # m = |R_4| = 209: the two m x m eliminations the groupoid blocks
    # replaced took 1.6 s here
    report = duality_report(2, 4, P22)
    _assert_all_pass(report)
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["prime"] == _modlinalg.SANDWICH_PRIMES[0]
    assert cert["bounds"] == {"envelope_lower": 5, "rook_centralizer": 5, "rook_image": 70}


def test_duality_n2_r5_on_the_character_path():
    # m = 1546: the homomorphism and groupoid checks read 5 generator rows
    report = duality_report(2, 5, P22)
    _assert_all_pass(report)
    cert = report["certificate"]
    assert cert["path"] == "character"
    assert cert["bounds"] == {"envelope_lower": 6, "rook_centralizer": 6, "rook_image": 252}


def test_duality_n3_r5_on_the_character_path():
    # n^r = 243, over MATRIX_SIZE_BUDGET: the checks on all 1546 basis
    # operators took 15 s and 739 MiB here; the relations and class words
    # read the operators of their 15 letters
    start = time.perf_counter()
    report = duality_report(3, 5, P32, budget=3**5)
    elapsed = time.perf_counter() - start
    _assert_all_pass(report)
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["prime"] == _modlinalg.SANDWICH_PRIMES[0]
    assert cert["bounds"] == {"envelope_lower": 126, "rook_centralizer": 126, "rook_image": 1118}
    assert elapsed < 4


def test_duality_n4_r4_on_the_character_path():
    # n^r = 256: the closure on U, of dimension 121, took 23.4 of 33.0 s
    # under cProfile here; the largest shape block has dimension 15
    start = time.perf_counter()
    report = duality_report(4, 4, BurauParams.preset(4))
    elapsed = time.perf_counter() - start
    _assert_all_pass(report)
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["prime"] == _modlinalg.SANDWICH_PRIMES[0]
    assert cert["bounds"] == {"envelope_lower": 715, "rook_centralizer": 715, "rook_image": 208}
    assert elapsed < 4


@pytest.mark.parametrize("n,r,bound", [(2, 0, 1), (3, 0, 1), (2, 1, 2), (3, 1, 5)])
def test_duality_r0_and_r1_on_the_character_path(n, r, bound):
    # relations(0) is empty and relations(1) is p_1^2 = z p_1 alone
    report = duality_report(n, r, BurauParams.preset(n))
    _assert_all_pass(report)
    assert report["faithful"]
    cert = report["certificate"]
    assert cert["path"] == "character"
    assert cert["bounds"] == {"envelope_lower": bound, "rook_centralizer": bound, "rook_image": r + 1}


ORACLE_CASES = [(n, r, q) for n, r in acceptance.DUALITY_GRID for q in acceptance.DUALITY_QS]
ORACLE_CASES += [(n, r, Fraction(2)) for n, r in [(4, 3), (2, 4), (3, 4), (2, 5)]]


def _operator_failure(params, r):
    """tensor._operator_failure on the letters of relations(r), as
    duality_report calls it."""
    rels = relations(r)
    letters = dict.fromkeys(d for _, chain in rels for word in chain for d in word)
    ops = {d: tensor.diagram_op(d, params, r) for d in letters}
    return tensor._operator_failure(params, r, ops, rels, generator_diagrams(r)[:-1])


@pytest.mark.parametrize("n,r,q", ORACLE_CASES, ids=str)
def test_relation_and_class_checks_agree_with_the_all_basis_oracle(n, r, q):
    # op(g) op(d) = z^N op(gd) on every basis diagram, and the Moebius
    # inversion of the traces of all m basis operators, against the
    # relations, the class words and psi_k = (n - 1)^cyc
    params = BurauParams.preset(n, q)
    assert _operator_failure(params, r) is None
    failure, chi = character_oracle.all_basis_check(params, r)
    basis = rook_elements(r)
    assert failure is None and chi == tensor_character(n, basis)
    assert character_oracle.moebius_dimensions(basis, chi) == cellular.groupoid_dimensions(n, r)


def _at_the_z1_scale(d, p, r):
    return diagram_op(d, p, r).scale(p.quantum(p.n) ** (d.rank - r))


def _with_s1_doubled(d, p, r):
    return diagram_op(d, p, r).scale(2 if d == transposition(1, 2, r) else 1)


@pytest.mark.parametrize("fault", [_at_the_z1_scale, _with_s1_doubled], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,r", [(3, 2), (2, 3)])
def test_relations_fail_where_the_all_basis_oracle_fails(monkeypatch, fault, n, r):
    params = BurauParams.preset(n)
    assert _operator_failure(params, r) is None
    monkeypatch.setattr(tensor, "diagram_op", fault)
    monkeypatch.setattr(character_oracle, "diagram_op", fault)
    assert _operator_failure(params, r) is not None
    assert character_oracle.all_basis_check(params, r)[0] is not None


@pytest.mark.parametrize("n,r", [(3, 3), (2, 4)])
def test_character_path_builds_only_the_letters_of_the_relations(monkeypatch, n, r):
    real = tensor.diagram_op
    built = []

    def recorded(d, p, r):
        built.append(d)
        return real(d, p, r)

    monkeypatch.setattr(tensor, "diagram_op", recorded)
    assert duality_report(n, r, BurauParams.preset(n))["certificate"]["path"] == "character"
    letters = {d for _, chain in relations(r) for word in chain for d in word}
    assert set(built) == letters and len(built) == len(letters)


def test_duality_n2_r4_passes_no_rref_more_than_24_rows(monkeypatch):
    # the largest groupoid block at r = 4 is 4! x 4!
    rows = []
    real = linalg.rref

    def recorded(m):
        rows.append(len(m))
        return real(m)

    for module in (linalg, cellular, tensor):
        if getattr(module, "rref", None) is real:
            monkeypatch.setattr(module, "rref", recorded)
    assert duality_report(2, 4, P22)["certificate"]["path"] == "character"
    assert rows and max(rows) <= 24


def test_homomorphism_and_commute_checks_run_on_the_r_generators(monkeypatch):
    # s_1, p_1 at r = 2, one packed product per word suffix: the commute
    # check packs the 2 braid and 2 rook generators and takes ab and ba for
    # each of the 2 x 2 pairs; the relations take p_1, p_2, s_1, p_1 p_1,
    # p_2 p_2, p_1 p_2, p_2 p_1, s_1 s_1, p_2 s_1, p_1 s_1, s_1 p_1 p_2,
    # p_1 p_2 s_1 and s_1 p_1 s_1, and the class words p_1 p_2, p_2, s_1
    # and 1 add none
    calls = _count_calls(monkeypatch, (tensor,), "_packed_product")
    callers = Counter()
    for module in (matrix, linalg, _modlinalg):
        real = module.sparse_product

        def recorded(*args, real=real):
            callers[sys._getframe(1).f_globals["__name__"]] += 1
            return real(*args)

        monkeypatch.setattr(module, "sparse_product", recorded)
    assert duality_report(3, 2, P32)["certificate"]["path"] == "character"
    assert calls["_packed_product"] == 4 + 2 * 2 * 2 + 13
    # no dict product is taken for tensor: it binds no sparse_product, and
    # the sparse products left are the Matrix products of the split check
    # and the trace words of envelope_bound
    assert not hasattr(tensor, "sparse_product") and "braidrook.tensor" not in callers
    assert set(callers) == {"braidrook.matrix", "braidrook._modlinalg"}


@pytest.mark.parametrize("n,r", acceptance.DUALITY_GRID)
def test_groupoid_dimensions_match_the_eliminations_on_the_grid(n, r):
    # the report's two q-free numbers against chi^T G(1)^-1 chi and
    # rank chi(ab), eliminated on the m x m oracle rows
    basis = rook_elements(r)
    table = product_table(basis)
    rook_centralizer, rook_image = eliminated_dimensions(table, tensor_character(n, basis))
    for q in acceptance.DUALITY_QS:
        bounds = duality_report(n, r, BurauParams.preset(n, q))["certificate"]["bounds"]
        assert (bounds["rook_centralizer"], bounds["rook_image"]) == (rook_centralizer, rook_image)


def test_dropped_restriction_takes_the_exact_path(monkeypatch):
    # phi(p_1) without its empty arrow: s_1 phi(p_1) s_1 has no empty
    # arrow, and phi(p_2) has one
    drop_empty_arrow(monkeypatch, projection(1, 2))
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "s_1 p_1 s_1 = p_2 fails on phi of its letters in the groupoid algebra"


def test_wrong_generator_product_takes_the_exact_path(monkeypatch):
    # phi(s_1) with its arrow 1 -> 2 sent to 1 -> 1: phi(s_1)^2 sends 2 to
    # 1, where s_1^2 = 1 needs the identity
    bump_arrow(monkeypatch, transposition(1, 2, 2))
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "s_1^2 = 1 fails on phi of its letters in the groupoid algebra"


def test_bumped_p1_arrow_takes_the_exact_path(monkeypatch):
    # phi(p_1) with its arrow 2 -> 2 sent to 2 -> 1 squares to the empty
    # arrow alone
    bump_arrow(monkeypatch, projection(1, 2))
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "p_1^2 = z p_1 fails on phi of its letters in the groupoid algebra"


def _bump_psi_2(monkeypatch, column, by):
    # psi_2 raised by `by` in one column of row 0 of its block, at r = 2
    real = cellular.groupoid_block

    def bumped(n, k):
        block = real(n, k)
        if k == 2:
            block[0][column] += by
        return block

    monkeypatch.setattr(cellular, "groupoid_block", bumped)


def test_bumped_psi_block_takes_the_exact_path(monkeypatch):
    # psi_2 two more at the identity moves sum <psi_k, psi_k> from the
    # envelope's 15 to 1 + 4 + (6^2 + 2^2)/2 = 25, an integer the bound
    # misses at every listed prime
    _bump_psi_2(monkeypatch, 0, 2)
    report = duality_report(3, 2, P32)
    assert report["certificate"]["bounds"]["rook_centralizer"] == 25
    assert _passing_on_the_exact_path(report).startswith("bounds do not meet mod ")


def test_non_integral_psi_inner_product_is_named(monkeypatch):
    # psi_2 one more at s_1 gives 1 + 4 + (4^2 + 3^2)/2 = 35/2, which no
    # dimension equals; the reason names it, and no bound is taken
    _bump_psi_2(monkeypatch, 1, 1)
    assert cellular.groupoid_dimensions(3, 2)[0] == Fraction(35, 2)
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == "sum <psi_k, psi_k> = 35/2 is not an integer"
    assert report["certificate"]["bounds"] is None and report["certificate"]["shapes"] is None


def test_a_search_that_calls_a_miss_a_meet_takes_the_exact_path(monkeypatch):
    # the prime search returns its bound less one, 14 of 15, as a meet:
    # the certificate compares the numbers it records, and the exact
    # dimensions decide the verdicts
    real = _modlinalg.lower_bound

    def lying(gens, closure, target):
        prime, bound, skipped, _ = real(gens, closure, target)
        return prime, bound - 1, skipped, None

    monkeypatch.setattr(_modlinalg, "lower_bound", lying)
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == "envelope_lower 14 != rook_centralizer 15"
    assert report["certificate"]["bounds"] == {"envelope_lower": 14, "rook_centralizer": 15, "rook_image": 7}
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["enveloping_dimension_sum"].startswith("enveloping dim 15,")
    assert "exact dimensions" in details["enveloping_equals_centralizer_of_rook_image"]


@pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (2, 3), (4, 2)])
def test_block_generators_close_to_the_envelope_dimension(n, r):
    # the direct sum on U, closed exactly, against the envelope on E^(x r)
    params = BurauParams.preset(n)
    blocks = character_oracle.block_generators(params, r)
    assert blocks[0].rows == sum((n - 1) ** k for k in range(r + 1))
    assert span_closure(blocks)[0] == span_closure(braid_generators(params, r))[0]


SHAPE_ORACLE_CASES = [(n, r, q) for n, r in acceptance.DUALITY_GRID for q in acceptance.DUALITY_QS]
SHAPE_ORACLE_CASES += [(n, r, Fraction(2)) for n, r in [(4, 3), (2, 4), (3, 4), (5, 3)]]


@pytest.mark.parametrize("n,r,q", SHAPE_ORACLE_CASES, ids=str)
def test_shape_blocks_sum_to_the_closure_on_u(n, r, q):
    # sum d_lambda^2 over the full, separated blocks, the closure of the
    # direct sum on U mod the same prime, run to saturation, and the
    # Schur-Weyl sum of squared GL_(n-1) Weyl dimensions are one number
    params = BurauParams.preset(n, q)
    cert = duality_report(n, r, params)["certificate"]
    assert cert["path"] == "character"
    blocks = cert["shapes"]["blocks"]
    assert all(b["closure"] == b["dim"] ** 2 for b in blocks) and cert["shapes"]["failures"] == []
    prime, u = cert["prime"], character_oracle.block_generators(params, r)
    on_u = _modlinalg.closure_dim_mod([_modlinalg.residues(b, prime) for b in u], u[0].rows, prime, None)
    shape_sum = sum(b["dim"] ** 2 for b in blocks)
    assert shape_sum == on_u == _shape_sums(n, r)[1] == cert["bounds"]["envelope_lower"]


def test_shape_record_names_the_word_that_separates_each_pair():
    # at (5,3), (3) and (2,1) both have dimension 20 and the same tr B_1;
    # tr B_1 B_2 tells them apart
    cert = duality_report(5, 3, BurauParams.preset(5))["certificate"]
    assert cert["shapes"] == {
        "blocks": [
            {"shape": "()", "dim": 1, "closure": 1},
            {"shape": "(1)", "dim": 4, "closure": 16},
            {"shape": "(2)", "dim": 10, "closure": 100},
            {"shape": "(1,1)", "dim": 6, "closure": 36},
            {"shape": "(3)", "dim": 20, "closure": 400},
            {"shape": "(2,1)", "dim": 20, "closure": 400},
            {"shape": "(1,1,1)", "dim": 4, "closure": 16},
        ],
        "separated": [
            {"pair": ["(1)", "(1,1,1)"], "by": "tr B_1"},
            {"pair": ["(3)", "(2,1)"], "by": "tr B_1 B_2"},
        ],
        "failures": [],
    }


def _bump_the_last_slot(monkeypatch):
    # R_i with entry (1, 1) one larger in the last slot alone: no longer a
    # tensor power, so it need not keep W_lambda for k >= 2
    real = _modlinalg._slot_apply

    def bumped(v, cols, w, m, p):
        if w == 1:
            column = dict(cols.get(0, ()))
            column[0] = column.get(0, 0) + 1
            cols = {**cols, 0: list(column.items())}
        return real(v, cols, w, m, p)

    monkeypatch.setattr(_modlinalg, "_slot_apply", bumped)


def _list_a_shape_twice(monkeypatch):
    # (2), of dimension 3, twice: the pair closure reaches 9, not 18
    real = _modlinalg.envelope_bound
    monkeypatch.setattr(_modlinalg, "envelope_bound", lambda g, r, shapes, p: real(g, r, [*shapes, shapes[2]], p))


def _symmetrize_the_wrong_shape(monkeypatch):
    # W_(2) built from the symmetrizer of (1,1): dimension 1, not 3
    real = _modlinalg.schur_block
    monkeypatch.setattr(_modlinalg, "schur_block", lambda shape, m, p: real((1, 1) if shape == (2,) else shape, m, p))


@pytest.mark.parametrize(
    "control,bound,failures",
    [
        (_bump_the_last_slot, 5, ["W_(2) is not invariant", "W_(1,1) is not invariant"]),
        (_list_a_shape_twice, 6, ["W_(2) and W_(2) are not separated"]),
        (_symmetrize_the_wrong_shape, 6, ["dim W_(2) = 1, not 3"]),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_shape_controls_miss_at_every_listed_prime(monkeypatch, control, bound, failures):
    # each broken block drops out of the bound, which then misses at every
    # listed prime; the exact path gives the character path's verdicts
    character = duality_report(3, 2, P32)
    control(monkeypatch)
    report = duality_report(3, 2, P32)
    cert = report["certificate"]
    primes = _modlinalg.SANDWICH_PRIMES
    assert cert["path"] == "exact" and cert["prime"] == primes[0]
    assert cert["fallback_reason"] == "bounds do not meet mod " + " or ".join(map(str, primes))
    assert cert["bounds"]["envelope_lower"] == bound and cert["shapes"]["failures"] == failures
    assert report["all_pass"] and _verdicts(report) == _verdicts(character)


def _bumped(c):
    # one entry of C off by one
    return c + unit(c.rows, 1, 0)


def _first_column_dropped(c):
    # T_i C = C (q1 + R_i) still holds, but C is singular
    return Matrix(c.rows, c.cols, {k: x for k, x in c.nonzeros().items() if k % c.cols})


@pytest.mark.parametrize(
    "broken,reason",
    [
        (_bumped, "T_i C != C (q1 + R_i) at i = 1"),
        (_first_column_dropped, "C = change_of_basis is singular"),
    ],
)
def test_broken_change_of_basis_fails_the_split_check(monkeypatch, broken, reason):
    real = burau.change_of_basis
    monkeypatch.setattr(burau, "change_of_basis", lambda p: broken(real(p)))
    assert _passing_on_the_exact_path(duality_report(3, 2, P32)) == reason


COMMUTE_AND_BOTH_EQUALITIES = {
    "actions_commute",
    "enveloping_equals_centralizer_of_rook_image",
    "rook_image_equals_centralizer_of_braid",
}


def _failing_on_the_exact_path(report):
    assert report["certificate"]["path"] == "exact"
    assert report["certificate"]["fallback_reason"] == "actions do not commute"
    return {c["name"] for c in report["checks"] if c["status"] == "fail"}


def test_wrong_q_projection_fails_commute_and_both_equalities(monkeypatch):
    # every diagram operator built at q = 3 against braid generators at q = 2;
    # the exact path reuses the 3 letter operators s_1, p_1, p_2 and builds
    # the other 4 basis operators
    real = tensor.diagram_op
    built = []

    def wrong_q(d, p, r):
        built.append(d)
        return real(d, BurauParams.preset(p.n, Fraction(3)), r)

    monkeypatch.setattr(tensor, "diagram_op", wrong_q)
    report = duality_report(3, 2, P32)
    assert _failing_on_the_exact_path(report) == COMMUTE_AND_BOTH_EQUALITIES
    assert len(built) == 7


@pytest.mark.parametrize("r", [2, 3])
def test_dropped_q_weight_fails_commute_and_both_equalities(monkeypatch, r):
    # the factor q^(J_t - 1) of the first summed slot t left out
    real = tensor.diagram_op

    def unweighted(d, p, r):
        op = real(d, p, r)
        cut = sorted(set(range(1, r + 1)) - d.im)
        if not cut:
            return op
        place = p.n ** (r - cut[0])
        entries = {}
        for index, x in op.nonzeros().items():
            digit = index % op.cols // place % p.n  # J_t - 1
            entries[index] = x / p.q**digit
        return Matrix(op.rows, op.cols, entries)

    monkeypatch.setattr(tensor, "diagram_op", unweighted)
    report = duality_report(3, r, P32)
    assert _failing_on_the_exact_path(report) == COMMUTE_AND_BOTH_EQUALITIES


def test_bumped_braid_generator_fails_commute_and_both_equalities(monkeypatch):
    # one entry of T_1^(x 2) raised by one, on the commute check and on
    # every exact computation after it
    real = tensor.braid_generators

    def bumped(p, r):
        gens = real(p, r)
        e = dict(gens[0].nonzeros())
        e[1] = e.get(1, 0) + 1
        gens[0] = Matrix(gens[0].rows, gens[0].cols, e)
        return gens

    monkeypatch.setattr(tensor, "braid_generators", bumped)
    report = duality_report(3, 2, P32)
    assert _failing_on_the_exact_path(report) >= COMMUTE_AND_BOTH_EQUALITIES


def _rational_matrix(rng, n, den):
    flat = [Fraction(rng.choice([0, rng.randint(-5, 5)]), rng.randint(1, den)) for _ in range(n * n)]
    return Matrix(n, n, flat)


@pytest.mark.parametrize("seed", range(8))
def test_integer_commute_check_matches_the_fraction_products(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    a, b, c = (_rational_matrix(rng, n, den) for den in (3, 7, 10))
    one = Matrix.identity(n)
    # polynomials in a with different denominators commute with each other
    f = a * a.scale(Fraction(2, 9)) - a.scale(Fraction(5, 4)) + one.scale(Fraction(1, 6))
    g = a * a * a.scale(Fraction(-3, 11)) + one.scale(7)
    left, right = [a, f, b], [g, c, one.scale(Fraction(1, 3))]
    verdicts = []
    for x in left:
        for y in right:
            want = x * y == y * x
            assert tensor._all_commute([x], [y]) == want
            verdicts.append(want)
    assert tensor._all_commute(left, right) == all(verdicts)
    assert tensor._all_commute([a, f], [g, one]) and tensor._all_commute([f], [a, g])
    if n > 1:
        assert not all(verdicts)


def test_character_path_multiplies_only_in_the_split_check(monkeypatch):
    # the commute and homomorphism checks run on integer_form; the only
    # Matrix products left are T_i C and C (q1 + R_i) of split_generators
    calls = 0
    real = Matrix._matmul

    def counted(self, other):
        nonlocal calls
        calls += 1
        return real(self, other)

    monkeypatch.setattr(Matrix, "_matmul", counted)
    n = 4
    report = duality_report(n, 2, BurauParams.preset(n))
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert calls == 2 * (n - 1)


def _verdicts(report):
    return [(c["name"], c["status"]) for c in report["checks"]], report["faithful"]


def _passing_on_the_exact_path(report):
    cert = report["certificate"]
    assert cert["path"] == "exact"
    assert report["all_pass"] and _verdicts(report) == _verdicts(duality_report(3, 2, P32))
    return cert["fallback_reason"]


@pytest.mark.parametrize("q", [Fraction(2), Fraction(1, 2)], ids=str)
def test_scaled_swap_operator_fails_s1_squared(monkeypatch, q):
    # op(s_1) = 2 (1 2) still commutes with the braid group, but
    # op(s_1)^2 = 4 is read as D^2 op(s_1)^2 = 4 D^2 on the integer forms
    # against the identity of the empty word; at q = 1/2 the common
    # denominator D is not 1
    real = tensor.diagram_op

    def doubled(d, p, r):
        op = real(d, p, r)
        return op.scale(2) if d == transposition(1, 2, r) else op

    params = BurauParams.preset(3, q)
    monkeypatch.setattr(tensor, "diagram_op", doubled)
    cert = duality_report(3, 2, params)["certificate"]
    assert cert["path"] == "exact"
    assert cert["fallback_reason"] == "s_1^2 = 1 fails on the rescaled operators"


def test_wrong_z_power_fails_the_homomorphism_check(monkeypatch):
    # every operator at the z = 1 scale, z^-(r - rank d) op(d): the operators
    # still commute with the braid group and span the image, but
    # op(p_1) op(p_1) is z^-1 op(p_1), not z op(p_1)
    real = tensor.diagram_op

    def rescaled(d, p, r):
        return real(d, p, r).scale(p.quantum(p.n) ** (d.rank - r))

    monkeypatch.setattr(tensor, "diagram_op", rescaled)
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "p_1^2 = z p_1 fails on the rescaled operators"


def test_bumped_swap_operator_breaks_a_relation(monkeypatch):
    # one entry of D op(s_1), row 0 and column 1, raised by one where the
    # relations read it, before it is packed; the commute check runs on the
    # true operators
    real = tensor._word_products
    s1 = transposition(1, 2, 2)

    def bumped(words, letters, size, ratio=1):
        if s1 in letters:
            m = letters[s1]
            letters = {**letters, s1: {**m, 1: m.get(1, 0) + 1}}
        return real(words, letters, size, ratio)

    monkeypatch.setattr(tensor, "_word_products", bumped)
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "s_1^2 = 1 fails on the rescaled operators"


def test_class_word_trace_off_by_one_breaks_the_character_check(monkeypatch):
    # the first diagonal entry of the product of the class word s_1 raised
    # by one, slot 0 of its packed row 0; no relation reads that word alone
    real = tensor._word_products
    s1 = (transposition(1, 2, 2),)

    def bumped(words, letters, size, ratio=1):
        width, out = real(words, letters, size, ratio)
        if s1 in out:
            out[s1] = [out[s1][0] + 1, *out[s1][1:]]
        return width, out

    monkeypatch.setattr(tensor, "_word_products", bumped)
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "character 4 != n^cyc = 3 at the class word of k = 2, mu = 2"


def test_miscounted_cycle_fails_the_character_check(monkeypatch):
    # the class of the identity at r = 2 read with one cycle, mu = (1,):
    # its class word is still the empty word, so n^cyc is 3 and its trace 9
    real = tensor.partitions_of

    def miscounted(k):
        return [mu[1:] if mu == (1, 1) else mu for mu in real(k)]

    monkeypatch.setattr(tensor, "partitions_of", miscounted)
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "character 9 != n^cyc = 3 at the class word of k = 2, mu = 1"


def test_zero_z_takes_the_exact_path():
    # q = -1 gives z = [2]_q = 0, where the diagrams have no rescaled basis
    report = duality_report(2, 2, BurauParams.degenerate(2, 1, 1))
    assert report["z"] == "0"
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["bounds"] is None
    assert cert["fallback_reason"] == "z = [n]_q = 0 has no rescaled basis"


@pytest.mark.parametrize(
    "primes,reason",
    [
        ([2], "every listed prime divides a denominator"),
        ([2, 3], "bounds do not meet mod 3"),  # q = 1/2 is -1 mod 3
    ],
)
def test_forced_sandwich_miss_takes_exact_path(monkeypatch, primes, reason):
    # at q = 1/2 the generators have q2 = -1/2 among their entries
    params = BurauParams.preset(3, Fraction(1, 2))
    character = duality_report(3, 2, params)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", primes)
    exact = duality_report(3, 2, params)
    cert = exact["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == reason
    assert cert["primes_skipped"] == [2]
    assert exact["all_pass"]
    assert _verdicts(exact) == _verdicts(character)
    details = {c["name"]: c["detail"] for c in exact["checks"]}
    assert reason in details["rook_image_equals_centralizer_of_braid"]


def test_prime_where_the_generators_are_singular_is_tried(monkeypatch):
    # at q = 2 the generators are integral, so 2 is tried, but mod 2 the
    # symmetrizer of (2) spans 1 dimension, not 3, and det R_i = q1 q2 = -2
    # leaves W_(1) at 3 of 4: the blocks () and (1,1) alone count, 2 of the
    # envelope's 15
    character = duality_report(3, 2, P32)
    second = _modlinalg.SANDWICH_PRIMES[0]
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [2])
    exact = duality_report(3, 2, P32)
    cert = exact["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == "bounds do not meet mod 2"
    assert cert["primes_skipped"] == [] and cert["bounds"]["envelope_lower"] == 2
    assert cert["shapes"]["failures"] == ["dim W_(2) = 1, not 3"]
    assert exact["all_pass"] and _verdicts(exact) == _verdicts(character)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [2, second])
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "character" and cert["prime"] == second
    assert cert["primes_skipped"] == [] and cert["bounds"]["envelope_lower"] == 15


def test_miss_at_one_prime_moves_on_to_the_next(monkeypatch):
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3, 5])
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "character" and cert["prime"] == 5
    assert cert["bounds"]["envelope_lower"] == 15


def test_miss_at_the_first_real_prime_moves_on_to_the_next():
    # q = P0 makes q2 = -q vanish mod P0: no denominator is divisible by
    # P0, but det R_i = q1 q2 makes every R_i singular there and the shape
    # bound falls short; the next listed prime meets
    primes = _modlinalg.SANDWICH_PRIMES
    params = BurauParams.preset(3, primes[0])
    report = duality_report(3, 2, params)
    assert report["all_pass"]
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["prime"] == primes[1]
    assert cert["primes_skipped"] == [] and cert["fallback_reason"] is None
    assert cert["bounds"] == {"envelope_lower": 15, "rook_centralizer": 15, "rook_image": 7}
    assert _shape_bound(params, 2, primes[0])[0] == 2


@pytest.mark.parametrize("primes", [[3, 5], [5, 3]])
def test_largest_lower_bound_is_kept(monkeypatch, primes):
    # the shape bound cut down to 14 mod 3, where it is 13 already, and to
    # 12 mod 5, where it is 15: both miss
    real = _modlinalg.envelope_bound
    cut = {3: 14, 5: 12}

    def short(gens, r, shapes, p):
        bound, record = real(gens, r, shapes, p)
        return min(bound, cut[p]), record

    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", primes)
    monkeypatch.setattr(_modlinalg, "envelope_bound", short)
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "exact" and cert["prime"] == 3
    assert cert["bounds"]["envelope_lower"] == 13
    assert cert["fallback_reason"] == f"bounds do not meet mod {primes[0]} or {primes[1]}"


def test_q1_control_is_a_real_failure_on_the_exact_path(monkeypatch):
    # at q = 1 the braid action factors through S_3, so its centralizer
    # outgrows the rook image: the closure (6) never meets the character
    # dimension (15), and the exact dimensions fail both identities
    # although the actions commute; each basis operator is built once, the
    # 3 letters of the relations first
    real = tensor.diagram_op
    built = []

    def counted(d, p, r):
        built.append(d)
        return real(d, p, r)

    monkeypatch.setattr(tensor, "diagram_op", counted)
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert len(built) == 7
    cert = report["certificate"]
    primes = _modlinalg.SANDWICH_PRIMES
    assert cert["path"] == "exact" and cert["prime"] == primes[0]
    assert cert["bounds"] == {"envelope_lower": 6, "rook_centralizer": 15, "rook_image": 7}
    assert cert["fallback_reason"] == "bounds do not meet mod " + " or ".join(map(str, primes))
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["actions_commute"] == "pass"
    assert status["rook_image_equals_centralizer_of_braid"] == "fail"
    assert status["enveloping_equals_centralizer_of_rook_image"] == "fail"
    assert status["enveloping_dimension_sum"] == "fail"  # 6 against 15


def test_q1_control_closure_reads_6_at_every_listed_prime():
    # the miss is the theory's, not a prime's: at q = 1 the braid action
    # factors through S_3, W_(2) = Sym^2 F closes to 5 of 9, and the bound
    # is the three full blocks, 1 + 4 + 1, at every listed prime
    params = BurauParams.degenerate(3, 1, -1)
    for p in _modlinalg.SANDWICH_PRIMES:
        bound, record = _shape_bound(params, 2, p)
        assert bound == 6 and [b["closure"] for b in record["blocks"]] == [1, 4, 5, 1]
        assert record["failures"] == []


def test_closure_stops_at_the_rook_centralizer_dimension(monkeypatch):
    # at (4,2) the certificate makes 134 adds: 22 to span the four W_lambda
    # (1 + 3 + 9 + 9 symmetrized tensors) and 112 in the four block
    # closures, each stopped at its ceiling d^2; run on to saturation
    # (no ceiling) the closures make 124 adds for the
    # same blocks, which sum to rook_cent = 55. Images that are zero mod p
    # are never added, so these are the adds of nonzero images only
    calls = _count_calls(monkeypatch, (_modlinalg,), "_echelon_add")
    params = BurauParams.preset(4)
    cert = duality_report(4, 2, params)["certificate"]
    assert cert["path"] == "character"
    assert cert["bounds"]["envelope_lower"] == cert["bounds"]["rook_centralizer"] == 55
    assert calls["_echelon_add"] == 134
    prime, m = cert["prime"], 3
    gens = [_modlinalg.residues(g, prime) for g in split_generators(params)]
    cols = [{b: [(a, g[a * m + b]) for a in range(m) if a * m + b in g] for b in range(m)} for g in gens]
    calls.clear()
    blocks = [_modlinalg.schur_block(shape, m, prime) for shape in [(), (1,), (2,), (1, 1)]]
    assert calls["_echelon_add"] == 22
    calls.clear()
    dims = []
    for shape, basis in zip([(), (1,), (2,), (1, 1)], blocks):
        restricted = [_modlinalg.restrict(basis, c, 1, sum(shape), m, prime) for c in cols]
        dims.append(_modlinalg.closure_dim_mod(restricted, len(basis), prime, None))
    assert dims == [1, 9, 36, 9]
    assert calls["_echelon_add"] == 124


def _count_calls(monkeypatch, modules, *names):
    """Wrap each named function in every module that binds it; the returned
    Counter counts the calls through all of those bindings by name."""
    calls = Counter()
    for module in modules:
        for name in names:
            real = getattr(module, name)

            def counted(*args, real=real, name=name):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(module, name, counted)
    return calls


def test_duality_report_builds_the_basis_and_its_table_once(monkeypatch):
    # the character path enumerates no rook diagram: the groupoid check
    # reads the letters of the relations; the exact path builds the basis
    # once, for the image, and no generator rows
    basis = _count_calls(monkeypatch, (tensor, diagrams), "rook_elements")
    rows = _count_calls(monkeypatch, (cellular,), "generator_rows")
    report = duality_report(3, 2, P32)
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert basis["rook_elements"] == rows["generator_rows"] == 0
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert report["certificate"]["path"] == "exact"
    assert basis["rook_elements"] == 1 and rows["generator_rows"] == 0


@pytest.mark.parametrize("n,r", [(2, 7), (2, 8), (3, 7)])
def test_duality_report_refuses_r_above_the_enumeration_bound(monkeypatch, n, r):
    # (2, 7) is within MATRIX_SIZE_BUDGET, so only the bound stops it, and
    # before any work; (3, 7) is over the budget, which is checked first
    def no_work(*args):
        raise AssertionError("the report started work")

    monkeypatch.setattr(tensor, "braid_generators", no_work)
    message = f"r={r} above enumeration bound 6" if n**r <= tensor.MATRIX_SIZE_BUDGET else "exceeds budget"
    with pytest.raises(ValueError, match=message):
        duality_report(n, r, BurauParams.preset(n))
    with pytest.raises(ValueError, match="^r must be nonnegative$"):
        duality_report(n, -1, BurauParams.preset(n))


def test_duality_report_builds_the_relation_list_once(monkeypatch):
    # the letters, the commute check and the relation and class checks read
    # one relations(r) and one generator_diagrams(r)
    calls = _count_calls(monkeypatch, (tensor,), "relations", "generator_diagrams")
    report = duality_report(3, 3, P32)
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert calls == Counter(relations=1, generator_diagrams=1)


def test_exact_path_reuses_the_braid_generators(monkeypatch):
    # the q = 1 control ends on the exact path, whose commutant and closure
    # run on the generators the commute check already built
    calls = _count_calls(monkeypatch, (tensor,), "braid_generators")
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert report["certificate"]["path"] == "exact"
    assert calls["braid_generators"] == 1


def test_bounds_bracket_exact_dims_at_unlucky_prime(monkeypatch):
    # mod 3, where q = 2 = -1, the blocks () and (1,1) tie (B_i acts on both
    # as 1) and the bound of 13 falls short of the envelope; the two
    # character dimensions do not depend on the prime
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3])
    bounds = duality_report(3, 2, P32)["certificate"]["bounds"]
    exact = _exact_dims(3, 2, P32)
    assert bounds["envelope_lower"] == 13 < exact["envelope"] == 15
    assert bounds["rook_centralizer"] == exact["rook_centralizer"]
    assert bounds["rook_image"] == exact["image"]


# -- Schur algebra ----------------------------------------------------------------------


def test_schur_algebra_2_2_shape():
    dim, basis = schur_algebra(2, 2, P22)
    assert dim == 10
    for m in basis:
        assert m[(0, 1)] == m[(0, 2)]
        assert m[(1, 0)] == m[(2, 0)]
        assert m[(1, 1)] == m[(2, 2)]
        assert m[(1, 2)] == m[(2, 1)]
        assert m[(1, 3)] == m[(2, 3)]
        assert m[(3, 1)] == m[(3, 2)]


def _three_parameter_matrix(q, x1, x4, x8):
    return Matrix.from_rows(
        [
            [x1, q * x4, q * x4, q * q * x8],
            [x4, x1 + (q - 1) * x4, q * x8, q * x4 + (q - 1) * q * x8],
            [x4, q * x8, x1 + (q - 1) * x4, q * x4 + (q - 1) * q * x8],
            [x8, x4 + (q - 1) * x8, x4 + (q - 1) * x8, x1 + 2 * (q - 1) * x4 + (q - 1) ** 2 * x8],
        ]
    )


def test_schur_intersection_2_2_three_parameter_family():
    q = P22.q
    dim, basis = schur_algebra_intersection(2, 2, P22)
    assert dim == 3
    shape = [
        _three_parameter_matrix(q, Fraction(1), Fraction(0), Fraction(0)),
        _three_parameter_matrix(q, Fraction(0), Fraction(1), Fraction(0)),
        _three_parameter_matrix(q, Fraction(0), Fraction(0), Fraction(1)),
    ]
    assert spans_equal(basis, shape)
    _, env_basis = enveloping_braid(2, 2, P22)
    assert spans_equal(basis, env_basis)


def test_schur_intersection_3_2_matches_enveloping():
    dim, basis = schur_algebra_intersection(3, 2, P32)
    assert dim == 15
    _, env_basis = enveloping_braid(3, 2, P32)
    assert spans_equal(basis, env_basis)


def test_place_permutations_with_single_projection_generate():
    # closing {s_i, p_1} multiplicatively reaches the same algebra as
    # {s_i, p_1, ..., p_r}: the projections are conjugate under the swaps
    p, r = P22, 3
    swaps = [swap_op(i, p, r) for i in range(1, r)]
    p_ops = [projection_op(j, p, r) for j in range(1, r + 1)]
    dim_small, basis_small = span_closure(swaps + p_ops[:1])
    dim_full, basis_full = span_closure(swaps + p_ops)
    assert dim_small == dim_full
    assert spans_equal(basis_small, basis_full)


# -- special parameter solve ---------------------------------------------------------


def test_q1_special_solve_values():
    assert q1_special_solve(3) == Fraction(-2)
    assert q1_special_solve(4) is None
    with pytest.raises(ValueError):
        q1_special_solve(2)
    q5 = q1_special_solve(5)
    if q5 is not None:  # validate whatever the search returns
        assert sum(q5**j for j in range(5)) == 5
