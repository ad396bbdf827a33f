"""Commuting tensor actions, centralizers, enveloping algebras, duality."""

import copy
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
from gram_oracle import tensor_character, tensor_dimensions
from groupoid_oracle import bump_arrow, drop_empty_arrow
from rook_factorization import projection_factorization

from braidrook import _modlinalg, acceptance, burau, cellular, diagrams, lieclosure, linalg, tensor
from braidrook.burau import BurauParams, projection_p, unreduced_generator
from braidrook.diagrams import (
    PartialPermutation,
    projection,
    relations,
    rook_elements,
    transposition,
)
from braidrook.linalg import commutant, matrix_span, span_closure, spans_equal
from braidrook.matrix import Matrix, direct_sum, kron
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


def diagram_op_checked(d, p, r):
    """diagram_op as it stood before it read q once and wrapped its entries
    unchecked: each power of q taken alone, every entry passed through the
    public Matrix constructor."""
    if d.r != r:
        raise ValueError("size mismatch")
    n = p.n
    size = n**r
    weight = [n ** (r - s) for s in range(1, r + 1)]  # of slot s in the flat index
    # slot s of K copies slot d(s) of J; digits are J_t - 1, slots 0-based
    copied = [(weight[s - 1], t - 1) for s, t in d.pairs]
    weighted = [t - 1 for t in range(1, r + 1) if t not in d.im]
    q_power = [p.q**k for k in range((n - 1) * len(weighted) + 1)]
    free = [weight[s - 1] for s in range(1, r + 1) if s not in d.dom]
    fills = [sum(k * w for k, w in zip(ks, free)) for ks in product(range(n), repeat=len(free))]
    entries = {}
    for col, digits in enumerate(product(range(n), repeat=r)):
        coeff = q_power[sum(digits[t] for t in weighted)]
        row = sum(w * digits[t] for w, t in copied)
        for fill in fills:
            entries[(row + fill) * size + col] = coeff
    return Matrix(size, size, entries)


ORACLE_PARAMS = [BurauParams.preset(n, q) for n in (2, 3, 4) for q in (Fraction(2), Fraction(1, 2), Fraction(-2))]
ORACLE_PARAMS += [BurauParams.degenerate(n, 1, -1) for n in (2, 3, 4)]


@pytest.mark.parametrize("p", ORACLE_PARAMS, ids=repr)
def test_diagram_op_matches_its_checked_build(p):
    # every rook element at (2,3), (3,2) and (4,2), q in {2, 1/2, -2} and
    # the degenerate q = 1: the same nonzero Fraction entries
    r = {2: 3, 3: 2, 4: 2}[p.n]
    for d in rook_elements(r):
        op = diagram_op(d, p, r)
        checked = diagram_op_checked(d, p, r)
        assert op == checked and list(op.nonzeros()) == list(checked.nonzeros()), (p, d)
        assert all(type(x) is Fraction and x != 0 for x in op.nonzeros().values())


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
    # envelope = sum d_lambda^2 <= C(rook) = sum <psi_k, psi_k>, and
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
    assert f"Lie closure mod {cert['prime']}" in details["rook_image_equals_centralizer_of_braid"]
    assert "sum <psi_k, psi_k>" in details["enveloping_equals_centralizer_of_rook_image"]
    assert f"envelope = sum d_lambda^2 = {exact['envelope']}" in details["enveloping_equals_centralizer_of_rook_image"]


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
    # m = 1: the tangent h_1 = [1] closes to gl_1 at the first listed prime
    assert cert["path"] == "character" and cert["prime"] == _modlinalg.SANDWICH_PRIMES[0]
    assert (cert["lie"]["closure_dim"], cert["lie"]["ceiling"]) == (1, 1)
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
ORACLE_CASES += [(2, 5, Fraction(2))]


def _operator_failure(params, r):
    """tensor._operator_failure on P and relations(min(r, 3)), as
    duality_report calls it."""
    P = tensor.diagram_op(projection(1, 1), params, 1) if r else None
    return tensor._operator_failure(params, r, params.quantum(params.n), P, relations(min(r, 3)))


@pytest.mark.parametrize("n,r,q", ORACLE_CASES, ids=str)
def test_relation_and_class_checks_agree_with_the_all_basis_oracle(n, r, q):
    # the local relations and tr P = z, against every chain of relations(r)
    # and the class-word traces on E^(x r), op(g) op(d) = z^N op(gd) on
    # every basis diagram, and the Moebius inversion of the traces of all m
    # basis operators
    params = BurauParams.preset(n, q)
    assert _operator_failure(params, r) is None
    assert character_oracle.full_size_failure(params, r) is None
    failure, chi = character_oracle.all_basis_check(params, r)
    basis = rook_elements(r)
    assert failure is None and chi == tensor_character(n, basis)
    assert character_oracle.moebius_dimensions(basis, chi) == cellular.groupoid_dimensions(n, r)


def _embedded(d, p, r):
    """The operator of the letter d on E^(x r) from its factor on the slots
    S it moves or forgets: diagram_op of d relabelled onto 1..|S| in order,
    tensor the identity on the other slots, the factor's slots in order."""
    n, slots = p.n, [x for x in range(1, r + 1) if (x, x) not in d.pairs]
    place = {x: i for i, x in enumerate(slots, 1)}
    relabelled = PartialPermutation(len(slots), [(place[x], place[y]) for x, y in d.pairs if x in place])
    factor = diagram_op(relabelled, p, len(slots))
    rest = [t for t in range(1, r + 1) if t not in place]

    def flat(local, other):  # the index on E^(x r) of digits on S and on the rest
        digits = dict(zip(slots, local)) | dict(zip(rest, other))
        return sum(digits[t] * n ** (r - t) for t in range(1, r + 1))

    local, entries = list(product(range(n), repeat=len(slots))), {}
    for index, x in factor.nonzeros().items():
        row, col = (local[i] for i in divmod(index, len(local)))
        for other in product(range(n), repeat=len(rest)):
            entries[flat(row, other) * n**r + flat(col, other)] = x
    return Matrix(n**r, n**r, entries)


LOCALITY_CASES = [(n, r) for n in (2, 3) for r in range(1, 5)] + [(4, 3), (2, 5)]


@pytest.mark.parametrize("n,r", LOCALITY_CASES)
def test_every_letter_is_its_local_factor_tensor_the_identity(n, r):
    # the locality fact of tensor._operator_failure: each letter of
    # relations(r) acts on E^(x r) as its factor on the slots it moves or
    # forgets, tensor the identity on the others
    letters = {d for _, chain in relations(r) for word in chain for d in word}
    for q in acceptance.DUALITY_QS:
        params = BurauParams.preset(n, q)
        for d in letters:
            assert diagram_op(d, params, r) == _embedded(d, params, r), d


def _at_the_z1_scale(d, p, r):
    return diagram_op(d, p, r).scale(p.quantum(p.n) ** (d.rank - r))


def _with_s1_doubled(d, p, r):
    return diagram_op(d, p, r).scale(2 if r > 1 and d == transposition(1, 2, r) else 1)


@pytest.mark.parametrize("fault", [_at_the_z1_scale, _with_s1_doubled], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n,r", [(3, 2), (2, 3), (2, 4)])
def test_relations_fail_where_the_all_basis_oracle_fails(monkeypatch, fault, n, r):
    params = BurauParams.preset(n)
    assert _operator_failure(params, r) is None
    monkeypatch.setattr(tensor, "diagram_op", fault)
    monkeypatch.setattr(character_oracle, "diagram_op", fault)
    assert _operator_failure(params, r) is not None
    assert character_oracle.full_size_failure(params, r) is not None
    assert character_oracle.all_basis_check(params, r)[0] is not None


@pytest.mark.parametrize("n,r", [(3, 3), (2, 4)])
def test_character_path_builds_only_the_letters_of_the_relations(monkeypatch, n, r):
    # P on one slot, then the letters of relations(min(r, 3)) on min(r, 3)
    # slots, each once
    real = tensor.diagram_op
    built = []

    def recorded(d, p, r):
        built.append(d)
        return real(d, p, r)

    monkeypatch.setattr(tensor, "diagram_op", recorded)
    assert duality_report(n, r, BurauParams.preset(n))["certificate"]["path"] == "character"
    letters = {d for _, chain in relations(min(r, 3)) for word in chain for d in word}
    assert built[0] == projection(1, 1) and set(built[1:]) == letters and len(built) == 1 + len(letters)


@pytest.mark.parametrize("n,r", [(3, 4), (2, 5)])
def test_character_path_builds_no_operator_on_the_tensor_power(monkeypatch, n, r):
    # every matrix that tensor builds or packs on the character path has
    # size at most n^min(r, 3): the letters and the packed products; no
    # Kronecker power T_i^(x r) is built
    sizes = Counter()

    def sized(name, real):
        def wrapped(*args):
            out = real(*args)
            sizes[name, out.rows if name != "_word_products" else args[2]] += 1
            return out

        return wrapped

    for name in ("diagram_op", "kron_power", "_word_products"):
        monkeypatch.setattr(tensor, name, sized(name, getattr(tensor, name)))
    report = duality_report(n, r, BurauParams.preset(n))
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert {name for name, _ in sizes} == {"diagram_op", "_word_products"}
    assert max(size for _, size in sizes) == n ** min(r, 3)


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
    # one packed product per word suffix: the commute check packs T_1, T_2
    # and P on one slot and takes T_i P and P T_i for i = 1, 2 (3 letters,
    # 4 words); the relations at r = 2 take p_1, p_2, s_1, p_1 p_1, p_2 p_2,
    # p_1 p_2, p_2 p_1, s_1 s_1, p_2 s_1, p_1 s_1, s_1 p_1 p_2, p_1 p_2 s_1
    # and s_1 p_1 s_1; T_i C = q1 C (1 + H_i(-q)) takes C, T_1 C, T_2 C,
    # X_1, X_2, C X_1 and C X_2, X_i = q1 (1 + H_i(-q))
    calls = _count_calls(monkeypatch, (tensor,), "_packed_product")
    callers = Counter()
    for name, module in list(sys.modules.items()):
        if name.startswith("braidrook") and hasattr(module, "sparse_product"):
            real = module.sparse_product

            def recorded(*args, real=real):
                callers[sys._getframe(1).f_globals["__name__"]] += 1
                return real(*args)

            monkeypatch.setattr(module, "sparse_product", recorded)
    assert duality_report(3, 2, P32)["certificate"]["path"] == "character"
    assert calls["_packed_product"] == 3 + 4 + 13 + 7
    # every integer identity runs on packed rows, the braid side multiplies
    # row windows, and its closure mod p takes its brackets from
    # _modlinalg._images: no module takes a dict product
    assert not callers


@pytest.mark.parametrize("n,r", acceptance.DUALITY_GRID)
def test_groupoid_dimensions_match_the_eliminations_on_the_grid(n, r):
    # the report's two q-free numbers against chi^T G(1)^-1 chi and
    # rank chi(ab), eliminated on the m x m oracle rows
    rook_centralizer, rook_image = tensor_dimensions(n, r)
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
    # envelope's 15 to 1 + 4 + (6^2 + 2^2)/2 = 25, an integer that
    # sum d_lambda^2 does not meet
    _bump_psi_2(monkeypatch, 0, 2)
    report = duality_report(3, 2, P32)
    assert report["certificate"]["bounds"]["rook_centralizer"] == 25
    assert _passing_on_the_exact_path(report) == "envelope_lower 15 != rook_centralizer 25"


def test_non_integral_psi_inner_product_is_named(monkeypatch):
    # psi_2 one more at s_1 gives 1 + 4 + (4^2 + 3^2)/2 = 35/2, which no
    # dimension equals; the reason names it, and no bound is taken
    _bump_psi_2(monkeypatch, 1, 1)
    assert cellular.groupoid_dimensions(3, 2)[0] == Fraction(35, 2)
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == "sum <psi_k, psi_k> = 35/2 is not an integer"
    assert report["certificate"]["bounds"] is None and report["certificate"]["lie"] is None


def test_a_search_that_calls_a_miss_a_meet_takes_the_exact_path(monkeypatch):
    # the prime search returns the closure less one, 3 of m^2 = 4, as a
    # meet: the certificate compares the numbers it records, claims no
    # envelope bound, and the exact dimensions decide the verdicts
    real = _modlinalg.lower_bound

    def lying(gens, target):
        prime, bound, skipped, _ = real(gens, target)
        return prime, bound - 1, skipped, None

    monkeypatch.setattr(_modlinalg, "lower_bound", lying)
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == "closure 3 != m^2 = 4"
    assert report["certificate"]["bounds"] == {"envelope_lower": None, "rook_centralizer": 15, "rook_image": 7}
    assert report["certificate"]["lie"]["closure_dim"] == 3
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
SHAPE_ORACLE_CASES += [(5, 3, Fraction(2))]


@pytest.mark.parametrize("n,r,q", SHAPE_ORACLE_CASES, ids=str)
def test_envelope_bound_is_the_closure_on_u(n, r, q):
    # sum d_lambda^2, which the braid side proves to be the envelope's
    # dimension, the closure of the direct sum on U mod the first listed
    # prime, run to saturation, and the report's envelope_lower are one
    # number
    params, prime = BurauParams.preset(n, q), _modlinalg.SANDWICH_PRIMES[0]
    cert = duality_report(n, r, params)["certificate"]
    assert cert["path"] == "character"
    u = character_oracle.block_generators(params, r)
    on_u = character_oracle.closure_dim_mod([_modlinalg.residues(b, prime) for b in u], u[0].rows, prime)
    assert on_u == _shape_sums(n, r)[1] == cert["bounds"]["envelope_lower"]


@pytest.mark.parametrize("n,r,q", [*SHAPE_ORACLE_CASES, (4, 4, Fraction(2))], ids=str)
def test_every_shape_block_closes_to_d_squared(n, r, q):
    # the shape by shape oracle: each W_lambda mod p has dimension
    # d_lambda = gl_weyl_dim(lambda, n - 1) and is kept by every B_i, the
    # B_i restricted to it close to all d^2 of End(W_lambda), and the d^2
    # sum to the report's envelope_lower
    params, prime = BurauParams.preset(n, q), _modlinalg.SANDWICH_PRIMES[0]
    blocks = character_oracle.shape_blocks(params, r, prime)
    assert [d for _, d, _ in blocks] == [d for _, d, _ in cellular.shape_dimensions(n, r)]
    assert all(None not in block for *_, block in blocks)
    closures = [character_oracle.closure_dim_mod(block, d, prime, d * d) for _, d, block in blocks]
    assert closures == [d * d for _, d, _ in blocks]
    assert sum(closures) == duality_report(n, r, params)["certificate"]["bounds"]["envelope_lower"]


# the two checks that read d_lambda off the shape table
_WEYL_SUMS = ("enveloping_dimension_sum", "weyl_times_cell_dimension_sum")


def _list_a_shape_twice(table):
    # (2), of dimension 3, twice: sum d^2 = 15 + 9
    return [*table, table[2]]


def _drop_the_last_shape(table):
    # (1,1), of dimension 1, left out: sum d^2 = 15 - 1
    return table[:-1]


def _give_w2_dimension_1(table):
    # d_(2) read as 1, not 3: sum d^2 = 15 - 9 + 1
    return [(shape, 1 if shape == (2,) else d, c) for shape, d, c in table]


@pytest.mark.parametrize(
    "control,bound,failures",
    [
        (_list_a_shape_twice, 24, {"centralizer_dimension_sum", *_WEYL_SUMS}),
        (_drop_the_last_shape, 14, {"centralizer_dimension_sum", *_WEYL_SUMS}),
        (_give_w2_dimension_1, 7, set(_WEYL_SUMS)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_a_wrong_shape_table_misses_the_rook_centralizer(monkeypatch, control, bound, failures):
    # the braid side proves that the envelope has dimension sum d^2 over
    # the shape table, and holds here; a table that is wrong gives a sum
    # that misses sum <psi_k, psi_k> = 15, so the report takes the exact
    # path, where the exact envelope, 15, fails the same sum
    real = tensor.shape_dimensions
    monkeypatch.setattr(tensor, "shape_dimensions", lambda n, r: control(real(n, r)))
    report = duality_report(3, 2, P32)
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == f"envelope_lower {bound} != rook_centralizer 15"
    assert cert["bounds"] == {"envelope_lower": bound, "rook_centralizer": 15, "rook_image": 7}
    assert cert["prime"] == _modlinalg.SANDWICH_PRIMES[0] and cert["lie"]["closure_dim"] == 4
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == failures
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["enveloping_dimension_sum"] == f"enveloping dim 15, sum of squared GL_(n-1) Weyl dims {bound}"


def test_a_direct_sum_handed_in_as_one_block_is_not_certified():
    # with R_i (+) R_i at n = 4, the block W_(1) (+) W_(1) of dimension 6:
    # every element acts twice, so neither the tangents h_i (+) h_i under
    # brackets nor the R_i (+) R_i under products get past the 9 of a
    # single copy, against a ceiling of 36
    params, prime = BurauParams.preset(4), _modlinalg.SANDWICH_PRIMES[0]
    tangents = lieclosure.tangent_generators(4, params.q)
    assert _modlinalg.bracket_closure_dim_mod(tangents, prime, 9) == 9
    doubled = [direct_sum([h, h]) for h in tangents]
    assert _modlinalg.bracket_closure_dim_mod(doubled, prime, 36) == 9
    reds = [burau.reduced_generator(i, params) for i in range(1, 4)]
    block = [_modlinalg.residues(direct_sum([g, g]), prime) for g in reds]
    assert character_oracle.closure_dim_mod(block, 6, prime) == 9


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lie_record_holds_the_prime_the_closure_and_each_check(n):
    # q = 2: the three exact checks pass and the closure meets m^2 at the
    # first listed prime, also for n = 2, where m^2 = 1
    m = n - 1
    lie = duality_report(n, 2, BurauParams.preset(n))["certificate"]["lie"]
    checks = [
        ("infinite_order", "-q = -2 has infinite order"),
        ("h_at_minus_q", f"T_i C = q1 C (1 + H_i(-q)) for i = 1..{m}"),
        ("homomorphism", "H_i(z) H_i(w) = H_i(zw) at z, w in {2, 3}"),
    ]
    assert (lie["prime"], lie["closure_dim"], lie["ceiling"]) == (_modlinalg.SANDWICH_PRIMES[0], m * m, m * m)
    assert lie["checks"] == [{"name": name, "status": "pass", "detail": detail} for name, detail in checks]


def test_bumped_tangent_misses_m_squared_at_every_listed_prime(monkeypatch):
    # h_2 = -b e_21 + e_22 at n = 3 with its entry (2, 1) raised by b: both
    # tangents are upper triangular, so they close to 3 of m^2 = 4 mod every
    # prime; no envelope bound is claimed, and the exact path passes
    character = duality_report(3, 2, P32)
    real = tensor.tangent_generators

    def bumped(n, q):
        h_1, h_2 = real(n, q)
        return [h_1, h_2 + Matrix(2, 2, {2: 1 / (1 + q)})]

    monkeypatch.setattr(tensor, "tangent_generators", bumped)
    report = duality_report(3, 2, P32)
    primes = _modlinalg.SANDWICH_PRIMES
    assert _passing_on_the_exact_path(report) == "bounds do not meet mod " + " or ".join(map(str, primes))
    cert = report["certificate"]
    assert cert["bounds"]["envelope_lower"] is None
    assert cert["lie"]["prime"] == primes[0] and (cert["lie"]["closure_dim"], cert["lie"]["ceiling"]) == (3, 4)
    assert _verdicts(report) == _verdicts(character)


def test_bumped_reduced_generator_fails_the_h_check(monkeypatch):
    # H_2(-q) at n = 4 with entry (3, 2), outside its row 2, raised by one:
    # T_2 C = q1 C (1 + H_2(-q)) fails, and no closure runs; the T_i on
    # E^(x r) are untouched, so the exact path passes
    real = tensor.subgroup_h

    def bumped(i, z, c):
        h = real(i, z, c)
        return h + unit(3, 2, 1) if i == 2 else h

    monkeypatch.setattr(tensor, "subgroup_h", bumped)
    report = duality_report(4, 2, BurauParams.preset(4))
    assert _passing_on_the_exact_path(report) == "T_2 C != q1 C (1 + H_2(-q))"
    lie = report["certificate"]["lie"]
    assert [(c["name"], c["status"]) for c in lie["checks"]] == [("infinite_order", "pass"), ("h_at_minus_q", "fail")]
    assert lie["prime"] is None and lie["closure_dim"] is None


def test_bumped_h_window_fails_the_homomorphism_check(monkeypatch):
    # the left entry of every window raised by z + q, which is 0 at z = -q:
    # T_i C = q1 C (1 + H_i(-q)) still holds, but row i of H_i(2) H_i(2)
    # has the left entry 3 (2 + q - b) against 4 + q - 3b in H_i(4)
    real = tensor.h_window

    def bumped(z, c):
        left, mid, right = real(z, c)
        return left + z + c.q, mid, right

    monkeypatch.setattr(tensor, "h_window", bumped)
    report = duality_report(4, 2, BurauParams.preset(4))
    assert _passing_on_the_exact_path(report) == "H_i(2) H_i(2) != H_i(4)"
    lie = report["certificate"]["lie"]
    assert [c["status"] for c in lie["checks"]] == ["pass", "pass", "fail"] and lie["closure_dim"] is None


@pytest.mark.parametrize("q1,q2", [(1, -1), (1, 1)], ids=["q=1", "q=-1"])
def test_finite_order_minus_q_is_refused_by_name(q1, q2):
    # -q = +-1 gives finitely many H_i((-q)^k), so the Zariski argument
    # does not apply: no closure runs, and the exact dimensions fail the
    # same four identities as before the refusal
    params = BurauParams.degenerate(3, q1, q2)
    report = duality_report(3, 2, params)
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == f"-q = {-params.q} has finite order"
    assert cert["prime"] is None and cert["bounds"]["envelope_lower"] is None
    assert [c["status"] for c in cert["lie"]["checks"]] == ["fail"]
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {
        "enveloping_equals_centralizer_of_rook_image",
        "rook_image_equals_centralizer_of_braid",
        "centralizer_dimension_sum",
        "enveloping_dimension_sum",
    }


@pytest.mark.parametrize("r", [0, 1, 2])
def test_n2_powers_that_coincide_take_the_exact_path(r):
    # at n = 2 and q = 1 the powers of -q = -1 give two points of H_1, so
    # every r is refused by name; the exact dimensions pass at r = 0 and 1,
    # and at r = 2 the envelope has dimension 2 of sum d_lambda^2 = 3
    params = BurauParams.degenerate(2, 1, -1)
    report = duality_report(2, r, params)
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == "-q = -1 has finite order"
    assert cert["prime"] is None and cert["bounds"]["envelope_lower"] is None
    assert [c["status"] for c in cert["lie"]["checks"]] == ["fail"]
    if r < 2:
        _passing_on_the_exact_path(report)
        return
    assert {c["name"] for c in report["checks"] if c["status"] == "fail"} == {
        "enveloping_equals_centralizer_of_rook_image",
        "rook_image_equals_centralizer_of_braid",
        "centralizer_dimension_sum",
        "enveloping_dimension_sum",
    }
    details = {c["name"]: c["detail"] for c in report["checks"]}
    assert details["enveloping_dimension_sum"].startswith("enveloping dim 2,")


def _bumped(c):
    # one entry of C off by one
    return c + unit(c.rows, 1, 0)


def _first_column_dropped(c):
    # T_i C = q1 C (1 + H_i(-q)) still holds, but C is singular
    return Matrix(c.rows, c.cols, {k: x for k, x in c.nonzeros().items() if k % c.cols})


@pytest.mark.parametrize(
    "broken,reason",
    [
        (_bumped, "T_1 C != q1 C (1 + H_1(-q))"),
        (_first_column_dropped, "C = change_of_basis is singular"),
    ],
)
def test_broken_change_of_basis_fails_the_split_check(monkeypatch, broken, reason):
    # the failure is named in the lie record, and bounds holds the rook
    # numbers with no envelope bound
    real = tensor.change_of_basis
    monkeypatch.setattr(tensor, "change_of_basis", lambda p: broken(real(p)))
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == reason
    cert = report["certificate"]
    assert cert["lie"]["checks"] == [
        {"name": "infinite_order", "status": "pass", "detail": "-q = -2 has infinite order"},
        {"name": "h_at_minus_q", "status": "fail", "detail": reason},
    ]
    assert cert["bounds"] == {"envelope_lower": None, "rook_centralizer": 15, "rook_image": 7}


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
    # every diagram operator built at q = 3 against braid generators at q = 2:
    # T_i P = P T_i fails on P on one slot, and the exact path builds all 7
    # basis operators on E^(x 2)
    real = tensor.diagram_op
    built = []

    def wrong_q(d, p, r):
        built.append(d)
        return real(d, BurauParams.preset(p.n, Fraction(3)), r)

    monkeypatch.setattr(tensor, "diagram_op", wrong_q)
    report = duality_report(3, 2, P32)
    assert _failing_on_the_exact_path(report) == COMMUTE_AND_BOTH_EQUALITIES
    assert built[0] == projection(1, 1) and len(built) == 1 + 7


@pytest.mark.parametrize("r", [2, 3])
def test_dropped_q_weight_fails_commute_and_both_equalities(monkeypatch, r):
    # the factor q^(J_t - 1) of the first summed slot t left out, at every
    # size: P on one slot loses its weights, so T_i P = P T_i fails there,
    # and the exact path's operators on E^(x r) fail too
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
    # entry (1, 2) of T_1 raised by one, on the n x n commute check and on
    # every exact computation, through T_1^(x 2)
    real = tensor.unreduced_generator

    def bumped(i, p):
        t = real(i, p)
        return t + Matrix(t.rows, t.cols, {1: 1}) if i == 1 else t

    monkeypatch.setattr(tensor, "unreduced_generator", bumped)
    report = duality_report(3, 2, P32)
    assert _failing_on_the_exact_path(report) >= COMMUTE_AND_BOTH_EQUALITIES


def test_bumped_p_on_one_slot_fails_the_commute_check(monkeypatch):
    # entry (1, 1) of P on one slot raised by one, so T_1 P != P T_1; the
    # operators on E^(x 2) are untouched, and the exact path passes on them
    real = tensor.diagram_op

    def bumped(d, p, r):
        op = real(d, p, r)
        return op + Matrix.diagonal([1] + [0] * (p.n - 1)) if r == 1 else op

    monkeypatch.setattr(tensor, "diagram_op", bumped)
    assert _passing_on_the_exact_path(duality_report(3, 2, P32)) == "actions do not commute"


@pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (3, 3)])
def test_doubled_stored_q_fails_commute_and_both_equalities(n, r):
    # a copy of the params whose stored q is 2q: diagram_op and z read it,
    # the T_i are built from q1 and q2. The rook side stays a representation
    # at z = [n]_(2q), so the relations and tr P = z hold on it; T_i P = P T_i
    # fails, and the exact path's operators on E^(x r) fail too
    params = BurauParams.preset(n)
    bumped = copy.copy(params)
    object.__setattr__(bumped, "_q", 2 * params.q)
    P = diagram_op(projection(1, 1), bumped, 1)
    assert tensor._operator_failure(bumped, r, bumped.quantum(n), P, relations(min(r, 3))) is None
    assert _failing_on_the_exact_path(duality_report(n, r, bumped)) == COMMUTE_AND_BOTH_EQUALITIES
    assert duality_report(n, r, params)["all_pass"]


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


def test_character_path_makes_no_matrix_product(monkeypatch):
    # the commute and relation checks run on integer_form, tr P is read
    # off P, and the split check compares (D T_i)(D C) with
    # (D C)(D (q1 + R_i)) on integers
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
    assert calls == 0


def _verdicts(report):
    return [(c["name"], c["status"]) for c in report["checks"]], report["faithful"]


def _passing_on_the_exact_path(report):
    cert = report["certificate"]
    assert cert["path"] == "exact"
    assert report["all_pass"] and report["faithful"] == (report["n"] > report["r"])
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
        return op.scale(2) if r > 1 and d == transposition(1, 2, r) else op

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
    # one entry of D op(s_1) on min(r, 3) slots, row 0 and column 1, raised
    # by one where the relations read it, before it is packed, at r = 2 and
    # at r = 4, where the factor has three slots; the commute check reads P
    # alone, and the exact path the true operators on E^(x r)
    real = tensor._word_products

    def bumped(words, letters, size, ratio=1):
        for s1 in (transposition(1, 2, 2), transposition(1, 2, 3)):
            if s1 in letters:
                m = letters[s1]
                letters = {**letters, s1: {**m, 1: m.get(1, 0) + 1}}
        return real(words, letters, size, ratio)

    monkeypatch.setattr(tensor, "_word_products", bumped)
    for n, r in [(3, 2), (2, 4)]:
        reason = _passing_on_the_exact_path(duality_report(n, r, BurauParams.preset(n)))
        assert reason == "s_1^2 = 1 fails on the rescaled operators"


def test_class_word_trace_off_by_one_breaks_the_character_check(monkeypatch):
    # P on one slot scaled by (z + 1)/z: it still commutes with every T_i,
    # and the relations read the letters on two slots, but tr P = z + 1, so
    # the class word p_1 p_2 of k = 0 would read (8/7)^2, not 1
    real = tensor.diagram_op

    def scaled(d, p, r):
        z = p.quantum(p.n)
        return real(d, p, r).scale((z + 1) / z if r == 1 else 1)

    monkeypatch.setattr(tensor, "diagram_op", scaled)
    reason = _passing_on_the_exact_path(duality_report(3, 2, P32))
    assert reason == "character: tr P = 8 != z = 7"


def test_trace_of_p_off_by_one_names_the_character_check(monkeypatch):
    # P + 1/n on one slot, which commutes with every T_i, at r = 4, where
    # the relations read the letters on three slots: tr P = z + 1
    real = tensor.diagram_op

    def shifted(d, p, r):
        op = real(d, p, r)
        return op + Matrix.identity(p.n).scale(Fraction(1, p.n)) if r == 1 else op

    monkeypatch.setattr(tensor, "diagram_op", shifted)
    reason = _passing_on_the_exact_path(duality_report(2, 4, P22))
    assert reason == "character: tr P = 4 != z = 3"


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
        ([3], "every listed prime divides a denominator"),
        ([3, 2], "bounds do not meet mod 2"),  # a = 1/3 is 1 and b = 2/3 is 0 mod 2
    ],
)
def test_forced_sandwich_miss_takes_exact_path(monkeypatch, primes, reason):
    # at q = 1/2 the tangents have a = 1/3 and b = 2/3 among their entries
    params = BurauParams.preset(3, Fraction(1, 2))
    character = duality_report(3, 2, params)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", primes)
    exact = duality_report(3, 2, params)
    cert = exact["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == reason
    assert cert["primes_skipped"] == [3]
    assert exact["all_pass"]
    assert _verdicts(exact) == _verdicts(character)
    details = {c["name"]: c["detail"] for c in exact["checks"]}
    assert reason in details["rook_image_equals_centralizer_of_braid"]


def test_prime_where_the_tangents_are_triangular_is_tried(monkeypatch):
    # at q = 2 the tangents are 2-integral, so 2 is tried, but a = 2/3 is 0
    # mod 2: h_1 = e_11 and h_2 = e_21 + e_22 are lower triangular and close
    # to 3 of 4. No envelope bound is claimed, and the two character
    # dimensions, which do not depend on the prime, are the exact ones
    character = duality_report(3, 2, P32)
    second = _modlinalg.SANDWICH_PRIMES[0]
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [2])
    exact = duality_report(3, 2, P32)
    cert = exact["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == "bounds do not meet mod 2"
    assert cert["primes_skipped"] == [] and cert["lie"]["closure_dim"] == 3
    dims = _exact_dims(3, 2, P32)
    assert cert["bounds"] == {
        "envelope_lower": None,
        "rook_centralizer": dims["rook_centralizer"],
        "rook_image": dims["image"],
    }
    assert exact["all_pass"] and _verdicts(exact) == _verdicts(character)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [2, second])
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "character" and cert["prime"] == second
    assert cert["primes_skipped"] == [] and cert["bounds"]["envelope_lower"] == 15


def test_miss_at_one_prime_moves_on_to_the_next(monkeypatch):
    # 3 divides the denominator of a = 2/3 and is skipped; the closure
    # misses mod 2 and meets mod 5
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3, 2, 5])
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "character" and cert["prime"] == 5 and cert["primes_skipped"] == [3]
    assert cert["bounds"]["envelope_lower"] == 15


def test_bounds_bracket_exact_dims_at_unlucky_prime(monkeypatch):
    # with 3 the only listed prime, which divides the denominator of
    # a = 2/3, no closure runs and no envelope bound is claimed; the three
    # exact checks still pass, and the two character dimensions, which do
    # not depend on the prime, are the exact ones
    character = duality_report(3, 2, P32)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3])
    report = duality_report(3, 2, P32)
    assert _passing_on_the_exact_path(report) == "every listed prime divides a denominator"
    cert = report["certificate"]
    assert cert["prime"] is None and cert["primes_skipped"] == [3]
    assert cert["lie"]["closure_dim"] is None and [c["status"] for c in cert["lie"]["checks"]] == ["pass"] * 3
    exact = _exact_dims(3, 2, P32)
    assert cert["bounds"] == {
        "envelope_lower": None,
        "rook_centralizer": exact["rook_centralizer"],
        "rook_image": exact["image"],
    }
    assert _verdicts(report) == _verdicts(character)


def test_miss_at_the_first_real_prime_moves_on_to_the_next():
    # q = P0 makes a = q/(1+q) vanish mod P0: no denominator is divisible
    # by P0, but the tangents are lower triangular there and close to 3 of
    # 4; the next listed prime meets
    primes = _modlinalg.SANDWICH_PRIMES
    params = BurauParams.preset(3, primes[0])
    report = duality_report(3, 2, params)
    assert report["all_pass"]
    cert = report["certificate"]
    assert cert["path"] == "character" and cert["prime"] == primes[1]
    assert cert["primes_skipped"] == [] and cert["fallback_reason"] is None
    assert cert["bounds"] == {"envelope_lower": 15, "rook_centralizer": 15, "rook_image": 7}
    assert cert["lie"]["closure_dim"] == 4
    assert _modlinalg.bracket_closure_dim_mod(lieclosure.tangent_generators(3, params.q), primes[0], 4) == 3


@pytest.mark.parametrize("primes", [[5, 7], [7, 5]])
def test_largest_lower_bound_is_kept(monkeypatch, primes):
    # the closure cut down to 3 mod 5 and to 2 mod 7: both miss m^2 = 4, and
    # the record keeps 3, mod 5
    real = _modlinalg.bracket_closure_dim_mod
    cut = {5: 3, 7: 2}

    def short(gens, p, ceiling):
        return min(real(gens, p, ceiling), cut[p])

    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", primes)
    monkeypatch.setattr(_modlinalg, "bracket_closure_dim_mod", short)
    cert = duality_report(3, 2, P32)["certificate"]
    assert cert["path"] == "exact" and cert["prime"] == 5
    assert cert["lie"]["closure_dim"] == 3 and cert["bounds"]["envelope_lower"] is None
    assert cert["fallback_reason"] == f"bounds do not meet mod {primes[0]} or {primes[1]}"


def test_q1_control_is_a_real_failure_on_the_exact_path(monkeypatch):
    # at q = 1 the braid action factors through S_3, so its centralizer
    # outgrows the rook image: -q = -1 has finite order, which the braid
    # side refuses by name, and the exact dimensions fail both identities
    # although the actions commute; the character path builds P on one
    # slot and the 3 letters of the relations, the exact path all 7 basis
    # operators on E^(x 2)
    real = tensor.diagram_op
    built = []

    def counted(d, p, r):
        built.append(d)
        return real(d, p, r)

    monkeypatch.setattr(tensor, "diagram_op", counted)
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert built[0] == projection(1, 1) and len(built) == 1 + 3 + 7
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["prime"] is None
    assert cert["bounds"] == {"envelope_lower": None, "rook_centralizer": 15, "rook_image": 7}
    assert cert["fallback_reason"] == "-q = -1 has finite order"
    status = {c["name"]: c["status"] for c in report["checks"]}
    assert status["actions_commute"] == "pass"
    assert status["rook_image_equals_centralizer_of_braid"] == "fail"
    assert status["enveloping_equals_centralizer_of_rook_image"] == "fail"
    assert status["enveloping_dimension_sum"] == "fail"  # 6 against 15


def test_q1_control_block_closures_fall_short_at_every_listed_prime():
    # the refusal is the theory's, not a prime's: at q = 1 the braid action
    # factors through S_3, and W_(2) = Sym^2 F closes to 5 of its 9 at every
    # listed prime
    params = BurauParams.degenerate(3, 1, -1)
    for p in _modlinalg.SANDWICH_PRIMES:
        blocks = character_oracle.shape_blocks(params, 2, p)
        assert [character_oracle.closure_dim_mod(block, d, p) for _, d, block in blocks] == [1, 4, 5, 1]


def test_lie_closure_makes_fewer_adds_than_the_shape_blocks(monkeypatch):
    # at (4,2) the certificate makes 13 adds, all in the closure of
    # the three 3 x 3 tangents, which stops once it holds the four
    # Chevalley units; spanning the four W_lambda of the shape by shape
    # bound takes 22 adds (1 + 3 + 9 + 9 symmetrized tensors), and their
    # closures, run on to saturation, 169 more, summing to 55. Images that
    # are zero mod p are never added, so these are the adds of nonzero
    # images only
    calls = _count_calls(monkeypatch, (_modlinalg,), "_echelon_add")
    params = BurauParams.preset(4)
    cert = duality_report(4, 2, params)["certificate"]
    assert cert["path"] == "character" and cert["lie"]["closure_dim"] == 9
    assert cert["bounds"]["envelope_lower"] == cert["bounds"]["rook_centralizer"] == 55
    assert calls["_echelon_add"] == 13
    calls.clear()
    prime = cert["prime"]
    blocks = character_oracle.shape_blocks(params, 2, prime)
    assert calls["_echelon_add"] == 22
    calls.clear()
    assert [character_oracle.closure_dim_mod(block, d, prime) for _, d, block in blocks] == [1, 9, 36, 9]
    assert calls["_echelon_add"] == 169


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
    # once, for the image
    basis = _count_calls(monkeypatch, (tensor, diagrams), "rook_elements")
    report = duality_report(3, 2, P32)
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert basis["rook_elements"] == 0
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert report["certificate"]["path"] == "exact"
    assert basis["rook_elements"] == 1


@pytest.mark.parametrize("n,r", [(2, 7), (2, 8), (3, 7)])
def test_duality_report_refuses_r_above_the_enumeration_bound(monkeypatch, n, r):
    # (2, 7) is within MATRIX_SIZE_BUDGET, so only the bound stops it, and
    # before any work; (3, 7) is over the budget, which is checked first
    def no_work(*args):
        raise AssertionError("the report started work")

    for name in ("braid_generators", "unreduced_generator", "diagram_op"):
        monkeypatch.setattr(tensor, name, no_work)
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


@pytest.mark.parametrize("n", [3, 4])
def test_duality_report_builds_each_braid_generator_once(monkeypatch, n):
    # the commute check and the split check of burau.split_generators read
    # one list of T_1..T_(n-1)
    calls = _count_calls(monkeypatch, (tensor, burau), "unreduced_generator")
    report = duality_report(n, 2, BurauParams.preset(n))
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert calls == Counter(unreduced_generator=n - 1)


@pytest.mark.parametrize("n,r", [(3, 2), (4, 3)])
def test_duality_report_computes_z_once(monkeypatch, n, r):
    # the certificate and the relation check read the report's z = [n]_q
    calls = _count_calls(monkeypatch, (BurauParams,), "quantum")
    report = duality_report(n, r, BurauParams.preset(n))
    assert report["certificate"]["path"] == "character" and report["all_pass"]
    assert calls == Counter(quantum=1)


def test_exact_path_reuses_the_braid_generators(monkeypatch):
    # the q = 1 control ends on the exact path, whose commute check,
    # commutant and closure run on one build of the T_i^(x r)
    calls = _count_calls(monkeypatch, (tensor,), "braid_generators")
    report = duality_report(3, 2, BurauParams.degenerate(3, 1, -1))
    assert report["certificate"]["path"] == "exact"
    assert calls["braid_generators"] == 1


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
