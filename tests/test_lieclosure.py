"""Tangent vectors of the one-parameter subgroups, bracket closures to
gl/sl, the tridiagonal determinant, and the first-row bracket chain."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidrook import lieclosure
from braidrook.burau import BurauParams, reduced_generator
from braidrook.lieclosure import (
    BracketSpace,
    LieConstants,
    alternating_conjugator,
    bracket_closure,
    commutator,
    expected_chain_element,
    finite_order_exponent,
    first_row_chain,
    first_row_seed,
    lie_report,
    off_identity,
    one_param_membership,
    subgroup_h,
    subgroup_k,
    tangent_generators,
    tridiagonal_det,
    tridiagonal_det_closed,
    tridiagonal_det_recursive,
    tridiagonal_matrix,
    u_generators,
    v_generators,
)
from braidrook.linalg import VectorSpan, matrix_span
from braidrook.matrix import Matrix

CLOSURE_QS = [Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(3)]


def _contains(space, m):
    return matrix_span(list(space.basis)).contains(m.entries())


def _closed_under_bracket(space):
    span = matrix_span(list(space.basis))
    return all(
        span.contains(commutator(x, y).entries()) for x in space.basis for y in space.basis
    )


def _full_worklist_closure(gens):
    """The bracket closure with no saturation stop: every pair of basis
    representatives is bracketed, so the loop ends only at the fixpoint."""
    m = gens[0].rows
    span = VectorSpan(m * m)
    queue = []
    done = []
    for g in gens:
        row = span.add(g.entries())
        if row is not None:
            queue.append(Matrix(m, m, row))
    while queue:
        w = queue.pop()
        for r in done:
            row = span.add(commutator(w, r).entries())
            if row is not None:
                queue.append(Matrix(m, m, row))
        done.append(w)
    return tuple(Matrix(m, m, list(row)) for row in span.basis_rows())


# -- constants and generator matrices -------------------------------------


def test_constants_identities():
    for q in CLOSURE_QS:
        c = LieConstants(4, q)
        assert c.a + c.b == 1
        assert c.a * c.b == q / (1 + q) ** 2
        assert c.size == 3


def test_constants_rejects_degenerate():
    for q in (0, 1, -1):
        with pytest.raises(ValueError):
            LieConstants(3, q)
    with pytest.raises(ValueError):
        LieConstants(2, 2)


def test_generator_preconditions():
    for maker in (u_generators, v_generators, tangent_generators):
        with pytest.raises(ValueError):
            maker(2, 2)


def test_u_examples_n3_q2():
    u1, u2 = u_generators(3, 2)
    assert u1 == Matrix.from_rows([[1, Fraction(2, 3)], [0, 0]])
    assert u2 == Matrix.from_rows([[0, 0], [Fraction(1, 3), 1]])


def test_generator_traces():
    for n in (3, 4, 5):
        for q in CLOSURE_QS:
            assert all(u.trace() == 1 for u in u_generators(n, q))
            assert all(v.trace() == 0 for v in v_generators(n, q))
            assert all(h.trace() == 1 for h in tangent_generators(n, q))


def test_tangents_are_conjugate_u():
    """h_i = D u_i D^{-1} with D the alternating sign matrix (D^2 = I)."""
    for n in (3, 4, 5):
        d = alternating_conjugator(n - 1)
        assert (d * d).is_identity()
        for u, h in zip(u_generators(n, 2), tangent_generators(n, 2)):
            assert h == d * u * d


def test_tangents_from_v():
    """h_i = (I - v_i)/(n-1), the relation the closure argument rests on."""
    for n in (3, 4, 5):
        for q in CLOSURE_QS:
            ident = Matrix.identity(n - 1)
            for v, h in zip(v_generators(n, q), tangent_generators(n, q)):
                assert h == (ident - v).scale(Fraction(1, n - 1))


# -- bracket closures ------------------------------------------------------


def test_closure_dimensions():
    for n in (3, 4, 5):
        for q in CLOSURE_QS:
            assert bracket_closure(u_generators(n, q)).dim == (n - 1) ** 2
            assert bracket_closure(tangent_generators(n, q)).dim == (n - 1) ** 2
            assert bracket_closure(v_generators(n, q)).dim == (n - 1) ** 2 - 1


def test_closure_is_bracket_closed_and_contains_gens():
    space = bracket_closure(u_generators(4, 2))
    assert isinstance(space, BracketSpace)
    assert _closed_under_bracket(space)
    assert all(_contains(space, u) for u in u_generators(4, 2))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_saturation_stop_returns_the_full_worklist_basis(n):
    for q in (Fraction(2), Fraction(-1, 3)):
        for maker in (u_generators, v_generators, tangent_generators):
            gens = maker(n, q)
            assert bracket_closure(gens).basis == _full_worklist_closure(gens)


def _borel_generators(m):
    """e_11, ..., e_mm and the upper shift: their bracket closure is the
    upper-triangular (Borel) algebra, dimension m(m+1)/2 < m^2."""
    shift = Matrix.zeros(m, m)
    for i in range(m - 1):
        shift = shift + Matrix.unit(m, i, i + 1)
    return [Matrix.unit(m, i, i) for i in range(m)] + [shift]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_saturation_stop_leaves_proper_closures_whole(m):
    borel = bracket_closure(_borel_generators(m))
    assert borel.dim == m * (m + 1) // 2
    assert borel.basis == _full_worklist_closure(_borel_generators(m))
    assert all(b[i, j] == 0 for b in borel.basis for i in range(m) for j in range(i))
    e12 = bracket_closure([Matrix.unit(m, 0, 1)])
    assert e12.dim == 1 and e12.basis == (Matrix.unit(m, 0, 1),)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_generator_with_trace_lifts_the_ceiling_to_gl(n):
    """v_i are traceless, u_1 is not: the ceiling is m^2, not m^2 - 1, even
    with the traced generator last."""
    m = n - 1
    gens = v_generators(n, 2) + [u_generators(n, 2)[0]]
    space = bracket_closure(gens)
    assert space.dim == m * m
    assert space.basis == _full_worklist_closure(gens)


def test_saturation_stop_saves_brackets(monkeypatch):
    calls = []

    def counting(x, y):
        calls.append(None)
        return commutator(x, y)

    monkeypatch.setattr(lieclosure, "commutator", counting)
    space = bracket_closure(u_generators(5, 2))
    d = space.dim
    assert d == 16
    assert 0 < len(calls) < d * (d - 1) // 2


def test_v_closure_traceless():
    for n in (3, 4, 5):
        space = bracket_closure(v_generators(n, 2))
        assert all(m.trace() == 0 for m in space.basis)


def test_bracket_closure_empty():
    with pytest.raises(ValueError):
        bracket_closure([])


def test_bracket_scale_identity():
    """[h_i, h_j] = [v_i, v_j]/(n-1)^2 for every pair, and the u-side
    version picks up the alternating conjugation."""
    for n in (3, 4, 5):
        for q in (Fraction(2), Fraction(1, 2)):
            c = Fraction(1, (n - 1) ** 2)
            us = u_generators(n, q)
            vs = v_generators(n, q)
            hs = tangent_generators(n, q)
            d = alternating_conjugator(n - 1)
            for i, j in combinations(range(n - 1), 2):
                bracket_v = commutator(vs[i], vs[j])
                assert commutator(hs[i], hs[j]) == bracket_v.scale(c)
                assert commutator(us[i], us[j]) == (d * bracket_v * d).scale(c)


def test_lie_report():
    rep = lie_report(5, 2, "u")
    assert rep["closure_dim"] == rep["expected_dim"] == 16
    assert rep["generator_count"] == 4
    assert rep["ok"] and not rep["traceless"]
    rep = lie_report(3, 2, "v")
    assert rep["closure_dim"] == 3 and rep["ok"] and rep["traceless"]
    rep = lie_report(4, Fraction(1, 2), "h")
    assert rep["closure_dim"] == 9 and rep["ok"]
    with pytest.raises(ValueError):
        lie_report(3, 2, "w")


@settings(max_examples=15, deadline=None)
@given(
    q=st.fractions(
        min_value=Fraction(-4), max_value=Fraction(4), max_denominator=5
    ).filter(lambda f: f not in (0, 1, -1))
)
def test_closure_dims_generic_q(q):
    assert bracket_closure(u_generators(3, q)).dim == 4
    assert bracket_closure(v_generators(3, q)).dim == 3


# -- one-parameter subgroups ----------------------------------------------


def test_subgroup_h_group_law():
    c = LieConstants(4, 2)
    for i in (1, 2, 3):
        assert subgroup_h(i, 1, c).is_identity()
        for z, w in [(2, 3), (Fraction(1, 2), -5), (7, Fraction(-2, 3))]:
            assert subgroup_h(i, z, c) * subgroup_h(i, w, c) == subgroup_h(
                i, Fraction(z) * Fraction(w), c
            )


def test_subgroup_k_group_law():
    c = LieConstants(4, Fraction(1, 2))
    for i in (1, 2, 3):
        assert subgroup_k(i, 1, c).is_identity()
        for z, w in [(2, 3), (Fraction(1, 2), -5)]:
            assert subgroup_k(i, z, c) * subgroup_k(i, w, c) == subgroup_k(
                i, Fraction(z) * Fraction(w), c
            )
    with pytest.raises(ValueError):
        subgroup_k(1, 0, c)


def test_index_bounds():
    c = LieConstants(3, 2)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            subgroup_h(bad, 2, c)
        with pytest.raises(ValueError):
            subgroup_k(bad, 2, c)


def test_off_identity():
    e2 = off_identity(3, 2)
    assert e2 == Matrix.diagonal([1, 0, 1])
    assert e2.trace() == 2


def test_scaled_powers_land_on_h():
    """(q1^{-1} rho(sigma_i))^k = H_i((-q)^k), k = 0..8, several params."""
    for params in (
        BurauParams(3, 1, -2),
        BurauParams(4, 2, 3),
        BurauParams(5, Fraction(1, 2), Fraction(2, 3)),
    ):
        for i in (1, params.n - 1):
            for k in range(9):
                rep = one_param_membership(i, k, params)
                assert rep["ok"], rep
                assert rep["checks"]["scaled_power_in_h"]
                assert rep["checks"]["tangent_line"]


def test_membership_example_n3():
    rep = one_param_membership(1, 2, BurauParams(3, 1, 2))
    assert rep["z"] == "4" and rep["ok"]
    assert one_param_membership(1, 0, BurauParams(3, 1, 2))["z"] == "1"
    with pytest.raises(ValueError):
        one_param_membership(1, -1, BurauParams(3, 1, 2))


def test_finite_order_exponent():
    assert finite_order_exponent(BurauParams(3, 2, Fraction(1, 2))) == 1
    assert finite_order_exponent(BurauParams(3, 2, Fraction(-1, 2))) == 2
    assert finite_order_exponent(BurauParams(3, 1, 2)) is None


def test_unscaled_powers_land_on_k():
    """rho(sigma_i^{kd}) = K_i(q1^{kd}) whenever (q1^{n-2} q2)^d = 1; the
    two rational instances are q2 = q1^{2-n} (d=1) and q2 = -q1^{2-n} (d=2)."""
    for n, q1 in ((3, Fraction(2)), (4, Fraction(3)), (5, Fraction(1, 2))):
        for sign, d in ((1, 1), (-1, 2)):
            params = BurauParams(n, q1, sign * q1 ** (2 - n))
            assert finite_order_exponent(params) == d
            for i in (1, n - 1):
                for k in range(5):
                    rep = one_param_membership(i, k, params)
                    assert rep["finite_order_d"] == d
                    assert rep["checks"]["power_in_k"] is True
                    assert rep["ok"]


def test_k_branch_skipped_when_no_finite_order():
    rep = one_param_membership(1, 3, BurauParams(3, 1, 2))
    assert rep["finite_order_d"] is None
    assert rep["checks"]["power_in_k"] is None
    assert rep["ok"]


def test_h_matches_direct_power_formula():
    """Independent of one_param_membership: square the scaled generator
    by hand and compare entrywise."""
    p = BurauParams(3, 1, 2)
    c = LieConstants(3, p.q)
    g = reduced_generator(1, p).scale(Fraction(1, 1))
    assert g * g == subgroup_h(1, 4, c)


# -- tridiagonal determinant ------------------------------------------------


def test_tridiagonal_matrix_shape():
    m = tridiagonal_matrix(4, 2)
    a, b = Fraction(2, 3), Fraction(1, 3)
    assert m == Matrix.from_rows([[1, a, 0], [b, 1, a], [0, b, 1]])


def test_tridiagonal_small_values():
    for q in CLOSURE_QS:
        a = Fraction(q) / (1 + Fraction(q))
        b = 1 / (1 + Fraction(q))
        assert tridiagonal_det(3, q) == 1 - a * b
        assert tridiagonal_det(4, q) == 1 - 2 * a * b


def test_tridiagonal_example_n5_q2():
    assert tridiagonal_det(5, 2) == Fraction(31, 81)
    assert tridiagonal_det_closed(5, 2) == Fraction(31, 81)


def test_tridiagonal_three_way_agreement():
    for n in range(3, 11):
        for q in CLOSURE_QS + [Fraction(0), Fraction(1), Fraction(-3, 7)]:
            direct = tridiagonal_det(n, q)
            assert direct == tridiagonal_det_recursive(n, q)
            assert direct == tridiagonal_det_closed(n, q)


def test_tridiagonal_rejects():
    with pytest.raises(ValueError):
        tridiagonal_det(2, 2)
    with pytest.raises(ValueError):
        tridiagonal_det(5, -1)


# -- first-row bracket chain -------------------------------------------------


def test_first_row_seed_value():
    """([u_1,[u_1,u_2]] + [u_1,u_2])/(2a) = (1-ab) e_12 + a e_13 exactly
    (no e_13 at n = 3); these values were recomputed by hand."""
    for n, q in ((3, Fraction(2)), (5, Fraction(2)), (4, Fraction(1, 2))):
        c = LieConstants(n, q)
        seed, start = first_row_seed(n, q)
        m = n - 1
        expected = Matrix.unit(m, 0, 1).scale(1 - c.a * c.b)
        if n >= 4:
            expected = expected + Matrix.unit(m, 0, 2).scale(c.a)
        assert seed == expected
        assert start == u_generators(n, q)[0].scale(c.b) + seed


def test_chain_matches_closed_forms():
    for n in (3, 4, 5, 6):
        for q in (Fraction(2), Fraction(-2)):
            chain = first_row_chain(n, q)
            assert len(chain) == n - 2
            for k, elem in enumerate(chain, start=2):
                assert elem == expected_chain_element(n, q, k)


def test_chain_last_element_truncates():
    c = LieConstants(5, 2)
    last = first_row_chain(5, 2)[-1]
    assert last == Matrix.from_rows(
        [[0, 0, c.b, 1], [0] * 4, [0] * 4, [0] * 4]
    )


def test_expected_chain_bounds():
    with pytest.raises(ValueError):
        expected_chain_element(5, 2, 1)
    with pytest.raises(ValueError):
        expected_chain_element(5, 2, 5)


def test_chain_lies_in_u_closure():
    space = bracket_closure(u_generators(5, 2))
    for elem in first_row_chain(5, 2):
        assert _contains(space, elem)
