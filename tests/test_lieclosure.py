"""Tangent vectors of the one-parameter subgroups, bracket closures to
gl/sl, the tridiagonal determinant, and the first-row bracket chain."""

from fractions import Fraction
from itertools import combinations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from dense import entries, unit, zeros

from braidrook import _modlinalg, lieclosure
from braidrook.burau import BurauParams, reduced_generator
from braidrook.lieclosure import (
    BracketSpace,
    LieConstants,
    bracket_closure,
    commutator,
    finite_order_exponent,
    first_row_chain,
    first_row_seed,
    lie_report,
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
from braidrook.linalg import VectorSpan, matrix_span, worklist_closure
from braidrook.matrix import Matrix

CLOSURE_QS = [Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(3)]
P0 = _modlinalg.SANDWICH_PRIMES[0]
# the reason when every listed prime is tried and each misses the ceiling
MISS_AT_EVERY_PRIME = "bounds do not meet mod " + " or ".join(map(str, _modlinalg.SANDWICH_PRIMES))


def _contains(space, m):
    return matrix_span(list(space.basis)).contains(entries(m))


def _closed_under_bracket(space):
    span = matrix_span(list(space.basis))
    return all(
        span.contains(entries(commutator(x, y))) for x in space.basis for y in space.basis
    )


def _full_worklist_closure(gens):
    """The bracket closure with no saturation stop: every pair of basis
    representatives is bracketed, so the loop ends only at the fixpoint."""
    m = gens[0].rows
    span = VectorSpan(m * m)
    queue = []
    done = []
    for g in gens:
        row = span.add(entries(g))
        if row is not None:
            queue.append(Matrix(m, m, row))
    while queue:
        w = queue.pop()
        for r in done:
            row = span.add(entries(commutator(w, r)))
            if row is not None:
                queue.append(Matrix(m, m, row))
        done.append(w)
    return tuple(Matrix(m, m, list(row)) for row in span.basis_rows())


def _one_round_closure(gens):
    """Negative control: the generators and the brackets of generator
    pairs, not iterated. It misses every bracket of depth three or more."""
    m = gens[0].rows
    span = matrix_span(list(gens))
    for x, y in combinations(gens, 2):
        span.add(entries(commutator(x, y)))
    return tuple(Matrix(m, m, list(row)) for row in span.basis_rows())


def alternating_conjugator(m):
    """D = diag(1, -1, 1, ...); conjugation by D flips the sign of every
    entry at odd offset from the diagonal."""
    return Matrix.diagonal([Fraction((-1) ** i) for i in range(m)])


def expected_chain_element(n, q, k):
    """Closed form for A_k: b e_{1,k-1} + e_{1,k} + a e_{1,k+1}, with
    out-of-range terms dropped (k = n-1 loses the a term)."""
    c = LieConstants(n, q)
    if not 2 <= k <= n - 1:
        raise ValueError(f"chain index {k} outside 2..{n - 1}")
    m = c.size
    elem = unit(m, 0, k - 2).scale(c.b) + unit(m, 0, k - 1)
    if k < m:
        elem = elem + unit(m, 0, k).scale(c.a)
    return elem


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
    with pytest.raises(ValueError, match=r"^need n >= 2$"):
        LieConstants(1, 2)


def test_constants_accept_n2():
    # m = 1: H_1(z) = [z] and h_1 = [1]
    c = LieConstants(2, 2)
    assert c.size == 1 and (c.a, c.b) == (Fraction(2, 3), Fraction(1, 3))
    assert subgroup_h(1, -2, c) == Matrix.from_rows([[-2]])
    assert tangent_generators(2, 2) == [Matrix.from_rows([[1]])]


def test_generator_preconditions():
    for maker in (u_generators, v_generators, tangent_generators):
        with pytest.raises(ValueError):
            maker(1, 2)


@pytest.mark.parametrize("maker", [first_row_seed, first_row_chain])
def test_first_row_chain_refuses_n2_by_name(maker):
    # the seed brackets u_1 with u_2, and n = 2 has u_1 alone
    with pytest.raises(ValueError, match=r"^the first-row chain needs u_1 and u_2, so n >= 3, not 2$"):
        maker(2, 2)


def test_u_examples_n3_q2():
    u1, u2 = u_generators(3, 2)
    assert u1 == Matrix.from_rows([[1, Fraction(2, 3)], [0, 0]])
    assert u2 == Matrix.from_rows([[0, 0], [Fraction(1, 3), 1]])


def test_family_windows_n5():
    # n = 5, q = 2: a = 2/3, b = 1/3; each family at the edges i = 1, 4
    # and at i = 2, where all four entries are present
    c = LieConstants(5, 2)
    us, vs, hs = u_generators(5, 2), v_generators(5, 2), tangent_generators(5, 2)
    expected = {
        "u": [
            [[1, "2/3", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], ["1/3", 1, "2/3", 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, "1/3", 1]],
        ],
        "v": [
            [[-3, "8/3", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], ["4/3", -3, "8/3", 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, "4/3", -3]],
        ],
        "h": [
            [[1, "-2/3", 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], ["-1/3", 1, "-2/3", 0], [0, 0, 0, 0], [0, 0, 0, 0]],
            [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, "-1/3", 1]],
        ],
        # H_i(3): b(1-z) = -2/3, z = 3, a(1-z) = -4/3, 1 elsewhere
        "H": [
            [[3, "-4/3", 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], ["-2/3", 3, "-4/3", 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, "-2/3", 3]],
        ],
        # K_i(2): w^(2-n) = 1/8, b(w - 1/8) = 5/8, a(w - 1/8) = 5/4, 2 elsewhere
        "K": [
            [["1/8", "5/4", 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]],
            [[2, 0, 0, 0], ["5/8", "1/8", "5/4", 0], [0, 0, 2, 0], [0, 0, 0, 2]],
            [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, "5/8", "1/8"]],
        ],
    }
    for slot, i in enumerate((1, 2, 4)):
        built = {
            "u": us[i - 1],
            "v": vs[i - 1],
            "h": hs[i - 1],
            "H": subgroup_h(i, 3, c),
            "K": subgroup_k(i, 2, c),
        }
        for family, rows in expected.items():
            assert built[family] == Matrix.from_rows(rows[slot]), (family, i)


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
        assert d * d == Matrix.identity(n - 1)
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
            space = bracket_closure(gens)
            # the closed-form gl/sl basis against the exact fixpoint
            assert space.certificate["path"] == "modular"
            assert space.basis == _full_worklist_closure(gens)


@pytest.mark.parametrize("n", range(3, 11))
def test_every_tangent_closure_is_certified_at_the_first_prime(n):
    m = n - 1
    for q in (Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(-1, 3)):
        for maker, ceiling in ((u_generators, m * m), (v_generators, m * m - 1)):
            assert bracket_closure(maker(n, q)).certificate == {
                "path": "modular",
                "prime": P0,
                "primes_skipped": [],
                "bounds": {"lower": ceiling, "ceiling": ceiling},
                "fallback_reason": None,
            }


def _borel_generators(m):
    """e_11, ..., e_mm and the upper shift: their bracket closure is the
    upper-triangular (Borel) algebra, dimension m(m+1)/2 < m^2."""
    shift = zeros(m, m)
    for i in range(m - 1):
        shift = shift + unit(m, i, i + 1)
    return [unit(m, i, i) for i in range(m)] + [shift]


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_saturation_stop_leaves_proper_closures_whole(m):
    borel = bracket_closure(_borel_generators(m))
    assert borel.dim == m * (m + 1) // 2
    # negative control: a proper closure misses the gl ceiling at every
    # listed prime, and the first of the equal bounds is the one kept
    assert borel.certificate == {
        "path": "exact",
        "prime": P0,
        "primes_skipped": [],
        "bounds": {"lower": borel.dim, "ceiling": m * m},
        "fallback_reason": MISS_AT_EVERY_PRIME,
    }
    assert borel.basis == _full_worklist_closure(_borel_generators(m))
    assert all(b[i, j] == 0 for b in borel.basis for i in range(m) for j in range(i))
    e12 = bracket_closure([unit(m, 0, 1)])
    assert e12.dim == 1 and e12.basis == (unit(m, 0, 1),)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_one_generator_with_trace_lifts_the_ceiling_to_gl(n):
    """v_i are traceless, u_1 is not: the ceiling is m^2, not m^2 - 1, even
    with the traced generator last."""
    m = n - 1
    gens = v_generators(n, 2) + [u_generators(n, 2)[0]]
    space = bracket_closure(gens)
    assert space.dim == m * m
    assert space.certificate["path"] == "modular"
    assert space.certificate["bounds"] == {"lower": m * m, "ceiling": m * m}
    assert space.basis == tuple(unit(m, i, j) for i in range(m) for j in range(m))
    assert space.basis == _full_worklist_closure(gens)


@pytest.fixture
def commutator_calls(monkeypatch):
    """One entry per commutator that bracket_closure takes."""
    calls = []

    def counting(x, y):
        calls.append(None)
        return commutator(x, y)

    monkeypatch.setattr(lieclosure, "commutator", counting)
    return calls


def test_saturation_stop_saves_brackets(commutator_calls, monkeypatch):
    # no listed prime, so the exact worklist runs and stops at the ceiling
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [])
    gens = u_generators(6, 2)
    space = bracket_closure(gens)
    d = space.dim
    assert d == 25 and space.certificate["path"] == "exact"
    assert 0 < len(commutator_calls) < len(gens) * d


def test_modular_path_makes_no_commutator_call(commutator_calls):
    space = bracket_closure(u_generators(6, 2))
    assert space.dim == 25 and space.certificate["path"] == "modular"
    assert len(commutator_calls) == 0


def test_modular_closures_add_no_image_that_must_be_zero(monkeypatch):
    # the six closures of the lie-bracket benchmark at q = 2 take the
    # images of 169 popped rows before their spans hold the Chevalley
    # units, 1378 brackets [g, w], one per generator and row; only the 690
    # nonzero mod p reach _echelon_add, after the 48 seeds, so 738 adds.
    # A lost skip of a zero image fails here, with no timing
    calls = []
    real = _modlinalg._echelon_add

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(_modlinalg, "_echelon_add", counted)
    for n in (8, 9, 10):
        for family in (u_generators, v_generators):
            assert bracket_closure(family(n, 2)).certificate["path"] == "modular"
    assert len(calls) == 738


# -- the unit stop of the mod-p closure ------------------------------------

# the listed primes, and small ones at which a, b, (n - 1) or a trace can
# vanish
ORACLE_PRIMES = _modlinalg.SANDWICH_PRIMES + [2, 3, 5, 7]


def _unstopped_dim_mod(gens, p, ceiling):
    """The mod-p worklist of bracket_closure_dim_mod with no unit stop: it
    runs until its span is closed under every ad_g or reaches ceiling."""
    res = [_modlinalg.residues(g, p) for g in gens]
    images = _modlinalg._images(res, gens[0].rows, p)
    basis = {}
    return worklist_closure(lambda v: _modlinalg._echelon_add(basis, v, p), res, images, ceiling)


def _assert_unit_stop_matches(gens):
    """At each p-integral prime of ORACLE_PRIMES, the stopped closure equals
    the unstopped one at the ceiling bracket_closure uses and at the gl
    ceiling m^2, which lets a traceless family show sl_m against gl_m."""
    m = gens[0].rows
    exact = m * m - 1 if all(g.trace() == 0 for g in gens) else m * m
    for p in ORACLE_PRIMES:
        if _modlinalg.is_p_integral(gens, p):
            for ceiling in {exact, m * m}:
                want = _unstopped_dim_mod(gens, p, ceiling)
                assert _modlinalg.bracket_closure_dim_mod(gens, p, ceiling) == want, (p, ceiling)


@pytest.mark.parametrize("n", range(3, 13))
def test_unit_stop_matches_the_unstopped_worklist_on_the_tangent_families(n):
    # q = P0 makes a vanish mod P0; b vanishes mod 3 at q = -1/3, and the
    # off-diagonal entries of v mod every p dividing n - 1
    for q in (Fraction(2), Fraction(1, 2), Fraction(-2), Fraction(-1, 3), Fraction(P0)):
        for maker in (u_generators, v_generators, tangent_generators):
            _assert_unit_stop_matches(maker(n, q))


@pytest.mark.parametrize("n", range(3, 8))
def test_unit_stop_reads_a_trace_that_vanishes_mod_p(n):
    # v and diag(1, p - 1, 0, ...) have trace p over Q, so their ceiling is
    # gl_m, but are traceless mod p; where p does not divide n - 1, and so
    # the off-diagonal entries of v, they close to sl_m there (p = 2 is left
    # out: it divides the entries 2(n - 1) of v at q = -2)
    m = n - 1
    for p in (3, 5, 7, P0):
        gens = v_generators(n, -2) + [Matrix.diagonal([1, p - 1] + [0] * (m - 2))]
        if m % p:
            assert _unstopped_dim_mod(gens, p, m * m) == m * m - 1
        _assert_unit_stop_matches(gens)


@pytest.mark.parametrize("m", range(1, 6))
def test_unit_stop_matches_the_unstopped_worklist_on_random_families(m):
    rng = random.Random(3900 + m)
    for _ in range(25):
        gens = [
            Matrix.from_rows([[rng.choice([0, 0, 0, 1, -1, 2, 3, 5, 7]) for _ in range(m)] for _ in range(m)])
            for _ in range(rng.randint(1, 3))
        ]
        if rng.random() < 0.5:
            # make the family traceless over Q, so its ceiling is sl_m
            gens = [g - Matrix(m, m, {0: g.trace()}) for g in gens]
        _assert_unit_stop_matches(gens)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_unit_stop_leaves_proper_closures_whole(m):
    # both closures hold every e_(i,i+1) and no e_(i+1,i), so a stop keyed
    # on the superdiagonal units alone would call them all of gl_m or sl_m
    for gens, dim in ((_borel_generators(m), m * (m + 1) // 2), (_superdiagonal_units(m), m * (m - 1) // 2)):
        assert _modlinalg.bracket_closure_dim_mod(gens, P0, m * m) == dim
        _assert_unit_stop_matches(gens)


@pytest.mark.parametrize("n", [4, 6])
def test_closure_one_short_mod_p_takes_the_exact_path(monkeypatch, n):
    gens = u_generators(n, 2)
    modular = bracket_closure(gens)
    real = _modlinalg.bracket_closure_dim_mod

    def one_short(gens, p, ceiling):
        return real(gens, p, ceiling) - 1

    monkeypatch.setattr(_modlinalg, "bracket_closure_dim_mod", one_short)
    exact = bracket_closure(gens)
    ceiling = (n - 1) ** 2
    assert exact.certificate == {
        "path": "exact",
        "prime": P0,
        "primes_skipped": [],
        "bounds": {"lower": ceiling - 1, "ceiling": ceiling},
        "fallback_reason": MISS_AT_EVERY_PRIME,
    }
    assert exact.dim == modular.dim == ceiling
    assert exact.basis == modular.basis
    assert exact == modular  # the same space; only the record differs


def test_every_prime_dividing_a_denominator_takes_the_exact_path(monkeypatch):
    # at q = 2, b = 1/3, and the scale adds a 5 to every denominator
    gens = [u.scale(Fraction(1, 5)) for u in u_generators(4, 2)]
    modular = bracket_closure(gens)
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3, 5])
    exact = bracket_closure(gens)
    assert exact.certificate == {
        "path": "exact",
        "prime": None,
        "primes_skipped": [3, 5],
        "bounds": {"lower": None, "ceiling": 9},
        "fallback_reason": "every listed prime divides a denominator",
    }
    assert exact.basis == modular.basis


def test_first_prime_dividing_no_denominator_is_the_one_used(monkeypatch):
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3, 7, 5])
    cert = bracket_closure(u_generators(4, 2)).certificate
    assert cert["path"] == "modular" and cert["prime"] == 7
    assert cert["primes_skipped"] == [3]


@pytest.mark.parametrize("family", ["u", "v"])
def test_miss_at_the_first_prime_is_certified_at_the_next(family):
    # q = P0 is 0 mod P0, so a = q/(1+q) vanishes there and the closure
    # stops short (6 of 9 for u, 5 of 8 for v); the next listed prime meets
    gens = {"u": u_generators, "v": v_generators}[family](4, P0)
    report = lie_report(4, P0, family)
    ceiling = report["expected_dim"]
    assert report["ok"] and report["closure_dim"] == ceiling
    assert report["certificate"] == {
        "path": "modular",
        "prime": _modlinalg.SANDWICH_PRIMES[1],
        "primes_skipped": [],
        "bounds": {"lower": ceiling, "ceiling": ceiling},
        "fallback_reason": None,
    }
    assert _modlinalg.bracket_closure_dim_mod(gens, P0, ceiling) < ceiling
    assert bracket_closure(gens).basis == _full_worklist_closure(gens)


def test_unlucky_prime_falls_short_and_the_exact_path_is_right(monkeypatch):
    # e_12 and 3 e_21 generate sl_2 over Q, but 3 e_21 vanishes mod 3
    gens = [unit(2, 0, 1), unit(2, 1, 0).scale(3)]
    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", [3])
    space = bracket_closure(gens)
    assert space.certificate["bounds"] == {"lower": 1, "ceiling": 3}
    assert space.certificate["path"] == "exact"
    assert space.dim == 3 and space.basis == _full_worklist_closure(gens)


def _superdiagonal_units(m):
    return [unit(m, i, i + 1) for i in range(m - 1)]


def test_a_search_that_calls_a_miss_a_meet_takes_the_exact_path(monkeypatch):
    # the prime search returns its closure less one, 8 of gl_3's 9, as a
    # meet: the certificate compares the numbers it records, and the exact
    # closure decides the verdict
    real = _modlinalg.lower_bound

    def lying(gens, target):
        prime, bound, skipped, _ = real(gens, target)
        return prime, bound - 1, skipped, None

    monkeypatch.setattr(_modlinalg, "lower_bound", lying)
    report = lie_report(4, 2, "u")
    assert report["ok"] and report["closure_dim"] == 9
    cert = report["certificate"]
    assert cert["path"] == "exact" and cert["fallback_reason"] == "lower 8 != ceiling 9"
    assert cert["bounds"] == {"lower": 8, "ceiling": 9}


@pytest.mark.parametrize("m", [3, 4, 5])
def test_generator_worklist_reaches_deep_brackets(m, commutator_calls):
    """e_{i,i+1} generate the strictly upper-triangular algebra, whose top
    unit e_{1,m} is a bracket of depth m - 1 in them. The closure is proper,
    so no saturation stop fires: every basis element is bracketed with
    every generator exactly once."""
    gens = _superdiagonal_units(m)
    space = bracket_closure(gens)
    assert space.dim == m * (m - 1) // 2
    # negative control: the mod-p closure misses the sl ceiling at every
    # listed prime
    assert space.certificate["path"] == "exact"
    assert space.certificate["fallback_reason"] == MISS_AT_EVERY_PRIME
    assert space.certificate["bounds"] == {"lower": space.dim, "ceiling": m * m - 1}
    assert len(commutator_calls) == len(gens) * space.dim
    assert space.basis == _full_worklist_closure(gens)
    assert all(b[i, j] == 0 for b in space.basis for i in range(m) for j in range(i + 1))
    assert _contains(space, unit(m, 0, m - 1))


@pytest.mark.parametrize("m", [4, 5])
def test_one_round_of_brackets_falls_short(m):
    """Negative control: generator-pair brackets alone miss e_{1,m} for
    m >= 4 (at m = 3 depth two is the top), so the worklist's iteration
    is what reaches the whole closure."""
    gens = _superdiagonal_units(m)
    shallow = _one_round_closure(gens)
    assert len(shallow) < bracket_closure(gens).dim
    assert not matrix_span(list(shallow)).contains(entries(unit(m, 0, m - 1)))


@pytest.mark.parametrize("m", [3, 4])
def test_generator_worklist_matches_full_worklist_on_random_pairs(m):
    rng = random.Random(1300 + m)
    for _ in range(12):
        gens = [
            Matrix.from_rows(
                [[rng.choice([0, 0, 0, 0, 0, 1, -1, 2]) for _ in range(m)] for _ in range(m)]
            )
            for _ in range(2)
        ]
        assert bracket_closure(gens).basis == _full_worklist_closure(gens)


def test_v_closure_traceless():
    for n in (3, 4, 5):
        space = bracket_closure(v_generators(n, 2))
        assert all(m.trace() == 0 for m in space.basis)


def test_bracket_closure_empty():
    with pytest.raises(ValueError):
        bracket_closure([])


@pytest.mark.parametrize("gens", [[Matrix(0, 0, {})], [Matrix(0, 0, {}), Matrix(0, 0, {})]])
def test_bracket_closure_refuses_0_by_0_generators(monkeypatch, gens):
    # refused by name before any work; m^2 - 1 would be a ceiling of -1
    def no_work(*args):
        raise AssertionError("bracket_closure started work")

    monkeypatch.setattr(_modlinalg, "lower_bound", no_work)
    with pytest.raises(ValueError, match=r"^generators must be at least 1 x 1$"):
        bracket_closure(gens)


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
    assert rep["certificate"] == {
        "path": "modular",
        "prime": P0,
        "primes_skipped": [],
        "bounds": {"lower": 16, "ceiling": 16},
        "fallback_reason": None,
    }
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
        assert subgroup_h(i, 1, c) == Matrix.identity(c.size)
        for z, w in [(2, 3), (Fraction(1, 2), -5), (7, Fraction(-2, 3))]:
            assert subgroup_h(i, z, c) * subgroup_h(i, w, c) == subgroup_h(
                i, Fraction(z) * Fraction(w), c
            )


def test_subgroup_k_group_law():
    c = LieConstants(4, Fraction(1, 2))
    for i in (1, 2, 3):
        assert subgroup_k(i, 1, c) == Matrix.identity(c.size)
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


def test_membership_builds_only_its_own_tangent_vector(monkeypatch):
    def refused(n, q):
        raise AssertionError("tangent_generators called")

    monkeypatch.setattr(lieclosure, "tangent_generators", refused)
    params = BurauParams(5, 1, -2)
    for i in range(1, 5):
        assert one_param_membership(i, 2, params)["checks"]["tangent_line"]


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
        expected = unit(m, 0, 1).scale(1 - c.a * c.b)
        if n >= 4:
            expected = expected + unit(m, 0, 2).scale(c.a)
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
