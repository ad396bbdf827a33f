import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from braidrook import _modlinalg
from braidrook.burau import BurauParams
from braidrook.linalg import (
    VectorSpan,
    _MODULAR_THRESHOLD,
    _nullspace_from_rref,
    commutant,
    commutant_rows,
    det,
    invert,
    matrix_span,
    nullspace_of_rows,
    rank,
    rref,
    span_closure,
    spans_equal,
)
from braidrook.matrix import Matrix, kron, kron_power
from braidrook.scalars import format_scalar, parse_scalar, quantum_int
from braidrook.tensor import braid_generators

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def rand_matrix(rng, rows, cols, den=6):
    return Matrix(
        rows, cols,
        [Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(rows * cols)],
    )


def _sparse_rows_of(m):
    rows = []
    for i in range(m.rows):
        entries = [(j, v) for j, v in enumerate(m.row(i)) if v]
        if entries:
            rows.append(entries)
    return rows


# -- scalars ---------------------------------------------------------------


@given(rationals)
def test_scalar_string_round_trip(x):
    assert parse_scalar(format_scalar(x)) == x


def test_scalar_formatting():
    assert format_scalar(Fraction(3, 1)) == "3"
    assert format_scalar(Fraction(-2, 7)) == "-2/7"
    assert parse_scalar("5/10") == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_scalar("1.5")
    with pytest.raises(ValueError):
        parse_scalar("1/0")
    with pytest.raises(ValueError):
        parse_scalar("")


@given(rationals, rationals, rationals)
def test_scalar_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


def test_quantum_int():
    q = Fraction(2)
    assert quantum_int(0, q) == 0
    assert quantum_int(1, q) == 1
    assert quantum_int(3, q) == 7
    assert quantum_int(3, Fraction(-2)) == 3
    assert quantum_int(4, Fraction(-2)) == -5


# -- matrices --------------------------------------------------------------


def test_matrix_basic_arithmetic():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert a + b - b == a
    assert (a * b).to_lists() == [[2, 1], [4, 3]]
    assert (2 * a)[1, 1] == 8
    assert a.transpose().transpose() == a
    assert a.trace() == 5
    assert (a ** 0).is_identity()
    assert a ** 2 == a * a


@settings(max_examples=25)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10 ** 6))
def test_matmul_associativity(n, k, m, l, seed):
    rng = random.Random(seed)
    a = rand_matrix(rng, n, k)
    b = rand_matrix(rng, k, m)
    c = rand_matrix(rng, m, l)
    assert (a * b) * c == a * (b * c)


# entries for matrices with many zeros and with sums and products that cancel
sparse_entries = st.sampled_from(
    [Fraction(0)] * 6 + [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(3)]
)


def sparse_matrices(rows, cols):
    return st.lists(sparse_entries, min_size=rows * cols, max_size=rows * cols).map(
        lambda e: Matrix(rows, cols, e)
    )


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
def test_matrix_kernels_match_the_dense_definition(data, n, k, m):
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(st.one_of(sparse_matrices(n, k), st.just(-a), st.just(a)))
    c = data.draw(sparse_matrices(k, m))
    ae, be, ce = a.entries(), b.entries(), c.entries()
    want = {
        "+": (n, k, [x + y for x, y in zip(ae, be)]),
        "-": (n, k, [x - y for x, y in zip(ae, be)]),
        "*": (n, m, [
            sum((ae[i * k + t] * ce[t * m + j] for t in range(k)), Fraction(0))
            for i in range(n)
            for j in range(m)
        ]),
    }
    got = {"+": a + b, "-": a - b, "*": a * c}
    for op, (rows, cols, entries) in want.items():
        result = got[op]
        assert (result.rows, result.cols) == (rows, cols)
        assert list(result.entries()) == entries
        assert all(type(x) is Fraction for x in result.entries())
        fresh = Matrix(rows, cols, list(entries))
        assert result == fresh and hash(result) == hash(fresh)
    assert (a - a).is_zero() and a + (-a) == Matrix.zeros(n, k)


def test_kron_identity_and_scalar_cases():
    i2 = Matrix.identity(2)
    assert kron(i2, i2) == Matrix.identity(4)
    x = Matrix(1, 1, [Fraction(3, 2)])
    b = Matrix.from_rows([[1, 2], [3, 4]])
    assert kron(x, b) == b.scale(Fraction(3, 2))


def test_kron_block_layout():
    e12 = Matrix.from_rows([[0, 1], [0, 0]])
    got = kron(e12, Matrix.identity(2))
    assert got == Matrix.from_rows(
        [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0]]
    )


@settings(max_examples=20)
@given(st.integers(0, 10 ** 6))
def test_kron_mixed_product(seed):
    rng = random.Random(seed)
    a = rand_matrix(rng, 2, 2)
    b = rand_matrix(rng, 2, 3)
    c = rand_matrix(rng, 2, 2)
    d = rand_matrix(rng, 3, 2)
    assert kron(a, b) * kron(c, d) == kron(a * c, b * d)


def test_kron_power():
    a = Matrix.from_rows([[1, 1], [0, 1]])
    assert kron_power(a, 0) == Matrix.identity(1)
    assert kron_power(a, 2) == kron(a, a)


# -- echelon forms and nullspaces -----------------------------------------


def test_rref_canonical_and_order_independent():
    rows = [[Fraction(2), Fraction(4)], [Fraction(1), Fraction(2)], [Fraction(0), Fraction(1)]]
    r1, p1 = rref(rows)
    r2, p2 = rref(rows[::-1])
    assert r1 == r2 == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert p1 == p2 == [0, 1]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6), st.randoms(use_true_random=False))
def test_rref_is_reduced_and_independent_of_row_order(rows, cols, seed, shuffler):
    rng = random.Random(seed)
    # some rows repeat or combine others, so ranks below min(rows, cols) occur
    m = rand_matrix(rng, rows, cols, den=3).to_lists()
    m += [[a + b for a, b in zip(m[0], m[-1])], m[0]]
    echelon, pivots = rref(m)
    shuffled = list(m)
    shuffler.shuffle(shuffled)
    assert rref(shuffled) == (echelon, pivots)
    assert len(echelon) == len(pivots) and pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(echelon, pivots)):
        assert row[p] == 1
        assert all(x == 0 for x in row[:p])
        assert all(other[p] == 0 for k, other in enumerate(echelon) if k != i)
    # every input row is the combination of the echelon rows given by its
    # entries at the pivot columns
    for row in m:
        combo = [sum((row[p] * e[j] for e, p in zip(echelon, pivots)), Fraction(0)) for j in range(cols)]
        assert combo == row


def test_nullspace_trivial_cases():
    assert len(nullspace_of_rows(_sparse_rows_of(Matrix.zeros(3, 3)), 3)) == 3
    assert nullspace_of_rows(_sparse_rows_of(Matrix.identity(3)), 3) == []


def test_nullspace_rank_one():
    m = Matrix.from_rows([[1, 2], [2, 4]])
    basis = nullspace_of_rows(_sparse_rows_of(m), 2)
    assert basis == [(Fraction(-2), Fraction(1))]


@settings(max_examples=30)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 10 ** 6))
def test_rank_nullity(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols)
    vecs = nullspace_of_rows(_sparse_rows_of(m), cols)
    assert rank(m) + len(vecs) == cols
    for v in vecs:
        image = [sum((m[i, j] * v[j] for j in range(cols)), Fraction(0)) for i in range(rows)]
        assert all(x == 0 for x in image)


def test_vector_span_is_order_independent():
    vecs = [
        (Fraction(1), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(1), Fraction(3), Fraction(1)),
    ]
    spans = []
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        s = VectorSpan(3)
        for i in order:
            s.add(vecs[i])
        spans.append(s.basis_rows())
    assert spans[0] == spans[1] == spans[2]
    assert len(spans[0]) == 2


class _DenseSpan:
    """The dense reduce/add that VectorSpan used before its rows became
    sparse, kept as the reference the sparse rows are checked against."""

    def __init__(self, length):
        self.length = length
        self._rows = {}

    def reduce(self, vec):
        v = list(vec)
        if len(v) != self.length:
            raise ValueError("vector length mismatch")
        hits = [(row, v[p]) for p, row in self._rows.items() if v[p]]
        for row, c in hits:
            for k, rv in enumerate(row):
                if rv:
                    v[k] -= c * rv
        return v

    def add(self, vec):
        v = self.reduce(vec)
        p = next((i for i in range(self.length) if v[i]), None)
        if p is None:
            return None
        inv = 1 / v[p]
        if inv != 1:
            v = [x * inv for x in v]
        for row in self._rows.values():
            c = row[p]
            if c:
                for k, nv in enumerate(v):
                    if nv:
                        row[k] -= c * nv
        self._rows[p] = v
        return list(v)

    def basis_rows(self):
        return [tuple(self._rows[p]) for p in sorted(self._rows)]


@st.composite
def vector_streams(draw):
    """Sparse rational vectors, some drawn fresh and some exact combinations
    of earlier ones, so that reductions cancel to zero."""
    length = draw(st.integers(1, 7))
    fresh = st.lists(sparse_entries, min_size=length, max_size=length)
    vectors = []
    for _ in range(draw(st.integers(1, 10))):
        if vectors and draw(st.booleans()):
            x, y = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            a, b = draw(rationals), draw(rationals)
            vectors.append([a * xi + b * yi for xi, yi in zip(x, y)])
        else:
            vectors.append(draw(fresh))
    return length, vectors


def _all_fractions(vec):
    return all(type(x) is Fraction for x in vec)


@settings(max_examples=80, deadline=None)
@given(vector_streams())
def test_sparse_vector_span_matches_the_dense_reference(stream):
    length, vectors = stream
    span, ref = VectorSpan(length), _DenseSpan(length)
    for i, v in enumerate(vectors):
        for probe in vectors:
            reduced = span.reduce(probe)
            assert reduced == ref.reduce(probe) and _all_fractions(reduced)
            assert span.contains(probe) == all(x == 0 for x in ref.reduce(probe))
        row = span.add(v)
        assert row == ref.add(v)
        assert row is None or (_all_fractions(row) and len(row) == length)
        rows = span.basis_rows()
        assert rows == ref.basis_rows() and all(_all_fractions(r) for r in rows)
        assert span.pivots() == sorted(ref._rows) and span.dim == len(rows)
    for bad in ([Fraction(1)] * (length + 1), [Fraction(0)] * (length - 1)):
        for method in (span.reduce, span.contains, span.add):
            with pytest.raises(ValueError):
                method(bad)


def test_invert_round_trip_and_singular():
    rng = random.Random(7)
    for _ in range(5):
        m = rand_matrix(rng, 4, 4)
        if rank(m) < 4:
            continue
        assert m * invert(m) == Matrix.identity(4)
    with pytest.raises(ValueError):
        invert(Matrix.from_rows([[1, 2], [2, 4]]))


def _det_cofactor(m):
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        if not m[0, j]:
            continue
        minor = Matrix.from_rows(
            [[m[i, k] for k in range(n) if k != j] for i in range(1, n)]
        )
        total += (-1) ** j * m[0, j] * _det_cofactor(minor)
    return total


@settings(max_examples=25)
@given(st.integers(1, 5), st.integers(0, 10 ** 6))
def test_det_matches_cofactor_oracle(n, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, n, n)
    assert det(m) == _det_cofactor(m)


def test_det_multiplicative():
    rng = random.Random(11)
    a = rand_matrix(rng, 4, 4)
    b = rand_matrix(rng, 4, 4)
    assert det(a * b) == det(a) * det(b)


# -- commutant and span closure --------------------------------------------


def test_commutant_identity_full_space():
    dim, basis = commutant([Matrix.identity(3)])
    assert dim == 9
    assert len(basis) == 9


def test_commutant_distinct_diagonal():
    dim, basis = commutant([Matrix.diagonal([1, 2])])
    assert dim == 2
    assert basis == [Matrix.unit(2, 0, 0), Matrix.unit(2, 1, 1)]


def test_commutant_matrix_units_is_scalars():
    e12 = Matrix.unit(2, 0, 1)
    e21 = Matrix.unit(2, 1, 0)
    dim, basis = commutant([e12, e21])
    assert dim == 1
    assert basis == [Matrix.identity(2)]


def test_commutant_empty_generators():
    dim, basis = commutant([], size=2)
    assert dim == 4
    with pytest.raises(ValueError):
        commutant([])


def test_span_closure_examples():
    assert span_closure([Matrix.identity(3)])[0] == 1
    e12 = Matrix.unit(2, 0, 1)
    e21 = Matrix.unit(2, 1, 0)
    dim, basis = span_closure([e12, e21])
    assert dim == 4
    assert matrix_span(basis).dim == 4
    assert span_closure([Matrix.diagonal([1, 2])])[0] == 2


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_double_commutant_generating_set_invariance(seed):
    rng = random.Random(seed)
    gens = [rand_matrix(rng, 3, 3, den=2) for _ in range(2)]
    _, closed = span_closure(gens)
    d1, b1 = commutant(gens)
    d2, b2 = commutant(closed)
    assert d1 == d2
    assert spans_equal(b1, b2)


def test_span_closure_multiplier_subset_matches_full():
    rng = random.Random(3)
    while True:
        g = rand_matrix(rng, 3, 3, den=1)
        if rank(g) == 3:
            break
    seed = [g, invert(g)]
    full = span_closure(seed)
    thin = span_closure(seed, multipliers=[g])
    assert full[0] == thin[0]
    assert spans_equal(full[1], thin[1])


# -- certified modular engine ------------------------------------------------


@settings(max_examples=15, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.integers(0, 10 ** 6))
def test_modular_engine_matches_pure(rows, cols, seed):
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols)
    sparse = _sparse_rows_of(m)
    pure = nullspace_of_rows(sparse, cols)
    fast = _modlinalg.certified_nullspace(sparse, cols)
    assert fast is not None
    assert [tuple(v) for v in fast] == [tuple(v) for v in pure]


def test_modular_engine_survives_bad_prime():
    # First-listed prime divides the only pivot; structure disagreement must
    # be resolved by later primes, not trusted blindly.
    p0 = _modlinalg.PRIMES[0]
    m = Matrix.from_rows([[p0, 1], [0, 0]])
    sparse = _sparse_rows_of(m)
    pure = nullspace_of_rows(sparse, 2)
    fast = _modlinalg.certified_nullspace(sparse, 2)
    assert fast is not None
    assert [tuple(v) for v in fast] == [tuple(v) for v in pure]


def test_modular_engine_rational_entries():
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(2, 5), Fraction(1)], [Fraction(2, 3), Fraction(4, 5), Fraction(2)]])
    sparse = _sparse_rows_of(m)
    pure = nullspace_of_rows(sparse, 3)
    fast = _modlinalg.certified_nullspace(sparse, 3)
    assert [tuple(v) for v in fast] == [tuple(v) for v in pure]
    assert len(pure) == 2


def test_modular_nullspace_is_the_exact_canonical_basis():
    # the (4,2) braid commutant system is above the modular threshold, so
    # nullspace_of_rows takes the modular path; its lifted candidates must
    # already be the exact engine's canonical basis, with no re-reduction
    rows = commutant_rows(braid_generators(BurauParams.preset(4), 2))
    assert len(rows) == 720
    assert len(rows) * 256 * 256 >= _MODULAR_THRESHOLD
    dense = [[Fraction(0)] * 256 for _ in rows]
    for row, entries in zip(dense, rows):
        for j, v in entries:
            row[j] = v
    exact = _nullspace_from_rref(*rref(dense), 256)
    fast = _modlinalg.certified_nullspace(rows, 256)
    assert [tuple(v) for v in fast] == exact
    assert nullspace_of_rows(rows, 256) == exact


# -- mod-p bounds for the dimension sandwich ------------------------------------


def test_dot_mod_splits_long_sums_exactly():
    # at p just below 2^31 only two residue products fit in an int64 sum,
    # so a length-9 dot product must be cut into pieces
    import numpy as np

    p = _modlinalg.PRIMES[0]
    rng = random.Random(5)
    a = [[rng.randrange(p) for _ in range(9)] for _ in range(3)]
    b = [[rng.randrange(p) for _ in range(4)] for _ in range(9)]
    got = _modlinalg._dot_mod(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64), p)
    want = [[sum(a[i][k] * b[k][j] for k in range(9)) % p for j in range(4)] for i in range(3)]
    assert got.tolist() == want


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 10 ** 6))
def test_rank_mod_matches_exact_rank(rows, cols, seed):
    m = rand_matrix(random.Random(seed), rows, cols)
    p = _modlinalg.SANDWICH_PRIMES[0]
    assert _modlinalg.rank_mod(_sparse_rows_of(m), cols, p) == rank(m)


def test_rank_mod_never_exceeds_rational_rank():
    m = Matrix.from_rows([[3, 6], [1, 5]])  # det 9: rank 2 over Q, 1 mod 3
    assert _modlinalg.rank_mod(_sparse_rows_of(m), 2, 3) == 1 < rank(m)


def test_closure_dim_mod_matches_span_closure():
    rng = random.Random(11)
    while True:
        g = rand_matrix(rng, 3, 3, den=1)
        if rank(g) == 3:
            break
    h = rand_matrix(rng, 3, 3, den=1)
    p = _modlinalg.SANDWICH_PRIMES[0]
    res = [_modlinalg.residues(m, p) for m in (g, h)]
    assert _modlinalg.closure_dim_mod(res, res, p) == span_closure([g, h])[0]
    assert _modlinalg.closure_dim_mod([], res[:1], p) == span_closure([g])[0]


def test_residues_and_p_integrality():
    m = Matrix.from_rows([[Fraction(1, 2), Fraction(-1)], [Fraction(3), Fraction(0)]])
    assert not _modlinalg.is_p_integral([m], 2)
    assert _modlinalg.is_p_integral([m], 5)
    assert _modlinalg.residues(m, 5).tolist() == [[3, 4], [3, 0]]


def test_commutant_rows_nullity_is_commutant_dim():
    g = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    rows = commutant_rows([g])
    assert len(nullspace_of_rows(rows, 9)) == commutant([g])[0] == 3
