import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st
from character_oracle import closure_dim_mod
from dense import entries, invert, nullspace_from_rref, rank, unit, zeros

from braidrook import _modlinalg
from braidrook.burau import BurauParams
from braidrook.lieclosure import v_generators
from braidrook.linalg import (
    VectorSpan,
    _MODULAR_THRESHOLD,
    commutant,
    commutant_rows,
    det,
    matrix_span,
    nullspace_of_rows,
    rref,
    span_closure,
    span_of_vectors,
    spans_equal,
    worklist_closure,
)
from braidrook.matrix import Matrix, integer_form, kron, kron_power, rows_of, sparse_product
from braidrook.scalars import format_scalar, parse_scalar, quantum_int
from braidrook.tensor import _packed_product, braid_generators

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def rand_matrix(rng, rows, cols, den=6):
    return Matrix(
        rows, cols,
        [Fraction(rng.randint(-8, 8), rng.randint(1, den)) for _ in range(rows * cols)],
    )


def transpose(m):
    return Matrix.from_rows(zip(*m.to_lists()))


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
    assert transpose(a) == Matrix.from_rows([[1, 3], [2, 4]]) and transpose(transpose(a)) == a
    assert a.trace() == 5
    assert a ** 0 == Matrix.identity(2)
    assert a ** 2 == a * a
    with pytest.raises(ValueError, match="negative power"):
        a ** -1


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
    ae, be, ce = entries(a), entries(b), entries(c)
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
    for op, (rows, cols, flat) in want.items():
        result = got[op]
        assert (result.rows, result.cols) == (rows, cols)
        assert list(entries(result)) == flat
        assert all(type(x) is Fraction for x in entries(result))
        fresh = Matrix(rows, cols, list(flat))
        assert result == fresh and hash(result) == hash(fresh)
    assert (a - a).is_zero() and a + (-a) == zeros(n, k)
    # the bare product on Fraction entries, and on the int entries 2a, 2c
    product = {i: x for i, x in enumerate(want["*"][2]) if x}
    assert sparse_product(a.nonzeros(), rows_of(c.nonzeros(), m), k, m) == product
    a2, c2 = ({i: int(2 * x) for i, x in e.nonzeros().items()} for e in (a, c))
    got_int = sparse_product(a2, rows_of(c2, m), k, m)
    assert got_int == {i: 4 * x for i, x in product.items()}
    assert all(type(x) is int for x in got_int.values())


def test_integer_form_scales_by_the_lcm_of_every_denominator():
    rng = random.Random(5)
    mats = [rand_matrix(rng, 3, 2), rand_matrix(rng, 2, 2, den=9), zeros(2, 3)]
    den, ints = integer_form(mats)
    assert den == lcm(*(x.denominator for m in mats for x in entries(m)))
    for m, e in zip(mats, ints):
        assert Matrix(m.rows, m.cols, e) == m.scale(den)
        assert all(type(x) is int for x in e.values())
    assert integer_form([Matrix.identity(2)]) == (1, [{0: 1, 3: 1}])
    assert integer_form([]) == (1, [])


def _packed(e, size, width):
    """The packed rows of a size x size integer matrix {index: int}: the
    matrix times the packed identity."""
    return _packed_product(e, [1 << width * i for i in range(size)], size)


def _unpacked(rows, width):
    """Every slot of the packed rows, each read after adding 2^(width - 1)
    to every slot, so that no borrow crosses a slot."""
    half, size = 1 << width - 1, len(rows)
    shift = half * sum(1 << width * j for j in range(size))
    return [[(((x + shift) >> width * j) & (2 * half - 1)) - half for j in range(size)] for x in rows]


def _square(e, size):
    """The rows of a size x size matrix given by its nonzeros."""
    return [[e.get(i * size + j, 0) for j in range(size)] for i in range(size)]


def _times(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def _signed_matrix(rng, size, bound):
    """A random size x size integer matrix {index: int} with entries in
    [-bound, bound]: column 0 is negative wherever it is nonzero, so that
    borrows cross slots, and the last entry is bound itself."""
    e = {i: rng.randint(-bound, bound) for i in range(size * size) if rng.random() < 0.5}
    e.update({i: -abs(x) for i, x in e.items() if i % size == 0})
    e[size * size - 1] = bound
    return {i: x for i, x in e.items() if x}


def _letter_norm(*mats):
    """N: the largest row sum of |entries|."""
    return max(sum(map(abs, row)) for m in mats for row in m)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 6, 9, 12, 16, 20, 24, 27])
def test_packed_products_comparisons_and_traces_match_the_dense_oracle(size):
    rng = random.Random(size)
    a, b = (_signed_matrix(rng, size, rng.choice([1, 5, 2**20])) for _ in range(2))
    da, db = _square(a, size), _square(b, size)
    c = {i * size + j: x for i, row in enumerate(_times(da, da)) for j, x in enumerate(row) if x}  # commutes with a
    dc = _square(c, size)
    u, v = rng.randint(2, 9), rng.randint(1, 9)
    # the width of tensor._word_products for words of length 2 and ratio max(u, v)
    width = (2 * max(u, v) * _letter_norm(da, db, dc) ** 2).bit_length() + 1
    mats = {"a": (a, da), "b": (b, db), "c": (c, dc)}
    packed = {k: _packed(m, size, width) for k, (m, _) in mats.items()}
    assert all(_unpacked(packed[k], width) == dm for k, (_, dm) in mats.items())
    for (x, dx), (y, dy), px, py in ((mats[k], mats[j], packed[k], packed[j]) for k, j in ("ab", "ac", "bb")):
        xy, yx = _packed_product(x, py, size), _packed_product(y, px, size)
        want = _times(dx, dy)
        sparse = sparse_product(x, rows_of(y, size), size, size)
        assert sparse == {i * size + j: e for i, row in enumerate(want) for j, e in enumerate(row) if e}
        assert xy == _packed(sparse, size, width) and _unpacked(xy, width) == want
        # row by row, as the relation check compares u M(first) with v M(word)
        for s, t in ((1, 1), (u, v)):
            same = [[s * e for e in row] for row in want] == [[t * e for e in row] for row in _times(dy, dx)]
            assert ([s * row for row in xy] == [t * row for row in yx]) == same


@pytest.mark.parametrize("size", [2, 5, 16, 27])
def test_one_bit_below_the_width_two_matrices_pack_alike(size):
    # the width W = bit_length(2 N^2) + 1 of a commute check; B = 2 N^2 bounds
    # every difference it compares, and 2^(W - 2) <= B < 2^(W - 1)
    rng = random.Random(size)
    a = _signed_matrix(rng, size, rng.choice([1, 5, 2**20]))
    bound = 2 * _letter_norm(_square(a, size)) ** 2
    width = bound.bit_length() + 1
    top = 1 << width - 2
    assert top <= bound
    x, y = {0: top}, {0: -top, 1: 1}  # different, every entry at most the bound
    assert _packed(x, size, width) != _packed(y, size, width)
    assert _packed(x, size, width - 1) == _packed(y, size, width - 1)
    # the slot read: exact at W, wrong at W - 1
    assert _unpacked(_packed(x, size, width), width)[0][0] == top
    assert _unpacked(_packed(x, size, width - 1), width - 1)[0][0] != top
    # every entry at the edge of the box |entries| < 2^(W - 1) reads back at W
    edge = {i: rng.choice([-1, 1]) * (2 * top - 1) for i in range(size * size)}
    assert _unpacked(_packed(edge, size, width), width) == _square(edge, size)


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


@settings(max_examples=30, deadline=None)
@given(st.data(), st.integers(1, 3), st.integers(1, 3), rationals)
def test_kron_scale_and_negation_match_the_definition(data, n, k, c):
    a = data.draw(sparse_matrices(n, k))
    b = data.draw(sparse_matrices(k, n))
    ab = kron(a, b)
    assert all(
        ab[i * k + s, j * n + t] == a[i, j] * b[s, t]
        for i in range(n) for j in range(k) for s in range(k) for t in range(n)
    )
    assert entries(a.scale(c)) == tuple(c * x for x in entries(a))
    assert entries(-a) == tuple(-x for x in entries(a))
    for result in (ab, a.scale(c), a.scale(3), c * a, -a):
        assert all(type(x) is Fraction for x in entries(result))
        fresh = Matrix(result.rows, result.cols, list(entries(result)))
        assert result == fresh and hash(result) == hash(fresh)


# -- nonzero-only storage against a dense reference --------------------------


def _random_flat(rng, size, rational):
    """Row-major entries, about 60% zero, integer or rational."""
    out = []
    for _ in range(size):
        num = rng.randint(-4, 4) if rng.random() < 0.4 else 0
        out.append(Fraction(num, rng.randint(1, 5)) if rational else Fraction(num))
    return out


def _dense_product(a, b, n, k, m):
    return [sum((a[i * k + t] * b[t * m + j] for t in range(k)), Fraction(0))
            for i in range(n) for j in range(m)]


def _dense_kron(a, b, ar, ac, br, bc):
    return [a[(i // br) * ac + j // bc] * b[(i % br) * bc + j % bc]
            for i in range(ar * br) for j in range(ac * bc)]


def _stores_nonzeros_only(m):
    return all(type(x) is Fraction and x for x in m._e.values()) and set(m._e) == {
        k for k, x in enumerate(entries(m)) if x
    }


def _agrees_with(result, rows, cols, flat):
    fresh = Matrix(rows, cols, flat)
    return (
        (result.rows, result.cols) == (rows, cols)
        and entries(result) == tuple(flat)
        and [result.row(i) for i in range(rows)] == [flat[i * cols:(i + 1) * cols] for i in range(rows)]
        and result == fresh
        and hash(result) == hash(fresh)
        and _stores_nonzeros_only(result)
    )


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_nonzero_storage_matches_a_dense_reference(rational):
    rng = random.Random(1501 + rational)
    for trial in range(60):
        n, k, m = (rng.randint(1, 4) for _ in range(3))
        ae = _random_flat(rng, n * k, rational)
        ce = _random_flat(rng, k * m, rational)
        if k >= 2 and trial % 3 == 0:
            # column 1 of a repeats column 0 and row 1 of c negates row 0,
            # so the t = 0 and t = 1 terms of every product entry cancel
            for i in range(n):
                ae[i * k + 1] = ae[i * k]
            ce[m:2 * m] = [-x for x in ce[:m]]
        be = rng.choice([_random_flat(rng, n * k, rational), [-x for x in ae], list(ae)])
        de = _random_flat(rng, m * n, rational)
        c0 = rng.choice([Fraction(0), Fraction(rng.randint(-3, 3), rng.randint(1, 4))])
        a = Matrix(n, k, ae)
        b = Matrix.from_rows([be[i * k:(i + 1) * k] for i in range(n)])
        c, d = Matrix(k, m, ce), Matrix(m, n, de)
        assert _agrees_with(a, n, k, ae) and _agrees_with(b, n, k, be)
        cases = [
            (a + b, n, k, [x + y for x, y in zip(ae, be)]),
            (a - b, n, k, [x - y for x, y in zip(ae, be)]),
            (-a, n, k, [-x for x in ae]),
            (a.scale(c0), n, k, [c0 * x for x in ae]),
            (a.scale(0), n, k, [Fraction(0)] * (n * k)),
            (a * c, n, m, _dense_product(ae, ce, n, k, m)),
            (a * c * d, n, n, _dense_product(_dense_product(ae, ce, n, k, m), de, n, m, n)),
            (kron(a, d), n * m, k * n, _dense_kron(ae, de, n, k, m, n)),
        ]
        for result, rows, cols, flat in cases:
            assert _agrees_with(result, rows, cols, flat)
        product = a * c * d
        assert product.trace() == sum(entries(product)[i * n + i] for i in range(n))
        assert a - a == zeros(n, k) and hash(a - a) == hash(zeros(n, k))
        assert (a - a)._e == {} and (a + (-a))._e == {}
        values = _random_flat(rng, n, rational)
        diag = [values[i] if i == j else Fraction(0) for i in range(n) for j in range(n)]
        assert _agrees_with(Matrix.diagonal(values), n, n, diag)
        i, j = rng.randrange(n), rng.randrange(n)
        flat = [Fraction(int(s == i * n + j)) for s in range(n * n)]
        assert _agrees_with(unit(n, i, j), n, n, flat)


def test_public_construction_drops_zeros_and_checks_entries():
    m = Matrix(2, 2, {0: 3, 1: Fraction(0), 3: "1/2"})
    assert m._e == {0: Fraction(3), 3: Fraction(1, 2)} and _stores_nonzeros_only(m)
    assert m == Matrix(2, 2, [3, 0, 0, Fraction(1, 2)]) == Matrix.from_rows([[3, "0"], [0, "1/2"]])
    assert Matrix(2, 2, ["0", 0, Fraction(0), 0])._e == {}
    assert Matrix.diagonal([0, 2])._e == {3: Fraction(2)}
    for bad in ([1.0, 0, 0, 0], {0: 0.5}, {1: True}):
        with pytest.raises(TypeError):
            Matrix(2, 2, bad)
    for bad in ({4: 1}, {-1: 1}, [1, 2, 3]):
        with pytest.raises(ValueError):
            Matrix(2, 2, bad)
    view = m.nonzeros()
    with pytest.raises(TypeError):
        view[1] = Fraction(1)
    assert dict(view) == {0: 3, 3: Fraction(1, 2)}


@pytest.mark.parametrize("rational", [False, True], ids=["integer", "rational"])
def test_vector_span_add_takes_dense_or_nonzeros_alike(rational):
    rng = random.Random(1601 + rational)
    for _ in range(30):
        length = rng.randint(1, 9)
        dense, sparse, padded = VectorSpan(length), VectorSpan(length), VectorSpan(length)
        seen = []
        for _ in range(rng.randint(1, 12)):
            if seen and rng.random() < 0.4:
                # an exact combination of earlier vectors, which reduces to zero
                x, y = rng.choice(seen), rng.choice(seen)
                s, t = Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3))
                v = [s * xi + t * yi for xi, yi in zip(x, y)]
            else:
                v = _random_flat(rng, length, rational)
            seen.append(v)
            assert padded.contains(dict(enumerate(v))) == dense.contains(v)
            row = dense.add(v)
            assert sparse.add(Matrix(1, length, v).nonzeros()) == row
            # a mapping that spells out its zeros is the same vector
            assert padded.add(dict(enumerate(v))) == row
            assert row is None or (_all_fractions(row.values()) and all(row.values()))
            assert dense.basis_rows() == sparse.basis_rows() == padded.basis_rows()
    ints = VectorSpan(4)
    assert ints.add({3: -1, 0: 2}) == {0: 1, 3: Fraction(-1, 2)}
    assert ints.basis_rows() == span_of_vectors([[2, 0, 0, -1]], 4).basis_rows()


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
    assert len(nullspace_of_rows(_sparse_rows_of(zeros(3, 3)), 3)) == 3
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


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 10 ** 6))
def test_sparse_nullspace_matches_the_dense_oracle(rows, cols, seed):
    # random systems with repeated and combined rows, so ranks below
    # min(rows, cols) occur, against the dense rref round trip
    rng = random.Random(seed)
    m = rand_matrix(rng, rows, cols, den=3).to_lists()
    m += [[a + b for a, b in zip(m[0], m[-1])], m[0], [Fraction(0)] * cols]
    m = [[x if rng.random() < 0.6 else Fraction(0) for x in row] for row in m]
    sparse = _sparse_rows_of(Matrix.from_rows(m))
    assert nullspace_of_rows(sparse, cols) == nullspace_from_rref(*rref(m), cols)


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


def test_int_rows_give_exact_fraction_outputs():
    span = VectorSpan(2)
    row = span.add([2, 1])
    assert row == {0: 1, 1: Fraction(1, 2)} and _all_fractions(row.values())
    reduced = _reduce(span, [3, 5])
    assert reduced == [0, Fraction(7, 2)] and _all_fractions(reduced)
    assert span.add([4, 2]) is None and span.contains([4, 2])
    assert span.add({0: 4, 1: 2}) is None and span.contains({0: 4, 1: 2})
    assert _all_fractions(span.add({1: 3}).values()) and span.basis_rows() == [(1, 0), (0, 1)]
    assert all(_all_fractions(r) for r in span.basis_rows())
    echelon, pivots = rref([[2, 1], [4, 3]])
    assert echelon == [[1, 0], [0, 1]] and pivots == [0, 1]
    assert all(_all_fractions(r) for r in echelon)
    echelon, _ = rref([[3, 6, 0], [1, 2, 0]])
    assert echelon == [[1, 2, 0]] and _all_fractions(echelon[0])
    for bad in ([1.0, 2], [True, 0], ["1/2", 0], {0: 1.0}, {1: Fraction(1), 0: 0.5}, {0: True}):
        with pytest.raises(TypeError):
            VectorSpan(2).add(bad)
    for bad in ({2: Fraction(1)}, {-1: Fraction(1)}):
        with pytest.raises(ValueError):
            VectorSpan(2).add(bad)


def _reduce(span, vec):
    """Residual of vec after elimination against the span's basis, dense."""
    return _dense(span._residual(vec), span.length)


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


def _dense(nonzeros, length):
    return [nonzeros.get(k, Fraction(0)) for k in range(length)]


@settings(max_examples=80, deadline=None)
@given(vector_streams())
def test_sparse_vector_span_matches_the_dense_reference(stream):
    length, vectors = stream
    span, ref = VectorSpan(length), _DenseSpan(length)
    for i, v in enumerate(vectors):
        for probe in vectors:
            reduced = _reduce(span, probe)
            assert reduced == ref.reduce(probe) and _all_fractions(reduced)
            assert _reduce(span, dict(enumerate(probe))) == reduced
            assert span.contains(probe) == all(x == 0 for x in ref.reduce(probe))
        row = span.add(v)
        want = ref.add(v)
        assert row is None or _all_fractions(row.values()) and all(row.values())
        assert (None if row is None else _dense(row, length)) == want
        rows = span.basis_rows()
        assert rows == ref.basis_rows() and all(_all_fractions(r) for r in rows)
        assert span.pivots() == sorted(ref._rows) and span.dim == len(rows)
    for bad in ([Fraction(1)] * (length + 1), [Fraction(0)] * (length - 1)):
        for method in (partial(_reduce, span), span.contains, span.add):
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
    assert det(m.to_lists()) == _det_cofactor(m)
    # int rows with zeros, rank-deficient on odd seeds: a row twice another
    ints = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
    singular = seed % 2 and n > 1
    if singular:
        ints[-1] = [2 * x for x in ints[0]]
    want = _det_cofactor(Matrix.from_rows(ints))
    assert det(ints) == det([[Fraction(x) for x in row] for row in ints]) == want
    if singular:
        assert want == 0


DET_CASES = {
    "0x0": [],
    "1x1": [[5]],
    "1x1 zero": [[0]],
    "swap": [[0, 1], [1, 0]],
    "swap 3x3": [[0, 2, 1], [3, 0, 1], [1, 1, 0]],
    "swap at the last pivot": [[1, 2, 3], [2, 4, 7], [0, 1, 1]],
    "singular": [[1, 2], [2, 4]],
    "singular 3x3": [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
    "zero first column": [[0, 1, 2], [0, 3, 4], [0, 5, 7]],
}


@pytest.mark.parametrize("rows", DET_CASES.values(), ids=DET_CASES.keys())
def test_det_on_int_rows_matches_fraction_rows_and_cofactors(rows):
    before = [list(row) for row in rows]
    as_fractions = [[Fraction(x) for x in row] for row in rows]
    want = _det_cofactor(Matrix.from_rows(rows))
    got = det(rows)
    assert got == det(as_fractions) == want and type(got) is Fraction
    assert rows == before  # the elimination works on a copy


def test_det_refuses_a_non_square_matrix():
    with pytest.raises(ValueError):
        det([[1, 2]])
    with pytest.raises(ValueError):
        det([[1, 2], [3]])


def test_det_multiplicative():
    rng = random.Random(11)
    a = rand_matrix(rng, 4, 4)
    b = rand_matrix(rng, 4, 4)
    assert det((a * b).to_lists()) == det(a.to_lists()) * det(b.to_lists())


# -- commutant and span closure --------------------------------------------


def test_commutant_identity_full_space():
    dim, basis = commutant([Matrix.identity(3)])
    assert dim == 9
    assert len(basis) == 9


def test_commutant_distinct_diagonal():
    dim, basis = commutant([Matrix.diagonal([1, 2])])
    assert dim == 2
    assert basis == [unit(2, 0, 0), unit(2, 1, 1)]


def test_commutant_matrix_units_is_scalars():
    e12 = unit(2, 0, 1)
    e21 = unit(2, 1, 0)
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
    e12 = unit(2, 0, 1)
    e21 = unit(2, 1, 0)
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


def _two_sided_closure(seed):
    """The closure multiplying on both sides: the oracle for the
    right-only worklist in span_closure."""
    n = seed[0].rows
    span = VectorSpan(n * n)
    queue = []
    for m in [Matrix.identity(n), *seed]:
        row = span.add(entries(m))
        if row is not None:
            queue.append(Matrix(n, n, row))
    while queue:
        w = queue.pop()
        for g in seed:
            for prod in (w * g, g * w):
                row = span.add(entries(prod))
                if row is not None:
                    queue.append(Matrix(n, n, row))
    return [Matrix(n, n, list(row)) for row in span.basis_rows()]


@pytest.mark.parametrize("n", [3, 4])
def test_right_only_span_closure_matches_two_sided(n):
    rng = random.Random(1400 + n)
    dims = set()
    for _ in range(10):
        seed = [
            Matrix.from_rows(
                [[rng.choice([0, 0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(2)
        ]
        dim, basis = span_closure(seed)
        assert basis == _two_sided_closure(seed)
        dims.add(dim)
    assert len(dims) > 1
    gens = braid_generators(BurauParams(3, 1, -2), 2)
    assert span_closure(gens)[1] == _two_sided_closure(gens)


def test_inverses_add_nothing_to_span_closure():
    # by Cayley-Hamilton g^-1 is a polynomial in an invertible g, so the
    # closure of the generators alone already holds their inverses
    rng = random.Random(3)
    while True:
        g = rand_matrix(rng, 3, 3, den=1)
        if rank(g) == 3:
            break
    assert span_closure([g, invert(g)]) == span_closure([g])
    gens = braid_generators(BurauParams.preset(3), 2)
    assert span_closure(gens + [invert(b) for b in gens]) == span_closure(gens)


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
    exact = nullspace_from_rref(*rref(dense), 256)
    fast = _modlinalg.certified_nullspace(rows, 256)
    assert [tuple(v) for v in fast] == exact
    assert nullspace_of_rows(rows, 256) == exact


def _dense_rref_mod(int_rows, ncols, p):
    """Textbook Gauss-Jordan elimination mod p on dense rows: the pivot
    columns and the nonzero rows of the RREF."""
    a = [[0] * ncols for _ in int_rows]
    for row, entries in zip(a, int_rows):
        for j, v in entries:
            row[j] = v % p
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][col]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i, row in enumerate(a):
            if i != r and row[col]:
                c = row[col]
                a[i] = [(x - c * y) % p for x, y in zip(row, a[r])]
        pivots.append(col)
    return pivots, a[: len(pivots)]


@pytest.mark.parametrize("seed", range(12))
def test_rref_mod_matches_dense_gauss_jordan(seed):
    # seeded integer systems, each with a zero row, a repeated row and a
    # first row whose leading entry is a nonzero multiple of p, alone in
    # its column: over Q that column has a pivot, mod p it has none
    rng = random.Random(seed)
    p = (7, 101, _modlinalg.PRIMES[0])[seed % 3]
    rows, cols = rng.randint(2, 8), rng.randint(2, 9)
    dense = [[rng.choice((0, 0, rng.randint(-30, 30))) for _ in range(cols)] for _ in range(rows)]
    for row in dense:
        row[0] = 0
    dense[0][0] = p * rng.randint(1, 4)
    dense += [[0] * cols, list(dense[-1])]
    rng.shuffle(dense)
    int_rows = [[(j, v) for j, v in enumerate(row) if v] for row in dense]
    pivots, reduced = _modlinalg._rref_mod(int_rows, p)
    assert 0 not in pivots
    assert (pivots, [[row.get(j, 0) for j in range(cols)] for row in reduced]) == _dense_rref_mod(
        int_rows, cols, p
    )
    assert all(0 < x < p for row in reduced for x in row.values())


# -- mod-p arithmetic of the envelope closure ------------------------------------


def test_closure_dim_mod_matches_span_closure():
    rng = random.Random(11)
    while True:
        g = rand_matrix(rng, 3, 3, den=1)
        if rank(g) == 3:
            break
    h = rand_matrix(rng, 3, 3, den=1)
    p = _modlinalg.SANDWICH_PRIMES[0]
    # a ceiling of 9, the dimension of all 3 x 3 matrices, stops nothing early
    res_g, res_h = _modlinalg.residues(g, p), _modlinalg.residues(h, p)
    assert closure_dim_mod([res_g, res_h], 3, p, 9) == span_closure([g, h])[0]
    assert closure_dim_mod([res_g], 3, p, 9) == span_closure([g])[0]
    assert closure_dim_mod([res_g], 3, p, None) == span_closure([g])[0]
    # the same worklist, seeds and maps over Q and mod p (the integer
    # matrices are p-integral with full rank mod p), and over Q stopped at
    # every ceiling from the seeds' dimension up to the full dimension
    dims = []
    for seeds, maps in [([g], [g, h]), ([g, h], [h]), ([Matrix.identity(3)], [g])]:
        def right(w, maps=maps):
            return ((Matrix(3, 3, w) * x).nonzeros() for x in maps)

        span, basis = VectorSpan(9), {}
        over_q = worklist_closure(span.add, [s.nonzeros() for s in seeds], right)
        mod_p = worklist_closure(
            lambda v: _modlinalg._echelon_add(basis, v, p),
            [_modlinalg.residues(s, p) for s in seeds],
            lambda w, maps=maps: (_modlinalg.residues(Matrix(3, 3, w) * x, p) for x in maps),
        )
        assert over_q == mod_p == span.dim == len(basis)
        dims.append(over_q)
        for ceiling in range(len(seeds), over_q + 1):
            span = VectorSpan(9)
            stopped = worklist_closure(span.add, [s.nonzeros() for s in seeds], right, ceiling)
            assert stopped == span.dim == ceiling
    assert dims == [9, 6, 3]


def _shifted(g, m, p):
    """g - cI mod p, c the most common diagonal residue of g, the first on
    the diagonal on a tie."""
    diagonal = [g.get(i * (m + 1), 0) for i in range(m)]
    c = Counter(diagonal).most_common(1)[0][0]
    return Matrix(m, m, g) - Matrix.identity(m).scale(c)


def test_images_are_the_nonzero_products_in_generator_order():
    rng, m, p = random.Random(5), 4, 7

    def residue_matrix(density):
        return {k: rng.randrange(1, p) for k in range(m * m) if rng.random() < density}

    gens = [
        residue_matrix(0.4),
        # row 0 and column 2 all zero
        {k: x for k, x in residue_matrix(0.7).items() if k // m != 0 and k % m != 2},
        # diagonal residues 3, 5, 3, 5 tie: c is the first, 3
        {**residue_matrix(0.3), 0: 3, 5: 5, 10: 3, 15: 5},
        # 2I shifts to zero, so its images are all zero
        {i * (m + 1): 2 for i in range(m)},
        {1: 4, 6: 1},
    ]
    ws = [residue_matrix(0.5) for _ in range(20)] + [{k: 1} for k in range(m * m)]
    skipped = kept = 0
    images = _modlinalg._images(gens, m, p)
    for w in ws:
        want = []
        for g in gens:
            x = Matrix(m, m, g)
            want.append(_modlinalg.residues(x * Matrix(m, m, w) - Matrix(m, m, w) * x, p))
        # every nonzero image, in generator order; exactly the zero ones left out
        assert list(images(w)) == [v for v in want if v]
        skipped += sum(not v for v in want)
        kept += sum(bool(v) for v in want)
    assert skipped and kept


def test_closure_dim_mod_is_blind_to_a_scalar_shift():
    # block upper triangular 4 x 4 integer matrices: a proper subalgebra,
    # so the closure stops short of 16
    rng, p, m = random.Random(3), _modlinalg.SANDWICH_PRIMES[0], 4
    gens = []
    for _ in range(2):
        g = rand_matrix(rng, m, m, den=1).to_lists()
        for i in (2, 3):
            g[i][0] = g[i][1] = Fraction(0)
        gens.append(Matrix.from_rows(g))
    for c in (0, 1, 5, -3):
        shifted = [g + Matrix.identity(m).scale(c) for g in gens]
        dim = closure_dim_mod([_modlinalg.residues(g, p) for g in shifted], m, p, None)
        assert dim == span_closure(shifted)[0] == span_closure(gens)[0] == 12


def test_shift_holds_for_any_seed_and_belongs_to_the_maps_not_the_seeds():
    m, p = 4, _modlinalg.SANDWICH_PRIMES[0]

    def closure(seeds, maps):
        basis = {}
        return worklist_closure(lambda v: _modlinalg._echelon_add(basis, v, p), seeds, maps)

    # a span closed under w -> wg is closed under w -> w(g - cI), so a
    # shift of the maps is sound for any seed, not only for 1: right
    # multiplication by g and by g - cI close one seed, here e_00 + e_01,
    # to the same span
    g = Matrix(m, m, {k: 1 for k in range(m * m) if k % m >= k // m})  # upper triangular ones, c = 1
    spans = [
        closure([{0: 1, 1: 1}], lambda w, h=h: [_modlinalg.residues(Matrix(m, m, w) * h, p)])
        for h in (g, g - Matrix.identity(m))
    ]
    assert spans == [4, 4]
    # negative control: the v generators carry the identity part c = 1,
    # and the shift is sound in ad_g only; seeded with the shifted
    # generators, which are not traceless, the closure leaves sl_4
    v = [_modlinalg.residues(x, p) for x in v_generators(m + 1, Fraction(2))]
    # copies, as _echelon_add uses up its seeds
    assert closure([dict(x) for x in v], _modlinalg._images(v, m, p)) == m * m - 1
    seeds = [_modlinalg.residues(_shifted(x, m, p), p) for x in v]
    assert closure(seeds, _modlinalg._images(v, m, p)) == m * m


def test_residues_and_p_integrality():
    m = Matrix.from_rows([[Fraction(1, 2), Fraction(-1)], [Fraction(3), Fraction(0)]])
    assert not _modlinalg.is_p_integral([m], 2)
    assert _modlinalg.is_p_integral([m], 5)
    assert _modlinalg.residues(m, 5) == {0: 3, 1: 4, 2: 3}


@pytest.mark.parametrize(
    "primes,bounds,want",
    [
        ([3, 5, 7], {5: 2, 7: 4}, (7, 4, [3], None)),  # 3 divides a denominator
        ([5, 7, 11], {5: 3, 7: 2, 11: 3}, (5, 3, [], "bounds do not meet mod 5 or 7 or 11")),
        ([3], {}, (None, None, [3], "every listed prime divides a denominator")),
    ],
)
def test_lower_bound_stops_at_the_first_meet_and_keeps_the_largest(
    monkeypatch, primes, bounds, want
):
    tried = []

    def closure(p):
        tried.append(p)
        return bounds[p]

    monkeypatch.setattr(_modlinalg, "SANDWICH_PRIMES", primes)
    gens = [Matrix.from_rows([[Fraction(1, 3)]])]
    assert _modlinalg.lower_bound(gens, closure, 4) == want
    assert tried == [p for p in primes if p != 3]


def _echelon_of_rows(m, p):
    """The echelon of m's rows mod p, and what each add returned."""
    basis, added = {}, []
    for i in range(m.rows):
        row = _modlinalg.residues(Matrix(1, m.cols, m.row(i)), p)
        added.append(_modlinalg._echelon_add(basis, row, p))
    return basis, added


@pytest.mark.parametrize("seed", range(8))
def test_echelon_rank_mod_p_is_the_exact_rank(seed):
    # integer matrices of every shape, some of them products through a
    # thinner middle, so rank-deficient; each basis row has a 1 at its
    # pivot and a 0 at every other pivot
    rng = random.Random(seed)
    rows, inner, cols = (rng.randint(1, 8) for _ in range(3))
    m = rand_matrix(rng, rows, inner, den=1) * rand_matrix(rng, inner, cols, den=1)
    p = _modlinalg.SANDWICH_PRIMES[0]
    basis, added = _echelon_of_rows(m, p)
    assert len(basis) == sum(v is not None for v in added) == rank(m)
    for piv, row in basis.items():
        assert row[piv] == 1 and all(k == piv or k not in basis for k in row)


def test_echelon_ranks_mod_p_not_over_q():
    # rank 2 over Q; mod 3 the second row is twice the first
    m = Matrix.from_rows([[1, 2, 0], [2, 1, 0]])
    assert rank(m) == 2
    basis, added = _echelon_of_rows(m, 3)
    assert basis == {0: {0: 1, 1: 2}} and added[1] is None


def test_commutant_rows_nullity_is_commutant_dim():
    g = Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    rows = commutant_rows([g])
    assert len(nullspace_of_rows(rows, 9)) == commutant([g])[0] == 3
