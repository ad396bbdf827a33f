import copy
import random
from fractions import Fraction

import pytest
from dense import invert, rank

from braidrook.burau import (
    BurauParams,
    change_of_basis,
    decompose_e,
    form_matrix,
    form_value,
    full_twist_scalar,
    generator_power,
    hecke_phi,
    projection_p,
    reduced_generator,
    reflection,
    unreduced_generator,
)
from braidrook.linalg import det
from braidrook.matrix import Matrix


def transpose(m):
    return Matrix.from_rows(zip(*m.to_lists()))


def random_params(rng, n):
    while True:
        q1 = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        q2 = Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])
        if q1 and q2 and -q2 / q1 not in (1, -1):
            return BurauParams(n, q1, q2)


PRESET = BurauParams.preset(3)  # (q1, q2) = (1, -2), q = 2


def test_params_gate():
    with pytest.raises(ValueError):
        BurauParams(2, 1, -1)  # q = 1
    with pytest.raises(ValueError):
        BurauParams(2, 1, 1)  # q = -1
    with pytest.raises(ValueError):
        BurauParams(2, 0, 2)
    with pytest.raises(ValueError):
        BurauParams(1, 1, -2)
    assert BurauParams.degenerate(2, 1, -1).q == 1
    assert PRESET.q == 2
    assert PRESET.quantum(3) == 7


def test_stored_q_is_left_out_of_init_equality_hash_and_repr():
    # q is divided out once, in __post_init__; a copy whose stored q is
    # changed still equals, hashes and prints as its (n, q1, q2)
    assert BurauParams(3, 2, 3).q == Fraction(-3, 2)
    assert BurauParams.degenerate(3, 1, -1).q == 1
    bumped = copy.copy(PRESET)
    object.__setattr__(bumped, "_q", 2 * PRESET.q)
    assert bumped.q == 4 and PRESET.q == 2
    assert bumped == PRESET and hash(bumped) == hash(PRESET)
    assert repr(bumped) == repr(PRESET) == "BurauParams(n=3, q1=Fraction(1, 1), q2=Fraction(-2, 1))"
    with pytest.raises(TypeError):
        BurauParams(3, 1, -2, True, Fraction(5))


@pytest.mark.parametrize(
    "p",
    [PRESET, BurauParams(4, Fraction(2, 3), Fraction(-5, 7)), BurauParams(5, -3, Fraction(1, 2)),
     BurauParams.degenerate(2, 1, -1), BurauParams.degenerate(3, 1, -1), BurauParams.degenerate(4, 2, 2)],
    ids=repr,
)
def test_closed_form_builders_match_the_dense_construction(p):
    # the same nonzero Fractions, in row-major order, as from the dense
    # lists; q1 + q2 = 0 at q = 1 is left out, not stored
    n, q1, q2 = p.n, p.q1, p.q2
    built = []
    for i in range(1, n):
        m = [[q1 if a == b else Fraction(0) for b in range(n)] for a in range(n)]
        m[i - 1][i - 1 : i + 1] = [q1 + q2, -q2]
        m[i][i - 1 : i + 1] = [q1, Fraction(0)]
        built.append((unreduced_generator(i, p), Matrix.from_rows(m)))
    f0, fs = decompose_e(p)
    cols = [f0, *fs]
    built.append((change_of_basis(p), Matrix.from_rows([[cols[j][i] for j in range(n)] for i in range(n)])))
    for fast, dense in built:
        entries = fast.nonzeros()
        assert fast == dense and list(entries) == sorted(entries) == list(dense.nonzeros())
        assert all(type(x) is Fraction and x != 0 for x in entries.values())


def test_unreduced_two_strands():
    p = BurauParams(2, 1, -2)
    assert unreduced_generator(1, p) == Matrix.from_rows([[-1, 2], [1, 0]])
    with pytest.raises(ValueError):
        unreduced_generator(2, p)


def test_unreduced_spectator_column():
    b1 = unreduced_generator(1, PRESET)
    assert [b1[i, 2] for i in range(3)] == [0, 0, 1]  # beta_1 e_3 = q1 e_3


def test_unreduced_block_layout():
    rng = random.Random(5)
    p = random_params(rng, 5)
    b3 = unreduced_generator(3, p)
    for j in [1, 2, 5]:
        col = [b3[i - 1, j - 1] for i in range(1, 6)]
        expect = [p.q1 if i == j else 0 for i in range(1, 6)]
        assert col == expect
    assert b3[2, 2] == p.q1 + p.q2 and b3[2, 3] == -p.q2
    assert b3[3, 2] == p.q1 and b3[3, 3] == 0


def test_reduced_examples():
    assert reduced_generator(1, PRESET) == Matrix.from_rows([[-2, 2], [0, 1]])
    p2 = BurauParams(2, 1, -2)
    assert reduced_generator(1, p2) == Matrix(1, 1, [Fraction(-2)])


def test_reduced_determinant():
    rng = random.Random(1)
    for n in range(2, 6):
        p = random_params(rng, n)
        for i in range(1, n):
            assert det(reduced_generator(i, p).to_lists()) == p.q1 ** (n - 2) * p.q2


def test_braid_relations_both_forms():
    rng = random.Random(2)
    for n in (3, 4, 5):
        p = random_params(rng, n)
        for gen in (unreduced_generator, reduced_generator):
            mats = [gen(i, p) for i in range(1, n)]
            for i in range(n - 2):
                assert mats[i] * mats[i + 1] * mats[i] == mats[i + 1] * mats[i] * mats[i + 1]
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert mats[i] * mats[j] == mats[j] * mats[i]


def test_hecke_quadratic_relation():
    rng = random.Random(3)
    for n in (2, 3, 4):
        p = random_params(rng, n)
        for i in range(1, n):
            b = unreduced_generator(i, p)
            shift1 = Matrix.diagonal([p.q1] * n)
            shift2 = Matrix.diagonal([p.q2] * n)
            assert ((b - shift1) * (b - shift2)).is_zero()


def test_change_of_basis_blocks():
    rng = random.Random(6)
    for n in (2, 3, 4):
        p = random_params(rng, n)
        c = change_of_basis(p)
        cinv = invert(c)
        for i in range(1, n):
            conj = cinv * unreduced_generator(i, p) * c
            red = reduced_generator(i, p)
            assert conj[0, 0] == p.q1
            assert all(conj[0, j] == 0 for j in range(1, n))
            assert all(conj[j, 0] == 0 for j in range(1, n))
            assert Matrix.from_rows([[conj[a + 1, b + 1] for b in range(n - 1)] for a in range(n - 1)]) == red


def test_generator_power_closed_form():
    assert hecke_phi(2, PRESET) == PRESET.q1 + PRESET.q2
    m3 = generator_power(1, 3, PRESET)
    assert m3[0, 1] == 6  # -q2 * Phi_3 = 2 * (1 - 2 + 4)
    assert m3 == reduced_generator(1, PRESET) ** 3
    rng = random.Random(7)
    for n in (3, 4, 5):
        p = random_params(rng, n)
        for i in range(1, n):
            red = reduced_generator(i, p)
            acc = Matrix.identity(n - 1)
            for k in range(1, 9):
                acc = acc * red
                assert generator_power(i, k, p) == acc
    with pytest.raises(ValueError):
        generator_power(1, 0, PRESET)


def test_reduced_generator_windows_n5():
    # q1 I with row i holding q1, q2, -q2 around the diagonal
    p = BurauParams(5, 2, 3)
    assert reduced_generator(1, p) == Matrix.from_rows(
        [[3, -3, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    assert reduced_generator(2, p) == Matrix.from_rows(
        [[2, 0, 0, 0], [2, 3, -3, 0], [0, 0, 2, 0], [0, 0, 0, 2]]
    )
    assert reduced_generator(4, p) == Matrix.from_rows(
        [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 2, 3]]
    )


def test_generator_power_windows_n5():
    # k = 2: q1^2 I with row i holding q1 Phi_2, q2^2, -q2 Phi_2, Phi_2 = 5
    p = BurauParams(5, 2, 3)
    assert generator_power(1, 2, p) == Matrix.from_rows(
        [[9, -15, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]
    )
    assert generator_power(2, 2, p) == Matrix.from_rows(
        [[4, 0, 0, 0], [10, 9, -15, 0], [0, 0, 4, 0], [0, 0, 0, 4]]
    )
    assert generator_power(4, 2, p) == Matrix.from_rows(
        [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 10, 9]]
    )


def test_form_matrix():
    assert form_matrix(BurauParams(2, 1, -2)) == Matrix.diagonal([1, 2])
    assert form_matrix(PRESET).trace() == PRESET.quantum(3)
    degenerate = BurauParams.degenerate(3, 1, -1)  # q = 1
    assert form_matrix(degenerate) == Matrix.identity(3)


def test_reflection_properties():
    rng = random.Random(8)
    for n in (2, 3, 4):
        p = random_params(rng, n)
        if p.q1 == p.q2:
            continue
        j = form_matrix(p)
        f0, _ = decompose_e(p)
        f0col = Matrix(n, 1, list(f0))
        for i in range(1, n):
            s = reflection(i, p)
            assert s * s == Matrix.identity(n)
            assert transpose(s) * j * s == j
            assert s * f0col == f0col
            assert rank(s - Matrix.identity(n)) == 1
    with pytest.raises(ValueError):
        reflection(1, BurauParams.degenerate(3, 2, 2))


def test_projection_examples():
    p = PRESET
    proj = projection_p(p)
    assert proj.to_lists() == [[1, 2, 4]] * 3
    assert proj * proj == proj.scale(7)
    assert proj.trace() == p.quantum(3) == 7
    u = Matrix.from_rows([[1] * 3] * 3)
    assert proj == u * form_matrix(p)
    idem = proj.scale(Fraction(1, 7))
    assert idem * idem == idem
    for i in range(1, 3):
        b = unreduced_generator(i, p)
        assert b * proj == proj * b


def test_projection_commutes_random():
    rng = random.Random(9)
    for n in (2, 3, 4, 5):
        p = random_params(rng, n)
        proj = projection_p(p)
        assert proj * proj == proj.scale(p.quantum(n))
        for i in range(1, n):
            b = unreduced_generator(i, p)
            assert b * proj == proj * b


def test_decompose_e():
    p = BurauParams(2, 1, -2)
    f0, fs = decompose_e(p)
    assert f0 == (1, 1)
    assert fs == [(-2, 1)]
    assert det(change_of_basis(p).to_lists()) != 0
    rng = random.Random(10)
    for n in (2, 3, 4):
        pr = random_params(rng, n)
        f0, fs = decompose_e(pr)
        assert form_value(pr, f0, f0) == pr.quantum(n)
        for i, f in enumerate(fs, start=1):
            assert form_value(pr, f, f0) == 0
            assert pr.q2 * pr.q ** (i - 1) + pr.q1 * pr.q**i == 0
        assert det(change_of_basis(pr).to_lists()) != 0


def test_eigenvector_f0():
    rng = random.Random(11)
    for n in (2, 3, 4):
        p = random_params(rng, n)
        f0, fs = decompose_e(p)
        f0col = Matrix(n, 1, list(f0))
        for i in range(1, n):
            b = unreduced_generator(i, p)
            assert b * f0col == f0col.scale(p.q1)
            ficol = Matrix(n, 1, list(fs[i - 1]))
            assert b * ficol == ficol.scale(p.q2)


def test_full_twist():
    # Scalar computed by explicit multiplication; the closed form carries a
    # (-1)^n that matters only for odd n (checked against the oracle product).
    assert full_twist_scalar(BurauParams(2, 1, -2)) == 4
    assert full_twist_scalar(PRESET) == 8 == (-PRESET.q1 * PRESET.q2) ** 3
    rng = random.Random(12)
    for n in (3, 4, 5):
        p = random_params(rng, n)
        assert full_twist_scalar(p) == (-(p.q1 ** (n - 2)) * p.q2) ** n
        assert full_twist_scalar(p) == (p.q1 ** (n - 1) * p.q) ** n


def test_classical_specialization():
    t = Fraction(5)
    p = BurauParams(4, 1, -t)
    for i in range(1, 4):
        b = unreduced_generator(i, p)
        a = i - 1
        assert b[a, a] == 1 - t and b[a, a + 1] == t
        assert b[a + 1, a] == 1 and b[a + 1, a + 1] == 0

