"""Dense views and dense oracles of the exact kernels, and the matrix
constructors, that only the tests use."""

from fractions import Fraction

from braidrook.linalg import rref
from braidrook.matrix import Matrix


def zeros(rows, cols=None):
    """The rows x cols zero matrix, square when cols is omitted."""
    return Matrix(rows, rows if cols is None else cols, {})


def unit(n, i, j):
    """The matrix unit e_ij (0-indexed) of size n x n."""
    return Matrix(n, n, {i * n + j: 1})


def entries(m):
    """Row-major flattening of m, zeros included."""
    return tuple(x for row in m.to_lists() for x in row)


def rank(m):
    return len(rref(m.to_lists())[1])


def invert(m):
    """The inverse of a square matrix, by the rref of [m | 1]."""
    if not m.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    aug = []
    for i in range(n):
        row = m.row(i) + [Fraction(0)] * n
        row[n + i] = Fraction(1)
        aug.append(row)
    echelon, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix.from_rows([echelon[i][n:] for i in range(n)])


def nullspace_from_rref(echelon, pivots, ncols):
    """Canonical nullspace basis from a dense reduced echelon form: one
    vector per free column f, with a 1 at f and support otherwise only on
    earlier pivot columns (trailing-echelon form)."""
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            if p < f:
                c = echelon[i][f]
                if c:
                    v[p] = -c
        basis.append(tuple(v))
    return basis
