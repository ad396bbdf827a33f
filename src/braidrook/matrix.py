"""Dense exact matrices over the rationals.

Row-major entries, matrices act on column vectors: column j of a matrix
is the image of the j-th standard basis vector. Values are immutable by
convention; every operation returns a fresh Matrix. Storage is dense, but
addition, subtraction and multiplication skip zero entries, so their cost
follows the nonzeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .scalars import scalar


class Matrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        e = [x if isinstance(x, Fraction) else scalar(x) for x in entries]
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self.rows = rows
        self.cols = cols
        self._e = e

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(rows: int, cols: int | None = None) -> "Matrix":
        if cols is None:
            cols = rows
        return Matrix(rows, cols, [Fraction(0)] * (rows * cols))

    @staticmethod
    def identity(n: int) -> "Matrix":
        e = [Fraction(0)] * (n * n)
        for i in range(n):
            e[i * n + i] = Fraction(1)
        return Matrix(n, n, e)

    @staticmethod
    def from_rows(rows: Iterable[Sequence]) -> "Matrix":
        rows = [list(r) for r in rows]
        if not rows:
            return Matrix(0, 0, [])
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        flat = [x for r in rows for x in r]
        return Matrix(len(rows), width, flat)

    @staticmethod
    def from_flat(rows: int, cols: int, entries: Sequence) -> "Matrix":
        """Rebuild a matrix from its row-major vectorization (see entries())."""
        return Matrix(rows, cols, list(entries))

    @staticmethod
    def unit(n: int, i: int, j: int) -> "Matrix":
        """Matrix unit e_{ij} (0-indexed) of size n x n."""
        m = Matrix.zeros(n, n)
        m._e[i * n + j] = Fraction(1)
        return m

    @staticmethod
    def diagonal(values: Sequence) -> "Matrix":
        vals = [scalar(v) for v in values]
        n = len(vals)
        m = Matrix.zeros(n, n)
        for i, v in enumerate(vals):
            m._e[i * n + i] = v
        return m

    # -- access --------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self._e[i * self.cols + j]

    def row(self, i: int) -> list[Fraction]:
        return self._e[i * self.cols : (i + 1) * self.cols]

    def to_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def entries(self) -> tuple[Fraction, ...]:
        """Row-major flattening; the vectorization used for span arithmetic."""
        return tuple(self._e)

    # -- structure tests -----------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for x in self._e)

    def is_identity(self) -> bool:
        return self.is_square() and self == Matrix.identity(self.rows)

    def scalar_of_identity(self) -> Fraction | None:
        """The scalar c with self = c*I, or None if self is not scalar."""
        if not self.is_square() or self.rows == 0:
            return None
        c = self._e[0]
        n = self.rows
        for i in range(n):
            for j in range(n):
                want = c if i == j else 0
                if self._e[i * n + j] != want:
                    return None
        return c

    # -- arithmetic ----------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self._e)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a + b if b else a for a, b in zip(self._e, other._e)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        return Matrix(self.rows, self.cols, [a - b if b else a for a, b in zip(self._e, other._e)])

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, [-a for a in self._e])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        return Matrix(self.rows, self.cols, [c * a for a in self._e])

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        n, k, m = self.rows, self.cols, other.cols
        a, b = self._e, other._e
        # the nonzeros of row t of other, found once per product and only
        # for the rows that a nonzero entry of self reaches
        b_nz = [None] * k
        out = [Fraction(0)] * (n * m)
        for idx, ait in [(idx, x) for idx, x in enumerate(a) if x]:
            i, t = divmod(idx, k)
            bt = b_nz[t]
            if bt is None:
                bt = b_nz[t] = [(j, bv) for j, bv in enumerate(b[t * m : (t + 1) * m]) if bv]
            orow = i * m
            for j, bv in bt:
                out[orow + j] += ait * bv
        return Matrix(n, m, out)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            return self.inverse() ** (-k)
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def transpose(self) -> "Matrix":
        out = [Fraction(0)] * (self.rows * self.cols)
        for i in range(self.rows):
            for j in range(self.cols):
                out[j * self.rows + i] = self._e[i * self.cols + j]
        return Matrix(self.cols, self.rows, out)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self._e[i * self.cols + i] for i in range(self.rows)), Fraction(0))

    def inverse(self) -> "Matrix":
        from .linalg import invert

        return invert(self)

    def det(self) -> Fraction:
        from .linalg import det

        return det(self)

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i,j) of the result is a[i,j] * b.

    Realizes tensor products of operators: kron(a, b) acts on x (x) y as
    (a x) (x) (b y), with basis e_i (x) e_j at flat index i*cols(b) + j.
    """
    rows, cols = a.rows * b.rows, a.cols * b.cols
    out = [Fraction(0)] * (rows * cols)
    for i in range(a.rows):
        for j in range(a.cols):
            aij = a[i, j]
            if not aij:
                continue
            base = i * b.rows * cols + j * b.cols
            for k in range(b.rows):
                brow = k * b.cols
                dst = base + k * cols
                for l in range(b.cols):
                    v = b._e[brow + l]
                    if v:
                        out[dst + l] = aij * v
    return Matrix(rows, cols, out)


def kron_power(a: Matrix, r: int) -> Matrix:
    """r-fold Kronecker power of a; r = 0 gives the 1x1 identity."""
    if r < 0:
        raise ValueError("negative Kronecker power")
    result = Matrix.identity(1)
    for _ in range(r):
        result = kron(result, a)
    return result
