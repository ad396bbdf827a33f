"""Exact matrices over the rationals, stored by their nonzero entries.

Row-major entries, matrices act on column vectors: column j of a matrix
is the image of the j-th standard basis vector. Values are immutable by
convention; every operation returns a fresh Matrix. Storage is one
{row-major index: nonzero Fraction} dict; no zero is ever stored, so
arithmetic, equality and hashing cost follows the nonzeros, and entries
that cancel are dropped. `row()` and `to_lists()` give the dense view,
`nonzeros()` the stored one. Public construction checks that every entry
is an exact rational; the results of this module's own arithmetic, built
from Fractions, skip that check (`Matrix._trusted`), and so do four
closed forms whose entries are nonzero Fractions by construction: the
gl/sl basis of `lieclosure.bracket_closure`, `burau.unreduced_generator`,
`burau.change_of_basis` and `tensor.diagram_op`.

One sparse product, `sparse_product` of a's nonzeros with b's nonzeros
grouped by row (`rows_of`), serves the matrix products of the package:
`Matrix` multiplication here, and the Fraction and mod-p products on bare
{index: entry} dicts in `linalg` and `_modlinalg`. Two kinds of product
are taken elsewhere. The Lie closure mod p takes its brackets from
`_modlinalg._images`, which builds every generator's bracket gw - wg with
a basis row in one pass, since it runs once per element of the closure.
Every integer identity check of the duality report (the commute check and
T_i C = q1 C (1 + H_i(-q)) through `tensor._first_difference`, and the
relations of `tensor._operator_failure`) multiplies packed rows: row i of
an integer matrix is the one int sum_j a_ij 2^(W j), and a letter times a
packed matrix costs one big-int multiply-add per nonzero of the letter
(`tensor._packed_product`).

`integer_form` scales a list of matrices by one integer D, the lcm of all
their denominators, into {index: int} dicts. A product of k of the D m is
D^k times the product of the m, so `tensor` checks identities among
products of its operators on ints, each side carrying its power of D.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from types import MappingProxyType
from typing import Iterable, Sequence

from .scalars import scalar

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Matrix:
    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence | Mapping):
        """entries is either the dense row-major sequence of all rows * cols
        entries, or a mapping {row-major index: entry} whose missing
        indices are zero."""
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        size = rows * cols
        if isinstance(entries, Mapping):
            items = entries.items()
            if entries and (min(entries) < 0 or max(entries) >= size):
                raise ValueError(f"entry index outside 0..{size - 1}")
        else:
            items = list(entries)
            if len(items) != size:
                raise ValueError(f"expected {size} entries, got {len(items)}")
            items = enumerate(items)
        self.rows = rows
        self.cols = cols
        # int and "p/q" entries become Fractions; the zeros are left out
        self._e = {
            k: y for k, x in items if (y := x if isinstance(x, Fraction) else scalar(x))
        }

    @classmethod
    def _trusted(cls, rows: int, cols: int, e: dict[int, Fraction]) -> "Matrix":
        """Wrap a fresh {index: nonzero Fraction} dict without checking it;
        only for the results of this module's own arithmetic and for the
        closed forms of lieclosure.bracket_closure (its gl/sl basis),
        burau.unreduced_generator, burau.change_of_basis and
        tensor.diagram_op."""
        m = cls.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = e
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix(n, n, {i * n + i: _ONE for i in range(n)})

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
    def diagonal(values: Sequence) -> "Matrix":
        values = list(values)
        n = len(values)
        return Matrix(n, n, {i * n + i: v for i, v in enumerate(values)})

    # -- access --------------------------------------------------------

    def __getitem__(self, key) -> Fraction:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i},{j}) outside {self.rows}x{self.cols}")
        return self._e.get(i * self.cols + j, _ZERO)

    def row(self, i: int) -> list[Fraction]:
        e = self._e
        return [e.get(k, _ZERO) for k in range(i * self.cols, (i + 1) * self.cols)]

    def to_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def nonzeros(self) -> Mapping[int, Fraction]:
        """Read-only view {row-major index: entry} of the nonzero entries,
        the row-major vectorization that VectorSpan.add takes."""
        return MappingProxyType(self._e)

    # -- structure tests -----------------------------------------------

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not self._e

    def scalar_of_identity(self) -> Fraction | None:
        """The scalar c with self = c*I, or None if self is not scalar."""
        if not self.is_square() or self.rows == 0:
            return None
        e, n = self._e, self.rows
        c = e.get(0)
        if c is None:
            return None if e else _ZERO
        if len(e) != n or any(e.get(i * n + i) != c for i in range(n)):
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
        return hash((self.rows, self.cols, frozenset(self._e.items())))

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """self + sign * other, dropping the entries that cancel."""
        self._check_same_shape(other)
        e = dict(self._e)
        for k, b in other._e.items():
            a = e.get(k)
            if a is None:
                e[k] = b if sign > 0 else -b
            else:
                s = a + b if sign > 0 else a - b
                if s:
                    e[k] = s
                else:
                    del e[k]
        return Matrix._trusted(self.rows, self.cols, e)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, {k: -a for k, a in self._e.items()})

    def __mul__(self, other):
        if isinstance(other, Matrix):
            return self._matmul(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Matrix":
        c = scalar(c)
        # a product of nonzero rationals is nonzero
        e = {k: c * a for k, a in self._e.items()} if c else {}
        return Matrix._trusted(self.rows, self.cols, e)

    def _matmul(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        m = other.cols
        e = sparse_product(self._e, rows_of(other._e, m), self.cols, m)
        return Matrix._trusted(self.rows, m, e)

    def __pow__(self, k: int) -> "Matrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        result = Matrix.identity(self.rows)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        e, step = self._e, self.cols + 1
        return sum((e.get(i * step, _ZERO) for i in range(self.rows)), _ZERO)

    def _check_same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("shape mismatch")

    def __repr__(self):
        body = "; ".join(
            " ".join(str(x) for x in self.row(i)) for i in range(self.rows)
        )
        return f"Matrix({self.rows}x{self.cols}: {body})"


def rows_of(e: Mapping[int, object], cols: int) -> dict[int, list]:
    """The nonzeros {row-major index: entry} of a matrix with cols columns,
    grouped by row: {row: [(column, entry), ...]}, rows without a nonzero
    left out."""
    out: dict[int, list] = {}
    for idx, x in e.items():
        i, j = divmod(idx, cols)
        row = out.get(i)
        if row is None:
            out[i] = [(j, x)]
        else:
            row.append((j, x))
    return out


def sparse_product(a: Mapping[int, object], b_rows: Mapping[int, list], k: int, m: int) -> dict:
    """The product a b, by its nonzeros {row-major index: entry}, of a with
    k columns, given by its nonzeros, and b with m columns, given as
    rows_of(b, m). Entries may come from any ring: int, Fraction, or
    integers whose residues the caller reduces afterwards; sums that are
    zero are left out."""
    out: dict = {}
    for idx, av in a.items():
        i, t = divmod(idx, k)
        bt = b_rows.get(t)
        if bt is None:
            continue
        orow = i * m
        for j, bv in bt:
            key = orow + j
            x = out.get(key)
            out[key] = av * bv if x is None else x + av * bv
    return {key: x for key, x in out.items() if x}


def integer_form(mats: Iterable[Matrix]) -> tuple[int, list[dict[int, int]]]:
    """(D, [D m by its nonzeros {row-major index: int} for m in mats]), D the
    lcm of every denominator in mats, so that every D m is an integer
    matrix."""
    mats = list(mats)
    # one as_integer_ratio per entry; only its ints are kept, as a list of
    # the ratio tuples would hold one gc-tracked object per entry
    nums, dens = [], []
    for m in mats:
        for x in m._e.values():
            u, d = x.as_integer_ratio()
            nums.append(u)
            dens.append(d)
    den = lcm(*dens)
    scaled = iter([u * (den // d) for u, d in zip(nums, dens)])
    return den, [dict(zip(m._e, scaled)) for m in mats]


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product: block (i,j) of the result is a[i,j] * b.

    Realizes tensor products of operators: kron(a, b) acts on x (x) y as
    (a x) (x) (b y), with basis e_i (x) e_j at flat index i*cols(b) + j.
    """
    rows, cols = a.rows * b.rows, a.cols * b.cols
    # offset of each nonzero of b inside a block of the result
    b_off = [((idx // b.cols) * cols + idx % b.cols, v) for idx, v in b._e.items()]
    out: dict[int, Fraction] = {}
    for idx, av in a._e.items():
        i, j = divmod(idx, a.cols)
        base = i * b.rows * cols + j * b.cols
        one = av == 1  # block (i,j) is then b itself, sharing b's Fractions
        for off, bv in b_off:
            out[base + off] = bv if one else av * bv
    return Matrix._trusted(rows, cols, out)


def direct_sum(blocks: Sequence[Matrix]) -> Matrix:
    """Block-diagonal matrix with the blocks down its diagonal, in order."""
    rows, cols = sum(b.rows for b in blocks), sum(b.cols for b in blocks)
    out: dict[int, Fraction] = {}
    top = left = 0
    for b in blocks:
        for idx, v in b._e.items():
            i, j = divmod(idx, b.cols)
            out[(top + i) * cols + left + j] = v
        top, left = top + b.rows, left + b.cols
    return Matrix._trusted(rows, cols, out)


def kron_power(a: Matrix, r: int) -> Matrix:
    """r-fold Kronecker power of a; r = 0 gives the 1x1 identity."""
    if r < 0:
        raise ValueError("negative Kronecker power")
    result = Matrix.identity(1)
    for _ in range(r):
        result = kron(result, a)
    return result
