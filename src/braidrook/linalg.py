"""Exact linear-algebra kernels: echelon forms, nullspaces, commutants,
and multiplicative span closure.

Everything is computed over the rationals with no rounding. One exact
elimination engine, the incremental VectorSpan, does all Fraction echelon
work; rref feeds it rows smallest first. VectorSpan keeps its basis rows
sparse, so the cost of an elimination step follows the nonzeros, not the
vector length. Bases are returned in a canonical echelon order, so outputs
are deterministic and independent of the order rows are added in (that
order is performance-only). Large nullspace systems are dispatched to a
certified modular accelerator whose candidates are verified exactly before
use; on any failure the pure rational path runs instead, so results never
depend on the fast path.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .matrix import Matrix

SparseRow = list[tuple[int, Fraction]]
# a dense vector, or its nonzeros as {column: entry}
Vector = Sequence[Fraction] | Mapping[int, Fraction]

# Work estimate above which nullspace extraction is attempted modularly
# first. Purely a speed knob: both routes return identical bases.
_MODULAR_THRESHOLD = 40_000_000


def _digit_size(x: Fraction) -> int:
    """Size heuristic: total digit length of numerator and denominator."""
    n, d = x.numerator, x.denominator
    return len(str(abs(n))) + len(str(d))


def rref(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form. Returns (nonzero rows, pivot columns).

    The rows are added to a VectorSpan in ascending order of their total
    digit size, which keeps intermediate entries small; the RREF is unique,
    so the order changes only the running time.
    """
    if not rows:
        return [], []
    by_size = sorted(rows, key=lambda row: sum(_digit_size(x) for x in row if x))
    span = span_of_vectors(by_size, len(rows[0]))
    return [list(row) for row in span.basis_rows()], span.pivots()


def _nullspace_from_rref(echelon: list[list[Fraction]], pivots: list[int], ncols: int):
    """Canonical nullspace basis: one vector per free column f, with a 1 at f
    and support otherwise only on earlier pivot columns (trailing-echelon form)."""
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


def nullspace_of_rows(rows: list[SparseRow], ncols: int) -> list[tuple[Fraction, ...]]:
    """Nullspace of a sparsely given system; dispatches to the certified
    modular engine for large systems, with exact fallback."""
    if not rows:
        return [tuple(Fraction(1) if j == f else Fraction(0) for j in range(ncols)) for f in range(ncols)]
    est = len(rows) * ncols * min(len(rows), ncols)
    if est >= _MODULAR_THRESHOLD:
        from . import _modlinalg

        result = _modlinalg.certified_nullspace(rows, ncols)
        if result is not None:
            return [tuple(v) for v in result]
    dense = []
    for entries in rows:
        row = [Fraction(0)] * ncols
        for j, v in entries:
            row[j] = v
        dense.append(row)
    echelon, pivots = rref(dense)
    return _nullspace_from_rref(echelon, pivots, ncols)


def invert(m: Matrix) -> Matrix:
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


def det(m: Matrix) -> Fraction:
    """Exact determinant via fraction-free (Bareiss) elimination."""
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = Fraction(1)
    work: list[list[int]] = []
    for i in range(n):
        row = m.row(i)
        denom = lcm(*(x.denominator for x in row)) if n > 1 else row[0].denominator
        scale *= denom
        work.append([x.numerator * (denom // x.denominator) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return Fraction(0)
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            wik = work[i][k]
            rowi = work[i]
            rowk = work[k]
            for j in range(k + 1, n):
                rowi[j] = (rowi[j] * pivot - wik * rowk[j]) // prev
            rowi[k] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1], 1) / scale


_ZERO = Fraction(0)


def _exact(x) -> Fraction:
    """An int vector entry as a Fraction; any other non-Fraction is refused."""
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"vector entries must be Fraction or int, not {x!r}")


def _axpy(target: dict[int, Fraction], c: Fraction, row: dict[int, Fraction]) -> None:
    """target += c * row on sparse rows, dropping entries that cancel."""
    for k, rv in row.items():
        x = target.get(k)
        if x is None:
            target[k] = c * rv
        else:
            x += c * rv
            if x:
                target[k] = x
            else:
                del target[k]


class VectorSpan:
    """Incremental exact row space with a maintained reduced-echelon basis:
    each basis row has a leading 1 whose column is zero in every other row.

    Rows are stored sparsely, as {column: nonzero Fraction} dicts keyed by
    their pivot, so elimination touches only nonzero entries. A vector goes
    in either dense, as a sequence of `length` entries, or by its nonzeros,
    as a mapping {column: entry} such as `Matrix.nonzeros()`; missing
    columns are zero, and both forms give the same results. `add` returns
    the new basis row in the sparse form, which `Matrix(rows, cols, row)`
    takes as is, and so does `basis_nonzeros`; `basis_rows` returns dense
    vectors. Entries enter as Fraction or int, and int entries
    become Fractions there, so every entry that comes out is a Fraction."""

    def __init__(self, length: int):
        self.length = length
        self._rows: dict[int, dict[int, Fraction]] = {}

    @property
    def dim(self) -> int:
        return len(self._rows)

    def _residual(self, vec: Vector) -> dict[int, Fraction]:
        """Nonzero entries of vec after elimination against the basis."""
        if isinstance(vec, Mapping):
            items = vec.items()
            if vec and (min(vec) < 0 or max(vec) >= self.length):
                raise ValueError("vector index outside the length")
        else:
            items = list(vec)
            if len(items) != self.length:
                raise ValueError("vector length mismatch")
            items = enumerate(items)
        r = {k: x if isinstance(x, Fraction) else _exact(x) for k, x in items if x}
        rows = self._rows
        # pivot columns are zero in every other basis row, so each
        # coefficient can be read off r before any subtraction
        for p, c in [(p, c) for p, c in r.items() if p in rows]:
            _axpy(r, -c, rows[p])
        return r

    def _dense(self, r: dict[int, Fraction]) -> list[Fraction]:
        v = [_ZERO] * self.length
        for k, x in r.items():
            v[k] = x
        return v

    def contains(self, vec: Vector) -> bool:
        return not self._residual(vec)

    def add(self, vec: Vector) -> dict[int, Fraction] | None:
        """Adjoin vec; returns the new normalized basis row as a fresh
        {column: nonzero Fraction} dict, or None if vec already lies in
        the span."""
        r = self._residual(vec)
        if not r:
            return None
        p = min(r)
        inv = 1 / r[p]
        if inv != 1:
            r = {k: x * inv for k, x in r.items()}
        for row in self._rows.values():
            c = row.get(p)
            if c is not None:
                _axpy(row, -c, r)
        self._rows[p] = r
        return dict(r)

    def pivots(self) -> list[int]:
        """Pivot columns in increasing order."""
        return sorted(self._rows)

    def basis_rows(self) -> list[tuple[Fraction, ...]]:
        """Canonical basis, ordered by pivot position."""
        return [tuple(self._dense(self._rows[p])) for p in self.pivots()]

    def basis_nonzeros(self) -> list[dict[int, Fraction]]:
        """basis_rows by their nonzeros, as fresh {column: entry} dicts;
        `Matrix(rows, cols, row)` takes each as is."""
        return [dict(self._rows[p]) for p in self.pivots()]


def certificate_record(path, reason, prime=None, skipped=(), bounds=None) -> dict:
    """How a report's dimensions were reached: the path (a certificate's
    name, or "exact"), the prime a modular bound was taken at, the listed
    primes skipped because they divide a denominator, the bounds compared,
    and, on the exact path, why the certificate did not hold."""
    return {
        "path": path,
        "prime": prime,
        "primes_skipped": list(skipped),
        "bounds": bounds,
        "fallback_reason": reason,
    }


def span_of_vectors(vectors: Iterable[Vector], length: int) -> VectorSpan:
    span = VectorSpan(length)
    for v in vectors:
        span.add(v)
    return span


def matrix_span(mats: Sequence[Matrix]) -> VectorSpan:
    """Row space of the matrices' row-major vectorizations."""
    if not mats:
        raise ValueError("empty matrix list")
    n = mats[0].rows * mats[0].cols
    return span_of_vectors((m.nonzeros() for m in mats), n)


def spans_equal(a: Sequence[Matrix], b: Sequence[Matrix]) -> bool:
    """Whether two lists of equal-shape matrices span the same subspace."""
    sa, sb = matrix_span(a), matrix_span(b)
    return sa.basis_rows() == sb.basis_rows()


def span_closure(gens: Sequence[Matrix]) -> tuple[int, list[Matrix]]:
    """Unital algebra generated by gens, N x N matrices.

    Worklist closure: start from the span of 1, multiply each new basis
    element on the right by every generator, adjoin independent products,
    repeat to fixpoint (dimension <= N^2 bounds it). Right multiplication
    alone suffices: the closure holds every word in the generators, and
    the words span the algebra.

    When the generators are invertible this is also the algebra that the
    generators and their inverses generate: by Cayley-Hamilton, g^-1 is a
    polynomial in g, since the characteristic polynomial of g has the
    nonzero constant term +-det g. `_modlinalg.closure_dim_mod` rests on
    the same argument.
    """
    if not gens:
        raise ValueError("span_closure needs a nonempty list of generators")
    n = gens[0].rows
    if any(not m.is_square() or m.rows != n for m in gens):
        raise ValueError("generators must be square and same size")
    span = VectorSpan(n * n)
    one = Matrix.identity(n)
    span.add(one.nonzeros())
    queue = [one]
    while queue:
        w = queue.pop()
        for g in gens:
            row = span.add((w * g).nonzeros())
            if row is not None:
                queue.append(Matrix(n, n, row))
    basis = [Matrix(n, n, row) for row in span.basis_nonzeros()]
    return span.dim, basis


def commutant_rows(gens: Sequence[Matrix]) -> list[SparseRow]:
    """Sparse rows of the linear system X -> gX - Xg over the row-major
    vectorization of X, one row per generator g and entry (i, j), with
    all-zero rows left out. Its nullspace is the commutant of gens."""
    n = gens[0].rows if gens else 0
    if any(not g.is_square() or g.rows != n for g in gens):
        raise ValueError("generators must be square and same size")
    rows: list[SparseRow] = []
    for g in gens:
        row_nz: list[SparseRow] = [[] for _ in range(n)]
        col_nz: list[SparseRow] = [[] for _ in range(n)]
        for idx, v in sorted(g.nonzeros().items()):
            i, k = divmod(idx, n)
            row_nz[i].append((k, v))
            col_nz[k].append((i, v))
        for i in range(n):
            for j in range(n):
                coeff: dict[int, Fraction] = {}
                for k, gik in row_nz[i]:
                    idx = k * n + j
                    coeff[idx] = coeff.get(idx, 0) + gik
                for k, gkj in col_nz[j]:
                    idx = i * n + k
                    coeff[idx] = coeff.get(idx, 0) - gkj
                entries = sorted((c, v) for c, v in coeff.items() if v)
                if entries:
                    rows.append(entries)
    return rows


def commutant(gens: Sequence[Matrix], size: int | None = None) -> tuple[int, list[Matrix]]:
    """Basis of {X : gX = Xg for all g in gens}.

    Solved as the joint nullspace of commutant_rows(gens). With no
    generators the full matrix space comes back, which needs an explicit
    size.
    """
    if not gens and size is None:
        raise ValueError("empty generator list needs an explicit size")
    rows = commutant_rows(gens)
    n = gens[0].rows if gens else size
    vectors = nullspace_of_rows(rows, n * n)
    return len(vectors), [Matrix(n, n, list(v)) for v in vectors]
