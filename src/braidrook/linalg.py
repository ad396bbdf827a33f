"""Exact linear-algebra kernels: echelon forms, nullspaces, commutants,
determinants and multiplicative span closure.

Everything is computed over the rationals with no rounding. The one
determinant, det, takes dense rows of ints or Fractions and runs Bareiss's
fraction-free elimination on integers. One exact elimination engine, the
incremental VectorSpan, does all Fraction echelon work: rref and
nullspace_of_rows feed it rows smallest first. VectorSpan keeps its basis
rows sparse, so the cost of an elimination step follows the nonzeros, not
the vector length, and a nullspace is read straight off the sparse pivot
rows. Bases are returned in a canonical echelon order, so outputs are
deterministic and independent of the order rows are added in (that order
is performance-only). One worklist, worklist_closure, closes a span under
a set of linear maps for every closure in the package, over Q here and
over F_p in _modlinalg. Large nullspace systems are dispatched to a
certified modular engine, which eliminates mod p on the sparse echelon of
those closures and verifies its candidates exactly before use; on any
failure the pure rational path runs instead, so results never depend on
it. That engine is now the slower route; ROADMAP.md item 7 removes it.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .matrix import Matrix, rows_of, sparse_product

SparseRow = list[tuple[int, Fraction]]
# a dense vector, or its nonzeros as {column: entry}
Vector = Sequence[Fraction] | Mapping[int, Fraction]

# Work estimate above which nullspace extraction is attempted modularly first.
# Both routes return identical bases; the modular one is slower: the (4,2)
# braid commutant takes 0.039 s against 0.025 s exact, (3,3) 0.80 against
# 0.65 s (best of 3, 2 vCPUs, Python 3.11.7). ROADMAP.md item 7 removes it.
_MODULAR_THRESHOLD = 40_000_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


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


def nullspace_of_rows(rows: list[SparseRow], ncols: int) -> list[tuple[Fraction, ...]]:
    """Canonical nullspace basis of a sparsely given system: one vector per
    free column f, with a 1 at f and support otherwise only on the earlier
    pivot columns (trailing-echelon form), in order of f. Dispatches to the
    certified modular engine for large systems, with exact fallback.

    The exact path adds the rows to a VectorSpan smallest first, as rref
    does. Its basis is the reduced echelon form: the row of pivot p reads
    x_p = -sum of c_f x_f over the free columns f it touches, so the
    vector of f has -c_f at p, read straight off the sparse rows."""
    est = len(rows) * ncols * min(len(rows), ncols)
    if est >= _MODULAR_THRESHOLD:
        # imported here, not at module level: _modlinalg imports worklist_closure
        from . import _modlinalg

        result = _modlinalg.certified_nullspace(rows, ncols)
        if result is not None:
            return [tuple(v) for v in result]
    by_size = sorted(rows, key=lambda row: sum(_digit_size(x) for _, x in row if x))
    span = span_of_vectors((dict(row) for row in by_size), ncols)
    pivots = span.pivots()
    vectors = {f: [_ZERO] * ncols for f in sorted(set(range(ncols)) - set(pivots))}
    for f, v in vectors.items():
        v[f] = _ONE
    for p, row in zip(pivots, span.basis_nonzeros()):
        # every entry of a reduced row beside its pivot is at a free column
        for f, x in row.items():
            if f != p:
                vectors[f][p] = -x
    return [tuple(v) for v in vectors.values()]


def det(rows: Sequence[Sequence[int | Fraction]]) -> Fraction:
    """Exact determinant of a square matrix given as dense rows of ints or
    Fractions, such as Matrix.to_lists(): the split check of
    burau.split_generators and the tridiagonal D_n of lieclosure. The Gram
    determinant of cellular.semisimplicity_certificate needs none; it is
    read off the checked groupoid isomorphism.

    Each row is scaled by the lcm of its denominators to integers, and the
    product of those scales divides out at the end; in between, Bareiss's
    fraction-free elimination (Math. Comp. 22, 1968) keeps every entry an
    integer: each division by the previous pivot is exact."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return Fraction(1)
    scale = 1
    work: list[list[int]] = []
    for row in rows:
        denom = lcm(*(x.denominator for x in row))
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
    return Fraction(sign * work[n - 1][n - 1], scale)


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


def worklist_closure(add, seeds: Iterable, images, ceiling: int | None = None) -> int:
    """Dimension of the smallest span that holds the seeds and is mapped
    into itself by a set of linear maps, built into an echelon basis by
    add; after adjoining the seeds it stops early once the dimension
    reaches ceiling.

    add(v) adjoins the vector v and returns the new basis row, or None when
    v already lies in the span: VectorSpan.add over Q, or
    _modlinalg._echelon_add on a basis over F_p. images(w) takes a basis
    row and yields its images under the maps as vectors that add accepts;
    it may leave out an image that is zero, since zero lies in every span.
    The exact closures yield one product per generator, the Lie closure
    mod p takes the one pass of _modlinalg._images over the nonzeros of w;
    once its span holds the Chevalley units it yields nothing, and its
    caller reads the dimension off the traces, not off the return value.

    The worklist adjoins the seeds, then adjoins the images of each row add
    returned, adjoining what is new, until no row is new. Each returned row
    is its vector less a combination of the basis before it, so the
    returned rows span the span; once the worklist is empty every map has
    been applied to each of them, so every map sends the span into itself.
    Every row found lies in any span that holds the seeds and is closed
    under the maps, so the result is the smallest such span, whatever the
    order of the images. Stopping at ceiling, the dimension of a space
    known to hold that span, loses nothing: a subspace of full dimension
    is the whole space, so the result is min(closure dim, ceiling).
    """
    queue = [row for v in seeds if (row := add(v)) is not None]
    dim = len(queue)
    while queue and (ceiling is None or dim < ceiling):
        w = queue.pop()
        for v in images(w):
            if (row := add(v)) is not None:
                queue.append(row)
                dim += 1
                if dim == ceiling:
                    break
    return dim


def span_closure(gens: Sequence[Matrix]) -> tuple[int, list[Matrix]]:
    """Unital algebra generated by gens, N x N matrices.

    The worklist closure of the span of 1 under right multiplication by
    each generator. Right multiplication alone suffices: the closure holds
    every word in the generators, and the words span the algebra, which is
    closed under right multiplication by the generators.

    When the generators are invertible this is also the algebra that the
    generators and their inverses generate: by Cayley-Hamilton, g^-1 is a
    polynomial in g, since the characteristic polynomial of g has the
    nonzero constant term +-det g. The duality report's envelope argument
    rests on the same fact: the unital algebra of the braid generators
    alone is the span of the group they generate (tensor.duality_report).
    """
    if not gens:
        raise ValueError("span_closure needs a nonempty list of generators")
    n = gens[0].rows
    if any(not m.is_square() or m.rows != n for m in gens):
        raise ValueError("generators must be square and same size")
    span = VectorSpan(n * n)
    rows = [rows_of(g.nonzeros(), n) for g in gens]
    worklist_closure(
        span.add, [Matrix.identity(n).nonzeros()], lambda w: (sparse_product(w, r, n, n) for r in rows)
    )
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
