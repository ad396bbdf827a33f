"""Generalized two-parameter Burau representations of the braid group.

Generators T_i satisfy the braid relations and the quadratic relation
(T_i - q1)(T_i - q2) = 0. The unreduced representation acts on E = C^n
(columns are images of basis vectors); E splits as L + F where L is
spanned by the common q1-eigenvector f0 = e_1 + ... + e_n and F carries
the reduced action on the basis f_i = q2 e_i + q1 e_{i+1}, i = 1..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .matrix import Matrix
from .scalars import IdentityError, quantum_int, scalar


@dataclass(frozen=True)
class BurauParams:
    """Strand count n >= 2 and nonzero parameters (q1, q2).

    The derived ratio q = -q2/q1 must avoid {1, -1}: a rational q outside
    {0, 1, -1} is never a root of unity, which is the hypothesis every
    verified theorem needs. `degenerate` skips that gate for control
    experiments (the matrices stay well defined; the theorems are only
    claimed under the gate).
    """

    n: int
    q1: Fraction
    q2: Fraction
    gate: bool = field(default=True, repr=False, compare=False)
    # q, divided out once; derived from (q1, q2), so left out of equality
    _q: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q1", scalar(self.q1))
        object.__setattr__(self, "q2", scalar(self.q2))
        if self.n < 2:
            raise ValueError("need at least 2 strands")
        if self.q1 == 0 or self.q2 == 0:
            raise ValueError("q1 and q2 must be nonzero")
        object.__setattr__(self, "_q", -self.q2 / self.q1)
        if self.gate and self.q in (1, -1):
            raise ValueError(
                f"q = -q2/q1 = {self.q} is a root of unity; pick q outside {{0, 1, -1}}"
            )

    @classmethod
    def degenerate(cls, n: int, q1, q2) -> "BurauParams":
        return cls(n, q1, q2, gate=False)

    @property
    def q(self) -> Fraction:
        return self._q

    def quantum(self, m: int) -> Fraction:
        """[m]_q = 1 + q + ... + q^(m-1)."""
        return quantum_int(m, self.q)

    @classmethod
    def preset(cls, n: int, q=Fraction(2)) -> "BurauParams":
        """The one-parameter convention (q1, q2) = (1, -q)."""
        return cls(n, Fraction(1), -scalar(q))


def _check_index(i: int, p: BurauParams):
    if not 1 <= i <= p.n - 1:
        raise ValueError(f"generator index {i} outside 1..{p.n - 1}")


def unreduced_generator(i: int, p: BurauParams) -> Matrix:
    """n x n matrix of T_i: q1 on the diagonal away from strands i, i+1,
    and the 2x2 block [[q1+q2, -q2], [q1, 0]] in rows/columns i, i+1."""
    _check_index(i, p)
    n, q1, q2 = p.n, p.q1, p.q2
    d = (i - 1) * (n + 1)  # the row-major index of entry (i, i)
    # nonzero Fractions in row-major order; q1 + q2 is 0 when q = 1
    entries = {k * (n + 1): q1 for k in range(i - 1)}
    if trace_block := q1 + q2:
        entries[d] = trace_block
    entries[d + 1] = -q2
    entries[d + n] = q1
    entries.update((k * (n + 1), q1) for k in range(i + 1, n))
    return Matrix._trusted(n, n, entries)


def row_window(m: int, i: int, left, mid, right, rest) -> Matrix:
    """The m x m matrix rest*I with row i (1-based) holding left, mid and
    right in columns i-1, i and i+1; an entry that falls outside the
    matrix is dropped. R_i, its powers and the one-parameter families of
    lieclosure are all of this shape."""
    entries = {k * (m + 1): rest for k in range(m)}
    d = (i - 1) * (m + 1)  # the row-major index of entry (i, i)
    entries[d] = mid
    if i > 1:
        entries[d - 1] = left
    if i < m:
        entries[d + 1] = right
    return Matrix(m, m, entries)


def reduced_generator(i: int, p: BurauParams) -> Matrix:
    """(n-1) x (n-1) action on the f-basis: f_{i-1} picks up q1 f_i, f_i
    scales by q2, f_{i+1} picks up -q2 f_i, all other f_j scale by q1."""
    _check_index(i, p)
    return row_window(p.n - 1, i, p.q1, p.q2, -p.q2, p.q1)


def hecke_phi(k: int, p: BurauParams) -> Fraction:
    """Phi_k = sum_{j=0}^{k-1} q1^j q2^(k-1-j) = (q1^k - q2^k)/(q1 - q2)."""
    if k < 0:
        raise ValueError("Phi_k needs k >= 0")
    total = Fraction(0)
    for j in range(k):
        total += p.q1**j * p.q2 ** (k - 1 - j)
    return total


def generator_power(i: int, k: int, p: BurauParams) -> Matrix:
    """Closed form for reduced_generator(i)^k: diagonal q1^k except q2^k
    at slot i, with q1*Phi_k below and -q2*Phi_k above in row i."""
    _check_index(i, p)
    if k < 1:
        raise ValueError("exponent must be >= 1")
    phi = hecke_phi(k, p)
    return row_window(p.n - 1, i, p.q1 * phi, p.q2**k, -p.q2 * phi, p.q1**k)


def form_matrix(p: BurauParams) -> Matrix:
    """Gram matrix J = diag(1, q, ..., q^(n-1)) of the bilinear form."""
    return Matrix.diagonal([p.q ** j for j in range(p.n)])


def form_value(p: BurauParams, x, y) -> Fraction:
    """<x, y> = x^T J y."""
    q = p.q
    return sum((q**j * x[j] * y[j] for j in range(p.n)), Fraction(0))


def reflection(i: int, p: BurauParams) -> Matrix:
    """S_i = (2 T_i - (q1+q2) I)/(q1 - q2): an involution fixing a
    hyperplane, orthogonal for the form J."""
    if p.q1 == p.q2:
        raise ValueError("reflections need q1 != q2")
    b = unreduced_generator(i, p)
    shift = Matrix.diagonal([p.q1 + p.q2] * p.n)
    return (b.scale(2) - shift).scale(1 / (p.q1 - p.q2))


def projection_p(p: BurauParams) -> Matrix:
    """The n x n matrix with every row (1, q, ..., q^(n-1)); satisfies
    P^2 = [n]_q P, P = U J for U all-ones, and commutes with every T_i."""
    row = [p.q ** j for j in range(p.n)]
    return Matrix.from_rows([row] * p.n)


def decompose_e(p: BurauParams) -> tuple[tuple[Fraction, ...], list[tuple[Fraction, ...]]]:
    """Basis adapted to E = L + F: f0 = (1, ..., 1) spanning the line L,
    and f_i = q2 e_i + q1 e_{i+1} spanning the orthogonal complement F."""
    n = p.n
    f0 = tuple(Fraction(1) for _ in range(n))
    fs = []
    for i in range(1, n):
        v = [Fraction(0)] * n
        v[i - 1] = p.q2
        v[i] = p.q1
        fs.append(tuple(v))
    return f0, fs


def change_of_basis(p: BurauParams) -> Matrix:
    """Columns f0, f_1, ..., f_{n-1} of decompose_e; conjugating any
    unreduced generator by this matrix gives q1 (+) reduced_generator."""
    n, one = p.n, Fraction(1)
    # row i holds 1 (f0), q1 (f_i, i >= 1) and q2 (f_(i+1), i < n - 1),
    # nonzero Fractions in row-major order
    entries = {}
    for i in range(n):
        entries[i * n] = one
        if i:
            entries[i * n + i] = p.q1
        if i < n - 1:
            entries[i * n + i + 1] = p.q2
    return Matrix._trusted(n, n, entries)


def full_twist_scalar(p: BurauParams) -> Fraction:
    """Scalar by which the full twist (sigma_1 ... sigma_{n-1})^n acts on F;
    equals (-q1^(n-2) q2)^n = (q1^(n-1) q)^n."""
    prod = Matrix.identity(p.n - 1)
    for i in range(1, p.n):
        prod = prod * reduced_generator(i, p)
    twist = prod**p.n
    c = twist.scalar_of_identity()
    if c is None:
        raise IdentityError("full twist did not act as a scalar on F")
    return c

