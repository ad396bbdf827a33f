"""One-parameter subgroups inside the reduced representation and the Lie
algebras their tangent vectors generate.

Everything here lives in (n-1) x (n-1) matrices, the reduced
representation space, with q = -q2/q1 outside {0, 1, -1} and the two
constants a = q/(1+q), b = 1/(1+q) (so a + b = 1).  Powers of a single
scaled generator (q1^{-1} rho(sigma_i))^k sweep out the one-parameter
group

    H_i(z) = b(1-z) e_{i,i-1} + z e_{ii} + a(1-z) e_{i,i+1} + E(i)

at z = (-q)^k, where E(i) = I - e_{ii}; when (q1^{n-2} q2)^d = 1 the
unscaled powers rho(sigma_i^{kd}) sweep out

    K_i(w) = b(w - w^{2-n}) e_{i,i-1} + w^{2-n} e_{ii}
             + a(w - w^{2-n}) e_{i,i+1} + w E(i)

at w = q1^{kd}.  Differentiating at the identity gives tangent vectors
whose iterated commutators span all of gl_{n-1} (H side) and all of
sl_{n-1} (K side); `bracket_closure` computes those spans exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .burau import BurauParams, generator_power, reduced_generator
from .linalg import VectorSpan, det
from .matrix import Matrix
from .scalars import format_scalar, quantum_int, scalar


@dataclass(frozen=True)
class LieConstants:
    """Size n >= 3 and ratio q outside {0, 1, -1}, with the derived
    pair a = q/(1+q), b = 1/(1+q) used throughout; a + b = 1 and
    ab = q/(1+q)^2."""

    n: int
    q: Fraction

    def __post_init__(self):
        object.__setattr__(self, "q", scalar(self.q))
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.q in (0, 1, -1):
            raise ValueError("q must avoid {0, 1, -1}")

    @property
    def a(self) -> Fraction:
        return self.q / (1 + self.q)

    @property
    def b(self) -> Fraction:
        return 1 / (1 + self.q)

    @property
    def size(self) -> int:
        """Side length n - 1 of all matrices built from these constants."""
        return self.n - 1


def _unit(m: int, i: int, j: int) -> Matrix:
    """e_{ij} in 1-based coordinates, zero if an index is out of range."""
    if 1 <= i <= m and 1 <= j <= m:
        return Matrix.unit(m, i - 1, j - 1)
    return Matrix.zeros(m, m)


def off_identity(m: int, i: int) -> Matrix:
    """E(i) = I - e_{ii} (1-based), the identity with slot i blanked."""
    return Matrix.identity(m) - _unit(m, i, i)


def u_generators(n: int, q) -> list[Matrix]:
    """The n-1 matrices u_i = b e_{i,i-1} + e_{ii} + a e_{i,i+1}, with
    the sub/super terms dropped at i = 1 and i = n-1 respectively."""
    c = LieConstants(n, q)
    m = c.size
    return [
        _unit(m, i, i - 1).scale(c.b) + _unit(m, i, i) + _unit(m, i, i + 1).scale(c.a)
        for i in range(1, n)
    ]


def v_generators(n: int, q) -> list[Matrix]:
    """The n-1 matrices v_i = b(n-1) e_{i,i-1} + (2-n) e_{ii}
    + a(n-1) e_{i,i+1} + E(i), same edge truncation as u_i.  Each is
    traceless: (2-n) on the diagonal plus trace n-2 from E(i)."""
    c = LieConstants(n, q)
    m = c.size
    return [
        _unit(m, i, i - 1).scale(c.b * (n - 1))
        + _unit(m, i, i).scale(Fraction(2 - n))
        + _unit(m, i, i + 1).scale(c.a * (n - 1))
        + off_identity(m, i)
        for i in range(1, n)
    ]


def tangent_generators(n: int, q) -> list[Matrix]:
    """Derivatives h_i = dH_i/dz at z = 1: h_i = e_{ii} - b e_{i,i-1}
    - a e_{i,i+1} = 2 e_{ii} - u_i.  Conjugating by the alternating sign
    matrix D turns each h_i into u_i, so the two families generate
    conjugate (hence equidimensional) Lie algebras."""
    m = n - 1
    return [
        _unit(m, i, i).scale(2) - u for i, u in enumerate(u_generators(n, q), start=1)
    ]


def alternating_conjugator(m: int) -> Matrix:
    """D = diag(1, -1, 1, ...); conjugation by D flips the sign of every
    entry at odd offset from the diagonal."""
    return Matrix.diagonal([Fraction((-1) ** i) for i in range(m)])


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x * y - y * x


@dataclass(frozen=True)
class BracketSpace:
    """A subspace of m x m matrices closed under the commutator, as an
    echelonized basis."""

    dim: int
    basis: tuple[Matrix, ...]


def bracket_closure(gens: Sequence[Matrix]) -> BracketSpace:
    """Smallest subspace containing gens and closed under [x, y] = xy - yx.

    Worklist closure over an exact echelon basis: each new independent
    element is bracketed against every element already processed, so
    every pair of basis representatives is bracketed at most once.

    The worklist stops early once the span fills a ceiling space known to
    contain the closure: gl_m (dimension m^2) in general, and sl_m
    (dimension m^2 - 1) when every generator is traceless, since a
    commutator is always traceless and so is any sum of traceless
    matrices. A subspace of the ceiling space with its full dimension is
    the whole of it, so nothing more can join, and the basis returned
    (the unique reduced echelon basis of the span) is the one the full
    worklist would reach."""
    if not gens:
        raise ValueError("bracket_closure needs a nonempty generator list")
    m = gens[0].rows
    if any(not g.is_square() or g.rows != m for g in gens):
        raise ValueError("generators must be square and of equal size")
    ceiling = m * m - 1 if all(g.trace() == 0 for g in gens) else m * m
    span = VectorSpan(m * m)
    queue: list[Matrix] = []
    done: list[Matrix] = []
    for g in gens:
        row = span.add(g.entries())
        if row is not None:
            queue.append(Matrix(m, m, row))
    while queue and span.dim < ceiling:
        w = queue.pop()
        for r in done:
            row = span.add(commutator(w, r).entries())
            if row is not None:
                queue.append(Matrix(m, m, row))
                if span.dim == ceiling:
                    break
        done.append(w)
    basis = tuple(Matrix(m, m, list(row)) for row in span.basis_rows())
    return BracketSpace(span.dim, basis)


# -- one-parameter subgroup patterns ------------------------------------


def subgroup_h(i: int, z, c: LieConstants) -> Matrix:
    """H_i(z) = b(1-z) e_{i,i-1} + z e_{ii} + a(1-z) e_{i,i+1} + E(i).
    H_i(1) = I and H_i(z)H_i(z') = H_i(zz'), so each H_i is a
    one-parameter group through the identity."""
    if not 1 <= i <= c.n - 1:
        raise ValueError(f"index {i} outside 1..{c.n - 1}")
    z = scalar(z)
    m = c.size
    return (
        _unit(m, i, i - 1).scale(c.b * (1 - z))
        + _unit(m, i, i).scale(z)
        + _unit(m, i, i + 1).scale(c.a * (1 - z))
        + off_identity(m, i)
    )


def subgroup_k(i: int, w, c: LieConstants) -> Matrix:
    """K_i(w) = b(w - w^{2-n}) e_{i,i-1} + w^{2-n} e_{ii}
    + a(w - w^{2-n}) e_{i,i+1} + w E(i), for w != 0 (the exponent 2-n
    is negative).  K_i(1) = I."""
    if not 1 <= i <= c.n - 1:
        raise ValueError(f"index {i} outside 1..{c.n - 1}")
    w = scalar(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    m = c.size
    wlow = w ** (2 - c.n)
    return (
        _unit(m, i, i - 1).scale(c.b * (w - wlow))
        + _unit(m, i, i).scale(wlow)
        + _unit(m, i, i + 1).scale(c.a * (w - wlow))
        + off_identity(m, i).scale(w)
    )


def finite_order_exponent(p: BurauParams, bound: int = 2) -> int | None:
    """Smallest d <= bound with (q1^{n-2} q2)^d = 1, or None.  Over the
    rationals only d = 1 (q2 = q1^{2-n}) and d = 2 (q2 = -q1^{2-n}) can
    occur."""
    t = p.q1 ** (p.n - 2) * p.q2
    for d in range(1, bound + 1):
        if t**d == 1:
            return d
    return None


def one_param_membership(i: int, k: int, p: BurauParams) -> dict:
    """Verify by explicit multiplication that powers of generator i land
    on the displayed one-parameter groups.

    Checks:
      * scaled_power_in_h: (q1^{-1} rho(sigma_i))^k computed by repeated
        multiplication equals H_i((-q)^k);
      * closed_form_matches: the same matrix equals the closed-form
        generator_power scaled by q1^{-k} (k >= 1 only);
      * tangent_line: H_i(z) - I = (z - 1) h_i, checked at sample z
        (both sides are affine in z, so two points already decide it);
      * power_in_k (only when (q1^{n-2} q2)^d = 1 for d <= 2):
        rho(sigma_i^{kd}) equals K_i(q1^{kd}).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    c = LieConstants(p.n, p.q)
    g = reduced_generator(i, p).scale(1 / p.q1)
    power = Matrix.identity(c.size)
    for _ in range(k):
        power = power * g
    z = (-p.q) ** k
    h_ok = power == subgroup_h(i, z, c)
    closed_ok = True
    if k >= 1:
        closed_ok = power == generator_power(i, k, p).scale(p.q1 ** (-k))
    h_i = tangent_generators(p.n, p.q)[i - 1]
    ident = Matrix.identity(c.size)
    tangent_ok = all(
        subgroup_h(i, t, c) - ident == h_i.scale(t - 1)
        for t in (Fraction(0), Fraction(2), Fraction(-3), Fraction(7, 2))
    )
    d = finite_order_exponent(p)
    k_ok = None
    if d is not None:
        raw = reduced_generator(i, p)
        unscaled = Matrix.identity(c.size)
        for _ in range(k * d):
            unscaled = unscaled * raw
        k_ok = unscaled == subgroup_k(i, p.q1 ** (k * d), c)
    checks = {
        "scaled_power_in_h": h_ok,
        "closed_form_matches": closed_ok,
        "tangent_line": tangent_ok,
        "power_in_k": k_ok,
    }
    return {
        "n": p.n,
        "i": i,
        "k": k,
        "q": format_scalar(p.q),
        "z": format_scalar(z),
        "finite_order_d": d,
        "checks": checks,
        "ok": all(v for v in checks.values() if v is not None),
    }


# -- tridiagonal determinant --------------------------------------------


def _ab(n: int, q) -> tuple[Fraction, Fraction]:
    q = scalar(q)
    if n < 3:
        raise ValueError("need n >= 3")
    if q == -1:
        raise ValueError("q = -1 makes a and b undefined")
    return q / (1 + q), 1 / (1 + q)


def tridiagonal_matrix(n: int, q) -> Matrix:
    """(n-1) x (n-1) matrix with 1 on the diagonal, a above, b below."""
    a, b = _ab(n, q)
    m = n - 1
    rows = [[Fraction(0)] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = Fraction(1)
        if i + 1 < m:
            rows[i][i + 1] = a
            rows[i + 1][i] = b
    return Matrix.from_rows(rows)


def tridiagonal_det(n: int, q) -> Fraction:
    """D_n: the determinant of tridiagonal_matrix(n, q), computed
    directly by exact elimination."""
    return det(tridiagonal_matrix(n, q))


def tridiagonal_det_recursive(n: int, q) -> Fraction:
    """D_n via cofactor expansion along the last row: D_m = D_{m-1}
    - ab D_{m-2}, with empty/1x1 base cases D_2 = D_1 = 1."""
    a, b = _ab(n, q)
    ab = a * b
    older, prev = Fraction(1), Fraction(1)
    for _ in range(3, n + 1):
        older, prev = prev, prev - ab * older
    return prev


def tridiagonal_det_closed(n: int, q) -> Fraction:
    """Closed form D_n = [n]_q / (1+q)^(n-1)."""
    _ab(n, q)
    q = scalar(q)
    return quantum_int(n, q) / (1 + q) ** (n - 1)


# -- the first-row bracket chain ----------------------------------------


def first_row_seed(n: int, q) -> tuple[Matrix, Matrix]:
    """(A'_2, A_2): the first-row elements produced by u-brackets alone.

    A'_2 = ([u_1, [u_1, u_2]] + [u_1, u_2]) / (2a) works out to
    (1 - ab) e_12 + a e_13 (the e_13 term absent at n = 3), and
    A_2 = b u_1 + A'_2 = b e_11 + e_12 + a e_13 starts the chain."""
    c = LieConstants(n, q)
    us = u_generators(n, q)
    inner = commutator(us[0], us[1])
    seed = (commutator(us[0], inner) + inner).scale(1 / (2 * c.a))
    return seed, us[0].scale(c.b) + seed


def first_row_chain(n: int, q) -> list[Matrix]:
    """[A_2, ..., A_{n-1}] with A_k = (1/a) [A_{k-1}, u_k]: each bracket
    shifts the three-entry window b e_{1,k-1} + e_{1,k} + a e_{1,k+1}
    one column right, truncating to b e_{1,n-2} + e_{1,n-1} at the wall.
    Together with the u_i these elements already exhibit first-row
    matrix units inside the u-closure."""
    c = LieConstants(n, q)
    us = u_generators(n, q)
    _, current = first_row_seed(n, q)
    chain = [current]
    for k in range(3, n):
        current = commutator(current, us[k - 1]).scale(1 / c.a)
        chain.append(current)
    return chain


def expected_chain_element(n: int, q, k: int) -> Matrix:
    """Closed form for A_k: b e_{1,k-1} + e_{1,k} + a e_{1,k+1}, with
    out-of-range terms dropped (k = n-1 loses the a term)."""
    c = LieConstants(n, q)
    if not 2 <= k <= n - 1:
        raise ValueError(f"chain index {k} outside 2..{n - 1}")
    m = c.size
    return (
        _unit(m, 1, k - 1).scale(c.b) + _unit(m, 1, k) + _unit(m, 1, k + 1).scale(c.a)
    )


# -- reporting -----------------------------------------------------------


def lie_report(n: int, q, generators: str = "u") -> dict:
    """Bracket-closure summary for the chosen generator family.

    u (or the conjugate tangent family h) closes to all of gl_{n-1},
    dimension (n-1)^2; v closes to sl_{n-1}, dimension (n-1)^2 - 1."""
    if generators not in ("u", "v", "h"):
        raise ValueError("generators must be 'u', 'v', or 'h'")
    maker = {"u": u_generators, "v": v_generators, "h": tangent_generators}[generators]
    gens = maker(n, q)
    space = bracket_closure(gens)
    expected = (n - 1) ** 2 - (1 if generators == "v" else 0)
    return {
        "n": n,
        "q": format_scalar(scalar(q)),
        "generators": generators,
        "generator_count": len(gens),
        "closure_dim": space.dim,
        "expected_dim": expected,
        "basis_size": len(space.basis),
        "traceless": all(m.trace() == 0 for m in space.basis),
        "ok": space.dim == expected,
    }
