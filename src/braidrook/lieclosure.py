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
sl_{n-1} (K side). `bracket_closure` certifies each of those spans by a
closure mod p that fills its gl/sl ceiling, which is sound over Q, at a
prime from the search the duality report also uses, and computes any span
that misses it at every prime exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from . import _modlinalg
from .burau import BurauParams, generator_power, reduced_generator, row_window
from .linalg import VectorSpan, certificate_record, det, worklist_closure
from .matrix import Matrix
from .scalars import format_scalar, quantum_int, scalar


@dataclass(frozen=True)
class LieConstants:
    """Size n >= 3 and ratio q outside {0, 1, -1}, with the derived
    pair a = q/(1+q), b = 1/(1+q) used throughout; a + b = 1 and
    ab = q/(1+q)^2."""

    n: int
    q: Fraction
    # derived from q, divided out once; left out of equality
    a: Fraction = field(init=False, repr=False, compare=False)
    b: Fraction = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "q", scalar(self.q))
        if self.n < 3:
            raise ValueError("need n >= 3")
        if self.q in (0, 1, -1):
            raise ValueError("q must avoid {0, 1, -1}")
        b = 1 / (1 + self.q)
        object.__setattr__(self, "a", self.q * b)
        object.__setattr__(self, "b", b)

    @property
    def size(self) -> int:
        """Side length n - 1 of all matrices built from these constants."""
        return self.n - 1


def u_generators(n: int, q) -> list[Matrix]:
    """The n-1 matrices u_i = b e_{i,i-1} + e_{ii} + a e_{i,i+1}, with the
    sub/super terms dropped at i = 1 and i = n-1 respectively."""
    c = LieConstants(n, q)
    return [row_window(c.size, i, c.b, 1, c.a, 0) for i in range(1, n)]


def v_generators(n: int, q) -> list[Matrix]:
    """The n-1 matrices v_i = b(n-1) e_{i,i-1} + (2-n) e_{ii}
    + a(n-1) e_{i,i+1} + E(i), same edge truncation as u_i.  Each is
    traceless: (2-n) on the diagonal plus trace n-2 from E(i)."""
    c = LieConstants(n, q)
    return [row_window(c.size, i, c.b * (n - 1), 2 - n, c.a * (n - 1), 1) for i in range(1, n)]


def tangent_generator(i: int, c: LieConstants) -> Matrix:
    """Derivative h_i = dH_i/dz at z = 1: h_i = e_{ii} - b e_{i,i-1}
    - a e_{i,i+1} = 2 e_{ii} - u_i."""
    return row_window(c.size, i, -c.b, 1, -c.a, 0)


def tangent_generators(n: int, q) -> list[Matrix]:
    """The n-1 tangent vectors h_i (see tangent_generator).  Conjugating
    by the alternating sign matrix D turns each h_i into u_i, so the two
    families generate conjugate (hence equidimensional) Lie algebras."""
    c = LieConstants(n, q)
    return [tangent_generator(i, c) for i in range(1, n)]


def commutator(x: Matrix, y: Matrix) -> Matrix:
    return x * y - y * x


@dataclass(frozen=True)
class BracketSpace:
    """A subspace of m x m matrices closed under the commutator, as an
    echelonized basis, with the certificate record of how it was reached
    (see bracket_closure); equality and hashing look at the space only."""

    dim: int
    basis: tuple[Matrix, ...]
    certificate: dict = field(compare=False)


def bracket_closure(gens: Sequence[Matrix]) -> BracketSpace:
    """Smallest subspace L containing gens and closed under [x, y] = xy - yx.

    The ceiling. L lies in gl_m (dimension m^2), and in sl_m (dimension
    m^2 - 1) when every generator is exactly traceless, since a commutator
    is always traceless and so is any sum of traceless matrices. A subspace
    of the ceiling space with its full dimension is the whole of it.

    The worklist. linalg.worklist_closure of the generator set S under
    ad_s = [s, .] for s in S only, at most len(gens) * dim commutators and
    not one per pair of basis elements, gives the smallest subspace L that
    contains S and is mapped into itself by every ad_s. Such an L is
    already closed under the bracket. Let N = {x in L : [x, L] is in L}.

    * N contains S, since ad_s maps L into L.
    * N is closed under the bracket: by Jacobi,
      [[x, y], l] = [x, [y, l]] - [y, [x, l]], and for x, y in N every
      term on the right lies in L.
    * L is spanned by the left-normed brackets [s_1, [s_2, ..., s_k]],
      each of which lies in N by induction on k, so L is inside N.

    So L = N is a Lie algebra, and as every Lie algebra containing S is
    closed under each ad_s, it is the one S generates.

    The certificate (path "modular"). For each prime p that
    _modlinalg.lower_bound tries, one that divides no denominator of the
    generators, run the same worklist on their residues mod p
    (_modlinalg.bracket_closure_dim_mod). Its brackets come from one pass
    of _modlinalg._images over each basis row: [g - cI, w] = [g, w] for a
    scalar c, and a bracket that must be zero, of a generator sharing no
    row or column with w, is never formed. Brackets and Z_(p)-combinations
    of p-integral elements of L are p-integral elements of L, so every
    residue found is the reduction of an element of the lattice
    L cap Z_(p)^(m^2). Residue vectors independent over F_p lift to vectors
    independent over Q (a minor nonzero mod p is nonzero), so

        dim_Fp (closure mod p) <= dim_Q L <= ceiling.

    The unit stop. The mod-p worklist stops taking brackets once its span
    holds the 2(m - 1) Chevalley units e_(i,i+1) and e_(i+1,i), and returns
    min(m^2 - 1 + t, ceiling), t = 1 when some generator's residue has a
    nonzero trace mod p and t = 0 otherwise. That is the number the
    unstopped worklist returns, for every input and every prime:

    * By the argument above, run over F_p, the unstopped worklist closes
      the residues to the Lie algebra C over F_p that they generate. C
      lies in the reduction of the lattice L cap Z_(p)^(m^2), itself a Lie
      algebra over F_p of dimension dim_Q L.
    * Over any field the units e_(i,i+-1) generate sl_m:
      [e_ij, e_jk] = e_ik for i != k gives every e_ij with i != j, and
      [e_ij, e_ji] = e_ii - e_jj the traceless diagonal. So sl_m(F_p) lies
      in C. This is standard; see J. E. Humphreys, Introduction to Lie
      Algebras and Representation Theory.
    * Every bracket is traceless, so C lies in sl_m + span(residues),
      which is sl_m (t = 0) or all of gl_m (t = 1), as sl_m(F_p) is the
      kernel of the trace, also when p divides m.

    So C = sl_m + span(residues), of dimension m^2 - 1 + t, and the
    worklist stopped at the ceiling returns the smaller of the two. For
    m = 1 there is no unit, sl_1 = 0 and the value is t, the rank of the
    residues.

    The search stops at the first prime whose closure reaches the ceiling.
    When the bound it returns is the ceiling (its reason only explains a
    miss), L is all of gl_m or sl_m, and the basis is that space's unique
    reduced echelon basis in row-major order, written down in closed form:
    every e_ij for gl_m; e_ij for i != j and e_ii - e_mm for i < m, in
    pivot order, for sl_m. That is the basis the exact worklist reaches.

    The exact path. A closure below the ceiling at every prime tried, or
    no listed prime that divides no denominator, runs the worklist over an
    exact echelon basis. It stops early once the span fills the ceiling,
    and the basis returned (the unique reduced echelon basis of the span)
    is the one the full worklist would reach.

    The certificate record (linalg.certificate_record) has the path, the
    prime, the primes skipped, bounds {"lower": dimension mod p,
    "ceiling": ...} and the reason the exact path ran."""
    if not gens:
        raise ValueError("bracket_closure needs a nonempty generator list")
    m = gens[0].rows
    if any(not g.is_square() or g.rows != m for g in gens):
        raise ValueError("generators must be square and of equal size")
    if m == 0:
        raise ValueError("generators must be at least 1 x 1")
    ceiling = m * m - 1 if all(g.trace() == 0 for g in gens) else m * m
    prime, lower, skipped, reason = _modlinalg.lower_bound(
        gens, lambda prime: _modlinalg.bracket_closure_dim_mod(gens, prime, ceiling), ceiling
    )
    bounds = {"lower": lower, "ceiling": ceiling}
    if lower == ceiling:
        one, last = Fraction(1), m * m - 1
        if ceiling == m * m:
            rows = [{k: one} for k in range(m * m)]
        else:
            # the index m^2 - 1 of e_mm is the one free column; each e_ii,
            # at index k = i(m + 1), becomes e_ii - e_mm
            rows = [{k: one, last: -one} if k % (m + 1) == 0 else {k: one} for k in range(last)]
        # fresh dicts of nonzero Fractions: no entry needs checking
        basis = tuple(Matrix._trusted(m, m, row) for row in rows)
        certificate = certificate_record("modular", None, prime, skipped, bounds)
        return BracketSpace(ceiling, basis, certificate)
    certificate = certificate_record("exact", reason or f"lower {lower} != ceiling {ceiling}", prime, skipped, bounds)
    return _exact_closure(gens, ceiling, certificate)


def _exact_closure(gens: Sequence[Matrix], ceiling: int, certificate: dict) -> BracketSpace:
    """The worklist of bracket_closure over an exact echelon basis."""
    m = gens[0].rows
    span = VectorSpan(m * m)
    worklist_closure(
        span.add,
        [g.nonzeros() for g in gens],
        lambda w: (commutator(g, Matrix(m, m, w)).nonzeros() for g in gens),
        ceiling,
    )
    basis = tuple(Matrix(m, m, row) for row in span.basis_nonzeros())
    return BracketSpace(span.dim, basis, certificate)


# -- one-parameter subgroup patterns ------------------------------------


def h_window(z: Fraction, c: LieConstants) -> tuple[Fraction, Fraction, Fraction]:
    """Row i of H_i(z) in columns i-1, i and i+1, the same for every i:
    (b(1-z), z, a(1-z)). Every other row of H_i(z) is the identity's, and
    an entry outside the matrix is dropped (row_window)."""
    return c.b * (1 - z), z, c.a * (1 - z)


def subgroup_h(i: int, z, c: LieConstants) -> Matrix:
    """H_i(z) = b(1-z) e_{i,i-1} + z e_{ii} + a(1-z) e_{i,i+1} + E(i).
    H_i(1) = I and H_i(z)H_i(z') = H_i(zz'), so each H_i is a
    one-parameter group through the identity."""
    if not 1 <= i <= c.n - 1:
        raise ValueError(f"index {i} outside 1..{c.n - 1}")
    return row_window(c.size, i, *h_window(scalar(z), c), 1)


def subgroup_k(i: int, w, c: LieConstants) -> Matrix:
    """K_i(w) = b(w - w^{2-n}) e_{i,i-1} + w^{2-n} e_{ii}
    + a(w - w^{2-n}) e_{i,i+1} + w E(i), for w != 0 (the exponent 2-n
    is negative).  K_i(1) = I."""
    if not 1 <= i <= c.n - 1:
        raise ValueError(f"index {i} outside 1..{c.n - 1}")
    w = scalar(w)
    if w == 0:
        raise ValueError("w must be nonzero")
    wlow = w ** (2 - c.n)
    return row_window(c.size, i, c.b * (w - wlow), wlow, c.a * (w - wlow), w)


def finite_order_exponent(p: BurauParams) -> int | None:
    """Smallest d >= 1 with (q1^{n-2} q2)^d = 1, or None.  A rational root
    of unity is +1 or -1, so only d = 1 (q2 = q1^{2-n}) and d = 2
    (q2 = -q1^{2-n}) can occur."""
    t = p.q1 ** (p.n - 2) * p.q2
    return 1 if t == 1 else 2 if t == -1 else None


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
    h_i = tangent_generator(i, c)
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
    return det(tridiagonal_matrix(n, q).to_lists())


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
        "certificate": space.certificate,
    }
