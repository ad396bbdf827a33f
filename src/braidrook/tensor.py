"""Two commuting actions on the tensor power E^(x r) of E = Q^n: the braid
group acts diagonally through the unreduced Burau matrices, and the
partial-permutation algebra at z = [n]_q acts by place permutations and the
rank-one projection P in each slot.

Basis tensors e_J are indexed by tuples J in {1..n}^r, flattened with the
first slot most significant (matching the Kronecker product layout). All
maps compose left to right, so Op(d1 d2) = Op(d1) Op(d2) and the operator
product of two diagram images picks up the same z^N factor as the diagrams.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Sequence

from . import _modlinalg
from .burau import BurauParams, block_generators, unreduced_generator
from .cellular import (
    cell_dim,
    cell_labels,
    generator_rows,
    gl_weyl_dim,
    groupoid_dimensions,
    groupoid_failure,
    rook_dimension,
)
from .diagrams import (
    PartialPermutation,
    cycle_link_decompose,
    generator_diagrams,
    rook_elements,
)
from .linalg import certificate_record, commutant, matrix_span, span_closure
from .matrix import Matrix, integer_form, kron_power, rows_of, sparse_product
from .scalars import IdentityError

MATRIX_SIZE_BUDGET = 256  # largest n^r the exact commutant solvers accept


def _check_budget(n: int, r: int, budget: int | None = None) -> None:
    size = n**r
    if budget is None:
        budget = MATRIX_SIZE_BUDGET
    if size > budget:
        raise ValueError(f"matrix size n^r = {size} exceeds budget {budget}")


# -- the two families of generators ---------------------------------------------


def diagram_op(d: PartialPermutation, p: BurauParams, r: int) -> Matrix:
    """Operator of a basis diagram, in closed form: e_J goes to the product
    of q^(J_t - 1) over the slots t outside im(d), times the sum of the e_K
    with K_s = J_(d(s)) for s in dom(d) and every other slot free.

    On a permutation w this is the place permutation e_J -> e_(J o w),
    (J o w)_s = J_(w(s)); on p_j it is the rank-one projection P of
    burau.projection_p in slot j (Halverson-Ram, "Partition algebras", 2005,
    for the diagram action)."""
    if d.r != r:
        raise ValueError("size mismatch")
    n = p.n
    size = n**r
    weight = [n ** (r - s) for s in range(1, r + 1)]  # of slot s in the flat index
    q_power = [p.q**k for k in range(n)]
    # slot s of K copies slot d(s) of J; digits are J_t - 1, slots 0-based
    copied = [(weight[s - 1], t - 1) for s, t in d.pairs]
    weighted = [t - 1 for t in range(1, r + 1) if t not in d.im]
    free = [weight[s - 1] for s in range(1, r + 1) if s not in d.dom]
    fills = [sum(k * w for k, w in zip(ks, free)) for ks in product(range(n), repeat=len(free))]
    entries = {}
    for col, digits in enumerate(product(range(n), repeat=r)):
        coeff = Fraction(1)
        for t in weighted:
            coeff *= q_power[digits[t]]
        row = sum(w * digits[t] for w, t in copied)
        for fill in fills:
            entries[(row + fill) * size + col] = coeff
    return Matrix(size, size, entries)


# -- centralizers and enveloping algebras -----------------------------------------


def braid_generators(p: BurauParams, r: int) -> list[Matrix]:
    """The diagonal action T_i^(x r) of each braid generator on E^(x r)."""
    return [kron_power(unreduced_generator(i, p), r) for i in range(1, p.n)]


def rook_generators(p: BurauParams, r: int) -> list[Matrix]:
    """The operators of the paper's generators s_1..s_(r-1), p_1."""
    return [diagram_op(d, p, r) for d in generator_diagrams(r)]


def centralizer_of_braid(n: int, r: int, p: BurauParams) -> tuple[int, list[Matrix]]:
    _check_budget(n, r)
    return commutant(braid_generators(p, r), size=n**r)


def rook_image(ops: Sequence[Matrix]) -> int:
    """Dimension of the span of ops, the operators of all diagram basis
    elements; this is the full image algebra since the basis spans and the
    action is multiplicative."""
    return matrix_span(ops).dim


def enveloping_braid(n: int, r: int, p: BurauParams) -> tuple[int, list[Matrix]]:
    """The algebra spanned by the image of B_n on E^(x r): the unital
    algebra of the generators T_i^(x r) alone. Each is invertible, as
    q1 q2 != 0, so by Cayley-Hamilton its inverse is a polynomial in it
    (linalg.span_closure)."""
    _check_budget(n, r)
    return span_closure(braid_generators(p, r))


def expected_centralizer_dim(n: int, r: int) -> int:
    return sum(
        cell_dim(r, label.parts) ** 2
        for label in cell_labels(r)
        if label.fits_length(n)
    )


def expected_enveloping_dim(n: int, r: int) -> int:
    return sum(
        gl_weyl_dim(label.parts, n - 1) ** 2
        for label in cell_labels(r)
        if label.fits_length(n)
    )


def bimodule_dimension_sum(n: int, r: int) -> int:
    return sum(
        gl_weyl_dim(label.parts, n - 1) * cell_dim(r, label.parts)
        for label in cell_labels(r)
        if label.fits_length(n)
    )


# -- the duality report --------------------------------------------------------------


def _homomorphism_failure(basis, den, ints, rows, z: Fraction, r: int, size: int) -> str | None:
    """None when op(1) = 1 and op(g) op(d) = z^N op(gd) for every generator
    g = s_1..s_(r-1), p_1 and every basis diagram d, with g and
    gd = z^N a_k read off rows = cellular.generator_rows(basis); otherwise
    the first failure.

    The check runs on integers: every operator entry is a power of q, so
    one common denominator D makes every M = D op(a) an integer matrix, and
    (den, ints) = integer_form(ops) holds D and the M. So op(1) = 1 reads
    M(1) = D 1, and the identity reads den(z)^N M(g) M(d) = D num(z)^N M(gd)."""
    one = basis.index(PartialPermutation.identity(r))
    if ints[one] != {k * (size + 1): den for k in range(size)}:
        return "op(identity) is not the identity matrix"
    by_rows = [rows_of(m, size) for m in ints]
    for gi, row in rows:
        for d, (k, dropped), d_rows in zip(basis, row, by_rows):
            lhs, rhs = z.denominator**dropped, den * z.numerator**dropped
            prod = sparse_product(ints[gi], d_rows, size, size)
            if {i: v * lhs for i, v in prod.items()} != {i: v * rhs for i, v in ints[k].items()}:
                return f"op(g) op(d) != z^{dropped} op(gd) at g = {basis[gi]!r}, d = {d!r}"
    return None


def _all_commute(left: Sequence[Matrix], right: Sequence[Matrix]) -> bool:
    """Whether ab = ba for every a in left and b in right, n x n matrices,
    checked on their integer_form (duality_report says why that is exact)."""
    n, k = left[0].rows, len(left)
    _, ints = integer_form([*left, *right])
    with_rows = [(m, rows_of(m, n)) for m in ints]
    return all(
        sparse_product(a, b_rows, n, n) == sparse_product(b, a_rows, n, n)
        for a, a_rows in with_rows[:k]
        for b, b_rows in with_rows[k:]
    )


def _character_certificate(p: BurauParams, r: int, basis, ops, rows) -> dict:
    """The certificate of duality_report, given the operators ops of the
    basis diagrams and their generator_rows: the homomorphism, groupoid and
    character checks, the two q-free dimensions of
    cellular.groupoid_dimensions, and the mod-p closure of
    burau.block_generators, with its prime from _modlinalg.lower_bound."""
    z = p.quantum(p.n)
    if z == 0:
        return certificate_record("exact", "z = [n]_q = 0 has no rescaled basis")
    try:
        blocks = block_generators(p, r)
    except IdentityError as e:
        return certificate_record("exact", str(e))
    size = ops[0].rows
    den, ints = integer_form(ops)
    failure = _homomorphism_failure(basis, den, ints, rows, z, r, size)
    failure = failure or groupoid_failure(basis, rows)
    if failure:
        return certificate_record("exact", failure)
    # the trace of the rescaled operator z^-(r - rank a) op(a), read off D op(a)
    traces = [sum(m.get(k * (size + 1), 0) for k in range(size)) for m in ints]
    chi = [Fraction(t, den) / z ** (r - d.rank) for d, t in zip(basis, traces)]
    for d, x in zip(basis, chi):
        cycles = sum(kind == "cycle" for kind, _ in cycle_link_decompose(d))
        if x != p.n**cycles:
            reason = f"character {x} != n^cyc = {p.n ** cycles} at {d!r}"
            return certificate_record("exact", reason)
    # sum m_lam^2, an integer; compared exactly below
    rook_cent, rook_img = groupoid_dimensions(basis, chi)
    bounds = {"envelope_lower": None, "rook_centralizer": int(rook_cent), "rook_image": rook_img}
    # the commute check and the checks above proved
    # dim envelope <= dim C(image) = rook_cent, so the closure stops there
    prime, bounds["envelope_lower"], skipped, reason = _modlinalg.lower_bound(
        blocks, lambda prime: _modlinalg.closure_dim_mod(blocks, prime, rook_cent), rook_cent
    )
    return certificate_record("exact" if reason else "character", reason, prime, skipped, bounds)


def _report_check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def duality_report(n: int, r: int, p: BurauParams, budget: int | None = None) -> dict:
    """Six exact identities tying the two actions together, plus the
    faithfulness verdict (faithful exactly when n > r).

    The two double-centralizer identities rest on containment plus
    dimension. The exact check that every braid generator commutes with
    the operators of the paper's generators s_1..s_(r-1), p_1 gives both
    containments:
    - image <= C(braid gens): every diagram operator is a product of those
      operators. The closed form of diagram_op gives
      op(d) = (prod of op(p_j) over j outside dom(d)) op(w) for any
      permutation w that extends d, op(w) is the product of the op(s_i)
      along a word for w, and op(p_j) = op((1 j)) op(p_1) op((1 j)); the
      tests check these identities on every basis diagram and every j up
      to r = 4 (test_factorized_matches_direct_action,
      test_permutation_operator_is_a_product_of_swaps and
      test_projection_operator_is_conjugate_to_p1 in tests/test_tensor.py);
    - envelope <= C(rook gens): the envelope is the unital algebra of the
      braid generators alone (span_closure), so it commutes with
      whatever they commute with, and C(rook gens) = C(image), since those
      operators generate the image algebra.
    A subspace of the same dimension is the whole space, so each identity
    is "commute and dim == dim". The commute check runs on integers
    (_all_commute): with D the lcm of every denominator of the generators,
    (Da)(Db) = D^2 ab and D != 0, so Da and Db commute exactly when a and b
    do, and no verdict depends on the scaling.

    The dimensions come from the rook character ("character" path), for
    z = [n]_q != 0, through the rescaled operators
    rho(a) = z^-(r - rank a) op(a) and the monoid algebra A = Q[R_r]. The
    operators of the paper's generators and every gd = z^N a_k come from
    cellular.generator_rows, which checks N = r + rank(gd) - rank g - rank d
    on each entry. Four steps, all exact, none on an m x m matrix,
    m = |R_r|:
    - Homomorphism. op(1) = 1 and op(g) op(d) = z^N op(gd) for every
      generator g and every basis diagram d. With the N identity of g's
      row this is rho(g) rho(d) = rho(gd). For a word x = g x' in the
      generators, rho(x d) = rho(g) rho(x' d) = rho(g) rho(x') rho(d) =
      rho(x) rho(d) by induction, and the generators generate R_r. So rho
      is a monoid map from R_r, op spans the same image as rho, and V is
      an A-module through rho; only the r generator rows need the identity.
    - Groupoid. cellular.groupoid_failure checks on the same rows that
      Steinberg's phi is an algebra isomorphism from A onto the groupoid
      algebra, the sum over k of M_C(r,k)(Q S_k). So A is semisimple.
    - Character. chi(a) = tr op(a) / z^(r - rank a) must equal n^cyc(a),
      cyc(a) the number of cycles of a: the character of V is q-free.
    - Dimensions (cellular.groupoid_dimensions). Through phi, V is the
      sum over k of C(r,k) copies of an S_k-module W_k whose character
      psi_k(s) = sum over T in {1..k} of (-1)^(k - |T|) chi(s|T) is the
      Moebius inversion of chi. So C(image) = End_A(V) has dimension
      sum_k <psi_k, psi_k>, and the image, the sum of the images of the
      blocks, has dimension sum_k C(r,k)^2 rank [psi_k(s t^-1)], a k! x k!
      matrix: the trace form tr_W(xy) of the semisimple image of Q S_k is
      nondegenerate on it and zero on the kernel.
    The braid side enters by one lower bound. The envelope has the
    dimension of the unital algebra of the B_i on the reduced blocks U
    (burau.block_generators). Reduce the B_i mod a prime p that divides
    none of their denominators: the Z_(p)-span of their products is a
    lattice of rank dim envelope, and its reduction spans the mod-p
    closure, so
        closure_p <= dim envelope <= dim C(image) = sum_k <psi_k, psi_k>.
    The closure stops once it reaches the right end, which loses nothing.
    When the ends meet, the envelope is C(image). The image is
    semisimple, so the double centralizer theorem gives
    C(braid gens) = C(envelope) = C(C(image)) = image, and
    dim C(braid gens) = dim image with no further computation.

    A miss at one prime moves on to the next listed prime, keeping the
    largest lower bound. The exact centralizer, image, envelope and
    commutant dimensions are computed instead ("exact" path), on the
    generators and basis operators already built, when the
    actions do not commute, when z = 0, when the split check of the B_i,
    or the homomorphism, groupoid or character check fails, when the
    bounds miss at every listed prime, and when every listed prime divides
    a denominator. The N identity is q-free, so its failure is a fault of
    the diagram code: generator_rows raises IdentityError, as it does in
    cellular.semisimplicity_certificate.
    report["certificate"] records the path, the prime, the skipped primes,
    the bounds (envelope_lower, rook_centralizer = sum_k <psi_k, psi_k>,
    rook_image = sum_k C(r,k)^2 rank psi_k) and the reason for the exact
    path.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_budget(n, r, budget)
    if p.n != n:
        raise ValueError("params built for a different n")
    z = p.quantum(n)
    braid_gens = braid_generators(p, r)
    # every diagram operator once; the generators' operators are among them
    basis = rook_elements(r)
    ops = [diagram_op(d, p, r) for d in basis]
    rows = generator_rows(basis)
    rook_gens = [ops[gi] for gi, _ in rows]

    commute = _all_commute(braid_gens, rook_gens)

    if commute:
        certificate = _character_certificate(p, r, basis, ops, rows)
    else:
        certificate = certificate_record("exact", "actions do not commute")

    if certificate["path"] == "character":
        bounds = certificate["bounds"]
        img_dim = cent_dim = bounds["rook_image"]
        env_dim = cent_of_img_dim = bounds["rook_centralizer"]
        mod = f"character, closure mod {certificate['prime']}"
        img_how = (
            f"{mod}: image = sum C(r,k)^2 rank psi_k = {img_dim}, C(braid) = C(C(image)) = image"
        )
        env_how = (
            f"{mod}: closure_p {env_dim} <= envelope <= C(rook) = sum <psi_k, psi_k> "
            f"{cent_of_img_dim}"
        )
    else:
        cent_dim, _ = commutant(braid_gens, size=n**r)
        img_dim = rook_image(ops)
        env_dim, _ = span_closure(braid_gens)
        cent_of_img_dim, _ = commutant(rook_gens, size=n**r)
        img_how = env_how = f"exact dimensions; {certificate['fallback_reason']}"
    env_eq = commute and env_dim == cent_of_img_dim
    img_eq = commute and img_dim == cent_dim
    dim_sum = expected_centralizer_dim(n, r)
    env_sum = expected_enveloping_dim(n, r)
    bim_sum = bimodule_dimension_sum(n, r)

    checks = [
        _report_check(
            "enveloping_equals_centralizer_of_rook_image",
            env_eq,
            f"enveloping dim {env_dim}, centralizer of rook image dim {cent_of_img_dim} ({env_how})",
        ),
        _report_check(
            "rook_image_equals_centralizer_of_braid",
            img_eq,
            f"rook image dim {img_dim}, braid centralizer dim {cent_dim} ({img_how})",
        ),
        _report_check(
            "centralizer_dimension_sum",
            cent_dim == dim_sum,
            f"centralizer dim {cent_dim}, sum of squared cell dims {dim_sum}",
        ),
        _report_check(
            "enveloping_dimension_sum",
            env_dim == env_sum,
            f"enveloping dim {env_dim}, sum of squared GL_(n-1) Weyl dims {env_sum}",
        ),
        _report_check(
            "actions_commute",
            commute,
            f"{len(braid_gens)} braid generators against {len(rook_gens)} rook generators",
        ),
        _report_check(
            "weyl_times_cell_dimension_sum",
            bim_sum == n**r,
            f"sum {bim_sum}, tensor space dimension {n ** r}",
        ),
    ]
    rook_dim = rook_dimension(r)
    faithful_observed = img_dim == rook_dim
    faithful_expected = n > r
    checks.append(
        _report_check(
            "faithful_iff_n_greater_r",
            faithful_observed == faithful_expected,
            f"image dim {img_dim} of {rook_dim}; n > r is {faithful_expected}",
        )
    )
    return {
        "n": n,
        "r": r,
        "q1": str(p.q1),
        "q2": str(p.q2),
        "z": str(z),
        "checks": checks,
        "certificate": certificate,
        "faithful": faithful_observed,
        "all_pass": all(c["status"] == "pass" for c in checks),
    }


# -- Schur algebra ---------------------------------------------------------------------


def schur_algebra(n: int, r: int, p: BurauParams) -> tuple[int, list[Matrix]]:
    """S(n,r): the centralizer of the place-permutation action alone."""
    _check_budget(n, r)
    return commutant(rook_generators(p, r)[:-1], size=n**r)


def schur_algebra_intersection(n: int, r: int, p: BurauParams) -> tuple[int, list[Matrix]]:
    """S(n,r) cut down to the elements commuting with the slot-1 projection;
    the joint commutant of the place permutations and p_1."""
    _check_budget(n, r)
    return commutant(rook_generators(p, r), size=n**r)


def schur_intersection_shape_basis(q) -> list[Matrix]:
    """Basis of the three-parameter matrix family that S'_q(2,2) fills:
    set one of the free entries (x1, x4, x8) to 1 and the rest to 0."""
    q = Fraction(q)

    def shape(x1: Fraction, x4: Fraction, x8: Fraction) -> Matrix:
        return Matrix.from_rows(
            [
                [x1, q * x4, q * x4, q * q * x8],
                [x4, x1 + (q - 1) * x4, q * x8, q * x4 + (q - 1) * q * x8],
                [x4, q * x8, x1 + (q - 1) * x4, q * x4 + (q - 1) * q * x8],
                [
                    x8,
                    x4 + (q - 1) * x8,
                    x4 + (q - 1) * x8,
                    x1 + 2 * (q - 1) * x4 + (q - 1) ** 2 * x8,
                ],
            ]
        )

    one = Fraction(1)
    zero = Fraction(0)
    return [shape(one, zero, zero), shape(zero, one, zero), shape(zero, zero, one)]


def q1_special_solve(n: int):
    """A rational q with [n]_q = n that is not a root of unity, when one
    exists: rational-root search on q^(n-1) + ... + q + (1 - n) = 0
    (integer candidates dividing n - 1), excluding q in {0, 1, -1}."""
    if n < 3:
        raise ValueError("needs n >= 3")
    for d in range(1, n):
        if (n - 1) % d:
            continue
        for q in (Fraction(d), Fraction(-d)):
            if q in (0, 1, -1):
                continue
            if sum(q**j for j in range(n)) == n:
                return q
    return None
