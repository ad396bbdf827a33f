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
from functools import reduce
from itertools import product

from .burau import BurauParams, projection_p, unreduced_generator, inverse_generator
from .cellular import cell_dim, cell_labels, gl_weyl_dim, rook_dimension
from .diagrams import (
    PartialPermutation,
    projection_factorization,
    rook_elements,
    transposition,
)
from .linalg import commutant, commutant_rows, matrix_span, span_closure
from .matrix import Matrix, kron, kron_power

MATRIX_SIZE_BUDGET = 256  # largest n^r the exact commutant solvers accept


def _check_budget(n: int, r: int, budget: int | None = None) -> int:
    size = n**r
    if budget is None:
        budget = MATRIX_SIZE_BUDGET
    if size > budget:
        raise ValueError(f"matrix size n^r = {size} exceeds budget {budget}")
    return size


def _flat(j_tuple: tuple[int, ...], n: int) -> int:
    index = 0
    for j in j_tuple:
        index = index * n + (j - 1)
    return index


def _tuples(n: int, r: int):
    return product(range(1, n + 1), repeat=r)


# -- the two families of generators ---------------------------------------------


def braid_tensor_gen(i: int, p: BurauParams, r: int) -> Matrix:
    """Diagonal action of the i-th braid generator on E^(x r)."""
    return kron_power(unreduced_generator(i, p), r)


def braid_tensor_gen_inverse(i: int, p: BurauParams, r: int) -> Matrix:
    return kron_power(inverse_generator(i, p), r)


def place_permutation_op(w: tuple[int, ...], n: int) -> Matrix:
    """Op(w) e_J = e_{J o w} with (J o w)_s = J_{(s)w}."""
    r = len(w)
    m = Matrix.zeros(n**r, n**r)
    for j_tuple in _tuples(n, r):
        moved = tuple(j_tuple[w[s] - 1] for s in range(r))
        m._e[_flat(moved, n) * n**r + _flat(j_tuple, n)] = Fraction(1)
    return m


def projection_op(j: int, p: BurauParams, r: int) -> Matrix:
    """P acting in slot j: e_J picks up q^(J_j - 1) and slot j is summed
    over the full basis of E."""
    n = p.n
    mats = [projection_p(p) if s == j else Matrix.identity(n) for s in range(1, r + 1)]
    return reduce(kron, mats)


def rook_tensor_gen(kind: str, index: int, p: BurauParams, r: int) -> Matrix:
    if kind == "s":
        if not 1 <= index <= r - 1:
            raise ValueError(f"s index {index} outside 1..{r - 1}")
        w = transposition(index, index + 1, r).to_permutation()
        return place_permutation_op(w, p.n)
    if kind == "p":
        if not 1 <= index <= r:
            raise ValueError(f"p index {index} outside 1..{r}")
        return projection_op(index, p, r)
    raise ValueError(f"unknown tensor generator kind {kind!r}")


def diagram_op(d: PartialPermutation, p: BurauParams, r: int) -> Matrix:
    """Operator of a basis diagram, realized through its factorization
    d = (prod of p_j over j outside dom(d)) followed by any extension w(d)."""
    if d.r != r:
        raise ValueError("size mismatch")
    x_rest, w, _ = projection_factorization(d)
    op = Matrix.identity(p.n**r)
    for j in sorted(x_rest):
        op = op * projection_op(j, p, r)
    return op * place_permutation_op(w, p.n)


def diagram_op_direct(d: PartialPermutation, p: BurauParams, r: int) -> Matrix:
    """Same operator from the basis-vector rule: e_J goes to the product of
    q^(J_t - 1) over t outside im(d), times the sum of all e_K with
    K_s = J_{(s)d} on dom(d) and the other slots free."""
    if d.r != r:
        raise ValueError("size mismatch")
    n, q = p.n, p.q
    size = n**r
    m = Matrix.zeros(size, size)
    mapping = d.mapping()
    free_slots = [s for s in range(1, r + 1) if s not in d.dom]
    for j_tuple in _tuples(n, r):
        coeff = Fraction(1)
        for t in range(1, r + 1):
            if t not in d.im:
                coeff *= q ** (j_tuple[t - 1] - 1)
        base = {s: j_tuple[mapping[s] - 1] for s in d.dom}
        for fill in product(range(1, n + 1), repeat=len(free_slots)):
            k_tuple = tuple(
                base[s] if s in base else fill[free_slots.index(s)]
                for s in range(1, r + 1)
            )
            m._e[_flat(k_tuple, n) * size + _flat(j_tuple, n)] += coeff
    return m


# -- centralizers and enveloping algebras -----------------------------------------


def braid_generators(p: BurauParams, r: int) -> list[Matrix]:
    return [braid_tensor_gen(i, p, r) for i in range(1, p.n)]


def rook_generators(p: BurauParams, r: int) -> list[Matrix]:
    gens = [rook_tensor_gen("s", i, p, r) for i in range(1, r)]
    gens += [rook_tensor_gen("p", j, p, r) for j in range(1, r + 1)]
    return gens


def centralizer_of_braid(
    n: int, r: int, p: BurauParams, budget: int | None = None
) -> tuple[int, list[Matrix]]:
    _check_budget(n, r, budget)
    return commutant(braid_generators(p, r), size=n**r)


def rook_image(
    n: int, r: int, p: BurauParams, budget: int | None = None
) -> tuple[int, list[Matrix]]:
    """Span of the operators of all diagram basis elements; this is the full
    image algebra since the basis spans and the action is multiplicative."""
    _check_budget(n, r, budget)
    ops = [diagram_op(d, p, r) for d in rook_elements(r)]
    span = matrix_span(ops)
    basis = [Matrix.from_flat(n**r, n**r, row) for row in span.basis_rows()]
    return span.dim, basis


def enveloping_braid(
    n: int, r: int, p: BurauParams, budget: int | None = None
) -> tuple[int, list[Matrix]]:
    """Unital algebra generated by the braid generators and their inverses;
    the inverses lie in the algebra of the forward generators (quadratic
    relation), so closing under forward multipliers suffices."""
    _check_budget(n, r, budget)
    gens = braid_generators(p, r)
    seed = gens + [braid_tensor_gen_inverse(i, p, r) for i in range(1, n)]
    return span_closure(seed, multipliers=gens)


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


def _dimension_sandwich(p: BurauParams, r: int, braid_gens, rook_gens) -> dict:
    """The certificate of duality_report: the four one-sided dimension
    bounds at the first listed prime that divides no denominator of the
    matrices involved, and whether their ends meet."""
    from . import _modlinalg

    ops = [diagram_op(d, p, r) for d in rook_elements(r)]
    braid_invs = [braid_tensor_gen_inverse(i, p, r) for i in range(1, p.n)]
    size = braid_gens[0].rows
    unknowns = size * size
    skipped = []
    for prime in _modlinalg.SANDWICH_PRIMES:
        if not _modlinalg.is_p_integral([*braid_gens, *braid_invs, *rook_gens, *ops], prime):
            skipped.append(prime)
            continue
        braid_res = [_modlinalg.residues(g, prime) for g in braid_gens]
        inv_res = [_modlinalg.residues(g, prime) for g in braid_invs]
        op_rows = [[(j, v) for j, v in enumerate(m.entries()) if v] for m in ops]
        bounds = {
            "image_lower": _modlinalg.rank_mod(op_rows, unknowns, prime),
            "braid_centralizer_upper": unknowns
            - _modlinalg.rank_mod(commutant_rows(braid_gens), unknowns, prime),
            "envelope_lower": _modlinalg.closure_dim_mod(braid_res + inv_res, braid_res, prime),
            # the s_i and p_1 alone: their commutant contains C(rook gens),
            # so its nullity is still an upper bound, and it is equal since
            # every p_j is conjugate to p_1 by place permutations
            "rook_centralizer_upper": unknowns
            - _modlinalg.rank_mod(commutant_rows(rook_gens[:r]), unknowns, prime),
        }
        met = (bounds["image_lower"], bounds["envelope_lower"]) == (
            bounds["braid_centralizer_upper"],
            bounds["rook_centralizer_upper"],
        )
        return _certificate(
            "sandwich" if met else "exact",
            None if met else f"bounds do not meet mod {prime}",
            prime,
            skipped,
            bounds,
        )
    return _certificate("exact", "every listed prime divides a denominator", None, skipped)


def _certificate(path, reason, prime=None, skipped=(), bounds=None) -> dict:
    return {
        "path": path,
        "prime": prime,
        "primes_skipped": list(skipped),
        "bounds": bounds,
        "fallback_reason": reason,
    }


def _report_check(name: str, ok: bool, detail: str) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def duality_report(n: int, r: int, p: BurauParams, budget: int | None = None) -> dict:
    """Five exact identities tying the two actions together, plus the
    faithfulness verdict (faithful exactly when n > r).

    The two double-centralizer identities rest on containment plus
    dimension. The exact check that every braid generator commutes with
    every s_i and p_j operator gives both containments:
    - image <= C(braid gens): every diagram operator is a product of s_i
      and p_j operators (projections, then a place permutation);
    - envelope <= C(rook gens): the inverse of a matrix commuting with g
      commutes with g too, and C(rook gens) = C(image), since those
      operators generate the image algebra.
    A subspace of the same dimension is the whole space, so each identity
    is "commute and dim == dim".

    The dimensions come from a sandwich over one prime p that divides no
    denominator of the matrices involved:
        rank_p(diagram ops) <= dim image <= dim C(braid gens)
            <= nullity_p(braid commutant system),
        dim_p(mod-p closure) <= dim envelope <= dim C(rook gens)
            <= nullity_p(commutant system of the s_i and p_1).
    The outer bounds hold because rank_p <= rank_Q for a p-integral
    matrix, because C(rook gens) lies inside the commutant of the subset
    {s_i, p_1}, and because the mod-p closure of the reduced braid generators
    and inverses is spanned by the reduction of the Z_(p)-lattice of their
    products, a lattice of rank dim envelope. When both pairs of ends meet,
    every dimension in the chains is certified exactly ("sandwich" path).
    Otherwise (an unlucky prime, no usable prime, or non-commuting actions)
    the exact centralizer, image, envelope and commutant dimensions are
    computed instead ("exact" path). report["certificate"] records the
    path, the prime, the skipped primes and the four bounds.
    """
    _check_budget(n, r, budget)
    if p.n != n:
        raise ValueError("params built for a different n")
    z = p.quantum(n)
    braid_gens = braid_generators(p, r)
    rook_gens = rook_generators(p, r)

    commute = all(b * g == g * b for b in braid_gens for g in rook_gens)

    if commute:
        certificate = _dimension_sandwich(p, r, braid_gens, rook_gens)
    else:
        certificate = _certificate("exact", "actions do not commute")

    if certificate["path"] == "sandwich":
        bounds = certificate["bounds"]
        img_dim = cent_dim = bounds["image_lower"]
        env_dim = cent_of_img_dim = bounds["envelope_lower"]
        mod = f"sandwich mod {certificate['prime']}"
        img_how = f"{mod}: rank_p {img_dim} <= image <= C(braid) <= nullity_p {cent_dim}"
        env_how = f"{mod}: closure_p {env_dim} <= envelope <= C(rook) <= nullity_p {cent_of_img_dim}"
    else:
        cent_dim, _ = centralizer_of_braid(n, r, p, budget)
        img_dim, _ = rook_image(n, r, p, budget)
        env_dim, _ = enveloping_braid(n, r, p, budget)
        cent_of_img_dim, _ = commutant(rook_gens, size=n**r)
        img_how = env_how = f"exact dimensions; {certificate['fallback_reason']}"
    env_eq = commute and env_dim == cent_of_img_dim
    img_eq = commute and img_dim == cent_dim
    dim_sum = expected_centralizer_dim(n, r)
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
    swaps = [rook_tensor_gen("s", i, p, r) for i in range(1, r)]
    return commutant(swaps, size=n**r)


def schur_algebra_intersection(n: int, r: int, p: BurauParams) -> tuple[int, list[Matrix]]:
    """S(n,r) cut down to the elements commuting with the slot-1 projection;
    the joint commutant of the place permutations and p_1."""
    _check_budget(n, r)
    gens = [rook_tensor_gen("s", i, p, r) for i in range(1, r)]
    gens.append(rook_tensor_gen("p", 1, p, r))
    return commutant(gens, size=n**r)


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
