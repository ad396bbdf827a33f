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
from itertools import accumulate, pairwise, product
from math import prod
from typing import Mapping, Sequence

from . import _modlinalg
from .burau import BurauParams, split_generators, unreduced_generator
from .cellular import (
    groupoid_dimensions,
    partition_label,
    partitions_of,
    rook_dimension,
    shape_dimensions,
    steinberg_failure,
)
from .diagrams import (
    PartialPermutation,
    check_enumeration_bound,
    generator_diagrams,
    projection,
    relations,
    rook_elements,
)
from .linalg import certificate_record, commutant, matrix_span, span_closure
from .matrix import Matrix, integer_form, kron_power
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
    # slot s of K copies slot d(s) of J; digits are J_t - 1, slots 0-based
    copied = [(weight[s - 1], t - 1) for s, t in d.pairs]
    weighted = [t - 1 for t in range(1, r + 1) if t not in d.im]
    q_power = [p.q**k for k in range((n - 1) * len(weighted) + 1)]
    free = [weight[s - 1] for s in range(1, r + 1) if s not in d.dom]
    fills = [sum(k * w for k, w in zip(ks, free)) for ks in product(range(n), repeat=len(free))]
    entries = {}
    for col, digits in enumerate(product(range(n), repeat=r)):
        coeff = q_power[sum(digits[t] for t in weighted)]
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


# -- the duality report --------------------------------------------------------------


def _packed_product(a: Mapping[int, int], x: Sequence[int], size: int) -> list[int]:
    """The product a x of size x size integer matrices, a by its nonzeros
    {row-major index: int} and x by its packed rows: row t of x is the one
    int sum_j x_tj 2^(W j) (Kronecker substitution), and row i of a x is
    sum_t a_it x_t, one big-int multiply-add per nonzero of a. Packing is
    linear, so the result is a x packed with the same W."""
    out = [0] * size
    for idx, v in a.items():
        i, t = divmod(idx, size)
        out[i] += v * x[t]
    return out


def _packed_trace(x: Sequence[int], width: int) -> int:
    """The trace of a matrix by its packed rows of width-bit slots, every
    entry below 2^(width - 1) in absolute value: slot i of row i, read after
    adding 2^(width - 1) to every slot, so that no borrow crosses a slot."""
    half = 1 << width - 1
    shift = half * sum(1 << width * j for j in range(len(x)))
    return sum((((row + shift) >> width * i) & (2 * half - 1)) - half for i, row in enumerate(x))


def _all_commute(left: Sequence[Matrix], right: Sequence[Matrix]) -> bool:
    """Whether ab = ba for every a in left and b in right, n x n matrices,
    checked on the packed rows of their integer_form (duality_report says
    why that is exact)."""
    n, k = left[0].rows, len(left)
    _, ints = integer_form([*left, *right])
    words = [w for i in range(k) for j in range(k, len(ints)) for w in ((i, j), (j, i))]
    _, products = _word_products(words, dict(enumerate(ints)), n)
    return all(products[(i, j)] == products[(j, i)] for i, j in words[::2])


def _word_products(words: list[tuple], letters: dict, size: int, ratio: int = 1) -> tuple[int, dict]:
    """(W, {w: M(w)}) over the words w and their suffixes, given
    letters = {d: D op(d) by its nonzeros} (integer_form): M(w) = D^len(w) op(w)
    by its packed rows of W-bit slots (_packed_product), the empty word the
    identity, each suffix multiplied once, by its first letter.
    W = bit_length(2 ratio N^L) + 1, N >= 1 the largest row sum of |entries|
    of a letter and L the longest word (_operator_failure says why it
    suffices)."""
    norm = 1
    for m in letters.values():
        sums = [0] * size
        for idx, v in m.items():
            sums[idx // size] += abs(v)
        norm = max(norm, *sums)
    width = (2 * ratio * norm ** max(map(len, words), default=0)).bit_length() + 1
    out = {(): [1 << width * i for i in range(size)]}
    for word in words:
        for t in reversed(range(len(word))):
            if word[t:] not in out:
                out[word[t:]] = _packed_product(letters[word[t]], out[word[t + 1 :]], size)
    return width, out


def _operator_failure(p: BurauParams, r: int, ops: dict, rels: list, swaps: list) -> str | None:
    """None when the rescaled operators rho(d) = z^-(r - rank d) op(d) of the
    letters, ops = {d: op(d)}, satisfy every chain of rels =
    diagrams.relations(r) and tr rho(x) = n^l(mu) on the class word x of
    each (k, mu), mu a partition of k <= r (the permutation of {1..k} with
    cycles mu, built from swaps = s_1..s_(r-1), then p_(k+1)..p_r);
    otherwise the first failure. Both read the integer _word_products
    M(w): rho(w) = M(w) c(w), c(w) = prod of c[d] over w.

    Each M(w) is one int per row, row i packed as sum_j M_ij 2^(W j).
    Packing is linear, and packs no nonzero vector whose entries are below
    2^(W - 1) in absolute value to 0. Let N >= 1 be the largest row sum of
    |entries| of a letter, L the longest word (relation and class words
    alike) and S the largest |numerator| or denominator of a relation's
    ratio x = c(first)/c(word). Every entry of an M(w) is then at most N^L
    (an entry of AB is at most N times the largest entry of B, for A a
    letter), and every entry of x.numerator M(first) - x.denominator M(word)
    at most 2 S N^L; W = bit_length(2 S N^L) + 1 puts both below 2^(W - 1). So
    rho(first) = rho(word) exactly when the packed rows agree after
    scaling, and _packed_trace reads tr M(x) exactly."""
    z, size = p.quantum(p.n), p.n**r
    ps, classes = [projection(j, r) for j in range(1, r + 1)], []
    for k in range(r + 1):
        for mu in partitions_of(k):
            word = []
            for a, b in pairwise((0, *accumulate(mu))):
                word += swaps[a : b - 1]  # the cycle on {a+1..b} is s_(a+1) ... s_(b-1)
            classes.append((k, mu, (*word, *ps[k:])))
    den, ints = integer_form(ops.values())
    c = {d: z ** (d.rank - r) / den for d in ops}  # rho(d) = c[d] M(d)
    # rho(first) = rho(word) iff x M(first) = M(word), x = c(first) / c(word)
    x = {(first, w): prod(map(c.get, first)) / prod(map(c.get, w)) for _, (first, *rest) in rels for w in rest}
    words = [word for _, chain in rels for word in chain] + [word for *_, word in classes]
    ratio = max((max(abs(v.numerator), v.denominator) for v in x.values()), default=1)
    width, products = _word_products(words, dict(zip(ops, ints)), size, ratio)
    for name, (first, *rest) in rels:
        for word in rest:
            u, v = x[first, word].as_integer_ratio()
            if [u * row for row in products[first]] != [v * row for row in products[word]]:
                return f"{name} fails on the rescaled operators"
    for k, mu, word in classes:
        chi = prod(map(c.get, word)) * _packed_trace(products[word], width)
        if chi != p.n ** len(mu):
            where = f"the class word of k = {k}, mu = {partition_label(mu)}"
            return f"character {chi} != n^cyc = {p.n ** len(mu)} at {where}"
    return None


def _character_certificate(p: BurauParams, r: int, ops: dict, rels, swaps, shapes) -> dict:
    """The certificate of duality_report from the letter operators ops of
    rels = diagrams.relations(r) and swaps = s_1..s_(r-1): the relations,
    groupoid and character checks, cellular.groupoid_dimensions, and the
    shape-by-shape bound _modlinalg.envelope_bound on
    shapes = [(lambda, d_lambda)] at the prime of _modlinalg.lower_bound.
    The path is "character" only when that bound equals
    sum <psi_k, psi_k>, an integer."""
    z = p.quantum(p.n)
    if z == 0:
        return certificate_record("exact", "z = [n]_q = 0 has no rescaled basis")
    try:
        gens = [Matrix.diagonal([p.q1]), *split_generators(p)]
    except IdentityError as e:
        return certificate_record("exact", str(e))
    failure = _operator_failure(p, r, ops, rels, swaps) or steinberg_failure(r, rels)
    if failure:
        return certificate_record("exact", failure)
    rook_cent, rook_img = groupoid_dimensions(p.n, r)
    if rook_cent.denominator != 1:
        return certificate_record("exact", f"sum <psi_k, psi_k> = {rook_cent} is not an integer")
    records = {}

    def bound(prime):
        records[prime] = _modlinalg.envelope_bound(gens, r, shapes, prime)
        return records[prime][0]

    prime, lower, skipped, reason = _modlinalg.lower_bound(gens, bound, rook_cent)
    bounds = {"envelope_lower": lower, "rook_centralizer": int(rook_cent), "rook_image": rook_img}
    met = lower == rook_cent  # the numbers decide; the search's reason only explains a miss
    reason = None if met else reason or f"envelope_lower {lower} != rook_centralizer {rook_cent}"
    certificate = certificate_record("character" if met else "exact", reason, prime, skipped, bounds)
    certificate["shapes"] = records[prime][1] if prime else None
    return certificate


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
    do, and no verdict depends on the scaling. It compares (Da)(Db) with
    (Db)(Da) row by row on packed rows, row i one int sum_j x_ij 2^(W j)
    (the _operator_failure argument with L = 2 and S = 1): with N >= 1 the
    largest row sum of |entries| of a Da, every entry of the difference is
    at most 2 N^2 < 2^(W - 1) for W = bit_length(2 N^2) + 1, which packs to
    0 only when it is 0, so equal rows mean equal products.

    The dimensions come from the rook character ("character" path), for
    z = [n]_q != 0, through the rescaled operators
    rho(d) = z^-(r - rank d) op(d) and the monoid algebra A = Q[R_r]. Four
    steps, all exact; only the letters of diagrams.relations(r) get an
    operator, and no step works on an m x m matrix, m = |R_r|:
    - Relations (_operator_failure). Every chain of diagrams.relations(r)
      holds on the rho of its letters. Popova's relations present R_r on
      s_1..s_(r-1), p_1 (L. M. Popova, Uchen. Zap. Leningrad. Gos. Ped.
      Inst. 218, 1961; T. Halverson, J. Algebra 273, 2004): the Coxeter
      relations, p_1^2 = p_1, p_1 s_j = s_j p_1 for j >= 2, and
      p_1 s_1 p_1 s_1 = s_1 p_1 s_1 p_1 = p_1 s_1 p_1. The list implies
      them: with p_(i+1) = s_i p_i s_i both four-letter words are p_1 p_2,
      as the p's commute, and p_1 s_1 p_1 = p_1 p_2 s_1 = p_1 p_2. So rho
      extends to a monoid map R_r -> End V that agrees with rho on every
      p_j, and V is an A-module whose image is the rook image.
    - Groupoid. cellular.steinberg_failure checks every chain of
      diagrams.relations(r) on Steinberg's phi of its letters, in the
      groupoid algebra at z = 1, and its docstring writes out why that
      makes phi an algebra isomorphism from A onto the groupoid algebra,
      the sum over k of M_C(r,k)(Q S_k): Popova's presentation extends phi
      to an algebra map, Moebius inversion makes it onto, and |R_r| is the
      number of arrows, so it is bijective. So A is semisimple. No rook
      diagram is enumerated.
    - Character. tr rho(x) = n^l(mu) on the class word x of each (k, mu),
      mu a partition of k <= r, so chi = tr rho is n^cyc on all of R_r by
      Munn's argument (W. D. Munn, Proc. Cambridge Philos. Soc. 53, 1957):
      e = x^(r!), the partial identity on the cycles of x, commutes with x;
      rho(x) is nilpotent on (1 - rho(e))V and acts as rho(xe) on rho(e)V,
      so tr rho(x) = tr rho(xe); and xe, a permutation of its k points with
      the cycles of x, is conjugate by a unit u, rho(u) invertible, to the
      class word of its (k, mu).
    - Dimensions (cellular.groupoid_dimensions). Through phi, V is the sum
      over k of C(r,k) copies of an S_k-module W_k whose character psi_k is
      the Moebius inversion of chi; each cycle contributes n - 1, so
      psi_k(s) = (n - 1)^cyc(s). So C(image) = End_A(V) has dimension
      sum_k <psi_k, psi_k>, and the image has dimension
      sum_k C(r,k)^2 rank [psi_k(s t^-1)], a k! x k! matrix: the trace form
      tr_W(xy) of the semisimple image of Q S_k is nondegenerate on it and
      zero on the kernel.
    The braid side enters by one lower bound, taken shape by shape over
    F_p (_modlinalg.envelope_bound). By the split check of
    burau.split_generators the envelope A has the dimension of the unital
    algebra of B_i = sum_k q1^(r-k) R_i^(x k) on U = sum_k F^(x k). Take a
    prime p that divides no denominator of q1 and the R_i, and let A_p be
    the F_p-span of the reductions of the words in the B_i: the
    Z_(p)-span of the words is a lattice of rank dim A, and A_p is spanned
    by its reduction, so dim A_p <= dim A. A_p is an algebra acting on
    U mod p, one summand F_p^(x k) at a time. For each partition lambda of
    k <= r with at most n - 1 rows:
    - W_lambda = c_lambda(F_p^(x k)), the image of a Young symmetrizer, is
      checked to have dimension d = gl_weyl_dim(lambda, n - 1);
    - each B_i is checked to keep W_lambda, so A_p does, and restriction
      is an algebra map A_p -> End(W_lambda);
    - the block is full when the closure of the restricted B_i, the image
      of that map, reaches d^2. The map is then onto, and its kernel is a
      maximal ideal, with quotient End(W_lambda), a simple algebra with one
      simple module up to isomorphism.
    Two full blocks are separated when a word's trace differs on them, or
    when the closure of the pair reaches 2 d^2. Either way they are not
    isomorphic A_p-modules, so their kernels differ. Distinct maximal
    ideals are pairwise comaximal, so by the Chinese remainder theorem A_p
    maps onto the product of the End(W_lambda) over the full blocks that
    are separated from every other full block, and
        sum of their d^2 <= dim A_p <= dim A <= dim C(image)
                                                = sum_k <psi_k, psi_k>.
    A block that fails a check drops out, which only lowers the bound.
    Nothing here needs W_lambda over Q. Each closure stops at its own
    ceiling, d^2 or 2 d^2, which loses nothing. When the ends meet, the
    envelope is C(image) and A_p is the product of the End(W_lambda), the
    paper's Schur-Weyl statement at p. The image is
    semisimple, so the double centralizer theorem gives
    C(braid gens) = C(envelope) = C(C(image)) = image, and
    dim C(braid gens) = dim image with no further computation.

    A miss at one prime moves on to the next listed prime, keeping the
    largest lower bound. The exact centralizer, image, envelope and
    commutant dimensions are computed instead ("exact" path), on the
    generators already built and the operators of every basis diagram, when
    the actions do not commute, when z = 0, when the split check, or the
    relations, groupoid or character check fails, when sum_k <psi_k, psi_k>
    is not an integer, when the returned bound is not that sum (a miss at
    every listed prime), and when every listed prime divides a denominator.
    The groupoid check is q-free, so its failure is a fault of the diagram
    code; the exact path then names the relation that failed. r is refused
    above diagrams.ENUMERATION_BOUND before any work, as the exact path
    enumerates the basis.
    report["certificate"] records the path, the prime, the skipped primes,
    the bounds (envelope_lower, rook_centralizer = sum_k <psi_k, psi_k>,
    rook_image = sum_k C(r,k)^2 rank psi_k), the reason for the exact
    path, and the shapes record of envelope_bound at the prime (each
    shape's dimension and closure, the word that separated each pair of
    equal dimension, each failed check), None when no bound was taken.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_budget(n, r, budget)
    if p.n != n:
        raise ValueError("params built for a different n")
    check_enumeration_bound(r)
    z = p.quantum(n)
    braid_gens = braid_generators(p, r)
    shapes = shape_dimensions(n, r)
    # the letters of the relations, the paper's generators among them
    rels, gens = relations(r), generator_diagrams(r)
    letters = dict.fromkeys(d for _, chain in rels for word in chain for d in word)
    ops = {d: diagram_op(d, p, r) for d in letters}
    rook_gens = [ops[g] for g in gens]

    commute = _all_commute(braid_gens, rook_gens)

    if commute:
        shape_dims = [(lam, d) for lam, d, _ in shapes]
        certificate = _character_certificate(p, r, ops, rels, gens[:-1], shape_dims)
    else:
        certificate = certificate_record("exact", "actions do not commute")
    certificate.setdefault("shapes", None)

    if certificate["path"] == "character":
        bounds = certificate["bounds"]
        img_dim = cent_dim = bounds["rook_image"]
        env_dim, cent_of_img_dim = bounds["envelope_lower"], bounds["rook_centralizer"]
        mod = f"character, closure mod {certificate['prime']}"
        img_how = (
            f"{mod}: image = sum C(r,k)^2 rank psi_k = {img_dim}, C(braid) = C(C(image)) = image"
        )
        env_how = (
            f"{mod}: sum d_lambda^2 over the full, separated shape blocks {env_dim} <= envelope "
            f"<= C(rook) = sum <psi_k, psi_k> {cent_of_img_dim}"
        )
    else:
        cent_dim, _ = commutant(braid_gens, size=n**r)
        img_dim = rook_image([ops[d] if d in ops else diagram_op(d, p, r) for d in rook_elements(r)])
        env_dim, _ = span_closure(braid_gens)
        cent_of_img_dim, _ = commutant(rook_gens, size=n**r)
        img_how = env_how = f"exact dimensions; {certificate['fallback_reason']}"
    env_eq = commute and env_dim == cent_of_img_dim
    img_eq = commute and img_dim == cent_dim
    dim_sum = sum(c * c for *_, c in shapes)
    env_sum = sum(d * d for _, d, _ in shapes)
    bim_sum = sum(d * c for _, d, c in shapes)

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
