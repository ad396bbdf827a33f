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
from math import gcd
from typing import Mapping, Sequence

from . import _modlinalg
from .burau import BurauParams, change_of_basis, unreduced_generator
from .cellular import groupoid_dimensions, rook_dimension, shape_dimensions, steinberg_failure
from .diagrams import (
    PartialPermutation,
    check_enumeration_bound,
    generator_diagrams,
    projection,
    relations,
    rook_elements,
)
from .lieclosure import LieConstants, h_window, subgroup_h, tangent_generators
from .linalg import certificate_record, commutant, det, matrix_span, span_closure
from .matrix import Matrix, direct_sum, integer_form, kron_power

_ONE = Fraction(1)
MATRIX_SIZE_BUDGET = 256  # largest n^r that duality_report (either path) and the commutants here accept


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
    n, q = p.n, p.q
    size = n**r
    weight = [n ** (r - s) for s in range(1, r + 1)]  # of slot s in the flat index
    source = {t: s for s, t in d.pairs}  # slot s of K copies slot t of J
    # the flat index (row * size + col) of an entry and its power of q are
    # sums of one term per slot t of J, digit k = J_t - 1, and one per slot
    # of K outside dom(d); expanding the slots in order lists the columns
    # in order, each with its rows in order
    slots = [
        [(k * (weight[t - 1] + size * weight[source[t] - 1]), 0) for k in range(n)]
        if t in source
        else [(k * weight[t - 1], k) for k in range(n)]
        for t in range(1, r + 1)
    ]
    slots += [[(k * size * weight[s - 1], 0) for k in range(n)] for s in range(1, r + 1) if s not in d.dom]
    terms = [(0, 0)]
    for slot in slots:
        terms = [(a + b, e + f) for a, e in terms for b, f in slot]
    q_power = [_ONE]
    for _ in range((n - 1) * (r - len(source))):
        q_power.append(q_power[-1] * q)
    # every entry is a power of q != 0, every index below size^2
    return Matrix._trusted(size, size, {a: q_power[e] for a, e in terms})


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


def _first_difference(pairs: list[tuple], mats: Sequence[Matrix]) -> tuple | None:
    """The first of pairs (u, w) of words in the indices of mats, square
    matrices of one size, whose products differ, or None. The two words of
    a pair have one length k, so with D the lcm of every denominator they
    agree exactly when their integer products, D^k times theirs, do; those
    are compared on packed rows (_word_products; duality_report says why
    that is exact)."""
    _, ints = integer_form(mats)
    products = _word_products([w for pair in pairs for w in pair], dict(enumerate(ints)), mats[0].rows)
    return next(((u, w) for u, w in pairs if products[u] != products[w]), None)


def _all_commute(left: Sequence[Matrix], right: Sequence[Matrix]) -> bool:
    """Whether ab = ba for every a in left and b in right (_first_difference)."""
    k = len(left)
    pairs = [((i, j), (j, i)) for i in range(k) for j in range(k, k + len(right))]
    return _first_difference(pairs, [*left, *right]) is None


def _word_products(words: list[tuple], letters: dict, size: int, ratio: int = 1) -> dict:
    """{w: M(w)} over the words w and their suffixes, given
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
    return out


def _ratio(z: Fraction, a: int, den: int, b: int) -> tuple[int, int]:
    """z^a den^b as its reduced (u, v), v > 0, for z != 0 and den >= 1:
    the integer powers of z's numerator and denominator are coprime, so
    one gcd with den^b reduces the ratio."""
    u, v = z.as_integer_ratio()
    u, v = (u**a, v**a) if a >= 0 else (v**-a, u**-a)
    if b >= 0:
        u *= den**b
    else:
        v *= den**-b
    g = gcd(u, v) if v > 0 else -gcd(u, v)
    return u // g, v // g


def _operator_failure(p: BurauParams, r: int, z: Fraction, P: Matrix | None, rels: list) -> str | None:
    """None when tr P = z = [n]_q for P = op(p_1) on one slot (r >= 1), and the
    rescaled operators rho(d) = z^-(s - rank d) op(d) on s = min(r, 3)
    slots of the letters of rels = diagrams.relations(s) satisfy every
    chain of rels; otherwise the first failure. The relations read the
    integer _word_products M(w) = D^len(w) op(w): rho(w) = M(w) c(w),
    c(w) = z^-e(w) D^-len(w), e(w) the sum of s - rank over w. This gives
    every chain of relations(r), and tr rho(x) = n^l(mu) on the class word
    x of each (k, mu), on E^(x r):
    - Locality. A letter acts on E^(x r) as its factor on the slots S it
      moves or forgets, tensor the identity on the other slots, in slot
      order (the closed form of diagram_op; the tests check it on every
      letter through (3,4) and (2,5)), and r - rank is the same for both.
      X -> X (x) 1 is an injective algebra map, so a chain whose letters
      act within S holds on E^(x r) exactly when it holds on E^(x S). Each
      chain of relations(r) either has its letters on disjoint slots
      (p_i p_j, s_i s_j, s_i p_j), where both orders give one tensor
      product, or acts within at most three slots and, relabelled in
      order, is a chain of relations(s) of the same type.
    - Characters. The class word x of (k, mu), the cycles of mu on blocks
      of {1..k} by swaps, then p_(k+1)..p_r, acts as the place permutations
      of its cycles tensor P on each slot past k. A trace is multiplicative
      over (x), and an l-cycle of places fixes exactly the n constant
      basis tensors of E^(x l), so tr rho(x) = n^l(mu) (tr P / z)^(r - k).

    Each M(w) is one int per row, row i packed as sum_j M_ij 2^(W j).
    Packing is linear, and packs no nonzero vector whose entries are below
    2^(W - 1) in absolute value to 0. Let N >= 1 be the largest row sum of
    |entries| of a letter, L the longest word and S the largest |numerator|
    or denominator of a relation's ratio x = c(first)/c(word). Every entry
    of an M(w) is then at most N^L (an entry of AB is at most N times the
    largest entry of B, for A a letter), and every entry of
    x.numerator M(first) - x.denominator M(word) at most 2 S N^L;
    W = bit_length(2 S N^L) + 1 puts both below 2^(W - 1). So
    rho(first) = rho(word) exactly when the packed rows agree after
    scaling."""
    s = min(r, 3)
    ops = {d: diagram_op(d, p, s) for d in dict.fromkeys(d for _, chain in rels for w in chain for d in w)}
    den, ints = integer_form(ops.values())
    e = {d: s - d.rank for d in ops}
    # rho(first) = rho(word) iff x M(first) = M(word), x = c(first) / c(word)
    # = z^a D^b, kept as the reduced u/v of _ratio
    x = {
        (first, w): _ratio(z, sum(map(e.get, w)) - sum(map(e.get, first)), den, len(w) - len(first))
        for _, (first, *rest) in rels for w in rest
    }
    ratio = max((max(abs(u), v) for u, v in x.values()), default=1)
    words = [word for _, chain in rels for word in chain]
    products = _word_products(words, dict(zip(ops, ints)), p.n**s, ratio)
    for name, (first, *rest) in rels:
        for word in rest:
            u, v = x[first, word]
            if [u * row for row in products[first]] != [v * row for row in products[word]]:
                return f"{name} fails on the rescaled operators"
    if r and P.trace() != z:
        return f"character: tr P = {P.trace()} != z = {z}"
    return None


# the points z and w of the homomorphism check H_i(z) H_i(w) = H_i(zw)
_POINTS = (Fraction(2), Fraction(3))


def _braid_side(p: BurauParams, ts: list[Matrix]) -> tuple[dict, int | None, list, str | None]:
    """The braid side of the character certificate, on the report's
    T_1..T_(n-1) ts: (lie record, prime, skipped primes, reason), reason
    None when the envelope has dimension sum d_lambda^2 over the shape
    table (duality_report gives the argument). With m = n - 1, the checks
    run in order, and the first that fails is the reason: -q is not 1 or
    -1; C = burau.change_of_basis(p) is invertible and
    T_i C = q1 C (1 + H_i(-q)) for every i, on integers (_first_difference);
    the windows of H_i at z, w in _POINTS multiply to the window of
    H_i(zw); then the closure mod p of tangent_generators(n, q), through
    _modlinalg.lower_bound, reaches m^2. The record holds the prime and the
    closure dimension (None when no closure ran), the ceiling m^2, and the
    checks, each as a report check."""
    m, q = p.n - 1, p.q
    checks = []
    record = {"prime": None, "closure_dim": None, "ceiling": m * m, "checks": checks}

    def check(name: str, ok: bool, detail: str) -> str | None:
        checks.append(_report_check(name, ok, detail))
        return None if ok else detail

    finite = q in (1, -1)
    if reason := check("infinite_order", not finite, f"-q = {-q} has {'finite' if finite else 'infinite'} order"):
        return record, None, [], reason
    c = LieConstants(p.n, q)
    basis, one = change_of_basis(p), Matrix.identity(1)
    hs = [direct_sum([one, subgroup_h(i, -q, c)]).scale(p.q1) for i in range(1, p.n)]
    # letter 0 is C, letter i is T_i and letter m + i is q1 (1 + H_i(-q))
    if det(basis.to_lists()) == 0:
        failure = "C = change_of_basis is singular"
    elif bad := _first_difference([((i, 0), (0, m + i)) for i in range(1, p.n)], [basis, *ts, *hs]):
        failure = f"T_{bad[0][0]} C != q1 C (1 + H_{bad[0][0]}(-q))"
    else:
        failure = None
    if reason := check("h_at_minus_q", not failure, failure or f"T_i C = q1 C (1 + H_i(-q)) for i = 1..{m}"):
        return record, None, [], reason
    windows = {x: h_window(x, c) for x in {z * w for z in _POINTS for w in (1, *_POINTS)}}

    def product(z, w):
        # rows i-1 and i+1 of H_i(w) are the identity's, so row i of
        # H_i(z) H_i(w) is (l_z + m_z l_w, m_z m_w, r_z + m_z r_w) on the
        # windows (l, m, r)
        (lz, mz, rz), (lw, mw, rw) = windows[z], windows[w]
        return lz + mz * lw, mz * mw, rz + mz * rw

    bad = next(((z, w) for z in _POINTS for w in _POINTS if product(z, w) != windows[z * w]), None)
    if bad:
        detail = f"H_i({bad[0]}) H_i({bad[1]}) != H_i({bad[0] * bad[1]})"
    else:
        detail = f"H_i(z) H_i(w) = H_i(zw) at z, w in {{{', '.join(map(str, _POINTS))}}}"
    if reason := check("homomorphism", not bad, detail):
        return record, None, [], reason
    tangents = tangent_generators(p.n, q)
    prime, lower, skipped, reason = _modlinalg.lower_bound(tangents, m * m)
    record.update(prime=prime, closure_dim=lower)
    # the numbers decide; the search's reason only explains a miss
    reason = None if lower == m * m else reason or f"closure {lower} != m^2 = {m * m}"
    return record, prime, skipped, reason


def _character_certificate(p: BurauParams, r: int, z: Fraction, ts, P, local, rels, env_sum: int) -> dict:
    """The certificate of duality_report from z = [n]_q, the report's
    T_1..T_(n-1) ts (_braid_side), P, local =
    diagrams.relations(min(r, 3)) (_operator_failure), rels =
    diagrams.relations(r) and env_sum = sum d_lambda^2 over the shape
    table: the relations, groupoid and character checks,
    cellular.groupoid_dimensions, and the braid side of _braid_side, which
    makes env_sum the envelope's dimension or names why not. The path is
    "character" only when env_sum is proved and equals
    sum <psi_k, psi_k>, an integer."""
    if z == 0:
        return certificate_record("exact", "z = [n]_q = 0 has no rescaled basis")
    failure = _operator_failure(p, r, z, P, local) or steinberg_failure(r, rels)
    if failure:
        return certificate_record("exact", failure)
    rook_cent, rook_img = groupoid_dimensions(p.n, r)
    if rook_cent.denominator != 1:
        return certificate_record("exact", f"sum <psi_k, psi_k> = {rook_cent} is not an integer")
    lie, prime, skipped, reason = _braid_side(p, ts)
    lower = None if reason else env_sum
    bounds = {"envelope_lower": lower, "rook_centralizer": int(rook_cent), "rook_image": rook_img}
    met = lower == rook_cent
    reason = None if met else reason or f"envelope_lower {lower} != rook_centralizer {rook_cent}"
    certificate = certificate_record("character" if met else "exact", reason, prime, skipped, bounds)
    certificate["lie"] = lie
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
    is "commute and dim == dim". On the character path the commute check
    is T_i P = P T_i on n x n, P = op(p_1) on one slot: op(s_i) is the
    place permutation of slots i and i+1, which commutes with T (x) T for
    every T, and T^(x r) = T (x) B on slot 1 and the rest, B invertible, so
    (T (x) B)(P (x) 1) = TP (x) B equals (P (x) 1)(T (x) B) = PT (x) B
    exactly when TP = PT. The exact path checks the operators on E^(x r).
    Either check runs on integers (_all_commute): with D the lcm of every
    denominator, (Da)(Db) = D^2 ab and D != 0, so Da and Db commute exactly
    when a and b do. It compares (Da)(Db) with (Db)(Da) on packed rows,
    row i one int sum_j x_ij 2^(W j) (the _operator_failure argument with
    L = 2 and S = 1): every entry of the difference is at most
    2 N^2 < 2^(W - 1), which packs to 0 only when it is 0.

    The dimensions come from the rook character ("character" path), for
    z = [n]_q != 0, through the rescaled operators
    rho(d) = z^-(r - rank d) op(d) and the monoid algebra A = Q[R_r]. Four
    steps, all exact; no operator on E^(x r) is built, only P and the
    letters of diagrams.relations(min(r, 3)) on min(r, 3) slots, and no step
    works on an |R_r| x |R_r| matrix:
    - Relations (_operator_failure). Every chain of diagrams.relations(r)
      holds on the rho of its letters, read off their factors on at most
      three slots. Popova's relations present R_r on s_1..s_(r-1), p_1
      (L. M. Popova, Uchen. Zap. Leningrad. Gos. Ped. Inst. 218, 1961;
      T. Halverson, J. Algebra 273, 2004): the Coxeter
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
      mu a partition of k <= r, read off tr P = z (_operator_failure), so
      chi = tr rho is n^cyc on all of R_r by Munn's argument (W. D. Munn,
      Proc. Cambridge Philos. Soc. 53, 1957): e = x^(r!), the partial
      identity on the cycles of x, commutes with x;
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
    The braid side enters by the paper's own route, the Zariski closure of
    the braid image (J. E. Humphreys, Linear Algebraic Groups, GTM 21,
    1975; J. A. Green, Polynomial Representations of GL_n, LNM 830, 1980).
    Let m = n - 1 and C = burau.change_of_basis(p), whose columns are
    f0 = e_1 + ... + e_n and the f_i = q2 e_i + q1 e_(i+1) that span F.
    _braid_side checks, in order:
    - -q is not 1 or -1, so it has infinite order in Q^x. Otherwise the
      report names it ("-q has finite order") and takes the exact path;
    - det C != 0, and T_i C = q1 C (1 + H_i(-q)) for every i, H_i the
      one-parameter subgroup of lieclosure.subgroup_h, on integers like the
      commute check (_first_difference). C is invertible exactly when
      z = [n]_q != 0, as x -> sum_j q^(j-1) x_j kills every f_i and takes z
      at f0, so a singular C here is a fault; it can still satisfy the
      identity (with its f0 column dropped, say), so both are needed. Then
      C^-1 T_i C = q1 (1 + g_i) with g_i = H_i(-q): T_i is q1 on the line
      L of f0 and q1 g_i on F. C^(x r) carries T_i^(x r) to q1^r times the
      sum over S in {1..r} of g_i^(x |S|) on the summands of
      (L + F)^(x r). Summands with equal |S| carry equal matrices, so a
      linear relation among words in the T_i^(x r) holds on E^(x r)
      exactly when it holds on U = sum_(k=0..r) F^(x k), where T_i acts as
      B_i = q1^r sum_k g_i^(x k), and the envelope has the dimension of the
      unital algebra A_U of the B_i. Scaling a generator by a nonzero
      number does not change the unital algebra it generates, and each g_i
      is invertible (det H_i(z) = z), so by Cayley-Hamilton
      (linalg.span_closure) A_U is the span of the sum of the g^(x k) over
      the group Gamma that the g_i generate;
    - H_i(z) H_i(w) = H_i(zw). H_i(z) is the identity but for row i, which
      holds the window (b(1-z), z, a(1-z)) in columns i-1, i, i+1, the
      same for every i (lieclosure.h_window, cut at the edges). Rows i-1
      and i+1 of H_i(w) are the identity's, so row i of the product is
      (l_z + z l_w, z w, r_z + z r_w) on the windows, of degree at most 1
      in z and in w, like the window of H_i(zw). The two agree at z, w in
      {2, 3}, and a polynomial of degree at most 1 in each of two
      variables that vanishes on a 2 x 2 grid is 0. So H_i is a
      homomorphism from C^x, injective as z sits at (i, i), and Gamma
      holds H_i((-q)^k) for every integer k: infinitely many points.
    A closed subgroup of the one-dimensional torus H_i(C^x) with infinitely
    many points is the whole torus. So the Zariski closure G of Gamma holds
    every H_i(z), and Lie(G) holds the tangent h_i = dH_i/dz at z = 1, in
    closed form lieclosure.tangent_generator (H_i(z) - I = (z - 1) h_i,
    which lieclosure.one_param_membership and the tests check). Lie(G) is
    closed under brackets, so it holds the bracket closure of the h_i. Its
    dimension is at least that of the closure mod p of
    _modlinalg.bracket_closure_dim_mod at a prime of _modlinalg.lower_bound
    that divides no denominator of the h_i (lieclosure.bracket_closure
    says why that bound is sound over Q). When that reaches m^2,
    dim G >= m^2, and G, inside GL_m, is GL_m. A linear relation that holds
    on the image of Gamma is a polynomial identity on Gamma, so it holds on
    G, and a span of rational matrices has the same dimension over Q as
    over C. So A_U is the span of the sum of the g^(x k) over GL_m. A scalar
    s I acts by s^k on summand k, so r + 1 distinct values of s split that
    span by k (Vandermonde), and the span of the g^(x k) over GL_m is the
    Schur algebra S(m, k), of dimension sum d_lambda^2 over the lambda of
    k with at most m rows, d_lambda = gl_weyl_dim(lambda, m). So
        dim A_U = sum d_lambda^2 over the shape table,
    and no block is built. Every n >= 2 takes this route: at n = 2,
    H_1(z) = [z], h_1 = [1] and G = GL_1. With
    envelope <= C(rook gens) = C(image), of dimension
    sum_k <psi_k, psi_k>, the envelope is C(image) when the two numbers
    meet; that is the paper's Schur-Weyl statement. The image is
    semisimple, so the double centralizer theorem gives
    C(braid gens) = C(envelope) = C(C(image)) = image, and
    dim C(braid gens) = dim image with no further computation.

    A closure that misses m^2 at one prime moves on to the next listed
    prime, keeping the largest. The exact centralizer, image, envelope
    and commutant dimensions are computed instead ("exact" path), on the
    T_i^(x r) and the operators of every basis diagram on E^(x r), when
    the actions do not commute, when z = 0, when the relations, groupoid
    or character check fails, when sum_k <psi_k, psi_k> is not an integer,
    when a check of the braid side fails (C singular or
    T_i C != q1 C (1 + H_i(-q)) among them) or its closure misses m^2 at
    every listed prime (or every listed prime divides a denominator), and
    when sum d_lambda^2 is not sum_k <psi_k, psi_k>. The groupoid check is
    q-free, so its failure is a fault of the diagram code; the exact path
    then names the relation that failed. r is refused above
    diagrams.ENUMERATION_BOUND before any work, as the exact path
    enumerates the basis.
    report["certificate"] records the path, the prime and the skipped
    primes of the closure, the bounds (envelope_lower = sum d_lambda^2
    once the braid side holds and None otherwise, rook_centralizer =
    sum_k <psi_k, psi_k>, rook_image = sum_k C(r,k)^2 rank psi_k), the
    reason for the exact path, and the lie record of _braid_side (the
    prime, the closure dimension, its ceiling m^2 and each check), None
    when the report did not reach the braid side.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    _check_budget(n, r, budget)
    if p.n != n:
        raise ValueError("params built for a different n")
    check_enumeration_bound(r)
    z = p.quantum(n)
    shapes = shape_dimensions(n, r)
    dim_sum = sum(c * c for *_, c in shapes)
    env_sum = sum(d * d for _, d, _ in shapes)
    bim_sum = sum(d * c for _, d, c in shapes)
    rels, gens = relations(r), generator_diagrams(r)
    local = rels if r <= 3 else relations(3)
    P = diagram_op(projection(1, 1), p, 1) if r else None
    ts = [unreduced_generator(i, p) for i in range(1, n)]
    commute = not r or _all_commute(ts, [P])

    if commute:
        certificate = _character_certificate(p, r, z, ts, P, local, rels, env_sum)
    else:
        certificate = certificate_record("exact", "actions do not commute")
    certificate.setdefault("lie", None)

    if certificate["path"] == "character":
        bounds = certificate["bounds"]
        img_dim = cent_dim = bounds["rook_image"]
        env_dim, cent_of_img_dim = bounds["envelope_lower"], bounds["rook_centralizer"]
        how = f"character, Lie closure mod {certificate['prime']}"
        img_how = (
            f"{how}: image = sum C(r,k)^2 rank psi_k = {img_dim}, C(braid) = C(C(image)) = image"
        )
        env_how = (
            f"{how}: envelope = sum d_lambda^2 = {env_dim} "
            f"<= C(rook) = sum <psi_k, psi_k> {cent_of_img_dim}"
        )
    else:
        braid_gens = braid_generators(p, r)
        ops = {d: diagram_op(d, p, r) for d in rook_elements(r)}
        rook_gens = [ops[g] for g in gens]
        commute = _all_commute(braid_gens, rook_gens)
        cent_dim, _ = commutant(braid_gens, size=n**r)
        img_dim = rook_image(list(ops.values()))
        env_dim, _ = span_closure(braid_gens)
        cent_of_img_dim, _ = commutant(rook_gens, size=n**r)
        img_how = env_how = f"exact dimensions; {certificate['fallback_reason']}"
    env_eq = commute and env_dim == cent_of_img_dim
    img_eq = commute and img_dim == cent_dim

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
            f"{n - 1} braid generators against {len(gens)} rook generators",
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
