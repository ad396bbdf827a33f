"""The full-size checks that the slot-local checks of
tensor.duality_report replaced: every chain of relations(r) and the trace
of one class word per (k, mu), on the rescaled operators of E^(x r). Also
the all-basis checks that those replaced, on the operators of all
m = |R_r| basis diagrams: the homomorphism op(g) op(d) = z^N op(gd) for every generator g
and basis diagram d, the rescaled character chi(d) = tr op(d) / z^(r - rank d)
at every d, and the two q-free dimensions of cellular.groupoid_dimensions
by Moebius inversion of chi. Every product comes from
PartialPermutation.compose, not from the library's generator rows. Also
the braid generators on U = sum_k F^(x k), whose closure the
shape-by-shape envelope bound replaced, and the closure mod p of each
shape block, which Norton's test replaced in the bound."""

from fractions import Fraction
from itertools import accumulate, pairwise, permutations
from math import comb, factorial

from braidrook import _modlinalg
from braidrook.burau import reduced_generator
from braidrook.cellular import partition_label, partitions_of
from braidrook.diagrams import (
    PartialPermutation,
    compose_perms,
    generator_diagrams,
    projection,
    relations,
    rook_elements,
    transposition,
)
from braidrook.linalg import rref, worklist_closure
from braidrook.matrix import Matrix, direct_sum, integer_form, kron_power, rows_of, sparse_product
from braidrook.tensor import diagram_op


def full_size_failure(p, r):
    """None when every chain of relations(r) holds on the rescaled operators
    rho(d) = z^-(r - rank d) op(d) of its letters on E^(x r), and
    tr rho(x) = n^l(mu) on the class word x of each (k, mu), mu a partition
    of k <= r: the cycles of mu on the blocks of {1..k} by swaps, then
    p_(k+1)..p_r. Otherwise the first failure. Fraction products of the
    operators, each built by diagram_op at r."""
    z, rho = p.quantum(p.n), {}

    def value(word):
        out = Matrix.identity(p.n**r)
        for d in word:
            if d not in rho:
                rho[d] = diagram_op(d, p, r).scale(z ** (d.rank - r))
            out = out * rho[d]
        return out

    for name, (first, *rest) in relations(r):
        if any(value(word) != value(first) for word in rest):
            return f"{name} fails on the rescaled operators"
    swaps = [transposition(i, i + 1, r) for i in range(1, r)]
    for k in range(r + 1):
        for mu in partitions_of(k):
            word = []
            for a, b in pairwise((0, *accumulate(mu))):
                word += swaps[a : b - 1]  # the cycle on {a+1..b} is s_(a+1) ... s_(b-1)
            chi = value([*word, *(projection(j, r) for j in range(k + 1, r + 1))]).trace()
            if chi != p.n ** len(mu):
                return f"character {chi} != n^cyc = {p.n ** len(mu)} at k = {k}, mu = {partition_label(mu)}"
    return None


def all_basis_check(p, r):
    """(failure, chi): failure is None when op(1) = 1 and
    op(g) op(d) = z^N op(gd), gd = z^N a by compose, for every generator g
    and every basis diagram d, and the first failure otherwise;
    chi(d) = tr op(d) / z^(r - rank d) at every d of rook_elements(r).

    The products run on the integer forms M = D op(a), D the common
    denominator: op(1) = 1 reads M(1) = D 1, and the identity reads
    den(z)^N M(g) M(d) = D num(z)^N M(gd)."""
    z, size = p.quantum(p.n), p.n**r
    basis = rook_elements(r)
    index = {d: i for i, d in enumerate(basis)}
    den, ints = integer_form(diagram_op(d, p, r) for d in basis)
    traces = [sum(m.get(k * (size + 1), 0) for k in range(size)) for m in ints]
    chi = [Fraction(t, den) / z ** (r - d.rank) for d, t in zip(basis, traces)]
    if ints[index[PartialPermutation.identity(r)]] != {k * (size + 1): den for k in range(size)}:
        return "op(identity) is not the identity matrix", chi
    by_rows = [rows_of(m, size) for m in ints]
    for g in generator_diagrams(r):
        for d, d_rows in zip(basis, by_rows):
            gd, dropped = g.compose(d)
            lhs, rhs = z.denominator**dropped, den * z.numerator**dropped
            prod = sparse_product(ints[index[g]], d_rows, size, size)
            if {i: v * lhs for i, v in prod.items()} != {i: v * rhs for i, v in ints[index[gd]].items()}:
                return f"op(g) op(d) != z^{dropped} op(gd) at g = {g!r}, d = {d!r}", chi
    return None, chi


def moebius_block(value, k):
    """The k! x k! matrix [psi_k(s t^-1)] over s, t in S_k, the identity
    first and products read left to right, where
    psi_k(s) = sum over T in {1..k} of (-1)^(k - |T|) value[s|T], and value
    maps the pairs of each diagram of rook_elements(r) to a character value."""
    perms = list(permutations(range(1, k + 1)))
    psi = {
        w: sum(
            (-1) ** (k - keep.bit_count())
            * value[tuple((x, w[x - 1]) for x in range(1, k + 1) if keep >> (x - 1) & 1)]
            for keep in range(1 << k)
        )
        for w in perms
    }
    inverse = {w: tuple(sorted(range(1, k + 1), key=lambda x: w[x - 1])) for w in perms}
    return [[psi[compose_perms(s, inverse[t])] for t in perms] for s in perms]


def moebius_dimensions(basis, chi):
    """(sum_k <psi_k, psi_k>, sum_k C(r,k)^2 rank [psi_k(s t^-1)]) for the
    character chi[i] at basis[i] = rook_elements(r), one moebius_block per k."""
    r = basis[0].r
    value = {d.pairs: x for d, x in zip(basis, chi)}
    centralizer, image = Fraction(0), 0
    for k in range(r + 1):
        block = moebius_block(value, k)
        # column 0 holds psi_k(s), row 0 holds psi_k(s^-1)
        centralizer += Fraction(sum(row[0] * x for row, x in zip(block, block[0])), factorial(k))
        image += comb(r, k) ** 2 * len(rref(block)[1])
    return centralizer, image


def block_generators(p, r):
    """The braid generators on U = sum_(k=0..r) F^(x k): for i = 1..n-1,
    B_i = sum_k q1^(r-k) R_i^(x k), R_i = reduced_generator(i), as one
    block-diagonal matrix of dimension sum_k (n-1)^k. burau.split_generators
    says why their unital algebra has the dimension of the envelope on
    E^(x r)."""
    return [
        direct_sum([kron_power(reduced_generator(i, p), k).scale(p.q1 ** (r - k)) for k in range(r + 1)])
        for i in range(1, p.n)
    ]


def closure_dim_mod(gens, m, p, ceiling=None):
    """Dimension over F_p of the unital algebra that the m x m residue
    matrices gens, {row-major index: residue}, generate: the worklist
    closure of the span of 1 under right multiplication by each of them,
    stopped once it reaches ceiling (linalg.span_closure says why right
    multiplication suffices). A block of _modlinalg.envelope_bound is full
    exactly when this reaches d^2."""
    rows, basis = [rows_of(g, m) for g in gens], {}

    def images(w):
        for r in rows:
            yield {k: x for k, y in sparse_product(w, r, m, m).items() if (x := y % p)}

    one = {k * (m + 1): 1 for k in range(m)}
    return worklist_closure(lambda v: _modlinalg._echelon_add(basis, v, p), [one], images, ceiling)
