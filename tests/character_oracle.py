"""The full-size checks that the slot-local checks of
tensor.duality_report replaced: every chain of relations(r) and the trace
of one class word per (k, mu), on the rescaled operators of E^(x r). Also
the all-basis checks that those replaced, on the operators of all
m = |R_r| basis diagrams: the homomorphism op(g) op(d) = z^N op(gd) for every generator g
and basis diagram d, the rescaled character chi(d) = tr op(d) / z^(r - rank d)
at every d, and the two q-free dimensions of cellular.groupoid_dimensions
by Moebius inversion of chi. Every product comes from
PartialPermutation.compose, not from the library's generator rows. Also
the braid generators on U = sum_k F^(x k) and the shape blocks W_lambda
mod p with the closure of the braid generators on each: the closure on U
and the d^2 of the blocks both give the sum d_lambda^2 that
tensor._braid_side reads off the shape table."""

from fractions import Fraction
from itertools import accumulate, pairwise, permutations, product
from math import comb, factorial

from braidrook import _modlinalg
from braidrook.burau import reduced_generator
from braidrook.cellular import partition_label, partitions_of, shape_dimensions
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
    multiplication suffices). A shape block is full exactly when this
    reaches d^2."""
    rows, basis = [rows_of(g, m) for g in gens], {}

    def images(w):
        for r in rows:
            yield {k: x for k, y in sparse_product(w, r, m, m).items() if (x := y % p)}

    one = {k * (m + 1): 1 for k in range(m)}
    return worklist_closure(lambda v: _modlinalg._echelon_add(basis, v, p), [one], images, ceiling)


def schur_block(shape, m: int, p: int) -> dict[int, dict[int, int]]:
    """W = c(F_p^(x k)), F_p = Z/p, k = |shape|, as its fully reduced
    echelon basis {pivot: row} on the basis tensors e_J, J in {0..m-1}^k
    flattened with the first slot most significant (as burau's Kronecker
    powers): the span of c(e_J) over every J. c = b a is the Young
    symmetrizer of the row-reading tableau of shape, acting by place
    permutations, (s e_J)_t = e_(J_s(t)): a sums those that keep each row
    of the tableau, b those that keep each column, with their signs."""
    k, row_of, col_of = sum(shape), [], []
    for i, length in enumerate(shape):
        row_of += [i] * length
        col_of += range(length)
    rows, cols = [], []
    for s in permutations(range(k)):
        if list(map(row_of.__getitem__, s)) == row_of:
            rows.append(s)
        if list(map(col_of.__getitem__, s)) == col_of:
            cols.append((s, (-1) ** sum(x > y for i, x in enumerate(s) for y in s[i + 1 :])))
    # b a e_J = sum of sign(tau) e_(J sigma tau): digit t of each term is J_sigma(tau(t))
    terms = [([sigma[t] for t in tau], sign) for sigma in rows for tau, sign in cols]
    basis: dict[int, dict[int, int]] = {}
    for j in product(range(m), repeat=k):
        v: dict[int, int] = {}
        for perm, sign in terms:
            idx = 0
            for t in perm:
                idx = idx * m + j[t]
            v[idx] = v.get(idx, 0) + sign
        _modlinalg._echelon_add(basis, {i: r for i, x in v.items() if (r := x % p)}, p)
    return basis


def _slot_apply(v: dict[int, int], cols, w: int, m: int, p: int) -> dict[int, int]:
    """(1 x ... x R x ... x 1) v mod p, R acting on the slot of weight w of
    the flat index, given by its columns cols = {b: [(a, R_ab), ...]}."""
    out: dict[int, int] = {}
    for idx, x in v.items():
        b = idx // w % m
        for a, y in cols.get(b, ()):
            t = idx + (a - b) * w
            out[t] = out.get(t, 0) + x * y
    return {t: r for t, x in out.items() if (r := x % p)}


def restrict(basis, cols, scale: int, k: int, m: int, p: int) -> dict[int, int] | None:
    """The d x d matrix, by its nonzero residues, of scale R^(x k) on the
    span W of the echelon basis, R applied one slot at a time from its
    columns cols and never formed: column t holds the image of the t-th
    basis row (pivot order), read off at the pivots. None when an image
    leaves a nonzero residual, so that W is not invariant."""
    pivots = sorted(basis)
    d, at, out = len(pivots), dict(zip(pivots, range(len(pivots)))), {}
    for t, piv in enumerate(pivots):
        v = dict(basis[piv])
        for s in range(k):
            v = _slot_apply(v, cols, m**s, m, p)
        for i, x in v.items():
            if i in at and x * scale % p:
                out[at[i] * d + t] = x * scale % p
        if _modlinalg._reduce(basis, v, p):
            return None
    return out


def shape_blocks(p, r, prime):
    """(lambda, d, [B_1, ..., B_(n-1)] restricted to W_lambda) for each shape
    of cellular.shape_dimensions(n, r), mod prime: W_lambda = schur_block,
    of dimension d, and B_i = q1^(r-k) R_i^(x k) on it by restrict, None
    where W_lambda is not invariant; R_i = reduced_generator(i)."""
    m = p.n - 1
    q1 = p.q1.numerator * pow(p.q1.denominator, -1, prime) % prime
    gens = [_modlinalg.residues(reduced_generator(i, p), prime) for i in range(1, p.n)]
    cols = [{b: [(a, g[a * m + b]) for a in range(m) if a * m + b in g] for b in range(m)} for g in gens]
    out = []
    for shape, _, _ in shape_dimensions(p.n, r):
        basis, k = schur_block(shape, m, prime), sum(shape)
        scale = pow(q1, r - k, prime)
        out.append((shape, len(basis), [restrict(basis, c, scale, k, m, prime) for c in cols]))
    return out
