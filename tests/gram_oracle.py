"""The regular trace form of Q[R_r] on the rook basis, as dense m x m rows,
m = |R_r|: the oracle that cellular's groupoid certificates replaced. Its
determinant is the Bareiss det of G(1), and its two eliminations give the
duality dimensions chi^T G(1)^-1 chi and rank [chi(a_i a_j)]. Every product
comes from PartialPermutation.compose, not from the library's own rows."""

from fractions import Fraction
from functools import cache

from braidrook.diagrams import cycle_link_decompose, rook_elements
from braidrook.linalg import rref


def tensor_character(n, basis):
    """chi(a) = n^cyc(a) at each basis diagram a: the character of the rook
    monoid on the tensor space E^(x r), dim E = n."""
    return [Fraction(n ** sum(kind == "cycle" for kind, _ in cycle_link_decompose(d))) for d in basis]


def product_table(basis):
    """Entry [i][j] is (k, N) with a_i a_j = z^N a_k, by compose on every
    pair of basis = rook_elements(r)."""
    index = {d: i for i, d in enumerate(basis)}
    return [[(index[c], n) for c, n in (a.compose(b) for b in basis)] for a in basis]


def regular_trace_gram(table):
    """G(1)_ij = Tr(L_{a_i a_j}) as int rows, read off
    table = product_table(rook_elements(r)). At z = 1 every product of
    basis diagrams is a basis diagram, a_i a_j = a_k, so G(1)_ij = t_k with
    t_k = Tr(L_{a_k}) = #{j : a_k a_j = a_j}."""
    trace = [sum(k == j for j, (k, _) in enumerate(row)) for row in table]
    return [[trace[k] for k, _ in row] for row in table]


def eliminated_dimensions(table, chi):
    """(chi^T G(1)^-1 chi, rank H) with H_ij = chi(a_i a_j), chi[i] the
    character at a_i: the centralizer dimension by the Casimir identity,
    with the dual basis read off G(1)^-1, and the image dimension as the
    rank of the trace form tr_V(xy)."""
    m = len(table)
    echelon, pivots = rref([[*row, x] for row, x in zip(regular_trace_gram(table), chi)])
    assert pivots == list(range(m)), "G(1) is singular"
    centralizer = sum(x * row[m] for x, row in zip(chi, echelon))
    return centralizer, len(rref([[chi[k] for k, _ in row] for row in table])[1])


@cache
def tensor_dimensions(n, r):
    """eliminated_dimensions on the table of rook_elements(r) with the
    character of E^(x r), dim E = n; cached, as two tests compare it with
    the library's numbers at the same (n, r)."""
    basis = rook_elements(r)
    return eliminated_dimensions(product_table(basis), tensor_character(n, basis))
