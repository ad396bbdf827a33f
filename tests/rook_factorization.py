"""The projection factorization of a rook diagram, the test oracle for the
closed-form diagram operators.

Every partial permutation d factors as d = (prod of p_j over j outside
dom(d)) w(d) = w(d) (prod of p_j over j outside im(d)), where w(d) is any
permutation that agrees with d on dom(d); the canonical one closes each
link of the cycle-link decomposition into a cycle. A permutation of
{1..r} is a tuple w with w[i-1] = image of i.
"""

from braidrook.diagrams import PartialPermutation, cycle_link_decompose


def perm_from_cycles(r, cycles):
    out = list(range(1, r + 1))
    for cyc in cycles:
        for a, b in zip(cyc, list(cyc[1:]) + [cyc[0]]):
            out[a - 1] = b
    return tuple(out)


def permutation_diagram(w):
    """The full-rank diagram i -> w[i-1]."""
    return PartialPermutation(len(w), [(i + 1, v) for i, v in enumerate(w)])


def canonical_extension(d):
    """Close every link into a cycle; the resulting permutation w(d)
    restricts to d on dom(d)."""
    cycles = [nodes for _, nodes in cycle_link_decompose(d)]
    return perm_from_cycles(d.r, cycles)


def projection_factorization(d):
    """(X', w(d), Y') with d = (prod_{j in X'} p_j) w(d) = w(d) (prod_{j in Y'} p_j),
    where X', Y' are the complements of dom(d), im(d)."""
    x_rest = frozenset(range(1, d.r + 1)) - d.dom
    y_rest = frozenset(range(1, d.r + 1)) - d.im
    return x_rest, canonical_extension(d), y_rest
