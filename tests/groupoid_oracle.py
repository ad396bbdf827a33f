"""The groupoid check that cellular.steinberg_failure replaced, on every
diagram of the basis: phi(g) phi(b) = phi(gb) for each generator g and
each basis diagram b, with g and gb read off cellular.generator_rows at
z = 1. Also the flip star, whose fixed points the Gram certificate counts
in closed form. And the two controls that break phi of one letter."""

from operator import itemgetter

from braidrook import cellular
from braidrook.cellular import _code
from braidrook.diagrams import PartialPermutation


def star(d):
    """The anti-involution: flip the diagram top to bottom."""
    return PartialPermutation(d.r, [(y, x) for x, y in d.pairs])


def arrows(d):
    """The 2^rank(d) arrows [d|T], T a subset of dom d, of phi(d), each as
    its _code."""
    return [
        _code(d.r, [pair for t, pair in enumerate(d.pairs) if keep >> t & 1])
        for keep in range(1 << d.rank)
    ]


def groupoid_failure(basis, rows):
    """None when phi(g) phi(b) = phi(gb) for every generator g of
    diagrams.generator_diagrams(r) and every b in basis = rook_elements(r),
    g and gb read off rows = generator_rows(basis) at z = 1; otherwise the
    first failure. The arrow [b|U] meets one arrow of phi(g) at most, the
    one with image U: a check costs 2^rank(b) steps."""
    phis = [arrows(d) for d in basis]
    images = [sorted(m for m, _, _ in a) for a in phis]
    for gi, row in rows:
        # s then t reads t's map at s's entries
        then = {im: itemgetter(*m) for m, _, im in phis[gi]}
        for b, b_arrows, (k, _) in zip(basis, phis, row):
            product = [then[dom](m) for m, dom, _ in b_arrows if dom in then]
            if sorted(product) != images[k]:
                return f"phi(g) phi(b) != phi(gb) at g = {basis[gi]!r}, b = {b!r}"
    return None


def bump_arrow(monkeypatch, letter):
    """Negative control: phi(letter) as cellular._steinberg builds it, with
    its one-point arrow [letter|{x}], x the least point of dom letter, sent
    to y % r + 1 in place of its image y."""
    real = cellular._steinberg
    (x, y), r = letter.pairs[0], letter.r
    m, dom, im = _code(r, [(x, y % r + 1)])

    def bumped(d):
        phi = real(d)
        if d == letter:
            phi[dom] = (m, im)
        return phi

    monkeypatch.setattr(cellular, "_steinberg", bumped)


def drop_empty_arrow(monkeypatch, letter):
    """Negative control: phi(letter) without its arrow [letter|{}]."""
    real = cellular._steinberg

    def dropped(d):
        phi = real(d)
        if d == letter:
            del phi[0]
        return phi

    monkeypatch.setattr(cellular, "_steinberg", dropped)
