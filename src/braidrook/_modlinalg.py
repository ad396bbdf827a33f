"""A certified modular engine for large exact nullspaces, now slower than
the sparse exact path of linalg at every size measured (ROADMAP.md item 7).

Strategy: clear denominators row by row (nullspace-preserving), reduce the
integer system modulo a few 31-bit primes, eliminate each on _echelon_add,
CRT-combine, and lift entries by rational reconstruction. Every
candidate vector is then verified exactly over the rationals against the
original system. Verified candidates are provably a full basis: the mod-p
nullity bounds the rational nullity from above, and the candidates are
independent by construction, so matching counts certify completeness.
Any failure returns None and the caller falls back to pure elimination.

Every elimination here runs on one sparse, fully reduced echelon over
F_p in pure Python: _echelon_add on {index: residue} dicts. One lower
bound comes from it, bracket_closure_dim_mod: the dimension over F_p of
the Lie algebra generated by the residues of p-integral rational
matrices, which is at most the dimension over Q when p divides no
denominator of the generators. lieclosure.bracket_closure compares it
with its gl/sl ceiling, and the duality report's character certificate
with m^2 on the tangents of the braid generators' one-parameter
subgroups (tensor.duality_report). Both pick p from SANDWICH_PRIMES by
one search, lower_bound. The closure is a linalg.worklist_closure, a
matrix entry indexed row-major, with the brackets of each basis row
taken by one kernel, _images, that builds every generator's bracket with
it in one pass over its nonzeros. It takes no bracket once the span
holds the Chevalley units e_(i,i+-1), which generate sl_m, and reads the
dimension off the traces (lieclosure.bracket_closure has the argument).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .linalg import worklist_closure

# Deterministic primes just below 2^31, tried in order; each agreeing prime
# adds about 31 bits to the CRT modulus that rational reconstruction reads.
PRIMES = [
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563,
    2147483549, 2147483543, 2147483497, 2147483489, 2147483477,
    2147483423, 2147483399, 2147483353, 2147483323, 2147483269,
    2147483249, 2147483237, 2147483179, 2147483171, 2147483137,
]

_MAX_PRIMES = 12


def _integer_rows(rows):
    """Scale each sparse rational row to integers; preserves the nullspace."""
    out = []
    for entries in rows:
        denom = 1
        for _, v in entries:
            denom = lcm(denom, v.denominator)
        out.append([(j, v.numerator * (denom // v.denominator)) for j, v in entries])
    return out


def _rref_mod(int_rows, p: int):
    """RREF of the integer system mod p, by _echelon_add. Returns (pivot
    columns in order, one pivot row per pivot as {column: residue}); the
    RREF is unique, so the order rows are added in does not matter."""
    basis: dict[int, dict[int, int]] = {}
    for entries in int_rows:
        _echelon_add(basis, {j: r for j, v in entries if (r := v % p)}, p)
    pivots = sorted(basis)
    return pivots, [basis[c] for c in pivots]


def _rational_reconstruct(c: int, m: int) -> Fraction | None:
    """Wang lifting: the unique n/d with n = c*d (mod m), |n|, d <= sqrt(m/2)."""
    c %= m
    bound = isqrt(m // 2)
    r0, t0 = m, 0
    r1, t1 = c, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound:
        return None
    n, d = r1, t1
    if d < 0:
        n, d = -n, -d
    if gcd(n, d) != 1:
        return None
    return Fraction(n, d)


def _crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    inv = pow(m1 % m2, -1, m2)
    t = ((r2 - r1) * inv) % m2
    return r1 + m1 * t, m1 * m2


def certified_nullspace(rows, ncols: int):
    """Nullspace basis of a sparse rational system, exact and canonical,
    or None if certification fails (caller then uses pure elimination).

    Soundness: for any prime, rank mod p <= rational rank, so the mod-p
    nullity bounds the rational nullity from above. The lifted candidates
    are independent by construction (identity pattern on free columns), so
    once all of them verify exactly the count matches the bound and they
    form a complete basis. They are already the exact engine's canonical
    basis: a 1 at free column f, zeros at the other free columns, and
    support otherwise only on pivot columns before f, in order of f.
    """
    int_rows = _integer_rows(rows)
    structures: dict[tuple[int, ...], list] = {}
    for p in PRIMES[:_MAX_PRIMES]:
        pivots, reduced = _rref_mod(int_rows, p)
        structures.setdefault(tuple(pivots), []).append((p, pivots, reduced))
        best_rank = max(len(k) for k in structures)
        viable = [v for k, v in structures.items() if len(k) == best_rank and len(v) >= 2]
        if not viable:
            continue
        agreeing = max(viable, key=len)
        candidates = _lift(agreeing, ncols)
        if candidates is None:
            continue
        if _verify(rows, candidates) is not None:
            return candidates
    return None


def _lift(agreeing, ncols):
    """CRT-combine the agreeing primes and rationally reconstruct the
    canonical nullspace vectors (one per free column)."""
    pivots = agreeing[0][1]
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    vectors = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pcol in enumerate(pivots):
            if pcol > f:
                break
            residue, modulus = 0, 1
            for prime, _, reduced in agreeing:
                entry = reduced[i].get(f, 0)
                residue, modulus = _crt_pair(residue, modulus, entry, prime) if modulus > 1 else (entry, prime)
            if residue == 0:
                continue
            value = _rational_reconstruct(residue, modulus)
            if value is None:
                return None
            v[pcol] = -value
        vectors.append(v)
    return vectors


def _verify(rows, candidates):
    """Exact check that every candidate annihilates every original row."""
    for v in candidates:
        for entries in rows:
            total = Fraction(0)
            for j, coef in entries:
                x = v[j]
                if x:
                    total += coef * x
            if total:
                return None
    return candidates


# -- the mod-p Lie closure on one sparse echelon -------------------------------

# Fixed primes just below 2^26; a closure that misses at one moves on to the next.
SANDWICH_PRIMES = [67108859, 67108837, 67108819, 67108777]


def is_p_integral(mats, p: int) -> bool:
    """Whether p divides no denominator of any entry of the matrices."""
    # a zero entry has denominator 1, so the nonzeros decide it
    return all(x.denominator % p for m in mats for x in m.nonzeros().values())


def lower_bound(gens, target: int):
    """The prime search of the mod-p Lie closure, for
    lieclosure.bracket_closure and the duality report: try each listed prime
    that divides no denominator of the matrices gens, in order, until the
    lower bound bracket_closure_dim_mod(gens, p, target) meets target.
    Returns (prime, bound, skipped, reason), reason None on a meet; on a
    miss, the largest bound and its prime (the first on a tie), or None,
    None when every prime is skipped."""
    skipped, tried = [], {}
    for p in SANDWICH_PRIMES:
        if not is_p_integral(gens, p):
            skipped.append(p)
            continue
        tried[p] = bracket_closure_dim_mod(gens, p, target)
        if tried[p] == target:
            return p, tried[p], skipped, None
    if not tried:
        return None, None, skipped, "every listed prime divides a denominator"
    best = max(tried, key=tried.get)
    return best, tried[best], skipped, f"bounds do not meet mod {' or '.join(map(str, tried))}"


def residues(m, p: int) -> dict[int, int]:
    """A p-integral rational matrix reduced entrywise mod p, by its nonzero
    residues {row-major index: residue}."""
    out = ((k, x.numerator * pow(x.denominator, -1, p) % p) for k, x in m.nonzeros().items())
    return {k: r for k, r in out if r}


def _reduce(basis: dict[int, dict[int, int]], v: dict[int, int], p: int) -> dict[int, int]:
    """Reduce the residue vector v, {index: nonzero residue}, in place
    against the fully reduced echelon basis {pivot: row, 1 at the pivot}
    over F_p, and return it: empty exactly when v lies in the span."""
    # pivot columns are zero in every other basis row, so each coefficient
    # can be read off v before any subtraction
    for piv, c in [(k, c) for k, c in v.items() if k in basis]:
        for k, y in basis[piv].items():
            t = (v.get(k, 0) - c * y) % p
            if t:
                v[k] = t
            else:
                del v[k]
    return v


def _echelon_add(basis: dict[int, dict[int, int]], v: dict[int, int], p: int):
    """Adjoin the residue vector v to the fully reduced echelon basis, in
    place; v is used up. Returns a copy of the new basis row, or None when
    v already lies in the span."""
    if not _reduce(basis, v, p):
        return None
    piv = min(v)
    inv = pow(v[piv], -1, p)
    v = {k: y * inv % p for k, y in v.items()}
    for row in basis.values():
        c = row.get(piv)
        if c:
            for k, y in v.items():
                t = (row.get(k, 0) - c * y) % p
                if t:
                    row[k] = t
                else:
                    del row[k]
    basis[piv] = v
    return dict(v)


def _images(gens, m: int, p: int):
    """images(w) for linalg.worklist_closure over F_p: for each m x m
    residue matrix g of gens, {row-major index: residue}, in order, the
    bracket [g, w] = gw - wg of the residue matrix w, reduced mod p.

    Each generator, shifted to g - cI with c its most common diagonal
    residue (the first on the diagonal on a tie), is indexed by its nonzero
    rows and columns, so one pass over the nonzeros of w builds every
    image at once, and a generator that shares no row or column with w is
    never visited. The shift leaves fewer nonzeros to visit (each v
    generator of lieclosure carries an identity part) and changes no
    image, as ad(g - cI) = ad(g). An image that is zero mod p is left out,
    as zero lies in every span.
    """
    by_row: dict[int, list] = {}
    by_col: dict[int, list] = {}
    for t, g in enumerate(gens):
        diagonal = [g.get(i * (m + 1), 0) for i in range(m)]
        c = max(diagonal, key=diagonal.count)
        for k, y in {**g, **{i * (m + 1): (x - c) % p for i, x in enumerate(diagonal)}}.items():
            if y:
                a, b = divmod(k, m)
                by_row.setdefault(a, []).append((t, b, -y))
                by_col.setdefault(b, []).append((t, a, y))

    def images(w):
        outs = [{} for _ in gens]
        for k, x in w.items():
            i, j = divmod(k, m)
            # w g puts w_ij g_jb at (i, b); g w puts g_ai w_ij at (a, j)
            for t, b, y in by_row.get(j, ()):
                out, s = outs[t], i * m + b
                out[s] = out.get(s, 0) + x * y
            for t, a, y in by_col.get(i, ()):
                out, s = outs[t], a * m + j
                out[s] = out.get(s, 0) + y * x
        for out in outs:
            if v := {s: r for s, x in out.items() if (r := x % p)}:
                yield v

    return images


def bracket_closure_dim_mod(gens, p: int, ceiling: int) -> int:
    """Dimension over F_p of the span of the p-integral generators' residues,
    closed under ad_g = [g, .] for each generator g by
    linalg.worklist_closure on the images of _images, as in
    lieclosure.bracket_closure; it stops once the dimension reaches
    ceiling. The seeds are the residues themselves, not their shifts.
    Everything found reduces from the lattice L cap Z_(p)^(m^2) of the
    rational closure L, so the result is at most dim_Q L.

    It also stops taking images once the span holds the 2(m - 1) Chevalley
    units e_(i,i+1) and e_(i+1,i), and returns min(m^2 - 1 + t, ceiling),
    t = 1 when some residue has a nonzero trace mod p, else 0. That is the
    value of the unstopped worklist: the units generate sl_m over F_p, and
    every bracket is traceless (lieclosure.bracket_closure gives the
    argument). Over the fully reduced echelon, e_k lies in the span exactly
    when its row at pivot k is {k: 1}, and a unit row is never changed
    again, so only the units still missing are looked at after each add.
    """
    m = gens[0].rows
    res = [residues(g, p) for g in gens]
    # read the traces and index the generators before _echelon_add uses up
    # the seeds
    t = any(sum(r.get(i * (m + 1), 0) for i in range(m)) % p for r in res)
    images = _images(res, m, p)
    basis: dict[int, dict[int, int]] = {}
    missing = [k for i in range(m - 1) for k in (i * (m + 1) + 1, (i + 1) * (m + 1) - 1)]

    def add(v):
        row = _echelon_add(basis, v, p)
        # a row holds 1 at its pivot, so a row of one entry is a unit row,
        # which no later add changes: wait on one missing unit at a time
        while row is not None and missing and len(basis.get(missing[-1], ())) == 1:
            missing.pop()
        return row

    dim = worklist_closure(add, res, lambda w: images(w) if missing else (), ceiling)
    return dim if missing else min(m * m - 1 + t, ceiling)
