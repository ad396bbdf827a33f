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

Every elimination here, the nullspace's and the closures', runs on one
sparse, fully reduced echelon over F_p in pure Python: _echelon_add on
{index: residue} dicts. Two lower bounds come from linalg.worklist_closure
on it, a matrix entry indexed row-major, with the images of each basis
row taken by one kernel, _images: one pass over the row's nonzeros builds
every generator's product with it, in integers reduced mod p afterwards,
and never visits a generator whose product must be zero. Each is
the dimension over F_p of a space spanned by reductions of p-integral
rational matrices, which is at most the dimension over Q when p divides
no denominator of the generators. One search,
lower_bound, picks p from SANDWICH_PRIMES for both:
- envelope_bound: the braid envelope shape by shape, the one lower bound
  of the duality report's character certificate (see
  tensor.duality_report). For each shape lambda it spans the image
  W_lambda of a Young symmetrizer on F_p^(x k) (schur_block), restricts
  the braid generators to it slot by slot (restrict), and closes them
  there (closure_dim_mod, ceiling (dim W_lambda)^2);
- bracket_closure_dim_mod: the Lie algebra of the tangent generators, which
  lieclosure.bracket_closure compares with its gl/sl ceiling.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations, product
from math import gcd, isqrt, lcm

from .linalg import worklist_closure
from .matrix import rows_of, sparse_product

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


# -- the mod-p lower bounds: one sparse echelon for both closures ---------------

# Fixed primes just below 2^26; a closure that misses at one moves on to the next.
SANDWICH_PRIMES = [67108859, 67108837, 67108819, 67108777]


def is_p_integral(mats, p: int) -> bool:
    """Whether p divides no denominator of any entry of the matrices."""
    # a zero entry has denominator 1, so the nonzeros decide it
    return all(x.denominator % p for m in mats for x in m.nonzeros().values())


def lower_bound(gens, closure, target: int):
    """The prime search of both mod-p certificates: try each listed prime
    that divides no denominator of the matrices gens, in order, until the
    lower bound closure(p) meets target. Returns (prime, bound, skipped,
    reason), reason None on a meet; on a miss, the largest bound and its
    prime (the first on a tie), or None, None when every prime is skipped."""
    skipped, tried = [], {}
    for p in SANDWICH_PRIMES:
        if not is_p_integral(gens, p):
            skipped.append(p)
            continue
        tried[p] = closure(p)
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


def _images(gens, m: int, p: int, bracket: bool):
    """images(w) for linalg.worklist_closure over F_p: for each m x m
    residue matrix g of gens, {row-major index: residue}, in order, the
    image of the residue matrix w under w -> w(g - cI), or under
    w -> [g, w] = gw - wg when bracket is set, reduced mod p; c is the most
    common diagonal residue of g, the first on the diagonal on a tie.

    Each shifted generator is indexed by its nonzero rows, and by its
    nonzero columns when bracket is set, so one pass over the nonzeros of w
    builds every image at once, and a generator that shares no row or
    column with w is never visited. The shift leaves fewer nonzeros to
    visit (each v generator of lieclosure carries an identity part), and
    changes no closure:
    - ad(g - cI) = ad(g);
    - a span holds wg exactly when it holds w(g - cI) = wg - cw, since it
      holds cw, so a span is closed under w -> wg exactly when it is
      closed under w -> w(g - cI);
    - an image that is zero mod p is left out, as zero lies in every span.
    """
    by_row: dict[int, list] = {}
    by_col: dict[int, list] = {}
    for t, g in enumerate(gens):
        diagonal = [g.get(i * (m + 1), 0) for i in range(m)]
        c = max(diagonal, key=diagonal.count)
        for k, y in {**g, **{i * (m + 1): (x - c) % p for i, x in enumerate(diagonal)}}.items():
            if y:
                a, b = divmod(k, m)
                by_row.setdefault(a, []).append((t, b, -y if bracket else y))
                if bracket:
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


def closure_dim_mod(gens, m: int, p: int, ceiling: int | None) -> int:
    """Dimension over F_p of the unital algebra that the m x m residue
    matrices gens, {row-major index: residue}, generate:
    linalg.worklist_closure of the span of 1 under right multiplication by
    each of them, on the images of _images; it stops once the dimension
    reaches ceiling, which loses nothing when ceiling bounds the algebra
    (m^2 always does). envelope_bound runs it on each shape's block, with
    ceiling d^2, and on pairs of blocks that no trace separates, with
    ceiling 2 d^2."""
    basis: dict[int, dict[int, int]] = {}
    one = {k * (m + 1): 1 for k in range(m)}
    return worklist_closure(lambda v: _echelon_add(basis, v, p), [one], _images(gens, m, p, False), ceiling)


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
        _echelon_add(basis, {i: r for i, x in v.items() if (r := x % p)}, p)
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
        if _reduce(basis, v, p):
            return None
    return out


# the words whose traces separate two blocks of one dimension, in order
TRACE_WORDS = (("tr B_1", (0,)), ("tr B_1 B_2", (0, 1)), ("tr B_1^2", (0, 0)))


def envelope_bound(gens, r: int, shapes, p: int) -> tuple[int, dict]:
    """The duality report's lower bound mod p on the braid envelope, shape
    by shape: gens = [q1 as a 1 x 1 matrix, R_1, ..., R_(n-1)] are the
    p-integral inputs of burau.split_generators, and shapes lists
    (lambda, expected dimension) for each lambda of k <= r. For each, with
    m = n - 1:
    - W = schur_block(lambda, m, p), and a check that dim W is expected;
    - B_i restricted to W: restrict of R_i with scale q1^(r-k); a nonzero
      residual means W is not invariant;
    - the closure of the restricted B_i, with ceiling d^2, d = dim W; the
      block is full when it reaches d^2.
    Two full blocks of one dimension are separated when the trace of a
    word of TRACE_WORDS differs on them, or else when the closure of the
    pair reaches 2 d^2. The bound is the sum of d^2 over the full blocks
    separated from every other full block; tensor.duality_report says why
    it is at most the dimension of the envelope over Q. Returns (bound,
    record): the record has each shape's label, dim and closure (None when
    a check failed before it), the word that separated each pair of
    equal-dimension full blocks (None when none did), and each failed
    check."""
    q1, m, cols = residues(gens[0], p).get(0, 0), gens[1].rows, []
    for g in gens[1:]:
        cols.append({})
        for i, x in residues(g, p).items():
            cols[-1].setdefault(i % m, []).append((i // m, x))
    words = [(name, w) for name, w in TRACE_WORDS if max(w) < len(cols)]
    blocks, full, failures = [], [], []
    for shape, want in shapes:
        label, k = f"({','.join(map(str, shape))})", sum(shape)
        basis = schur_block(shape, m, p)
        d, closure = len(basis), None
        if d != want:
            failures.append(f"dim W_{label} = {d}, not {want}")
        elif None in (block := [restrict(basis, c, pow(q1, r - k, p), k, m, p) for c in cols]):
            failures.append(f"W_{label} is not invariant")
        elif (closure := closure_dim_mod(block, d, p, d * d)) == d * d:
            traces = []
            for _, word in words:
                x = block[word[0]]
                for i in word[1:]:
                    x = sparse_product(x, rows_of(block[i], d), d, d)
                traces.append(sum(x.get(t * (d + 1), 0) for t in range(d)) % p)
            full.append((label, d, block, traces))
        blocks.append({"shape": label, "dim": d, "closure": closure})
    separated, tied = [], set()
    for (i, (a, d, ga, ta)), (j, (b, e, gb, tb)) in combinations(enumerate(full), 2):
        if d != e:
            continue
        by = next((name for (name, _), x, y in zip(words, ta, tb) if x != y), None)
        if by is None:
            # each generator of the pair as the block-diagonal (g_a, g_b)
            pair = [{(t // d + s) * 2 * d + t % d + s: x for s, g in ((0, g1), (d, g2)) for t, x in g.items()}
                    for g1, g2 in zip(ga, gb)]
            if closure_dim_mod(pair, 2 * d, p, 2 * d * d) == 2 * d * d:
                by = "pair closure"
            else:
                tied |= {i, j}
                failures.append(f"W_{a} and W_{b} are not separated")
        separated.append({"pair": [a, b], "by": by})
    bound = sum(d * d for i, (_, d, *_) in enumerate(full) if i not in tied)
    return bound, {"blocks": blocks, "separated": separated, "failures": failures}


def bracket_closure_dim_mod(gens, p: int, ceiling: int) -> int:
    """Dimension over F_p of the span of the p-integral generators' residues,
    closed under ad_g = [g, .] for each generator g by
    linalg.worklist_closure on the images of _images, as in
    lieclosure.bracket_closure; it stops once the dimension reaches
    ceiling. The seeds are the residues themselves, not their shifts.

    Every element found is the reduction of a p-integral element of the Lie
    algebra L that the rational generators generate: brackets and Z_(p)
    combinations of p-integral elements of L stay in L and stay p-integral,
    and dividing by a unit keeps them so. So everything found lies in the
    reduction of the lattice L cap Z_(p)^(m^2), and as residue vectors
    independent over F_p lift to vectors independent over Q, the result is
    at most dim_Q L.
    """
    res = [residues(g, p) for g in gens]
    # index the generators before _echelon_add uses up the seeds
    images = _images(res, gens[0].rows, p, True)
    basis: dict[int, dict[int, int]] = {}
    return worklist_closure(lambda v: _echelon_add(basis, v, p), res, images, ceiling)
