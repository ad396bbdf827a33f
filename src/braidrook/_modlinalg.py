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
F_p in pure Python: _echelon_add on {index: residue} dicts. Two lower
bounds come from it. Each bounds from below the dimension over F_p of a
space spanned by reductions of p-integral rational matrices, which is at
most the dimension over Q when p divides no denominator of the
generators. One search, lower_bound, picks p from SANDWICH_PRIMES for
both:
- envelope_bound: the braid envelope shape by shape, the one lower bound
  of the duality report's character certificate (see
  tensor.duality_report). For each shape lambda it spans the image
  W_lambda of a Young symmetrizer on F_p^(x k) (schur_block), restricts
  the braid generators to it slot by slot (restrict), and certifies by
  Norton's irreducibility test (_norton) that they generate all of
  End(W_lambda), (dim W_lambda)^2 dimensions, without spanning it: an
  x - lambda of the block's algebra with a 1-dimensional kernel, and two
  spins of d vectors each. Blocks of one dimension are told apart by a
  trace or by the standard basis test (_isomorphic);
- bracket_closure_dim_mod: the Lie algebra of the tangent generators, which
  lieclosure.bracket_closure compares with its gl/sl ceiling: a
  linalg.worklist_closure, a matrix entry indexed row-major, with the
  brackets of each basis row taken by one kernel, _images, that builds
  every generator's bracket with it in one pass over its nonzeros. It
  takes no bracket once the span holds the Chevalley units e_(i,i+-1),
  which generate sl_m, and reads the dimension off the traces
  (lieclosure.bracket_closure has the argument).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, count, permutations, product
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


# -- Norton's irreducibility test on each shape block --------------------------------


def _columns(g, d: int, transpose: bool = False) -> dict[int, list]:
    """The d x d residue matrix g, {row-major index: residue}, or its
    transpose, by its columns {b: [(a, entry (a, b)), ...]}, as _apply
    takes it."""
    out: dict[int, list] = {}
    for k, y in g.items():
        a, b = divmod(k, d)
        if transpose:
            a, b = b, a
        out.setdefault(b, []).append((a, y))
    return out


def _apply(cols, v: dict[int, int], p: int) -> dict[int, int]:
    """g v mod p, g by its columns cols and v by its nonzero residues."""
    out: dict[int, int] = {}
    for b, x in v.items():
        for a, y in cols.get(b, ()):
            out[a] = out.get(a, 0) + x * y
    return {a: r for a, x in out.items() if (r := x % p)}


def _evaluate(terms, block, d: int, p: int) -> dict[int, int]:
    """The residue matrix sum c w over terms = [(c, word)], w the product
    of block[i] over i in word, in order, for the d x d residue matrices
    block."""
    out: dict[int, int] = {}
    for c, word in terms:
        x = block[word[0]]
        for i in word[1:]:
            x = sparse_product(x, rows_of(block[i], d), d, d)
        for k, y in x.items():
            out[k] = out.get(k, 0) + c * y
    return {k: r for k, y in out.items() if (r := y % p)}


def _name(terms) -> str:
    """terms = [(c, word)] written out, such as "B_1 B_2 + 5 B_1"."""
    return " + ".join(" ".join([str(c)] * (c != 1) + [f"B_{i + 1}" for i in word]) for c, word in terms)


def _kernel(x, lam: int, d: int, p: int, transpose: bool = False) -> dict[int, int] | None:
    """A vector spanning the kernel of x - lam, or of its transpose, for
    the d x d residue matrix x, when that kernel is 1-dimensional; None
    otherwise. The rows go into one fully reduced echelon, and the
    elimination stops at the second row that reduces to zero; with one
    free column f the vector is 1 at f and -row[f] at each pivot."""
    rows: dict[int, dict[int, int]] = {a: {} for a in range(d)}
    for k, y in x.items():
        a, b = divmod(k, d)
        if transpose:
            a, b = b, a
        rows[a][b] = y
    basis: dict[int, dict[int, int]] = {}
    zero = 0
    for a, row in rows.items():
        row[a] = (row.get(a, 0) - lam) % p
        if not row[a]:
            del row[a]
        if _echelon_add(basis, row, p) is None:
            zero += 1
            if zero == 2:
                return None
    if not zero:
        return None
    free = next(f for f in range(d) if f not in basis)
    v = {piv: -row[free] % p for piv, row in basis.items() if free in row}
    v[free] = 1
    return v


def _spin(cols, v: dict[int, int], d: int, p: int):
    """The standard basis of the span of the images of v != 0 under the
    algebra of the d x d matrices given by their columns cols: u_0 = v,
    then g u_s for s = 0, 1, ... and each g of cols in order, kept when it
    is independent of the vectors kept before it, until none is left or d
    are kept. Returns the vectors and the word (s, i) of each one after
    the first, u = cols[i] u_s. When fewer than d are kept, the span is a
    proper subspace that holds v and that each g maps into itself."""
    basis: dict[int, dict[int, int]] = {}
    _echelon_add(basis, dict(v), p)
    vectors, words, s = [v], [None], 0
    while s < len(vectors) < d:
        for i, g in enumerate(cols):
            u = _apply(g, vectors[s], p)
            if _echelon_add(basis, dict(u), p) is not None:
                vectors.append(u)
                words.append((s, i))
                if len(vectors) == d:
                    break
        s += 1
    return vectors, words


def _min_poly(cols, u: dict[int, int], d: int, p: int) -> list[int]:
    """The monic minimal polynomial of x on u, constant term first, x by
    its columns: the first x^t u that depends on u, x u, ..., x^(t-1) u,
    found on one echelon whose rows carry the coefficients of the powers
    at the indices d + s."""
    basis: dict[int, dict[int, int]] = {}
    for t in count():
        row = _echelon_add(basis, {**u, d + t: 1}, p)
        if min(row) >= d:
            inv = pow(row[d + t], -1, p)
            return [row.get(d + s, 0) * inv % p for s in range(t + 1)]
        u = _apply(cols, u, p)


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of the polynomials a by b over F_p, each a
    list of residues from the constant term up, b's last one nonzero; the
    remainder has no trailing zeros."""
    a, inv, n = a[:], pow(b[-1], -1, p), len(b) - 1
    q = [0] * max(len(a) - n, 0)
    for i in reversed(range(n, len(a))):
        if c := a[i] * inv % p:
            q[i - n] = c
            for j, y in enumerate(b):
                a[i - n + j] = (a[i - n + j] - c * y) % p
    a = a[:n]
    while a and not a[-1]:
        a.pop()
    return q, a


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """The monic gcd over F_p of a and b, b without trailing zeros."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _mul_mod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    """a b mod f over F_p."""
    product = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            product[i + j] += x * y
    return _divmod([x % p for x in product], f, p)[1]


def _pow_mod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    """a^e mod f over F_p, by squaring."""
    out = [1]
    for bit in bin(e)[2:]:
        out = _mul_mod(out, out, f, p)
        if bit == "1":
            out = _mul_mod(out, a, f, p)
    return out


def _less_monomial(h: list[int], k: int, p: int) -> list[int]:
    """h - X^k over F_p, without trailing zeros."""
    h = h + [0] * (k + 1 - len(h))
    h[k] = (h[k] - 1) % p
    while h and not h[-1]:
        h.pop()
    return h


def _roots(f: list[int], p: int, rng) -> list[int]:
    """The distinct roots in F_p of the monic f: g = gcd(X^p - X, f) is
    the product of X - a over them, and an equal-degree split (Cantor and
    Zassenhaus) takes gcd((X + a)^((p - 1)/2) - 1, g) for a seeded a until
    each factor is linear."""
    todo, roots = [_gcd(f, _less_monomial(_pow_mod([0, 1], p, f, p), 1, p), p)], []
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
        elif len(g) > 2:
            s = _gcd(g, _less_monomial(_pow_mod([rng.randrange(p), 1], (p - 1) // 2, g, p), 0, p), p)
            todo += [s, _divmod(g, s, p)[0]] if 1 < len(s) < len(g) else [g]
    return roots


# seeded tries of the fallback of _candidates
FALLBACK_TRIES = 8


def _candidates(block, d: int, p: int, eigenvalues):
    """The (terms, x, lam) that _norton tries, in order, x = the residue
    matrix of terms: x = B_1 with each of eigenvalues; then, for each of
    FALLBACK_TRIES seeded tries, x = B_i B_j + sum_t c_t B_t, i, j and
    the c_t drawn at random, with each root in F_p of its minimal
    polynomial on a random vector. These choices only find a candidate;
    _norton's checks are what certify it."""
    for lam in dict.fromkeys(eigenvalues):
        yield [(1, (0,))], block[0], lam
    rng, k = random.Random(d), len(block)
    for _ in range(FALLBACK_TRIES):
        terms = [(1, (rng.randrange(k), rng.randrange(k))), *((rng.randrange(1, p), (t,)) for t in range(k))]
        x = _evaluate(terms, block, d, p)
        u = {i: r for i in range(d) if (r := rng.randrange(p))}
        for lam in _roots(_min_poly(_columns(x, d), u, d, p), p, rng):
            yield terms, x, lam


def _norton(block, d: int, p: int, eigenvalues):
    """Norton's irreducibility test (R. A. Parker, "The computer
    calculation of modular characters (the Meat-Axe)", 1984; D. F. Holt
    and S. Rees, J. Austral. Math. Soc. A 57, 1994) on the d x d residue
    matrices block, the B_i restricted to W: the first x - lam of
    _candidates whose kernel is 1-dimensional, and the spins of a kernel
    vector v of x - lam under the block and of a kernel vector w of its
    transpose under the transposes. Returns (terms, lam, the spin of v)
    when both reach d, and None otherwise; tensor.duality_report says why
    the block is then all of End(W). Once a kernel is 1-dimensional the
    test is decided: a spin short of d is a proper invariant subspace of
    W, or of its dual, so the restricted algebra is not all of End(W)."""
    for terms, x, lam in _candidates(block, d, p, eigenvalues):
        if (v := _kernel(x, lam, d, p)) is None:
            continue
        spin = _spin([_columns(g, d) for g in block], v, d, p)
        if len(spin[0]) < d:
            return None
        w = _kernel(x, lam, d, p, transpose=True)
        if len(_spin([_columns(g, d, transpose=True) for g in block], w, d, p)[0]) < d:
            return None
        return terms, lam, spin
    return None


def _isomorphic(block_a, certificate, block_b, d: int, p: int) -> bool:
    """The standard basis test: whether the blocks a, certified by
    certificate = _norton(block_a), and b are isomorphic modules. With
    x - lam of a's certificate evaluated on b, a kernel vector v_b of it
    is spun along the words of a's standard basis u_0..u_(d-1); they are
    isomorphic exactly when that kernel is 1-dimensional and, for each
    generator g and each s, g u_s = sum_t c_t u_t in a gives
    g v_s = sum_t c_t v_t in b. The coefficients c_t are read off one
    echelon of the u_t whose rows carry them at the indices d + t."""
    terms, lam, (us, words) = certificate
    v = _kernel(_evaluate(terms, block_b, d, p), lam, d, p)
    if v is None:
        return False
    cols_a, cols_b = [_columns(g, d) for g in block_a], [_columns(g, d) for g in block_b]
    vs = [v]
    for s, i in words[1:]:
        vs.append(_apply(cols_b[i], vs[s], p))
    basis: dict[int, dict[int, int]] = {}
    for t, u in enumerate(us):
        _echelon_add(basis, {**u, d + t: 1}, p)
    for ga, gb in zip(cols_a, cols_b):
        for u, w in zip(us, vs):
            image: dict[int, int] = {}
            # g u reduces to -sum_t c_t e_(d + t)
            for t, c in _reduce(basis, _apply(ga, u, p), p).items():
                for i, x in vs[t - d].items():
                    image[i] = image.get(i, 0) - c * x
            if {i: r for i, x in image.items() if (r := x % p)} != _apply(gb, w, p):
                return False
    return True


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
    - Norton's test on the restricted B_i (_norton); the block is full when
      it passes. R_i has the eigenvalues q1 and q2, read off its trace, so
      the eigenvalues of B_1 on W lie among q1^(r-j) q2^j, j = 0..k, and
      q2^j occurs only for j <= lambda_1, as each column of the tableau
      takes the q2-eigenvector of R_1 at most once. These are the
      candidates tried first, the ends j = lambda_1 and j = 0 before the
      rest, as their eigenspaces tend to be the smallest.
    Two full blocks of one dimension are separated when the trace of a
    word of TRACE_WORDS differs on them, or else when the standard basis
    test (_isomorphic) finds them not isomorphic. The bound is the sum of
    d^2 over the full blocks separated from every other full block;
    tensor.duality_report says why it is at most the dimension of the
    envelope over Q. Returns (bound, record): the record has each shape's
    label, dim, and the x and lambda of its certificate (None when the
    block is not certified), the check that separated each pair of
    equal-dimension full blocks (None when none did), and each failed
    check."""
    q1, m = residues(gens[0], p).get(0, 0), gens[1].rows
    cols = [_columns(residues(g, p), m) for g in gens[1:]]
    # R_1 has the eigenvalue q1, m - 1 times, and q2
    q2 = (sum(y for b, col in cols[0].items() for a, y in col if a == b) - (m - 1) * q1) % p
    words = [(name, w) for name, w in TRACE_WORDS if max(w) < len(cols)]
    blocks, full, failures = [], [], []
    for shape, want in shapes:
        label, k = f"({','.join(map(str, shape))})", sum(shape)
        order = [shape[0], 0, *range(1, shape[0])] if shape else [0]
        basis = schur_block(shape, m, p)
        d, certificate = len(basis), None
        if d != want:
            failures.append(f"dim W_{label} = {d}, not {want}")
        elif None in (block := [restrict(basis, c, pow(q1, r - k, p), k, m, p) for c in cols]):
            failures.append(f"W_{label} is not invariant")
        elif certificate := _norton(block, d, p, [pow(q1, r - j, p) * pow(q2, j, p) % p for j in order]):
            traces = []
            for _, (*head, last) in words:
                # tr(h g) = sum of h_ij g_ji, h the product of the head
                h = _evaluate([(1, head)], block, d, p) if head else {t * (d + 1): 1 for t in range(d)}
                traces.append(sum(y * block[last].get(i % d * d + i // d, 0) for i, y in h.items()) % p)
            full.append((label, d, block, traces, certificate))
        x, lam = (_name(certificate[0]), certificate[1]) if certificate else (None, None)
        blocks.append({"shape": label, "dim": d, "x": x, "lambda": lam})
    separated, tied = [], set()
    for (i, (a, d, ga, ta, ca)), (j, (b, e, gb, tb, _)) in combinations(enumerate(full), 2):
        if d != e:
            continue
        by = next((name for (name, _), x, y in zip(words, ta, tb) if x != y), None)
        if by is None:
            if _isomorphic(ga, ca, gb, d, p):
                tied |= {i, j}
                failures.append(f"W_{a} and W_{b} are not separated")
            else:
                by = "standard basis"
        separated.append({"pair": [a, b], "by": by})
    bound = sum(d * d for i, (_, d, *_) in enumerate(full) if i not in tied)
    return bound, {"blocks": blocks, "separated": separated, "failures": failures}


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
