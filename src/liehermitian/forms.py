"""Left-invariant complex differential forms and the exterior differential.

Forms go in and out as dicts mapping ``(I, J) -> coefficient``, where I
and J are strictly increasing tuples of 1-based frame indices standing
for the monomial phi_{I1} ^ .. ^ phi_{Ip} ^ phibar_{J1} ^ .. ^ phibar_{Jq};
mixed-degree forms carry keys of several lengths.

Inside, a monomial is a bitmask, bit i-1 for phi_i and bit MAX_DIM+j-1
for phibar_j, so that bit order is factor order, and a form is a pair of
arrays: int64 keys and complex coefficients.  A sign is the parity of a
count of transpositions; below(b) = b - 1 masks the bits under bit b.

On generators d follows from the structure constants,

    d phi_j = -1/2 sum C^j_{ik} phi_i ^ phi_k - sum conj(D^i_{jk}) phi_i ^ phibar_k,

and d phibar_j is the conjugate.  Each term coef * x_lo ^ x_hi (lo below
hi) of some d x_g is a row of a term table, split into the rows of del
(raising p) and of delbar (raising q); the rows of d are the two
together.  The rows depend on n alone and are built once per dimension;
their coefficients are read from C and D once per Algebra.  The graded
Leibniz rule turns a monomial K containing g, with N = K ^ g disjoint
from lo and hi, into N | lo | hi with the sign

    (-1)^|(K & below(g)) ^ (N & (below(lo) ^ below(hi)))|:

one count for moving g to the front, one for shuffling lo and hi into N.
Coefficients of magnitude at most 1e-14 (a cut that form and add also
take as an argument) are dropped once, when a result is returned.

Which monomials meet which rows, with which sign and into which output,
depends on n and the input monomials alone, not on the coefficients.
So every derivation runs as a recorded plan: entries (output slot,
source slot) grouped by row, where the source slot points into [x, -x]
for the step's input x and so carries the sign.  d, del and delbar
record one plan per (n, part, input monomials), a 1-form taken on all
2n generators so that its zero coefficients do not split its plans, and
keep the last _PLANS; partial(partialbar(omega^k)) records two steps,
delbar then del, per (n, k).  One kernel replays a plan on the
coefficients of an algebra (see _replay).
"""

import functools
import weakref
from math import factorial

import numpy as np

from .algebra import MAX_DIM
from .errors import InvalidDegree

_ZERO_CUT = 1e-14
_BAR = MAX_DIM  # bit of phibar_1
_GRID = 1 << 18  # bound on (monomial, row) pairs tested, and on plan entries replayed at once
_PLANS = 64  # bound on the recorded plans of d, del and delbar kept


def _parity(x):
    """Popcount parity (0 or 1) of masks of at most 32 bits."""
    for s in (16, 8, 4, 2, 1):
        x = x ^ (x >> s)
    return x & 1


def _mask(I, J):
    """(bitmask, sign) of phi_I ^ phibar_J with the factors sorted;
    the sign is 0 when an index repeats."""
    mask, sign = 0, 1
    for b in [i - 1 for i in I] + [_BAR + j - 1 for j in J]:
        if mask >> b & 1:
            return 0, 0
        if _parity(mask >> b):
            sign = -sign
        mask |= 1 << b
    return mask, sign


@functools.lru_cache(maxsize=1 << 12)
def _indices(mask):
    """The key (I, J) of a bitmask, memoised: reports decode the same
    monomials again and again."""
    bits = [b for b in range(2 * _BAR) if mask >> b & 1]
    return (tuple(b + 1 for b in bits if b < _BAR),
            tuple(b - _BAR + 1 for b in bits if b >= _BAR))


def _arrays(entries):
    """(keys, coefficients) of (I, J, coefficient) triples, not merged."""
    terms = [(_mask(I, J), c) for I, J, c in entries]
    keys = np.array([m for (m, _), _ in terms], dtype=np.int64)
    coeffs = np.array([s * complex(c) for (_, s), c in terms], dtype=complex)
    return keys, coeffs


def _from_dict(f):
    return _arrays((I, J, c) for (I, J), c in f.items())


def _to_dict(keys, coeffs, cut):
    keep = np.abs(coeffs) > cut
    return {_indices(int(k)): complex(c) for k, c in zip(keys[keep], coeffs[keep])}


def _merge(*parts):
    """One array form from (keys, coefficients) parts, with the
    coefficients of equal keys added up."""
    keys, coeffs = map(np.concatenate, zip(*parts))
    keys, inv = np.unique(keys, return_inverse=True)
    return keys, (np.bincount(inv, coeffs.real, keys.size)
                   + 1j * np.bincount(inv, coeffs.imag, keys.size))


def form(entries=(), cut=_ZERO_CUT):
    """Build a form dict from (I, J, coefficient) triples.

    Index tuples may be unordered; they are sorted with the appropriate
    sign.  Repeated indices inside a tuple make the monomial vanish.
    """
    return _to_dict(*_merge(_arrays(entries)), cut)


def phi(i):
    """The generator (1,0)-form with 1-based index i."""
    return {((i,), ()): 1.0 + 0.0j}


def phibar(i):
    """The generator (0,1)-form with 1-based index i."""
    return {((), (i,)): 1.0 + 0.0j}


def add(*forms_, cut=_ZERO_CUT):
    out = {}
    for f in forms_:
        for k, v in f.items():
            out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if abs(v) > cut}


def scale(f, c):
    c = complex(c)
    if c == 0:
        return {}
    return {k: c * v for k, v in f.items()}


def wedge(f, g):
    """Wedge product of two forms.

    Monomials a, b that share a factor give nothing.  Otherwise a ^ b is
    sorted by one transposition for each pair of a factor of a above a
    factor of b, i.e. by |a & above(p)| of them for every bit p of b.
    """
    ka, ca = _from_dict(f)
    kb, cb = _from_dict(g)
    a, b = ka[:, None], kb[None, :]
    odd = np.zeros((ka.size, kb.size), dtype=np.int64)
    for p in range(2 * _BAR):
        odd ^= (b >> p) & _parity(a >> (p + 1))
    ok = (a & b) == 0
    coeffs = ca[:, None] * cb[None, :] * (1 - 2 * odd)
    return _to_dict(*_merge(((a | b)[ok], coeffs[ok])), _ZERO_CUT)


def conjugate(f):
    """Complex conjugate: swaps the index blocks with sign (-1)^(pq)."""
    out = {}
    for (I, J), c in f.items():
        sgn = (-1) ** (len(I) * len(J))
        out[(J, I)] = sgn * np.conj(c)
    return out


def bidegree_project(f, p, q):
    """The (p, q) component of a mixed form."""
    if p < 0 or q < 0:
        raise InvalidDegree(f"bidegree ({p},{q}) is negative")
    return {k: v for k, v in f.items() if len(k[0]) == p and len(k[1]) == q}


def max_coeff(f):
    if not f:
        return 0.0
    return max(abs(v) for v in f.values())


_TABLES = weakref.WeakKeyDictionary()


@functools.lru_cache(maxsize=None)
def _rows(n):
    """The terms of d on the generators in dimension n, without their
    coefficients: the rows (del, delbar) of (g, test, pair, span, src),
    one row per term x_lo ^ x_hi of d x_g, with pair = lo | hi,
    test = g | pair and span = below(lo) ^ below(hi).  src indexes the
    coefficient in the source [-C, D, -conj D, -conj C] of _term_table.
    A monomial K takes the term when K & test == g: it contains g, and
    once g is gone, neither lo nor hi."""
    m, i, k = (x.ravel() for x in np.indices((n, n, n)))
    u = np.int64(1) << np.arange(n, dtype=np.int64)
    b = u << _BAR
    at = np.arange(m.size)
    upper, every = i < k, np.ones(m.size, dtype=bool)
    # (g, lo, hi, src, kept): d phi_m and its conjugate d phibar_m
    rows_del = ((u[m], u[i], u[k], at, upper),
                (b[m], u[k], b[i], at + m.size, every))
    rows_delbar = ((u[m], u[i], b[k], at + 2 * m.size, every),
                   (b[m], b[i], b[k], at + 3 * m.size, upper))
    out = []
    for rows in (rows_del, rows_delbar):
        g, lo, hi, src, kept = (np.concatenate(x) for x in zip(*rows))
        g, lo, hi, src = g[kept], lo[kept], hi[kept], src[kept]
        pair = lo | hi
        out.append((g, g | pair, pair, (lo - 1) ^ (hi - 1), src))
    return tuple(out)


def _term_table(alg):
    """The coefficients of the rows of del, of delbar and of d (those of
    del, then those of delbar) of _rows(n), cached per algebra, with the
    coefficients at or below the cut set to 0."""
    try:
        return _TABLES[alg]
    except KeyError:
        pass
    C, D = alg.C.ravel(), alg.D.transpose(1, 0, 2).ravel()
    source = np.concatenate((-C, D, -np.conj(D), -np.conj(C)))
    coefs = [source[rows[4]] for rows in _rows(alg.n)]
    coefs = [np.where(np.abs(c) > _ZERO_CUT, c, 0) for c in coefs]
    _TABLES[alg] = (*coefs, np.concatenate(coefs))
    return _TABLES[alg]


def _match(keys, rows):
    """The terms that the rows (g, test, pair, span, ...) of a term table
    give on the monomials keys, as arrays (t, r, monomial, sign), one
    entry per row t and monomial r that meet, ordered by row."""
    g, test, pair, span = rows[:4]
    t, r = np.nonzero((test[:, None] & keys) == g[:, None])
    K, gt = keys[r], g[t]
    N = K ^ gt
    odd = _parity((K & (gt - 1)) ^ (N & span[t]))
    return t, r, N | pair[t], 1 - 2 * odd


def kaehler_form(n):
    """The fundamental form i * sum phi_k ^ phibar_k of the unitary frame."""
    return {((k,), (k,)): 1.0j for k in range(1, n + 1)}


_POWERS = {}


def _power(n, k):
    """omega^k as arrays, cached: sorting the factors of
    (phi_1 phibar_1) .. (phi_k phibar_k) takes k(k-1)/2 transpositions,
    so every phi_K ^ phibar_K with |K| = k carries i^k k! (-1)^(k(k-1)/2)."""
    if (n, k) not in _POWERS:
        sub = np.array([s for s in range(1 << n) if s.bit_count() == k],
                       dtype=np.int64)
        c = 1j ** k * factorial(k) * (-1) ** (k * (k - 1) // 2)
        _POWERS[(n, k)] = (sub | (sub << _BAR), np.full(sub.size, c, dtype=complex))
    return _POWERS[(n, k)]


def kaehler_power(n, k):
    """omega^k for the dimension-n fundamental form."""
    return _to_dict(*_power(n, k), 0.0)


def _plan_step(keys, rows):
    """Record a derivation on the monomials keys, for any coefficients.

    Returns ((ptr, out, src, size), monomials).  monomials are the
    sorted monomials the rows can make, size of them.  The entries
    ptr[t]:ptr[t+1] belong to row t; each adds coef[t] times entry src
    of [x, -x] to output out, for the input x, so that src carries the
    sign.  Rows are taken a block at a time so that no more than _GRID
    (monomial, row) pairs are tested at once."""
    step = max(1, _GRID // max(1, keys.size))
    counts, made, slots, src = [], [], [], []
    for start in range(0, rows[0].size, step):
        block = tuple(x[start:start + step] for x in rows)
        t, r, out, sign = _match(keys, block)
        counts.append(np.bincount(t, minlength=block[0].size))
        out, slot = np.unique(out, return_inverse=True)
        made.append(out)
        slots.append(slot.astype(np.min_scalar_type(out.size)))
        src.append((r + keys.size * (sign < 0)).astype(np.min_scalar_type(2 * keys.size)))
    # sorted in place: plain np.unique would import numpy.ma on first use
    monomials = np.concatenate(made)
    monomials.sort()
    monomials = monomials[np.diff(monomials, prepend=-1) != 0]
    out_type = np.min_scalar_type(monomials.size)
    out = np.concatenate([np.searchsorted(monomials, m).astype(out_type)[slot]
                          for m, slot in zip(made, slots)])
    ptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return (ptr, out, np.concatenate(src), monomials.size), monomials


def _replay(step, x, coef):
    """The output coefficients of a recorded step on the input
    coefficients x, with row coefficients coef.

    When the live rows (coef nonzero) hold most of the entries, the plan
    is swept in order, _GRID entries at a time, dead rows weighing 0.
    Otherwise the live rows, a to b, are gathered a block at a time, at
    most _GRID entries in all (a longer row goes alone), and e indexes
    the entries of a block."""
    ptr, out, src, size = step
    live = np.flatnonzero(coef)
    count = ptr[live + 1] - ptr[live]
    sweep = 2 * count.sum() > ptr[-1]
    if sweep:
        live, count = np.arange(coef.size), np.diff(ptr)
    end = np.cumsum(count)
    signed = np.concatenate((x, -x))
    y = np.zeros(size, dtype=complex)
    a = 0
    while a < live.size:
        b = max(a + 1, int(np.searchsorted(end, end[a] - count[a] + _GRID, "right")))
        e = slice(end[a] - count[a], end[b - 1])
        if not sweep:
            shift = ptr[live[a:b]] + count[a:b] - end[a:b]  # plan entry minus position
            e = np.arange(e.start, e.stop) + np.repeat(shift, count[a:b])
        w = signed.take(src[e])
        w *= np.repeat(coef[live[a:b]], count[a:b])
        slot = out[e].astype(np.intp)
        y += np.bincount(slot, w.real, size) + 1j * np.bincount(slot, w.imag, size)
        a = b
    return y


@functools.lru_cache(maxsize=_PLANS)
def _d_plan(n, part, keys):
    """The rows of del, delbar or d (part 0, 1 or 2) recorded on the
    monomials with int64 key bytes keys, as _plan_step returns it.
    Cached per (n, part, keys) and never per algebra, at most _PLANS."""
    rows = _rows(n)
    rows = rows[part] if part < 2 else tuple(map(np.concatenate, zip(*rows)))
    return _plan_step(np.frombuffer(keys, dtype=np.int64), rows)


def _derivation(alg, f, part):
    """Replay the plan of part 0, 1 or 2 (del, delbar, d) on the form f."""
    keys, coeffs = _from_dict(f)
    basis = np.int64(1) << np.r_[:alg.n, _BAR:_BAR + alg.n]
    at = np.searchsorted(basis, keys)
    if np.array_equal(basis.take(at, mode="clip"), keys):  # a 1-form: on all 2n generators
        x = np.zeros(basis.size, dtype=complex)
        x[at] = coeffs
        keys, coeffs = basis, x
    step, monomials = _d_plan(alg.n, part, keys.tobytes())
    return _to_dict(monomials, _replay(step, coeffs, _term_table(alg)[part]), _ZERO_CUT)


def exterior_d(alg, f):
    """Exterior differential of an invariant form."""
    return _derivation(alg, f, 2)


def partial_d(alg, f):
    """The (1,0) part of d, taken bidegree by bidegree."""
    return _derivation(alg, f, 0)


def partial_dbar(alg, f):
    """The (0,1) part of d, taken bidegree by bidegree."""
    return _derivation(alg, f, 1)


@functools.lru_cache(maxsize=None)
def _ddbar_plan(n, k):
    """partial(partialbar(omega^k)) in dimension n as two recorded steps,
    the delbar rows then the del rows of _rows(n).  Cached per (n, k)
    and never per algebra; n <= MAX_DIM bounds the cache."""
    keys, _ = _power(n, k)
    steps = []
    for part in (1, 0):
        step, keys = _plan_step(keys, _rows(n)[part])
        steps.append(step)
    return tuple(steps)


def del_delbar_residual(alg, k):
    """Max coefficient of  partial(partialbar(omega^k)).

    Zero iff omega^k is pluriclosed in the generalized sense: k = 1 is
    the usual pluriclosed condition, k = n - 2 the astheno one, and
    k = n - 1 vanishes for every unimodular algebra.  Replays the (n, k)
    plan."""
    if not 1 <= k <= alg.n - 1:
        raise InvalidDegree(
            f"power k={k} outside the meaningful range 1..{alg.n - 1}"
        )
    x = _power(alg.n, k)[1]
    table = _term_table(alg)
    for step, part in zip(_ddbar_plan(alg.n, k), (1, 0)):
        x = _replay(step, x, table[part])
    worst = float(np.abs(x).max(initial=0.0))
    return worst if worst > _ZERO_CUT else 0.0


def d_squared_residual(alg):
    """Max coefficient of d(d phi_k) over the generators phi_1..phi_n.

    Zero exactly when the Jacobi identity holds, which makes it the
    forms-side twin of the bracket's Jacobi residual."""
    return max(
        max_coeff(exterior_d(alg, exterior_d(alg, phi(k))))
        for k in range(1, alg.n + 1)
    )


def top_holomorphic_form(n):
    """phi_1 ^ .. ^ phi_n."""
    return {(tuple(range(1, n + 1)), ()): 1.0 + 0.0j}


def top_form_d_check(alg):
    """Both sides of the identity  d(phi_1..phi_n) = zetabar ^ phi_1..phi_n
    where zetabar is the (0,1)-form with components conj(zeta_k),
    zeta_k = sum_r D^r_{rk}.

    Returns the pair (lhs, rhs); they agree entrywise on any algebra,
    which makes the pair a self-test of the forms engine against the
    tensor side.  Callers assert max_coeff(add(lhs, scale(rhs, -1)))
    is small."""
    n = alg.n
    zeta = np.einsum("rrk->k", alg.D)
    top = top_holomorphic_form(n)
    lhs = exterior_d(alg, top)
    zbar = form(
        [((), (k + 1,), np.conj(zeta[k])) for k in range(n)]
    )
    rhs = wedge(zbar, top)
    return lhs, rhs
