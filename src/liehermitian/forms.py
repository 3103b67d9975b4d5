"""Left-invariant complex differential forms and the exterior differential.

Forms go in and out as dicts mapping ``(I, J) -> coefficient``, where I
and J are strictly increasing tuples of 1-based frame indices standing
for the monomial phi_{I1} ^ .. ^ phi_{Ip} ^ phibar_{J1} ^ .. ^ phibar_{Jq};
mixed-degree forms carry keys of several lengths.  An input key in
another order stands for its factors as written.

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
their coefficients are read from C and D once per Algebra, and a row is
live for the algebra when its coefficient is above the cut.  The graded
Leibniz rule turns a monomial K containing g, with N = K ^ g disjoint
from lo and hi, into N | lo | hi with the sign

    (-1)^|(K & below(g)) ^ (N & (below(lo) ^ below(hi)))|:

one count for moving g to the front, one for shuffling lo and hi into N.
Coefficients of magnitude at most ``algebra.ZERO_CUT`` (1e-14) are dropped
once, when a result is returned.

Which monomials meet which rows, with which sign and into which output,
depends on n, the part of d, the input monomials and the live rows
alone, not on the values of the coefficients.  So every derivation runs
as a recorded plan of the live rows: entries grouped by row, each with
a source slot into [x, -x] for the step's input x, which carries the
sign, and the pair of output slots 2 out, 2 out + 1 that its real and
imaginary parts add into, the output read as float64.  Slots take the
smallest unsigned type that holds them.  One cache holds the plans, one
per (n, part of d, input monomials, live rows), and keeps the most
recently used up to _PLAN_ENTRIES entries in all; a step that needs more
than that is refused.
d, del and delbar replay one plan; partial(partialbar(omega^k)) replays
two, delbar on the monomials of omega^k, then del on those it made.
One kernel replays a plan on the live coefficients of an algebra, one
bincount per block of at most _GRID entries (see _replay).
"""

import functools
import weakref
from math import factorial

import numpy as np

from .algebra import MAX_DIM, ZERO_CUT
from .errors import InvalidDegree

_BAR = MAX_DIM  # bit of phibar_1
_GRID = 1 << 18  # bound on (monomial, row) pairs tested, and on plan entries replayed at once
_PLAN_ENTRIES = 1 << 21  # bound on the entries of the plans kept


def _parity(x):
    """Popcount parity (0 or 1) of masks of at most 32 bits."""
    for s in (16, 8, 4, 2, 1):
        x = x ^ (x >> s)
    return x & 1


@functools.lru_cache(maxsize=1 << 12)
def _indices(mask):
    """The key (I, J) of a bitmask, memoised: reports decode the same
    monomials again and again."""
    bits = [b for b in range(2 * _BAR) if mask >> b & 1]
    return (tuple(b + 1 for b in bits if b < _BAR),
            tuple(b - _BAR + 1 for b in bits if b >= _BAR))


@functools.lru_cache(maxsize=1 << 12)
def _key_mask(key):
    """(bitmask, sign) of the dict key (I, J) of phi_I ^ phibar_J with the
    factors sorted, memoised like _indices; the sign is 0 when an index
    repeats."""
    I, J = key
    mask, sign = 0, 1
    for b in [i - 1 for i in I] + [_BAR + j - 1 for j in J]:
        if mask >> b & 1:
            return 0, 0
        if _parity(mask >> b):
            sign = -sign
        mask |= 1 << b
    return mask, sign


def _from_dict(f):
    """(keys, coefficients) of a form dict, one entry per key."""
    masks = [_key_mask(key) for key in f]
    keys = np.array([m for m, _ in masks], dtype=np.int64)
    coeffs = np.array([s * complex(c) for (_, s), c in zip(masks, f.values())], dtype=complex)
    return keys, coeffs


def _to_dict(keys, coeffs, cut):
    keep = np.abs(coeffs) > cut
    return {_indices(k): c for k, c in zip(keys[keep].tolist(), coeffs[keep].tolist())}


def phi(i):
    """The generator (1,0)-form with 1-based index i."""
    return {((i,), ()): 1.0 + 0.0j}


def max_coeff(f):
    if not f:
        return 0.0
    return max(abs(v) for v in f.values())


_TABLES = weakref.WeakKeyDictionary()
_D_PLANS = {}  # (n, part, key bytes, live bytes) -> _d_plan, least recently used first


@functools.lru_cache(maxsize=None)
def _rows(n):
    """The terms of d on the generators in dimension n, without their
    coefficients: the rows (del, delbar, d) of (g, test, pair, span, src),
    d's being del's then delbar's, one row per term x_lo ^ x_hi of d x_g,
    with pair = lo | hi, test = g | pair and span = below(lo) ^ below(hi).
    src indexes the coefficient in the source [-C, D, -conj D, -conj C]
    of _term_table.  A monomial K takes the term when K & test == g: it
    contains g, and once g is gone, neither lo nor hi."""
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
    return (*out, tuple(map(np.concatenate, zip(*out))))


def _term_table(alg):
    """(live, coef) for each of the rows of del, delbar and d of
    _rows(n), cached per algebra: live holds the bytes of the boolean
    mask of the rows whose coefficient is above the cut, and coef those
    coefficients, in row order."""
    try:
        return _TABLES[alg]
    except KeyError:
        pass
    C, D = alg.C.ravel(), alg.D.transpose(1, 0, 2).ravel()
    source = np.concatenate((-C, D, -np.conj(D), -np.conj(C)))
    coefs = (source[rows[4]] for rows in _rows(alg.n))
    lives = ((c, np.abs(c) > ZERO_CUT) for c in coefs)
    _TABLES[alg] = tuple((live.tobytes(), c[live]) for c, live in lives)
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


def invariant_one_form(alpha):
    """The invariant 1-form sum_k alpha_k phi_k - conj(alpha_k) phibar_k."""
    alpha = [complex(c) for c in alpha]
    f = {((k + 1,), ()): c for k, c in enumerate(alpha)}
    f.update({((), (k + 1,)): -c.conjugate() for k, c in enumerate(alpha)})
    return {key: c for key, c in f.items() if abs(c) > ZERO_CUT}


@functools.lru_cache(maxsize=None)
def _power(n, k):
    """omega^k as arrays, cached: sorting the factors of
    (phi_1 phibar_1) .. (phi_k phibar_k) takes k(k-1)/2 transpositions,
    so every phi_K ^ phibar_K with |K| = k carries i^k k! (-1)^(k(k-1)/2)."""
    sub = np.array([s for s in range(1 << n) if s.bit_count() == k], dtype=np.int64)
    c = 1j ** k * factorial(k) * (-1) ** (k * (k - 1) // 2)
    return sub | (sub << _BAR), np.full(sub.size, c, dtype=complex)


def kaehler_power(n, k):
    """omega^k for the dimension-n fundamental form."""
    return _to_dict(*_power(n, k), 0.0)


def _plan_step(keys, n, part, live):
    """Record the live rows (a boolean mask) of del, delbar or d (part 0,
    1 or 2) in dimension n on the monomials keys, for any coefficients
    of those rows.

    Returns ((entries, blocks, size), monomials).  monomials are the
    sorted monomials the rows can make, size of them.  A block
    (rows, count, slots, src) holds the entries of the live rows in the
    slice rows, count[t] of them for its row t: entry e adds coef[t] times
    entry src[e] of [x, -x], for the input x, to output out, so that src
    carries the sign, and slots[2e], slots[2e+1] are 2 out, 2 out + 1:
    the places of its real and imaginary part in the output viewed as
    float64.  A block holds at most _GRID entries, unless it is one row
    that holds more.  Rows are matched a group at a time so that no more
    than _GRID (monomial, row) pairs are tested at once, and no
    temporary holds more than a group.  A step that would record more
    entries than the cache keeps, _PLAN_ENTRIES, is refused with
    InvalidDegree as soon as its count passes that bound."""
    rows = tuple(x[live] for x in _rows(n)[part])
    step = max(1, _GRID // max(1, keys.size))
    counts, made, inverse, src = [], [], [], []
    entries = 0
    for start in range(0, max(1, rows[0].size), step):  # one empty group if none is live
        group = tuple(x[start:start + step] for x in rows)
        t, r, out, sign = _match(keys, group)
        entries += t.size
        if entries > _PLAN_ENTRIES:
            raise InvalidDegree(
                f"a derivation step in dimension n={n} needs more than "
                f"{_PLAN_ENTRIES} plan entries"
            )
        counts.append(np.bincount(t, minlength=group[0].size))
        out, slot = np.unique(out, return_inverse=True)
        made.append(out)
        inverse.append(slot.astype(np.min_scalar_type(out.size)))
        src.append((r + keys.size * (sign < 0)).astype(np.min_scalar_type(2 * keys.size)))
    # sorted in place: plain np.unique would import numpy.ma on first use
    monomials = np.concatenate(made)
    monomials.sort()
    monomials = monomials[np.diff(monomials, prepend=-1) != 0]
    slot_type = np.min_scalar_type(2 * monomials.size)
    slots = np.empty((entries, 2), dtype=slot_type)
    at = 0
    for m, slot in zip(made, inverse):
        even = (2 * np.searchsorted(monomials, m)).astype(slot_type)[slot]
        slots[at:at + slot.size, 0] = even
        np.add(even, 1, out=slots[at:at + slot.size, 1])
        at += slot.size
    src, count = np.concatenate(src), np.concatenate(counts)
    end = np.cumsum(count)
    blocks, a = [], 0
    while a < count.size:
        b = max(a + 1, int(np.searchsorted(end, end[a] - count[a] + _GRID, "right")))
        e = slice(end[a] - count[a], end[b - 1])
        blocks.append((slice(a, b), count[a:b], slots[e].ravel(), src[e]))
        a = b
    return (entries, tuple(blocks), monomials.size), monomials


def _replay(step, x, coef):
    """The output coefficients of a recorded step on the input
    coefficients x, with the live rows' coefficients coef.  One bincount
    over the slots of a block adds up its real and imaginary parts."""
    _, blocks, size = step
    signed = np.concatenate((x, -x))
    y = np.zeros(2 * size)
    for rows, count, slots, src in blocks:
        w = signed.take(src)
        w *= np.repeat(coef[rows], count)
        y += np.bincount(slots, w.view(np.float64), y.size)
    return y.view(complex)


def _d_plan(n, part, keys, live):
    """The live rows of del, delbar or d (part 0, 1 or 2), with boolean
    mask bytes live, recorded on the monomials with int64 key bytes
    keys, as _plan_step returns it.  The one plan cache of the module,
    keyed on (n, part, keys, live) and never on an algebra, so that
    algebras with the same live rows share plans: once the plans kept
    hold more than _PLAN_ENTRIES entries, the least recently used go
    first."""
    key = (n, part, keys, live)
    plan = _D_PLANS.pop(key, None)
    if plan is None:
        plan = _plan_step(np.frombuffer(keys, dtype=np.int64), n, part,
                          np.frombuffer(live, dtype=bool))
        held = plan[0][0] + sum(p[0][0] for p in _D_PLANS.values())
        while held > _PLAN_ENTRIES:
            held -= _D_PLANS.pop(next(iter(_D_PLANS)))[0][0]
    _D_PLANS[key] = plan  # last: most recently used
    return plan


def _apply(alg, part, keys, x):
    """(monomials, coefficients) of part 0, 1 or 2 (del, delbar, d) of the
    form with monomials keys and coefficients x, replayed from _d_plan."""
    live, coef = _term_table(alg)[part]
    step, monomials = _d_plan(alg.n, part, keys.tobytes(), live)
    return monomials, _replay(step, x, coef)


def _derivation(alg, f, part):
    """Part 0, 1 or 2 (del, delbar, d) of the form f, as a dict."""
    return _to_dict(*_apply(alg, part, *_from_dict(f)), ZERO_CUT)


def exterior_d(alg, f):
    """Exterior differential of an invariant form."""
    return _derivation(alg, f, 2)


def partial_d(alg, f):
    """The (1,0) part of d, taken bidegree by bidegree."""
    return _derivation(alg, f, 0)


def partial_dbar(alg, f):
    """The (0,1) part of d, taken bidegree by bidegree."""
    return _derivation(alg, f, 1)


def del_delbar_residual(alg, k):
    """Max coefficient of  partial(partialbar(omega^k / k!)).

    Zero iff omega^k is pluriclosed in the generalized sense: k = 1 is
    the usual pluriclosed condition, k = n - 2 the astheno one, and
    k = n - 1 vanishes for every unimodular algebra.  Replays the delbar
    plan of omega^k's monomials, then the del plan of those it made, and
    divides by k!, the factor every term of omega^k carries: callers'
    tolerances do not grow with k!, and its rounding noise would.
    Raises InvalidDegree for k outside 1..n-1, and for a middle power
    whose plan would not fit the plan cache.  Plans hold the live rows
    alone, so whether it fits depends on the frame: k = 2 at n = 16 is
    refused in a dense frame, where every row is live, but a sparse
    frame, such as an adapted codimension-two one, may answer."""
    if not 1 <= k <= alg.n - 1:
        raise InvalidDegree(
            f"power k={k} outside the meaningful range 1..{alg.n - 1}"
        )
    keys, x = _power(alg.n, k)
    for part in (1, 0):
        keys, x = _apply(alg, part, keys, x)
    worst = float(np.abs(x).max(initial=0.0)) / factorial(k)
    return worst if worst > ZERO_CUT else 0.0


def d_squared_residual(alg):
    """Max coefficient of d(d phi_k) over the generators phi_1..phi_n.

    Zero exactly when the Jacobi identity holds, which makes it the
    forms-side twin of the bracket's Jacobi residual."""
    return max(
        max_coeff(exterior_d(alg, exterior_d(alg, phi(k))))
        for k in range(1, alg.n + 1)
    )

