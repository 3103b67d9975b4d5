"""Seeded sample generators.

Everything here is driven by a numpy Generator so that test batteries
and the command line sampler are reproducible: the stream for sample
``index`` under ``seed`` comes from ``SeedSequence(seed, spawn_key=(index,))``
feeding PCG64.  Reports quote :data:`GENERATOR_LABEL` so the provenance
of random data is visible in saved output.
"""

import numpy as np

from .algebra import ROUND_CUT, make_algebra, max_abs, require_dimension
from .almost_abelian import AlmostAbelianData, trace_sum
from .codim2 import (
    Codim2Data,
    from_almost_abelian,
    make_btpv0,
    make_btpv1,
    make_btpv2,
    rotate_codim2,
)
from .errors import DimensionMismatch, ParameterDomain

GENERATOR_LABEL = "numpy PCG64, SeedSequence(seed, spawn_key=(index,))"


def rng_for(seed, index=0):
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(index),))
    return np.random.Generator(np.random.PCG64(ss))


def cgauss(rng, shape=()):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(rng, m):
    if m == 0:
        return np.zeros((0, 0), dtype=complex)
    Q, R = np.linalg.qr(cgauss(rng, (m, m)))
    d = np.diag(R)
    return Q * (np.conj(d) / np.abs(d))[None, :]


def random_general(rng, n):
    """Raw structure constants with no Jacobi control.

    Useful as a negative control: a generic draw violates the Jacobi
    identity, and the residual must then be visible both in the tensor
    test and in d(d phi).
    """
    C = cgauss(rng, (n, n, n))
    C = C - C.transpose(0, 2, 1)
    D = cgauss(rng, (n, n, n))
    return make_algebra(n, C, D)


def hopf_algebra(n=2):
    """Compact-type fixture: su(2) plus an abelian complement.

    The D tensor equals -C, so it is antisymmetric in its lower pair,
    which makes this the standard witness for the positive-scalar sign
    class.  Its Chern scalar curvature is exactly 1 for every n.
    """
    require_dimension(n)
    C = np.zeros((n, n, n), dtype=complex)
    c = -1j / np.sqrt(2.0)
    C[0, 0, 1] = c
    C[0, 1, 0] = -c
    D = -C
    return make_algebra(n, C, D)


# ---------------------------------------------------------------------------
# Codimension-one family


def aa_random(rng, n, unimodular=False):
    m = n - 1
    A = cgauss(rng, (m, m))
    v = cgauss(rng, m)
    if unimodular:
        lam = -trace_sum(A)
    else:
        lam = float(rng.standard_normal())
    return AlmostAbelianData(n=n, lam=lam, v=v, A=A)


def aa_normal_matrix(rng, n, unimodular=False):
    """Data with a normal action matrix."""
    m = n - 1
    Q = random_unitary(rng, m)
    mu = cgauss(rng, m)
    A = Q @ np.diag(mu) @ Q.conj().T
    v = cgauss(rng, m)
    lam = -trace_sum(A) if unimodular else float(rng.standard_normal())
    return AlmostAbelianData(n=n, lam=lam, v=v, A=A)


def aa_btp(rng, n):
    """Projection onto the torsion-parallel locus of the family.

    The action matrix is replaced by its skew-Hermitian part; the
    coupling vector is projected onto the kernel of that matrix, with
    one eigenvalue zeroed out half the time so the kernel is not always
    trivial.
    """
    m = n - 1
    G = cgauss(rng, (m, m))
    A = (G - G.conj().T) / 2.0
    v = np.zeros(m, dtype=complex)
    if rng.integers(0, 2):
        w, Q = np.linalg.eigh(-1j * A)
        w = np.array(w)
        w[0] = 0.0
        A = 1j * (Q @ np.diag(w) @ Q.conj().T)
        v = Q[:, 0] * cgauss(rng)
    return AlmostAbelianData(n=n, lam=0.0, v=v, A=A)


def aa_btp_perturbed(rng, n):
    """A torsion-parallel sample pushed off the locus by at least 0.1."""
    d = aa_btp(rng, n)
    m = n - 1
    mode = int(rng.integers(0, 2))
    A = np.array(d.A)
    v = np.array(d.v)
    if mode == 0 or max_abs(v) <= ROUND_CUT:
        G = cgauss(rng, (m, m))
        H = G + G.conj().T
        H = H / max_abs(H)
        A = A + 0.15 * H
    else:
        # Break A v = 0 while keeping A + A* = 0.
        S = cgauss(rng, (m, m))
        K = (S - S.conj().T) / 2.0
        w = K @ v
        if max_abs(w) <= ROUND_CUT:
            K = K + 1j * np.eye(m)
            w = K @ v
        A = A + (0.11 / max_abs(w)) * K
    return AlmostAbelianData(n=n, lam=d.lam, v=v, A=A)


def aa_kaehler(rng, n):
    m = n - 1
    G = cgauss(rng, (m, m))
    A = (G - G.conj().T) / 2.0
    return AlmostAbelianData(n=n, lam=float(rng.standard_normal()),
                             v=np.zeros(m, dtype=complex), A=A)


def aa_balanced(rng, n):
    m = n - 1
    A = cgauss(rng, (m, m))
    A = A - (np.trace(A).real / m) * np.eye(m)
    return AlmostAbelianData(n=n, lam=float(rng.standard_normal()),
                             v=np.zeros(m, dtype=complex), A=A)


def aa_pluriclosed(rng, n, unimodular=False):
    """Normal action with eigenvalue real parts in {0, -lam/2}."""
    m = n - 1
    lam = float(1.0 + rng.random())
    if unimodular:
        # Exactly one eigenvalue at -lam/2, the rest imaginary.
        reals = np.zeros(m)
        reals[int(rng.integers(0, m))] = -lam / 2.0
        if 2.0 * reals.sum() != -lam:
            lam = -2.0 * reals.sum()
    else:
        reals = np.where(rng.random(m) < 0.5, 0.0, -lam / 2.0)
    Q = random_unitary(rng, m)
    mu = reals + 1j * rng.standard_normal(m)
    A = Q @ np.diag(mu) @ Q.conj().T
    return AlmostAbelianData(n=n, lam=lam, v=cgauss(rng, m), A=A)


def aa_nilpotent(rng, n):
    m = n - 1
    N = np.triu(cgauss(rng, (m, m)), k=1)
    Q = random_unitary(rng, m)
    return AlmostAbelianData(n=n, lam=0.0, v=cgauss(rng, m),
                             A=Q @ N @ Q.conj().T)


def aa_chern_flat(rng, n):
    """Unimodular Chern-flat sample: lam = 0, v = 0, A normal, tr A imaginary."""
    m = n - 1
    Q = random_unitary(rng, m)
    mu = cgauss(rng, m)
    mu = mu - mu.real.mean()
    A = Q @ np.diag(mu) @ Q.conj().T
    return AlmostAbelianData(n=n, lam=0.0, v=np.zeros(m, dtype=complex), A=A)


def aa_astheno(rng, n, k=None):
    """Certified astheno sample for n >= 4, not necessarily unimodular."""
    m = n - 1
    if k is None:
        k = int(rng.integers(1, m))
    lam = float(1.0 + rng.random())
    h = -(n - 1 - k) * lam / (n - 2)
    reals = np.concatenate([np.full(k, h / 2.0), np.full(m - k, (lam + h) / 2.0)])
    Q = random_unitary(rng, m)
    A = Q @ np.diag(reals + 1j * rng.standard_normal(m)) @ Q.conj().T
    return AlmostAbelianData(n=n, lam=lam, v=cgauss(rng, m), A=A)


def aa_cyt(rng, n):
    """Unimodular sample on the torsion-trace-flat locus: balanced data."""
    m = n - 1
    A = cgauss(rng, (m, m))
    A = A - (np.trace(A).real / m) * np.eye(m)
    return AlmostAbelianData(n=n, lam=0.0, v=np.zeros(m, dtype=complex), A=A)


# ---------------------------------------------------------------------------
# Codimension-two family


def c2_scramble(rng, d):
    """Random unitary rotation of the ideal directions."""
    return rotate_codim2(d, random_unitary(rng, d.n - 1))


def c2_from_aa(rng, n, unimodular=False):
    """Embedded codimension-one data with a nonnegative transverse weight."""
    m = n - 1
    A = cgauss(rng, (m, m))
    if unimodular:
        shift = float(rng.random())
        A = A - ((np.trace(A).real + shift) / m) * np.eye(m)
        lam = 2.0 * shift
    else:
        lam = float(rng.random())
    d = AlmostAbelianData(n=n, lam=lam, v=cgauss(rng, m), A=A)
    return from_almost_abelian(d)


def c2_commuting_diag(rng, n, unimodular=False):
    """lam = 0 with simultaneously diagonalizable X and Y, Z = 0."""
    m = n - 1
    Q = random_unitary(rng, m)
    x = cgauss(rng, m)
    y = cgauss(rng, m)
    if unimodular:
        y = y - (y.sum() - x.sum()) / m
    return Codim2Data(
        n=n, lam=0.0, v=cgauss(rng, m),
        X=Q @ np.diag(x) @ Q.conj().T,
        Y=Q @ np.diag(y) @ Q.conj().T,
        Z=np.zeros((m, m), dtype=complex),
    )


def c2_hermitian_pair(rng, n, unimodular=False):
    """Y = -X* with X normal, a random lam in [0, 1), Z = 0."""
    m = n - 1
    Q = random_unitary(rng, m)
    x = cgauss(rng, m)
    lam = float(rng.random())
    if unimodular:
        x = x + (lam / 2.0 - x.real.sum()) / m
    X = Q @ np.diag(x) @ Q.conj().T
    return Codim2Data(
        n=n, lam=lam, v=cgauss(rng, m),
        X=X, Y=-X.conj().T, Z=np.zeros((m, m), dtype=complex),
    )


def c2_skt_positive(rng, n):
    """The pluriclosed witness with a strictly positive transverse weight."""
    m = n - 1
    lam = float(1.0 + rng.random())
    X = np.zeros((m, m), dtype=complex)
    X[0, 0] = lam / 2.0
    return Codim2Data(
        n=n, lam=lam, v=np.zeros(m, dtype=complex),
        X=X, Y=-X, Z=np.zeros((m, m), dtype=complex),
    )


def c2_symmetric_rank1(rng, n):
    """Unimodular data whose full D tensor is symmetric in its lower pair."""
    m = n - 1
    lam = float(1.0 + rng.random())
    u = cgauss(rng, m)
    u = u / np.linalg.norm(u)
    Z = lam * np.outer(u, u)
    X = lam * np.outer(u, np.conj(u))
    return Codim2Data(
        n=n, lam=lam, v=np.zeros(m, dtype=complex),
        X=X, Y=np.zeros((m, m), dtype=complex), Z=Z,
    )


def c2_kahler(rng, n):
    m = n - 1
    Q = random_unitary(rng, m)
    X = Q @ np.diag(cgauss(rng, m)) @ Q.conj().T
    return Codim2Data(
        n=n, lam=0.0, v=np.zeros(m, dtype=complex),
        X=X, Y=np.array(X), Z=np.zeros((m, m), dtype=complex),
    )


def c2_generator(rng, n, kind=None):
    """Random draw from one of the three normal-form shapes, n >= 3.

    The v1 and v2 draws are torsion-parallel.  The v0 draws cover the
    whole block-rank range 1 <= r <= (n-1)/2: rank one gives a
    torsion-parallel normal form, and rank r >= 2 gives the witness of
    the rank obstruction (see :func:`~liehermitian.codim2.make_btpv0`),
    which is balanced and unimodular but not torsion-parallel.
    """
    if n < 3:
        raise DimensionMismatch("normal-form draws need n >= 3, got n = %d" % n)
    if kind is None:
        kind = ("v1", "v2", "v0")[int(rng.integers(0, 3))]
    if kind == "v1":
        return make_btpv1(n, 0.5 + rng.random(), cgauss(rng, n - 2))
    if kind == "v2":
        return make_btpv2(n, 0.5 + rng.random(), 0.5 + rng.random(),
                          cgauss(rng, n - 3))
    if kind == "v0":
        r = int(rng.integers(1, (n - 1) // 2 + 1))
        S, W = grouped_singular_data(rng, r)
        return make_btpv0(n, r, S, W, cgauss(rng, n - 1 - 2 * r))
    raise ParameterDomain("unknown generator kind %r" % (kind,))


def takagi_symmetric_unitary(rng, r):
    """Random symmetric unitary matrix (tQ Q for Haar Q)."""
    Q = random_unitary(rng, r)
    return Q.T @ Q


def grouped_singular_data(rng, r, groups=None):
    """Descending positive values with multiplicities, and a symmetric
    unitary commuting with their diagonal: block diagonal over groups of
    equal values."""
    if groups is None:
        sizes = []
        left = r
        while left > 0:
            g = int(rng.integers(1, min(left, 3) + 1))
            sizes.append(g)
            left -= g
    else:
        sizes = list(groups)
        if sum(sizes) != r:
            raise ParameterDomain("groups %r must sum to r = %d" % (tuple(sizes), r))
    vals = np.sort(0.5 + 2.0 * rng.random(len(sizes)))[::-1]
    S = np.concatenate([np.full(g, val) for g, val in zip(sizes, vals)])
    W = np.zeros((r, r), dtype=complex)
    at = 0
    for g in sizes:
        W[at : at + g, at : at + g] = takagi_symmetric_unitary(rng, g)
        at += g
    return S, W


_C2_KINDS = ("aa", "diag", "herm", "skt", "sym", "kahler", "gen")


def c2_random(rng, n, unimodular=False, scramble=True):
    """Mixed draw over the integrable constructions of the family, n >= 3.

    The skt, sym, kahler and generator constructions are unimodular
    regardless of the flag; the flag only constrains the first three
    kinds.
    """
    if n < 3:
        raise DimensionMismatch("mixed draws need n >= 3, got n = %d" % n)
    kind = _C2_KINDS[int(rng.integers(0, len(_C2_KINDS)))]
    if kind == "aa":
        d = c2_from_aa(rng, n, unimodular=unimodular)
    elif kind == "diag":
        d = c2_commuting_diag(rng, n, unimodular=unimodular)
    elif kind == "herm":
        d = c2_hermitian_pair(rng, n, unimodular=unimodular)
    elif kind == "skt":
        d = c2_skt_positive(rng, n)
    elif kind == "sym":
        d = c2_symmetric_rank1(rng, n)
    elif kind == "kahler":
        d = c2_kahler(rng, n)
    else:
        d = c2_generator(rng, n)
    if scramble:
        d = c2_scramble(rng, d)
    return d
