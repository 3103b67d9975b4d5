"""Algebras with a J-invariant abelian ideal of real codimension two.

The adapted frame puts the ideal on the last n-1 complex directions.
Five parameters remain: a real number ``lam`` (normalized nonnegative by
a phase rotation of the transverse direction), a coupling vector ``v``
and three (n-1) x (n-1) matrices ``X``, ``Y``, ``Z``.  Unlike the
codimension-one family these are not free: the Jacobi identity is the
pair of quadratic matrix equations checked by
:func:`integrability_residuals`.

The codimension-one family of :mod:`liehermitian.almost_abelian` is
the slice Z = 0, X = -A*, Y = A, and its data exposes those blocks, so
both families share one parameter model kept here: the field validation
of :func:`freeze_fields`, the (C, D) assembly of :func:`assemble`, and
the one closed form of each shared predicate and scalar in
:func:`c2_residuals` and :func:`c2_scalars`, valid for either sign of
lam, and the one report :func:`c2_report` that holds them against the
engine.  Each data class builds its own algebra: only codimension-two
data is checked for integrability.

Besides the closed-form predicates and curvature blocks, this module
carries the torsion-parallel machinery: the residual system of
:func:`c2_btp_residuals`, the three normal-form generators
``make_btpv1`` / ``make_btpv2`` / ``make_btpv0``, the classifier
:func:`classify_btp` that reduces any Bismut-torsion-parallel metric of
the family to one of those normal forms, and the paired factorization
:func:`paired_takagi_factor` the classifier rests on.
"""

from dataclasses import dataclass

import numpy as np

from .algebra import (
    contract,
    default_tolerance,
    make_algebra,
    max_abs,
    require_ideal_pattern,
)
from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    IntegrabilityViolation,
    NegativeLambda,
    NotCompatible,
    NotUnimodular,
    ParameterDomain,
    Singular,
)
from . import hermitian


def freeze_fields(data, *, nonnegative):
    """Validate and freeze the fields shared by both abelian-ideal families.

    ``data`` is a frozen dataclass with fields n, lam, v, tol and one
    (n-1) x (n-1) matrix per name in its ``BLOCKS``.  Checks n >= 2, a real
    ``lam`` (and, when ``nonnegative``, its sign, before any shape), the
    length of ``v`` and the shape of each block; stores ``lam`` as a
    float and the arrays as read-only complex arrays, and fills in the
    scale-aware default ``tol``.
    """
    if data.n < 2:
        raise DimensionMismatch("need n >= 2, got %d" % data.n)
    lam = complex(data.lam)
    if lam.imag != 0.0:
        raise ParameterDomain("lam must be real, got %r" % data.lam)
    if nonnegative and lam.real < 0.0:
        raise NegativeLambda(
            "lam must be nonnegative in this frame convention; "
            "rotate the transverse direction first (lam = %r)" % data.lam
        )
    object.__setattr__(data, "lam", float(lam.real))
    m = data.n - 1
    v = np.asarray(data.v, dtype=complex).reshape(-1)
    if v.shape != (m,):
        raise DimensionMismatch("v must have length n-1 = %d, got %s" % (m, v.shape))
    fields = {"v": v}
    for name in data.BLOCKS:
        M = np.asarray(getattr(data, name), dtype=complex)
        if M.shape != (m, m):
            raise DimensionMismatch(
                "%s must be (n-1) x (n-1) = %d x %d, got %s" % (name, m, m, M.shape)
            )
        fields[name] = M
    for name, arr in fields.items():
        arr.setflags(write=False)
        object.__setattr__(data, name, arr)
    if data.tol is None:
        object.__setattr__(data, "tol", default_tolerance([data.lam], *fields.values()))


@dataclass(frozen=True)
class Codim2Data:
    """Raw parameters (lam, v, X, Y, Z) of the codimension-two family.

    Construction validates shapes and the sign of ``lam`` but not the
    integrability equations; those are enforced by :meth:`build` (alias
    :func:`build_codim2`) so that deliberately broken data can still be
    inspected.
    """

    BLOCKS = ("X", "Y", "Z")

    n: int
    lam: float
    v: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray
    tol: float = None

    def __post_init__(self):
        freeze_fields(self, nonnegative=True)

    def build(self):
        """Assemble the algebra, refusing non-integrable parameters."""
        require_integrable(self, "parameters violate the compatibility equations")
        return assemble(self.n, self.lam, self.v, self.X, self.Y, self.Z, self.tol)


build_codim2 = Codim2Data.build


def integrability_residuals(d):
    """The two matrix equations equivalent to the Jacobi identity.

    Returns (M1, M2) where

        M1 = lam (X* + Y) + [X*, Y] - Z conj(Z)
        M2 = lam Z - (Z tX + Y Z)

    and the data is integrable exactly when both vanish.
    """
    X, Y, Z, lam = d.X, d.Y, d.Z, d.lam
    Xs = X.conj().T
    M1 = lam * (Xs + Y) + (Xs @ Y - Y @ Xs) - Z @ np.conj(Z)
    M2 = lam * Z - (Z @ X.T + Y @ Z)
    return M1, M2


def require_integrable(d, refusal):
    """Raise IntegrabilityViolation, with ``refusal`` as its message and
    the two residual matrices attached, unless both integrability
    residuals stay within the tolerance (NaN counts as a violation)."""
    M1, M2 = integrability_residuals(d)
    worst = max_abs((M1, M2))  # a NaN entry makes worst NaN
    if not worst <= d.tol:
        raise IntegrabilityViolation(
            "%s (residual %.3e)" % (refusal, worst), residuals=(M1, M2)
        )


def c2_unimodularity_defect(d):
    """|lam - tr X + tr Y|, which vanishes exactly on unimodular data."""
    return abs(d.lam - np.trace(d.X) + np.trace(d.Y))


def assemble(n, lam, v, X, Y, Z, tol):
    """The algebra with the given family parameters, integrable or not.

    Nonzero blocks in 1-based notation, transverse direction first:

        C^j_1i = X_ij
        D^1_11 = lam    D^1_i1 = v_i    D^j_i1 = Y_ij    D^1_ij = Z_ij

    for 2 <= i, j <= n, plus the antisymmetric mirror of C.
    """
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    C[1:, 0, 1:] = X.T
    C[1:, 1:, 0] = -X.T
    D[0, 0, 0] = lam
    D[0, 1:, 0] = v
    D[1:, 1:, 0] = Y.T
    D[0, 1:, 1:] = Z
    return make_algebra(n, C, D, tol=tol)


def extract_codim2(a):
    """Read (lam, v, X, Y, Z) off an algebra already in the adapted frame.

    PatternMismatch names the first structure constant, as a 1-based
    (tensor, j, i, k) tuple, that does not fit the family's sparsity
    pattern.  A negative transverse parameter raises NegativeLambda
    rather than silently rotating the frame.
    """
    C, D = a.C, a.D
    lam = require_ideal_pattern(
        a,
        lambda j, i, k: np.where(j == 0, (i >= 1) | (k == 0), (i >= 1) & (k == 0)),
        "codimension-two",
    )
    if -a.tol <= lam < 0.0:
        lam = 0.0
    return Codim2Data(
        n=a.n,
        lam=lam,
        v=np.array(D[0, 1:, 0]),
        X=np.array(C[1:, 0, 1:]).T,
        Y=np.array(D[1:, 1:, 0]).T,
        Z=np.array(D[0, 1:, 1:]),
        tol=a.tol,
    )


def from_almost_abelian(d):
    """Embed codimension-one data into this family as its slice blocks.

    The embedding is always integrable.  It requires lam >= 0, matching
    the frame convention here; data with negative lam raises
    NegativeLambda.
    """
    return Codim2Data(n=d.n, lam=d.lam, v=d.v, X=d.X, Y=d.Y, Z=d.Z, tol=d.tol)


def c2_scalars(d):
    """Chern scalar pair and Bismut scalar in closed form.

    All three hold for any integrable parameters, unimodular or not.
    """
    lam, v, X, Y, Z = d.lam, d.v, d.X, d.Y, d.Z
    vsq = float(np.vdot(v, v).real)
    s = -lam * (2.0 * lam + 2.0 * np.trace(Y).real)
    s_hat = -2.0 * lam * lam - vsq - float(np.trace(Z @ np.conj(Z)).real)
    s_b = -2.0 * vsq - lam * (2.0 * lam + 2.0 * np.trace(X).real)
    return {"s": s, "s_hat": s_hat, "s_b": s_b}


def c2_ricci_closed(d, scal):
    """The three Chern Ricci contractions in closed form; scal is c2_scalars(d)."""
    n, lam, v, X, Y, Z = d.n, d.lam, d.v, d.X, d.Y, d.Z
    vsq = float(np.vdot(v, v).real)

    ric1 = np.zeros((n, n), dtype=complex)
    ric1[0, 0] = scal["s"]

    ric2 = np.zeros((n, n), dtype=complex)
    znorm2 = float(np.sum(np.abs(Z) ** 2))
    ric2[0, 0] = -(vsq + znorm2 + 2.0 * lam * lam)
    row = -(v @ Z.conj().T + np.conj(v) @ Y)
    ric2[0, 1:] = row
    ric2[1:, 0] = np.conj(row)
    comm = Y @ Y.conj().T - Y.conj().T @ Y
    ric2[1:, 1:] = (
        np.outer(v, np.conj(v)) + Z @ Z.conj().T + comm - lam * (Y + Y.conj().T)
    )

    ric3 = np.zeros((n, n), dtype=complex)
    ric3[0, 0] = scal["s_hat"]
    ric3[0, 1:] = -(v @ np.conj(Z))
    ric3[1:, 0] = -(Y.conj().T @ v)
    return ric1, ric2, ric3


def c2_bismut_blocks(d, scal):
    """(1,1) and (2,0) coefficient matrices of the Bismut Ricci form.

    The (1,1) block is Hermitian with support on the first row and
    column only; its corner is the Bismut scalar.  The (2,0) block is
    antisymmetric with first row -(X v).  scal as in c2_ricci_closed.
    """
    n, v, X, Y, Z = d.n, d.v, d.X, d.Y, d.Z
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = scal["s_b"]
    row = -(np.conj(v) @ Y + v @ np.conj(Z))
    M[0, 1:] = row
    M[1:, 0] = np.conj(row)
    P = np.zeros((n, n), dtype=complex)
    col = X @ v
    P[0, 1:] = -col
    P[1:, 0] = col
    return M, P


def c2_residuals(d, scal=None):
    """Closed-form residuals of the standard predicates, for any real lam."""
    lam, v, X, Y, Z = d.lam, d.v, d.X, d.Y, d.Z
    Xs = X.conj().T
    Ys = Y.conj().T
    vmax = max_abs(v)
    skt = (
        X @ Xs
        - Y @ Xs
        + Z.T @ np.conj(Z)
        - Z @ np.conj(Z)
        + Ys @ Y
        - Ys @ X
        + lam * (Y - X)
    )
    if scal is None:
        scal = c2_scalars(d)
    return {
        "unimodular": c2_unimodularity_defect(d),
        "balanced": max(abs(np.trace(X) - np.trace(Y)), vmax),
        "kaehler": max(vmax, max_abs(Z.T - Z), max_abs(X - Y)),
        "pluriclosed": max_abs(skt),
        "chern_flat": max(
            abs(lam),
            vmax,
            max_abs(Z),
            max_abs(Y @ Ys - Ys @ Y),
            max_abs(Y @ Xs - Xs @ Y),
        ),
        "cyt": max(
            max_abs(X @ v),
            max_abs(Ys @ v + Z.T @ np.conj(v)),
            abs(scal["s_b"]),
        ),
    }


def c2_report(d):
    """Predicates and scalars of either family, cross-checked against the
    tensor engine.

    Builds the algebra once with ``d.build()`` and runs the engine once.
    Booleans must match exactly, ``s``, ``s_hat`` and ``s_b`` within ten
    times the tolerance; any disagreement raises CrossCheckFailure.  The
    algebra is returned under ``"algebra"``.
    """
    alg = d.build()
    engine = hermitian.property_report(alg)
    tol = alg.tol
    scal = c2_scalars(d)
    res = c2_residuals(d, scal)
    props = hermitian.decide(res, tol)
    hermitian.cross_check(props, engine["properties"], tol, res, engine["residuals"])
    hermitian.cross_check(scal, engine["scalars"], tol)
    return {
        "family": "codim2",
        "n": d.n,
        "tol": tol,
        "properties": props,
        "residuals": res,
        "scalars": scal,
        "engine": engine,
        "algebra": alg,
    }


# ---------------------------------------------------------------------------
# Torsion-parallel residual system


def c2_btp_residuals(d):
    """Residuals of the full matrix system equivalent to a parallel torsion.

    Keys eq1 and eq2 are the per-index quartic equations and constitute
    the primary test; eq3a through eq5b are their implied contractions,
    reported separately as consistency checks.  The remaining keys cover
    the index ranges where the transverse direction participates.  On
    unimodular integrable data the whole system vanishes exactly when
    the Bismut torsion is parallel.
    """
    lam, v, X, Y, Z = d.lam, d.v, d.X, d.Y, d.Z
    B = Y - X
    Am = Z.T - Z
    tB = np.trace(B)
    tZ = np.trace(Z)
    Bc = np.conj(B)
    Zc = np.conj(Z)
    Xs = X.conj().T

    eq1 = (
        contract("kj,li->ijkl", B, Z)
        - contract("ij,lk->ijkl", B, Z)
        - contract("ik,lj->ijkl", Am, B)
    )
    eq2 = (
        contract("kj,li->ijkl", B, Bc)
        - contract("ij,lk->ijkl", B, Bc)
        - contract("ik,lj->ijkl", Am, Zc)
    )
    v1 = (
        contract("k,li->ikl", v, Z)
        - contract("i,lk->ikl", v, Z)
        - contract("l,ik->ikl", v, Am)
    )
    v2 = (
        contract("k,li->ikl", v, Bc)
        - contract("i,lk->ikl", v, Bc)
        - contract("l,ik->ikl", np.conj(v), Am)
    )
    w1 = contract("l,kj->jkl", v, B) - contract("k,lj->jkl", v, B)
    w2 = contract("l,kj->jkl", np.conj(v), B) - contract("k,lj->jkl", v, Zc)

    return {
        "eq1": max_abs(eq1),
        "eq2": max_abs(eq2),
        "eq3a": max_abs(tB * Z - Z @ B.T + B @ Am),
        "eq3b": max_abs(tB * Bc - Bc @ B.T + Zc @ Am),
        "eq4a": max_abs(Z.T @ B - tZ * B - Am @ B),
        "eq4b": max_abs(B.conj().T @ B - np.conj(tB) * B - Am @ Zc),
        "eq5a": max_abs(B @ Z - Z.T @ B.T + tB * Am),
        "eq5b": max_abs(B @ Bc - B.conj().T @ B.T + np.conj(tZ) * Am),
        "Xv": max(max_abs(X @ v), max_abs(Xs @ v)),
        "vZBA": max(max_abs(v1), max_abs(v2)),
        "vBZ": max(max_abs(w1), max_abs(w2)),
        "BA": max(max_abs(B @ Am - Z @ B.T), max_abs(Zc @ Am - Bc @ B.T)),
        "XB": max(
            max_abs(B @ X - X @ B - lam * B),
            max_abs(B @ Xs - Xs @ B - lam * B),
        ),
        "XA": max(
            max_abs(X @ Am + Am @ X.T - lam * Am),
            max_abs(Xs @ Am + Am @ np.conj(X) - lam * Am),
        ),
        "unimodular": c2_unimodularity_defect(d),
    }


# ---------------------------------------------------------------------------
# Normal-form generators


def _as_positive_real(x, name):
    xc = complex(x)
    if xc.imag != 0.0 or xc.real <= 0.0:
        raise ParameterDomain("%s must be a positive real number, got %r" % (name, x))
    return float(xc.real)


def make_btpv1(n, v2, a=(), tol=None):
    """First torsion-parallel normal form: coupling vector only.

    Structure: lam = 0, v = (v2, 0, ...), X = Y = diag(0, a), Z = 0.
    Requires v2 > 0 and len(a) = n - 2.  The result is unimodular,
    pluriclosed and torsion-parallel for every choice of a.
    """
    if n < 2:
        raise DimensionMismatch("need n >= 2")
    v2 = _as_positive_real(v2, "v2")
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.shape != (n - 2,):
        raise DimensionMismatch("a must have length n-2 = %d" % (n - 2))
    m = n - 1
    v = np.zeros(m, dtype=complex)
    v[0] = v2
    X = np.zeros((m, m), dtype=complex)
    X[1:, 1:] = np.diag(a)
    Z = np.zeros((m, m), dtype=complex)
    return Codim2Data(n=n, lam=0.0, v=v, X=X, Y=np.array(X), Z=Z, tol=tol)


def make_btpv2(n, v2, p, a=(), tol=None):
    """Second torsion-parallel normal form: coupling vector plus one 2x2 cell.

    Structure: lam = 0, v = (v2, 0, ...), X = diag(0, 0, a),
    Y = X + p E, Z = p E with E the matrix unit coupling the second and
    third directions.  Requires v2 > 0, p > 0, len(a) = n - 3.  The
    result is torsion-parallel but neither balanced nor pluriclosed.
    """
    if n < 3:
        raise DimensionMismatch("need n >= 3")
    v2 = _as_positive_real(v2, "v2")
    p = _as_positive_real(p, "p")
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.shape != (n - 3,):
        raise DimensionMismatch("a must have length n-3 = %d" % (n - 3))
    m = n - 1
    v = np.zeros(m, dtype=complex)
    v[0] = v2
    X = np.zeros((m, m), dtype=complex)
    X[2:, 2:] = np.diag(a)
    E = np.zeros((m, m), dtype=complex)
    E[0, 1] = 1.0
    return Codim2Data(n=n, lam=0.0, v=v, X=X, Y=X + p * E, Z=p * E, tol=tol)


def make_btpv0(n, r, S, W, a=(), tol=None):
    """Third normal-form shape: paired blocks, vanishing coupling vector.

    Structure: lam = 0, v = 0, X = diag(0, 0, a) in the block split
    (r, r, n-1-2r), Y = X + B with B carrying diag(S) in its upper
    middle block, and Z carrying diag(S) W there.  Requires r >= 1, S
    positive real of length r, W a symmetric unitary r x r matrix
    commuting with diag(S), and len(a) = n - 1 - 2r (0 when n = 2r + 1).

    The result is unimodular, balanced and not pluriclosed for every r.
    Its torsion is parallel exactly when r = 1.  For r >= 2 it is the
    witness of the rank obstruction: the per-index equation eq1 of
    :func:`c2_btp_residuals` equals :func:`btpv0_obstruction`, which is
    positive, and the classifier answers NotBTP.
    """
    if not isinstance(r, (int, np.integer)) or r < 1:
        raise ParameterDomain("r must be a positive integer, got %r" % (r,))
    r = int(r)
    m = n - 1
    if 2 * r > m:
        raise ParameterDomain("need n - 1 >= 2r (got n=%d, r=%d)" % (n, r))
    S = np.asarray(S, dtype=float).reshape(-1)
    if S.shape != (r,):
        raise ParameterDomain("S must be a vector of length r = %d" % r)
    if np.any(S <= 0.0):
        raise ParameterDomain("S entries must be positive")
    W = np.asarray(W, dtype=complex)
    if W.shape != (r, r):
        raise ParameterDomain("W must be r x r")
    wtol = default_tolerance(W, S)
    if max_abs(W - W.T) > wtol:
        raise ParameterDomain("W must be symmetric")
    if max_abs(W @ W.conj().T - np.eye(r)) > wtol:
        raise ParameterDomain("W must be unitary")
    Sm = np.diag(S).astype(complex)
    if max_abs(W @ Sm - Sm @ W) > wtol:
        raise ParameterDomain("W must commute with diag(S)")
    a = np.asarray(a, dtype=complex).reshape(-1)
    if a.shape != (m - 2 * r,):
        raise DimensionMismatch("a must have length n-1-2r = %d" % (m - 2 * r))
    X = np.zeros((m, m), dtype=complex)
    X[2 * r :, 2 * r :] = np.diag(a)
    B = np.zeros((m, m), dtype=complex)
    B[:r, r : 2 * r] = Sm
    Z = np.zeros((m, m), dtype=complex)
    Z[:r, r : 2 * r] = Sm @ W
    v = np.zeros(m, dtype=complex)
    return Codim2Data(n=n, lam=0.0, v=v, X=X, Y=X + B, Z=Z, tol=tol)


def btpv0_obstruction(S, W):
    """Exact value of eq1 of :func:`c2_btp_residuals` on make_btpv0 data.

    In the generator's frame B = Y - X carries diag(S) and Z carries
    diag(S) W in the upper middle block.  Take i = q <= r, j = r+q,
    k = r+q' and l <= r with l != q.  Only one term of eq1 survives:

        eq1[i, j, k, l] = -S_q (S W)_{l q'} = -S_q S_l W_{l q'}.

    The entries with l = q cancel, and every other nonzero entry repeats
    one of these moduli, so eq1 is the largest S_q S_l |W_{l q'}| over
    q != l, which is 0 when r = 1.  For r >= 2 every row of the unitary
    W has an entry of modulus at least 1/sqrt(r), so eq1 >= S_1 S_2 /
    sqrt(r) > 0 for the two largest values: the torsion cannot be
    parallel, and the paired-block shape caps the rank at one.
    """
    S = np.asarray(S, dtype=float).reshape(-1)
    prod = np.outer(S, S) * np.abs(np.asarray(W)).max(axis=1)[None, :]
    np.fill_diagonal(prod, 0.0)
    return float(prod.max())


# ---------------------------------------------------------------------------
# Linear-algebra helpers with a deterministic gauge


def _fix_column_phases(Q):
    """Rotate each column so its first significant entry is positive real."""
    Q = np.array(Q)
    for j in range(Q.shape[1]):
        col = Q[:, j]
        big = np.abs(col)
        idx = int(np.argmax(big > 1e-12 * (big.max() + 1.0)))
        ph = col[idx]
        if abs(ph) > 0.0:
            Q[:, j] = col * (np.conj(ph) / abs(ph))
    return Q


def _eigh_desc(M):
    """Hermitian eigendecomposition, eigenvalues descending, phases fixed."""
    w, Q = np.linalg.eigh(M)
    w = w[::-1]
    Q = _fix_column_phases(Q[:, ::-1])
    return w, Q


def _eig_order(vals):
    return np.lexsort((-vals.imag, -vals.real))


def diagonalize_normal(M):
    """Unitary diagonalization of a (numerically) normal matrix.

    Returns (vals, Q) with M = Q diag(vals) Q* up to the departure of M
    from normality.  Eigenvalues come sorted by descending real part,
    ties broken by descending imaginary part; eigenvector phases are
    normalized so the first significant component is positive real.

    The Schur vectors are recovered from LAPACK's general eigensolver:
    zgeev reduces M to Schur form T = Q* M Q first and returns the
    eigenvectors Q Y, with Y upper triangular, so the QR factor of the
    eigenvector matrix is Q up to column phases.  For normal M the Schur
    form is diagonal, which makes Q unitary and Q* M Q diagonal even
    when eigenvalues repeat, and the eigenvalues zgeev returns are the
    diagonal of T.
    """
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return np.zeros(0, dtype=complex), np.zeros((0, 0), dtype=complex)
    vals, V = np.linalg.eig(M)
    Q = np.linalg.qr(V)[0]
    order = _eig_order(vals)
    return vals[order], _fix_column_phases(Q[:, order])


def _unitary_sending_to_e1(w):
    """Deterministic unitary U with U w = ||w|| e1 (w nonzero)."""
    w = np.asarray(w, dtype=complex).reshape(-1)
    m = w.shape[0]
    nw = np.linalg.norm(w)
    cols = np.column_stack([w / nw, np.eye(m, dtype=complex)])
    Q, _ = np.linalg.qr(cols)
    ph = np.vdot(Q[:, 0], w / nw)
    Q[:, 0] *= ph / abs(ph)
    return Q.conj().T


def _block_unitary(*blocks):
    mats = [np.atleast_2d(np.asarray(b, dtype=complex)) for b in blocks]
    sizes = [b.shape[0] for b in mats]
    total = sum(sizes)
    out = np.zeros((total, total), dtype=complex)
    at = 0
    for b, s in zip(mats, sizes):
        out[at : at + s, at : at + s] = b
        at += s
    return out


def rotate_codim2(d, U):
    """Apply a unitary change of the ideal directions at parameter level.

    U acts on the last n-1 frame vectors: v -> U v, X -> U X U*,
    Y -> U Y U*, Z -> U Z tU.  Equivalent to a frame change of the
    built algebra by diag(1, U).
    """
    Us = U.conj().T
    return Codim2Data(
        n=d.n,
        lam=d.lam,
        v=U @ d.v,
        X=U @ d.X @ Us,
        Y=U @ d.Y @ Us,
        Z=U @ d.Z @ U.T,
        tol=d.tol,
    )


# ---------------------------------------------------------------------------
# Paired factorization


def paired_takagi_factor(b, z, tol=None):
    """Joint normal form of two nonsingular matrices tied by three equations.

    Given square b and z with

        conj(z) tz = conj(b) tb,   tz conj(z) = b* b,   b tz = z tb,

    returns (U, S, V, W) with U, V, W unitary, S a positive vector in
    descending order, W symmetric, W commuting with diag(S), and

        b = U diag(S) V*,     z = U diag(S) W tV.

    Raises Singular when either matrix is singular at the tolerance and
    NotCompatible, naming the failing equation, when the three relations
    do not hold.
    """
    b = np.asarray(b, dtype=complex)
    z = np.asarray(z, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape != z.shape:
        raise DimensionMismatch("b and z must be square matrices of equal size")
    r = b.shape[0]
    if r == 0:
        raise DimensionMismatch("matrices must be nonempty")
    if tol is None:
        tol = default_tolerance(b, z)

    for name, M in (("b", b), ("z", z)):
        sv = np.linalg.svd(M, compute_uv=False)
        if sv[-1] <= tol:
            raise Singular(
                "%s is singular at the tolerance (smallest singular value %.3e)"
                % (name, sv[-1])
            )

    checks = (
        ("conj(z) tz = conj(b) tb", np.conj(z) @ z.T - np.conj(b) @ b.T),
        ("tz conj(z) = b* b", z.T @ np.conj(z) - b.conj().T @ b),
        ("b tz = z tb", b @ z.T - z @ b.T),
    )
    for name, E in checks:
        res = max_abs(E)
        if res > tol:
            raise NotCompatible(
                "equation %s fails with residual %.3e" % (name, res)
            )

    w, U0 = _eigh_desc(np.conj(z) @ z.T)
    s = np.sqrt(np.maximum(w, 0.0))
    if s[-1] <= 0.0:
        raise Singular("degenerate spectrum in the paired factorization")
    Sinv = (1.0 / s)[:, None]
    V0s = Sinv * (U0.conj().T @ np.conj(b))
    Q = Sinv * (U0.conj().T @ np.conj(z))
    V0 = V0s.conj().T
    W0 = Q @ np.conj(V0)
    return np.conj(U0), s, np.conj(V0), np.conj(W0)


# ---------------------------------------------------------------------------
# Classification


def _structural(msg, value, bound):
    if value > bound:
        raise CrossCheckFailure(
            "torsion-parallel reduction found inconsistent structure: "
            + msg
            + " (%.3e > %.3e)" % (value, bound),
            name="classify",
            closed=value,
            engine=bound,
        )


_NORMAL_FORMS = {"v1": make_btpv1, "v2": make_btpv2, "v0": make_btpv0}


def classify_btp(d):
    """Identify the torsion-parallel normal form of unimodular data.

    Returns a dict with keys ``family`` (one of "v1", "v2", "v0",
    "Kahler", "NotBTP"), ``params`` (the gauge-fixed generator
    parameters), ``frame`` (the n x n unitary carrying the input frame
    to the normal form) and ``residuals`` (the full residual system).
    Data failing the residual system at the tolerance is reported as
    NotBTP, which is an answer, not an error.  Non-unimodular input
    raises NotUnimodular; non-integrable input raises
    IntegrabilityViolation.

    Each torsion-parallel branch rotates its leading block into place
    and checks its structure (CrossCheckFailure where it fails); then the
    rest of X is diagonalized into ``params["a"]``, and the make_btpv*
    constructor called with ``params`` must rebuild the input's invariants.
    """
    tol = d.tol
    n, m = d.n, d.n - 1
    require_integrable(d, "classification needs integrable data")
    defect = c2_unimodularity_defect(d)
    if defect > tol:
        raise NotUnimodular(
            "classification covers unimodular algebras only (defect %.3e)" % defect
        )

    residuals = c2_btp_residuals(d)
    report = {"residuals": residuals, "frame": np.eye(n, dtype=complex)}
    worst = max(residuals.values())
    if worst > tol:
        report.update(family="NotBTP", params={"residual": worst})
        return report

    if max(max_abs(d.v), max_abs(d.Y - d.X), max_abs(d.Z.T - d.Z)) <= tol:
        report.update(family="Kahler", params={})
        return report

    check = 100.0 * tol
    vnorm = float(np.linalg.norm(d.v))
    if vnorm > tol:
        frame = _unitary_sending_to_e1(d.v)
        cur = rotate_codim2(d, frame)
        _structural("lam must vanish when the coupling vector is nonzero",
                    abs(cur.lam), check)
        _structural("Z must be supported on its first row",
                    max_abs(cur.Z[1:, :]), check)
        _structural("the first row of B must conjugate the first row of Z",
                    max_abs((cur.Y - cur.X)[0, :] - np.conj(cur.Z[0, :])), check)
        _structural("the transverse action must decouple from the coupling vector",
                    max(max_abs(cur.X[0, :]), max_abs(cur.X[:, 0])), check)
        z1 = np.array(cur.Z[0, 1:])
        znorm = float(np.linalg.norm(z1))
        if znorm <= tol:
            family, params, p = "v1", {"v2": vnorm}, 1
        else:
            U = _block_unitary(np.eye(1), _unitary_sending_to_e1(z1))
            cur = rotate_codim2(cur, U)
            frame = U @ frame
            _structural("the coupling cell must decouple from the diagonal tail",
                        max(max_abs(cur.X[1, 1:]), max_abs(cur.X[1:, 1])), check)
            family, params, p = "v2", {"v2": vnorm, "p": znorm}, 2
    else:
        _structural("lam must vanish for torsion-parallel data", abs(d.lam), check)
        # Rank and row compression of Z.
        P, sv, Qh = np.linalg.svd(d.Z)
        r = int(np.count_nonzero(sv > tol))
        _structural("Z must be nonzero alongside a nonzero torsion",
                    float(r == 0), 0.5)
        _structural("Z must be singular on torsion-parallel data",
                    float(2 * r > m), 0.5)
        frame = P.conj().T
        cur = rotate_codim2(d, frame)
        _structural("the upper left block of Z must vanish",
                    max_abs(cur.Z[:r, :r]), np.sqrt(check))
        Bcur = np.array(cur.Y - cur.X)
        Bcur[:r, r:] = 0.0
        _structural("B must be supported on its upper right block",
                    max_abs(Bcur), check)
        y = cur.Z[:r, r:]
        Py, sy, Qyh = np.linalg.svd(y)
        _structural("the right block of Z must have full rank",
                    float(sy[min(r, len(sy)) - 1] <= tol), 0.5)
        U = _block_unitary(np.eye(r), np.conj(Qyh))
        cur = rotate_codim2(cur, U)
        frame = U @ frame
        _structural("B must vanish beyond the paired columns",
                    max_abs((cur.Y - cur.X)[:r, 2 * r :]), check)
        z = np.array(cur.Z[:r, r : 2 * r])
        b = np.array((cur.Y - cur.X)[:r, r : 2 * r])
        Uf, S, Vf, Wf = paired_takagi_factor(b, z, tol=10.0 * tol)
        U = _block_unitary(Uf.conj().T, Vf.conj().T, np.eye(m - 2 * r))
        cur = rotate_codim2(cur, U)
        frame = U @ frame
        _structural("the transverse action must vanish on the paired blocks",
                    max_abs(cur.X[: 2 * r, :]) + max_abs(cur.X[:, : 2 * r]),
                    np.sqrt(check))
        family, params, p = "v0", {"r": r, "S": S, "W": Wf}, 2 * r

    params["a"], Q = diagonalize_normal(cur.X[p:, p:])
    frame = _block_unitary(np.eye(p), Q.conj().T) @ frame
    rebuilt = _NORMAL_FORMS[family](n, **params, tol=tol)
    _postcondition_invariants(d, rebuilt, tol)
    report.update(family=family, params=params, frame=_block_unitary(np.eye(1), frame))
    return report


def spectrum_distance(vals_a, vals_b):
    """Bottleneck distance between two equal-length spectra: over all
    pairings of the two lists, the smallest largest gap |a_i - b_j|.

    Sorting complex eigenvalues is unstable when real parts tie (an
    all-imaginary spectrum plus rounding noise permutes freely), so the
    lists are paired, not sorted.  The distance is one of the gaps and
    at least the largest gap from a point of either list to the nearest
    point of the other.  That bound is tested first, which settles two
    spectra that agree; then the sorted gaps above it are bisected.
    """
    a = np.asarray(vals_a, dtype=complex).reshape(-1)
    b = np.asarray(vals_b, dtype=complex).reshape(-1)
    if a.shape != b.shape:
        raise ValueError("spectra must have equal length")
    if a.size == 0:
        return 0.0
    cost = np.abs(a[:, None] - b[None, :])
    if not np.isfinite(cost).all():
        raise ValueError("spectra must be finite")
    levels = np.sort(cost, axis=None)
    lo = int(np.searchsorted(levels, max(cost.min(0).max(), cost.min(1).max())))
    hi, level = levels.size - 1, lo
    while lo < hi:
        if _pairs_within(cost <= levels[level]):
            hi = level
        else:
            lo = level + 1
        level = (lo + hi) // 2
    return float(levels[lo])


def _pairs_within(allowed):
    """Whether the boolean square matrix ``allowed`` pairs every row with
    a column of its own, by Kuhn's augmenting paths."""
    adj = [[j for j, ok in enumerate(row) if ok] for row in allowed.tolist()]
    row_of = [-1] * len(adj)  # row paired with each column, -1 if free

    def augment(i, seen):
        for j in adj[i]:
            if j not in seen:
                seen.add(j)
                if row_of[j] < 0 or augment(row_of[j], seen):
                    row_of[j] = i
                    return True
        return False

    return all(augment(i, set()) for i in range(len(adj)))


def _invariants(d):
    """Frame-invariant data of a parameter set."""
    return {
        "singular values of B": np.linalg.svd(d.Y - d.X, compute_uv=False),
        "singular values of Z": np.linalg.svd(d.Z, compute_uv=False),
        "norm of v": np.linalg.norm(d.v),
    }


def _postcondition_invariants(original, rebuilt, tol):
    """Frame-invariant agreement between input data and its normal form."""
    sides = "input and its torsion-parallel normal form"
    hermitian.cross_check(_invariants(original), _invariants(rebuilt), tol, sides=sides)
    _structural("the spectrum of X must survive the reduction",
                spectrum_distance(np.linalg.eigvals(original.X), np.linalg.eigvals(rebuilt.X)),
                10.0 * tol)
    rep_o = hermitian.property_report(build_codim2(original))
    rep_r = hermitian.property_report(build_codim2(rebuilt))
    hermitian.cross_check(rep_o["properties"], rep_r["properties"], tol,
                          rep_o["residuals"], rep_r["residuals"], sides=sides)


# ---------------------------------------------------------------------------
# Flat normal form


def chern_flat_normal_form(d):
    """Reorganize Chern-flat data into its block-diagonal normal form.

    Requires the closed-form flatness residual to vanish at the
    tolerance.  Returns (data, frame) where the new Y is diagonal with
    equal eigenvalues grouped together and X is exactly block-diagonal
    along those groups; ``frame`` is the n x n unitary realizing the
    change.
    """
    res = c2_residuals(d)["chern_flat"]
    if res > d.tol:
        raise ParameterDomain(
            "data is not Chern-flat (residual %.3e)" % res
        )
    m = d.n - 1
    vals, Q = diagonalize_normal(d.Y)
    U = Q.conj().T
    cur = rotate_codim2(d, U)
    groups = []
    start = 0
    for i in range(1, m + 1):
        if i == m or abs(vals[i] - vals[start]) > 10.0 * d.tol:
            groups.append((start, i))
            start = i
    Xb = np.zeros((m, m), dtype=complex)
    for lo, hi in groups:
        Xb[lo:hi, lo:hi] = cur.X[lo:hi, lo:hi]
    data = Codim2Data(
        n=d.n,
        lam=0.0,
        v=np.zeros(m, dtype=complex),
        X=Xb,
        Y=np.diag(vals),
        Z=np.zeros((m, m), dtype=complex),
        tol=d.tol,
    )
    return data, _block_unitary(np.eye(1), U)
