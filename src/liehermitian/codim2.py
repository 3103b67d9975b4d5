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
of :func:`freeze_fields`, the derived blocks of :class:`FamilyBlocks`
kept on the data, the (C, D) assembly of :func:`assemble`, the one
closed form of each shared predicate, in the table
``Codim2Data.PREDICATES`` keyed by the names of ``hermitian.PREDICATES``,
and of each scalar, in :func:`c2_scalars`, valid for either sign of lam,
and the one report :func:`c2_report`, which decides the table its data
class names and holds it against the engine.  Each data class builds its
own algebra: only codimension-two data is checked for integrability.

Besides the closed-form predicates and curvature blocks, this module
carries the torsion-parallel machinery: the residual system of
:func:`c2_btp_residuals`, the three normal-form generators
``make_btpv1`` / ``make_btpv2`` / ``make_btpv0``, and the classifier
:func:`classify_btp` that reduces any Bismut-torsion-parallel metric of
the family to one of those normal forms.  The paired-block form
``make_btpv0`` is torsion-parallel only at block rank one (the rank-one
cap).  The classifier certifies each answer by its postcondition; six
guards, the cap among them, stop its v0 reduction where it would index
or divide by what is not there (listed at :func:`classify_btp`).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    ROUND_CUT,
    TOL_X10,
    TOL_X100,
    contract,
    default_tolerance,
    make_algebra,
    max_abs,
    require_dimension,
    require_ideal_pattern,
)
from .errors import (
    CrossCheckFailure,
    DimensionMismatch,
    IntegrabilityViolation,
    NegativeLambda,
    NotUnimodular,
    ParameterDomain,
)
from . import hermitian


def freeze_fields(data, *, nonnegative):
    """Validate and freeze the fields shared by both abelian-ideal families.

    ``data`` is a frozen dataclass with fields n, lam, v, tol and one
    (n-1) x (n-1) matrix per name in its ``BLOCKS``.  Checks 2 <= n <= 16,
    a real ``lam`` (and, when ``nonnegative``, its sign, before any
    shape), the length of ``v`` and the shape of each block; stores
    ``lam`` as a float and the arrays as read-only complex arrays, and
    fills in the scale-aware default ``tol``.
    """
    require_dimension(data.n)
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


def _block(form):
    """A read-only array ``form(d)``, formed on first use and kept on d."""
    def get(d):
        arr = form(d)
        arr.setflags(write=False)
        return arr
    return cached_property(get)


class FamilyBlocks:
    """The blocks the closed forms of either family derive from its fields
    (lam, v, X, Y, Z), each formed on first use and kept on the data, so
    a closed form takes the data itself.  The arrays are read-only;
    whoever hands the scalars out copies them."""

    scal = cached_property(lambda d: c2_scalars(d))
    v_max = cached_property(lambda d: max_abs(d.v))
    Xs = _block(lambda d: d.X.conj().T)
    Ys = _block(lambda d: d.Y.conj().T)
    B = _block(lambda d: d.Y - d.X)
    Am = _block(lambda d: d.Z.T - d.Z)
    Y_herm = _block(lambda d: d.Y + d.Ys)


@dataclass(frozen=True)
class Codim2Data(FamilyBlocks):
    """Raw parameters (lam, v, X, Y, Z) of the codimension-two family.

    Construction validates shapes and the sign of ``lam`` but not the
    integrability equations; those are enforced by :meth:`build` (alias
    :func:`build_codim2`) so that deliberately broken data can still be
    inspected.
    """

    BLOCKS = ("X", "Y", "Z")
    # The closed form of each predicate the two families share, for any
    # real lam, keyed by its name in hermitian.PREDICATES and in report
    # order.  A route takes the data and reads its blocks off it.
    PREDICATES = {
        "unimodular": lambda c: c2_unimodularity_defect(c),
        "balanced": lambda c: max(abs(np.trace(c.X) - np.trace(c.Y)), c.v_max),
        "kaehler": lambda c: max(c.v_max, max_abs(c.Am), max_abs(c.B)),
        "pluriclosed": lambda c: max_abs(
            c.X @ c.Xs - c.Y @ c.Xs + c.Z.T @ np.conj(c.Z) - c.Z @ np.conj(c.Z)
            + c.Ys @ c.Y - c.Ys @ c.X + c.lam * c.B),
        "chern_flat": lambda c: max(
            abs(c.lam),
            c.v_max,
            max_abs(c.Z),
            max_abs(c.Y @ c.Ys - c.Ys @ c.Y),
            max_abs(c.Y @ c.Xs - c.Xs @ c.Y),
        ),
        # CYT: the Bismut Ricci form vanishes
        "cyt": lambda c: max(map(max_abs, c2_bismut_blocks(c))),
    }

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
    X, Xs, Y, Z, lam = d.X, d.Xs, d.Y, d.Z, d.lam
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


def c2_ricci_closed(d):
    """The three Chern Ricci contractions in closed form."""
    n, lam, v, Y, Ys, Z, scal = d.n, d.lam, d.v, d.Y, d.Ys, d.Z, d.scal
    vsq = float(np.vdot(v, v).real)

    ric1 = np.zeros((n, n), dtype=complex)
    ric1[0, 0] = scal["s"]

    ric2 = np.zeros((n, n), dtype=complex)
    znorm2 = float(np.sum(np.abs(Z) ** 2))
    ric2[0, 0] = -(vsq + znorm2 + 2.0 * lam * lam)
    row = -(v @ Z.conj().T + np.conj(v) @ Y)
    ric2[0, 1:] = row
    ric2[1:, 0] = np.conj(row)
    ric2[1:, 1:] = (
        np.outer(v, np.conj(v)) + Z @ Z.conj().T + (Y @ Ys - Ys @ Y) - lam * d.Y_herm
    )

    ric3 = np.zeros((n, n), dtype=complex)
    ric3[0, 0] = scal["s_hat"]
    ric3[0, 1:] = -(v @ np.conj(Z))
    ric3[1:, 0] = -(Ys @ v)
    return ric1, ric2, ric3


def c2_bismut_blocks(d):
    """(1,1) and (2,0) coefficient matrices of the Bismut Ricci form.

    The (1,1) block is Hermitian with support on the first row and
    column only; its corner is the Bismut scalar.  The (2,0) block is
    antisymmetric with first row -(X v).
    """
    n, v, X, Y, Z = d.n, d.v, d.X, d.Y, d.Z
    M = np.zeros((n, n), dtype=complex)
    M[0, 0] = d.scal["s_b"]
    row = -(np.conj(v) @ Y + v @ np.conj(Z))
    M[0, 1:] = row
    M[1:, 0] = np.conj(row)
    P = np.zeros((n, n), dtype=complex)
    col = X @ v
    P[0, 1:] = -col
    P[1:, 0] = col
    return M, P


def c2_residuals(d):
    """Closed-form residuals of the predicates both families share, the
    routes of :attr:`Codim2Data.PREDICATES`, for data of either family."""
    return hermitian.evaluate(Codim2Data.PREDICATES, d)


def c2_report(d):
    """Predicates of the table ``d.PREDICATES`` and scalars of either
    family, cross-checked against the tensor engine.

    Builds the algebra once with ``d.build()`` and runs the engine once.
    Booleans must match exactly, ``s``, ``s_hat`` and ``s_b`` within ten
    times the tolerance; any disagreement raises CrossCheckFailure.  The
    algebra is returned under ``"algebra"``, its ``report_tensors`` under
    ``"tensors"``, and ``"scalars"`` is a copy of ``d.scal``.
    """
    alg = d.build()
    t = hermitian.report_tensors(alg)
    engine = hermitian.property_report(alg, t)
    tol = alg.tol
    res = hermitian.evaluate(d.PREDICATES, d)
    scal = dict(d.scal)
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
        "tensors": t,
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
    lam, v, X, Xs, Z, B, Am = d.lam, d.v, d.X, d.Xs, d.Z, d.B, d.Am
    tB = np.trace(B)
    tZ = np.trace(Z)
    Bc = np.conj(B)
    Zc = np.conj(Z)

    # terms that differ only by i <-> k (j <-> k in w1) share a product
    bz = contract("kj,li->ijkl", B, Z)
    eq1 = bz - bz.transpose(2, 1, 0, 3) - contract("ik,lj->ijkl", Am, B)
    bb = contract("kj,li->ijkl", B, Bc)
    eq2 = bb - bb.transpose(2, 1, 0, 3) - contract("ik,lj->ijkl", Am, Zc)
    vz = contract("k,li->ikl", v, Z)
    v1 = vz - vz.transpose(1, 0, 2) - contract("l,ik->ikl", v, Am)
    vb = contract("k,li->ikl", v, Bc)
    v2 = vb - vb.transpose(1, 0, 2) - contract("l,ik->ikl", np.conj(v), Am)
    vB = contract("l,kj->jkl", v, B)
    w1 = vB - vB.transpose(0, 2, 1)
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
    require_dimension(n)
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
        idx = int(np.argmax(big > ROUND_CUT * (big.max() + 1.0)))
        ph = col[idx]
        if abs(ph) > 0.0:
            Q[:, j] = col * (np.conj(ph) / abs(ph))
    return Q


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
# Classification


def _inconsistent(msg, value, relation, bound):
    """The refusal of a classify_btp guard that found ``value relation bound``."""
    return CrossCheckFailure("torsion-parallel reduction found inconsistent structure: "
                             "%s (%.3g %s %.3g)" % (msg, value, relation, bound),
                             name="classify", closed=value, engine=bound)


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

    Each torsion-parallel branch rotates its leading block into place and
    diagonalizes the rest of X into ``params["a"]``.  The postcondition
    is the certificate: the input moved by the frame must agree entrywise
    with the normal form make_btpv* builds from ``params``, and have its
    property report, or a CrossCheckFailure names the block.  Six guards
    of the v0 branch refuse earlier, as CrossCheckFailure "classify",
    where the reduction cannot go on: Z is nonzero (a block to pair),
    2r <= n - 1 (the right block of Z is not empty), rank one (1 x 1
    paired cells), that block at full rank (its row gives a direction),
    a nonzero paired cell of B (its phase is divided out) and equal
    moduli (W unitary, as make_btpv0 requires).
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

    if Codim2Data.PREDICATES["kaehler"](d) <= tol:
        report.update(family="Kahler", params={})
        return report

    vnorm = float(np.linalg.norm(d.v))
    if vnorm > tol:
        frame = _unitary_sending_to_e1(d.v)
        cur = rotate_codim2(d, frame)
        z1 = np.array(cur.Z[0, 1:])
        znorm = float(np.linalg.norm(z1))
        if znorm <= tol:
            family, params, p = "v1", {"v2": vnorm}, 1
        else:
            U = _block_unitary(np.eye(1), _unitary_sending_to_e1(z1))
            cur = rotate_codim2(cur, U)
            frame = U @ frame
            family, params, p = "v2", {"v2": vnorm, "p": znorm}, 2
    else:
        P, sv, Qh = np.linalg.svd(d.Z)
        r = int(np.count_nonzero(sv > tol))
        if r == 0:
            raise _inconsistent("Z must be nonzero alongside a nonzero torsion", r, "==", 0)
        if 2 * r > m:
            raise _inconsistent("Z must be singular on torsion-parallel data", 2 * r, ">", m)
        if r > 1:
            raise _inconsistent("Z must have rank one on torsion-parallel data", r, ">", 1)
        frame = P.conj().T
        cur = rotate_codim2(d, frame)
        _, sy, Qyh = np.linalg.svd(cur.Z[:1, 1:])
        if sy[0] <= tol:
            raise _inconsistent("the right block of Z must have full rank", sy[0], "<=", tol)
        U = _block_unitary(np.eye(1), np.conj(Qyh))
        cur = rotate_codim2(cur, U)
        frame = U @ frame
        # The paired cells z and b have one modulus s; the phase of b
        # moves into the second frame vector, leaving b = s, z = s W.
        z = cur.Z[0, 1]
        b = cur.B[0, 1]
        s = abs(b)
        if s <= tol:
            raise _inconsistent("the paired cell of B must be nonzero", s, "<=", tol)
        gap = abs(abs(z) - s)
        if gap > TOL_X100 * tol:
            raise _inconsistent("the paired cells of B and Z must have equal modulus",
                                gap, ">", TOL_X100 * tol)
        U = _block_unitary(np.eye(1), b / s, np.eye(m - 2))
        cur = rotate_codim2(cur, U)
        frame = U @ frame
        params = {"r": 1, "S": np.array([s]), "W": np.array([[z * b / s**2]])}
        family, p = "v0", 2

    params["a"], Q = diagonalize_normal(cur.X[p:, p:])
    frame = _block_unitary(np.eye(p), Q.conj().T) @ frame
    rebuilt = _NORMAL_FORMS[family](n, **params, tol=tol)
    _postcondition(d, frame, rebuilt, tol)
    report.update(family=family, params=params, frame=_block_unitary(np.eye(1), frame))
    return report


def _postcondition(original, frame, rebuilt, tol):
    """Hold the input, moved by the frame classify_btp returns, against
    its torsion-parallel normal form, and their property reports.

    ``frame`` is the unitary on the n - 1 ideal directions.  lam, v, X, Y
    and Z of the moved input must each agree entrywise with the normal
    form's within 10 tol, so the frame and every phase the reduction
    fixed (that of W on the v0 branch) are checked, not only what is
    left invariant.  This covers the invariants: rebuilt.X is diagonal,
    so by Bauer-Fike an entrywise gap of 10 tol moves the spectrum of X
    by at most (n - 1) 10 tol, and by Weyl's inequality the same bound
    holds for the singular values of B and Z and for |v|.
    """
    sides = "input and its torsion-parallel normal form"
    moved = rotate_codim2(original, frame)
    blocks = ("lam", "v", "X", "Y", "Z")
    hermitian.cross_check({b: getattr(moved, b) for b in blocks},
                          {b: getattr(rebuilt, b) for b in blocks}, tol, sides=sides)
    # classify_btp checked the input's integrability on entry
    rep_o = hermitian.property_report(assemble(original.n, original.lam, original.v,
                                               original.X, original.Y, original.Z, tol))
    rep_r = hermitian.property_report(build_codim2(rebuilt))
    hermitian.cross_check(rep_o["properties"], rep_r["properties"], tol,
                          rep_o["residuals"], rep_r["residuals"], sides=sides)


# ---------------------------------------------------------------------------
# Flat normal form


def chern_flat_normal_form(d):
    """Reorganize Chern-flat data into its block-diagonal normal form.

    Requires the closed-form flatness residual to vanish at the
    tolerance.  Returns (data, frame) where the new Y is diagonal with
    equal eigenvalues next to each other and X is exactly block-diagonal
    along those groups; ``frame`` is the n x n unitary realizing the
    change.

    In the order of :func:`diagonalize_normal`, each eigenvalue of Y
    joins the first group whose first member lies within 10 tol of it,
    or else starts one, and the groups keep the order of their first
    members.  Rounding moves the real parts of a repeated eigenvalue, so
    a third one of the same real part can sort between its copies; when
    no two eigenvalues are that close, the order is the sort's.
    """
    res = Codim2Data.PREDICATES["chern_flat"](d)
    if res > d.tol:
        raise ParameterDomain(
            "data is not Chern-flat (residual %.3e)" % res
        )
    m = d.n - 1
    vals, Q = diagonalize_normal(d.Y)
    # label[i] is the index of the first member of the group of vals[i]
    label = []
    for i, z in enumerate(vals):
        label.append(next((j for j in range(i) if label[j] == j
                           and abs(z - vals[j]) <= TOL_X10 * d.tol), i))
    label = np.array(label, dtype=int)
    order = np.argsort(label, kind="stable")
    vals, label, U = vals[order], label[order], Q[:, order].conj().T
    cur = rotate_codim2(d, U)
    data = Codim2Data(
        n=d.n,
        lam=0.0,
        v=np.zeros(m, dtype=complex),
        X=np.where(label[:, None] == label, cur.X, 0.0),
        Y=np.diag(vals),
        Z=np.zeros((m, m), dtype=complex),
        tol=d.tol,
    )
    return data, _block_unitary(np.eye(1), U)
