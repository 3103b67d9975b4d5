"""Algebras with an abelian ideal of complex codimension one.

In a frame whose last n-1 vectors span the ideal and whose first vector
spans its orthogonal complement, the whole algebra is encoded by a real
number ``lam``, a vector ``v`` of length n-1 and an (n-1) x (n-1) matrix
``A``.  The Jacobi identity holds for every choice of these parameters,
so the family is a free parameter space.  It is the slice Z = 0,
X = -A*, Y = A of the codimension-two family, whose code validates,
assembles, evaluates and reports it, with any real lam allowed: the
shared predicates and the scalars come from the closed forms of
:mod:`liehermitian.codim2` read on those blocks and on the derived
ones of :class:`~liehermitian.codim2.FamilyBlocks` (A* is ``Ys``), and
:func:`aa_report` is :func:`~liehermitian.codim2.c2_report` on the
slice.  What codimension one adds lives here, in the table
``AlmostAbelianData.PREDICATES`` that extends the shared one:
nilpotency, the Chern-Kaehler-like, BTP and BKL conditions and, from
n = 4, the eigenvalue profile of the astheno-Kaehler condition.
c2_report holds them against its engine run, and :func:`aa_report`
nilpotency against the lower central series.  A disagreement raises
:class:`~liehermitian.errors.CrossCheckFailure` instead of trusting
either side.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import ASTHENO_CUT, is_nilpotent, max_abs, require_ideal_pattern
from .codim2 import Codim2Data, FamilyBlocks, assemble, c2_report, freeze_fields
from .errors import NotAstheno, ParameterDomain, PatternMismatch
from . import hermitian


@dataclass(frozen=True)
class AlmostAbelianData(FamilyBlocks):
    """Defining parameters of a codimension-one-abelian algebra.

    ``lam`` scales the bracket of the transverse direction with itself
    (through the conjugate), ``v`` couples the transverse direction to
    the ideal and ``A`` is the action on the ideal.  ``tol`` is the
    comparison tolerance used by every predicate; ``None`` selects a
    scale-aware default.  The read-only ``X``, ``Y`` and ``Z`` are the
    codimension-two blocks (-A*, A, 0) of the same algebra.
    """

    BLOCKS = ("A",)
    # Codim2Data.PREDICATES and the closed forms codimension one adds,
    # keyed by their names in hermitian.PREDICATES but for nilpotent,
    # which aa_report holds against the lower central series instead.
    # Y is A, so a route reads A* as c.Ys and A + A* as c.Y_herm.
    PREDICATES = {
        **Codim2Data.PREDICATES,
        "nilpotent": lambda c: max(
            abs(c.lam),
            max_abs(np.linalg.matrix_power(c.A, c.n - 1)) / (1.0 + max_abs(c.A)) ** (c.n - 1)),
        "chern_kaehler_like": lambda c: max(
            max_abs(c.Ys @ c.v),
            max_abs(np.outer(c.v, np.conj(c.v)) + (c.A @ c.Ys - c.Ys @ c.A)
                    - c.lam * c.Y_herm),
        ),
        "btp": lambda c: max(max_abs(c.Y_herm), max_abs(c.A @ c.v)),
        "bkl": None,
        # at n = 3 the astheno condition is the pluriclosed one
        "astheno_kaehler": lambda c: (
            c._spectrum[1][3] if c.n > 3
            else Codim2Data.PREDICATES["pluriclosed"](c) if c.n == 3 else None),
    }

    n: int
    lam: float
    v: np.ndarray
    A: np.ndarray
    tol: float = None

    def __post_init__(self):
        freeze_fields(self, nonnegative=False)
        # stored once: every shared closed form reads them
        object.__setattr__(self, "Y", self.A)
        for name, M in (("X", -self.Ys), ("Z", np.zeros(self.A.shape, dtype=complex))):
            M.setflags(write=False)
            object.__setattr__(self, name, M)

    @cached_property
    def _spectrum(self):
        """The eigenvalues of A and their astheno profile, worked out once
        for the astheno route and aa_report.  The profile is (k, h,
        commutator residual, total residual, clauses), None below n = 4."""
        n, lam, A = self.n, self.lam, self.A
        eigs = np.linalg.eigvals(A)
        if n < 4:
            return eigs, None
        m = n - 1
        h = trace_sum(A)
        comm_res = max_abs(self.Ys @ A - A @ self.Ys)
        scale = ASTHENO_CUT * (1.0 + max_abs(A) + abs(lam))
        doubled = 2.0 * eigs.real
        if abs(lam) <= scale:
            # The two admissible values coincide; every eigenvalue must sit
            # at h and the count equation then forces h = 0.
            k = m
            bucket_res = float(np.max(np.abs(doubled - h))) if m else 0.0
            count_res = abs((n - 2) * h)
        else:
            near_h = np.abs(doubled - h)
            near_lh = np.abs(doubled - (lam + h))
            choose_h = near_h <= near_lh
            k = int(np.count_nonzero(choose_h))
            bucket_res = float(np.max(np.minimum(near_h, near_lh))) if m else 0.0
            count_res = abs((n - 1 - k) * lam + (n - 2) * h)
        total = max(comm_res, bucket_res, count_res)
        clauses = {
            "commutator": comm_res,
            "eigenvalue_bucket": bucket_res,
            "count_equation": count_res,
        }
        return eigs, (k, h, comm_res, total, clauses)

    def build(self):
        """Assemble the full structure-constant tensors from the parameters.

        This is the codimension-two assembly on the blocks X = -A*, Y = A,
        Z = 0, so the nonzero blocks, in 1-based index notation with the
        transverse direction first, are::

            D^1_11 = lam        D^1_i1 = v_i        D^j_i1 = A_ij
            C^j_1i = -conj(A_ji)

        for 2 <= i, j <= n, together with the antisymmetric mirror of C.
        Any real lam is allowed here, negative included, and no
        integrability check runs: the slice is integrable for every
        parameter.
        """
        return assemble(self.n, self.lam, self.v, self.X, self.Y, self.Z, self.tol)


build_almost_abelian = AlmostAbelianData.build


def extract_almost_abelian(a):
    """Recover (lam, v, A) from an algebra already in the adapted frame.

    Raises PatternMismatch, carrying the first offending entry as a
    1-based (tensor, j, i, k) tuple, when the structure constants do not
    fit the sparsity pattern of this family.
    """
    C, D = a.C, a.D
    lam = require_ideal_pattern(
        a, lambda j, i, k: (k == 0) & ~((j >= 1) & (i == 0)), "codimension-one"
    )
    v = np.array(D[0, 1:, 0])
    A = np.array(D[1:, 1:, 0]).T
    # C must be minus the conjugate transpose of the ideal action.
    off = np.argwhere(np.abs(C[1:, 0, 1:] + np.conj(A)) > a.tol)
    if off.size:
        raise PatternMismatch(
            "C block inconsistent with the ideal action",
            offending=("C", int(off[0, 0]) + 2, 1, int(off[0, 1]) + 2),
        )
    return AlmostAbelianData(n=a.n, lam=lam, v=v, A=A, tol=a.tol)


def trace_sum(A):
    """tr A + conj(tr A), the doubled real part of the trace."""
    return float(2.0 * np.trace(A).real)


def aa_residuals(d):
    """Closed-form residuals of :attr:`AlmostAbelianData.PREDICATES`:
    those of :func:`~liehermitian.codim2.c2_residuals` and the added ones.

    Each entry is a nonnegative number; the predicate holds exactly when
    the residual vanishes, and numerically when it stays below the data
    tolerance.  ``None`` marks a predicate with no content at this n.
    """
    return hermitian.evaluate(AlmostAbelianData.PREDICATES, d)


def spectral_pluriclosed_residual(d):
    """Pluriclosed test through the spectrum instead of the matrix equation.

    Requires A normal and every eigenvalue real part in {0, -lam/2}.
    Equivalent to the matrix form; both are exercised against each other
    in the test suite.
    """
    A, lam = d.A, d.lam
    comm = A @ d.Ys - d.Ys @ A
    eigs = np.linalg.eigvals(A)
    if eigs.size == 0:
        return max_abs(comm)
    dist = np.minimum(np.abs(eigs.real), np.abs(eigs.real + lam / 2.0))
    return max(max_abs(comm), float(np.max(dist)))


def aa_astheno_profile(d):
    """Certificate for the astheno condition when n >= 4.

    Returns (k, h, commutator_residual) where k counts the eigenvalues
    of A whose doubled real part equals h, the remaining ones sitting at
    lam + h, subject to (n-1-k) lam + (n-2) h = 0.  Raises NotAstheno,
    naming the failing clause, when the certificate does not exist.
    """
    if d.n < 4:
        raise ParameterDomain("the eigenvalue certificate needs n >= 4")
    k, h, comm_res, total, clauses = d._spectrum[1]
    if total > d.tol:
        worst = max(clauses, key=lambda key: clauses[key])
        raise NotAstheno(
            "astheno certificate fails in clause %r (residual %.3e)"
            % (worst, clauses[worst]),
            clause=worst,
        )
    return k, h, comm_res


def aa_report(d):
    """:func:`~liehermitian.codim2.c2_report` on the slice, which decides
    and cross-checks the table :attr:`AlmostAbelianData.PREDICATES`, plus
    nilpotency held against the lower central series of the algebra it
    built (a disagreement raises CrossCheckFailure) and the eigenvalue
    data of A.
    """
    rep = c2_report(d)
    nilp = is_nilpotent(rep["algebra"])
    hermitian.cross_check(rep["properties"], {"nilpotent": nilp}, rep["tol"],
                          rep["residuals"], {"nilpotent": float(not nilp)})

    eigs, prof = d._spectrum
    eigs = np.sort_complex(eigs)
    eigen_data = {
        "eigenvalues": eigs,
        "doubled_real_parts": 2.0 * eigs.real,
        "h": trace_sum(d.A),
    }
    if prof is not None:
        k, h, comm, total, _clauses = prof
        eigen_data["profile"] = (
            None if total > d.tol else {"k": k, "h": h, "commutator_residual": comm})
    rep.update(family="almost_abelian", eigen_data=eigen_data)
    return rep
