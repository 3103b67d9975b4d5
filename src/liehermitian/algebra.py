"""Structure-constant model of a Lie algebra with a left-invariant Hermitian structure.

A unitary frame e_1..e_n of (1,0) vectors determines two complex tensors:

    [e_i, e_k]    = sum_j  C^j_{ik} e_j
    [e_i, ebar_k] = sum_j ( conj(D^i_{jk}) e_j - D^k_{ji} ebar_j )

C is antisymmetric in its lower pair, D carries no symmetry.  Both are
stored densely as complex arrays indexed ``[j, i, k]`` with the upper
index first.  Indices are 0-based internally; documentation, file
formats and printed output are 1-based.

The Jacobi identity is equivalent to three quadratic residuals (one in
C alone, two mixing C and D); construction records them but never
rejects an algebra, so that deliberately invalid data can still be
inspected.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AntisymmetryViolation,
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NonFiniteValue,
    NotUnitary,
    PatternMismatch,
)

MAX_DIM = 16

# The tolerance policy: every bound is one of these times the scale named.
TOL_FACTOR = 1e-9  # the default tol, times 1 + max |entry| of the data
ROUND_CUT = 1e-12  # rounding cut, times 1 + scale or n; absolute on unit-size draws
ASTHENO_CUT = 1e-7  # the astheno profile's coincidences, times 1 + |A| + |lam|
ZERO_CUT = 1e-14  # forms coefficients at most this, absolute, are dropped
RANK_CUT = 1e-8  # numerical rank of a generator draw's Z, absolute
TOL_X10 = 10.0  # times tol: cross-checks and the battery's bounds
TOL_X100 = 100.0  # times tol: imaginary parts, equal moduli; times 10 tol: loose battery bounds
TOL_X1000 = 1000.0  # times 10 tol: the torsion Bianchi identity under sign mutation


def require_dimension(n):
    """Raise DimensionMismatch unless 2 <= n <= MAX_DIM, the documented domain."""
    if not (2 <= n <= MAX_DIM):
        raise DimensionMismatch(f"n must be between 2 and {MAX_DIM}, got {n}")


def max_abs(arr):
    """Largest absolute value of an array, 0.0 for empty input."""
    a = np.asarray(arr)
    if a.size == 0:
        return 0.0
    # the ufunc reduction itself, without ndarray.max's Python wrapper
    return float(np.maximum.reduce(np.abs(a), axis=None))


@functools.lru_cache(maxsize=None)
def _contraction_plan(spec):
    """Axis permutations that turn ``spec`` into one matrix product:
    (perm of A, free axes first; perm of B, summed axes first; number of
    summed axes; perm from the product's axes to the output's)."""
    inputs, arrow, out = spec.partition("->")
    operands = inputs.split(",")
    if not arrow or len(operands) != 2:
        raise ValueError(f"contract takes two operands and an explicit output: {spec!r}")
    a, b = operands
    if len(set(a)) != len(a) or len(set(b)) != len(b) or len(set(out)) != len(out):
        raise ValueError(f"repeated index inside one term of {spec!r}")
    summed = [c for c in a if c in b and c not in out]
    free_a = [c for c in a if c in out]
    free_b = [c for c in b if c in out]
    if (set(free_a) & set(free_b) or sorted(free_a + free_b) != sorted(out)
            or len(free_a) + len(summed) != len(a)
            or len(free_b) + len(summed) != len(b)):
        raise ValueError(f"{spec!r} is not a single contraction over shared indices")
    product = free_a + free_b
    return (
        tuple(a.index(c) for c in free_a + summed),
        tuple(b.index(c) for c in summed + free_b),
        len(summed),
        tuple(product.index(c) for c in out),
    )


@functools.lru_cache(maxsize=1 << 12)
def _contraction_shapes(spec, shape_a, shape_b):
    """The plan of ``spec`` with the matrix shapes for operands of these
    shapes: (perm of A, A's matrix shape, perm of B, B's matrix shape,
    the product's shape before the output perm, that perm)."""
    pa, pb, nsum, pout = _contraction_plan(spec)
    if (len(shape_a), len(shape_b)) != (len(pa), len(pb)):
        raise ValueError(f"{spec!r} takes operands of rank {len(pa)} and {len(pb)}, "
                         f"got shapes {shape_a} and {shape_b}")
    a = tuple(shape_a[p] for p in pa)
    b = tuple(shape_b[p] for p in pb)
    free_a, summed = a[: len(a) - nsum], a[len(a) - nsum:]
    if summed != b[:nsum]:
        raise ValueError(f"summed axes of {spec!r} differ: {summed} vs {b[:nsum]}")
    k = math.prod(summed)
    free_b = b[nsum:]
    return (pa, (math.prod(free_a), k), pb, (k, math.prod(free_b)),
            free_a + free_b, pout)


def contract(spec, A, B):
    """``np.einsum(spec, A, B)`` for two operands, computed as one matrix
    product so that BLAS does the summation.

    A and B are arrays.  ``spec`` names every index explicitly, as in
    ``"rij,lrk->ijkl"``: an index in both operands and not in the output
    is summed, and every other index appears in exactly one operand and
    in the output.  Outer products (nothing summed) and full contractions
    (empty output) are allowed.  Repeated indices inside one operand
    (traces), indices shared by both operands and the output, and more
    than two operands raise ValueError; single-operand traces stay with
    ``np.einsum``.  Each spec is parsed once, and its matrix shapes are
    worked out once per pair of operand shapes.

    The summation order differs from einsum's, so results agree to
    roundoff, not bit for bit.  The returned array may be a transposed
    view.
    """
    pa, ma, pb, mb, shape, pout = _contraction_shapes(spec, A.shape, B.shape)
    product = A.transpose(pa).reshape(ma) @ B.transpose(pb).reshape(mb)
    return product.reshape(shape).transpose(pout)


def default_tolerance(*arrays):
    """Scale-aware default comparison tolerance: TOL_FACTOR * (1 + max magnitude)."""
    m = 0.0
    for a in arrays:
        m = max(m, max_abs(a))
    return TOL_FACTOR * (1.0 + m)


@dataclass(frozen=True, eq=False)
class Algebra:
    """Immutable container for one algebra in one unitary frame.

    Build instances through :func:`make_algebra` or :func:`build_general`;
    ``jacobi`` holds the three residuals (CC, CD, CDbar) measured at
    construction time.
    """

    n: int
    C: np.ndarray
    D: np.ndarray
    tol: float
    jacobi: tuple

    @property
    def jacobi_max(self):
        # a NaN residual (an overflow) counts as the largest
        return max(self.jacobi, key=lambda r: r if r == r else math.inf)

    @property
    def is_valid(self):
        return self.jacobi_max <= self.tol

    def __repr__(self):
        return (
            f"Algebra(n={self.n}, tol={self.tol:.3e}, "
            f"jacobi_max={self.jacobi_max:.3e})"
        )


def _freeze(arr):
    arr = np.ascontiguousarray(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


def jacobi_tensors(n, C, D):
    """The three Jacobi tensors whose simultaneous vanishing is the
    Jacobi identity for the complexified bracket.

    Yields rank-4 arrays indexed [i, j, k, l], the CC, CD and CDbar
    tensors in turn, each formed once the one before has been taken, so
    that :func:`make_algebra`, which keeps their max-abs entries as
    ``Algebra.jacobi``, holds one at a time.  Terms that are a
    relabelling of another term's indices reuse its product: the cyclic
    terms of the CC tensor, and the i <-> k partners in the other two.
    Each tensor is summed in place, term by term in the order of the
    formula, and each product is freed once read: no more than two
    rank-4 temporaries live beside the tensor being formed.
    """
    cc = contract("rij,lrk->ijkl", C, C)
    jcc = cc + cc.transpose(2, 0, 1, 3)
    jcc += cc.transpose(1, 2, 0, 3)
    del cc
    yield jcc
    del jcc
    dd = contract("rji,lrk->ijkl", D, D)
    jcd = contract("rik,ljr->ijkl", C, D) + dd
    jcd -= dd.transpose(2, 1, 0, 3)
    del dd
    yield jcd
    del jcd
    Dc = np.conj(D)
    # copied to C order, where the in-place sums run fastest, before cd
    # is formed: a caller that keeps all three tensors holds four at most
    jcdbar = contract("rik,rjl->ijkl", C, Dc).copy()
    cd = contract("jrk,irl->ijkl", C, Dc)
    jcdbar -= cd
    jcdbar += cd.transpose(2, 1, 0, 3)
    del cd
    ddc = contract("lri,kjr->ijkl", D, Dc)
    jcdbar -= ddc
    jcdbar += ddc.transpose(2, 1, 0, 3)
    yield jcdbar


def make_algebra(n, C, D, tol=None):
    """Assemble an Algebra from dense structure-constant arrays.

    C must be antisymmetric in its last two axes up to roundoff; the
    exact antisymmetrization is stored.  ``tol`` defaults to the
    scale-aware value of :func:`default_tolerance`.
    """
    require_dimension(n)
    C = np.asarray(C, dtype=complex)
    D = np.asarray(D, dtype=complex)
    if C.shape != (n, n, n) or D.shape != (n, n, n):
        raise DimensionMismatch(
            f"expected shape {(n, n, n)}, got C{C.shape} D{D.shape}"
        )
    if not (np.isfinite(C).all() and np.isfinite(D).all()):
        raise NonFiniteValue("structure constants must be finite")
    scale = max(max_abs(C), max_abs(D))
    asym = max_abs(C + C.transpose(0, 2, 1))
    if asym > ROUND_CUT * (1.0 + scale):
        raise AntisymmetryViolation(
            f"C is not antisymmetric in its lower index pair (defect {asym:.3e})"
        )
    C = 0.5 * (C - C.transpose(0, 2, 1))
    if tol is None:
        tol = default_tolerance(C, D)
    C = _freeze(C)
    D = _freeze(D)
    jac = tuple(map(max_abs, jacobi_tensors(n, C, D)))
    return Algebra(n=n, C=C, D=D, tol=float(tol), jacobi=jac)


def _check_entry_indices(n, j, i, k):
    for idx in (j, i, k):
        if not isinstance(idx, (int, np.integer)):
            raise IndexOutOfRange(f"indices must be integers, got {idx!r}")
        if not 1 <= idx <= n:
            raise IndexOutOfRange(f"index {idx} outside 1..{n}")


def build_general(n, C_entries=(), D_entries=(), tol=None):
    """Build an Algebra from sparse 1-based entries.

    Each entry is a tuple ``(j, i, k, value)`` assigning C^j_{ik} or
    D^j_{ik}.  For C, the mirror entry (j, k, i) is filled with the
    negated value; supplying both members of a mirror pair with
    inconsistent values, or a nonzero diagonal (i == k), raises
    AntisymmetryViolation.  An exact duplicate key raises DuplicateEntry
    even if the values agree.
    """
    require_dimension(n)
    C = np.zeros((n, n, n), dtype=complex)
    D = np.zeros((n, n, n), dtype=complex)
    seen_c = {}
    seen_d = set()
    for j, i, k, v in C_entries:
        _check_entry_indices(n, j, i, k)
        v = complex(v)
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise NonFiniteValue(f"non-finite C entry at ({j},{i},{k})")
        key = (j, i, k)
        if key in seen_c:
            raise DuplicateEntry(f"C entry ({j},{i},{k}) given twice")
        if i == k and v != 0:
            raise AntisymmetryViolation(
                f"C^{j}_{{{i}{k}}} must vanish on the diagonal"
            )
        mirror = (j, k, i)
        if mirror in seen_c and seen_c[mirror] != -v:
            raise AntisymmetryViolation(
                f"C entries ({j},{i},{k}) and ({j},{k},{i}) are not negatives"
            )
        seen_c[key] = v
        C[j - 1, i - 1, k - 1] = v
        if i != k:
            C[j - 1, k - 1, i - 1] = -v
    for j, i, k, v in D_entries:
        _check_entry_indices(n, j, i, k)
        v = complex(v)
        if not (np.isfinite(v.real) and np.isfinite(v.imag)):
            raise NonFiniteValue(f"non-finite D entry at ({j},{i},{k})")
        key = (j, i, k)
        if key in seen_d:
            raise DuplicateEntry(f"D entry ({j},{i},{k}) given twice")
        seen_d.add(key)
        D[j - 1, i - 1, k - 1] = v
    return make_algebra(n, C, D, tol=tol)


def unimodularity_defect(a):
    """Vector w with w_i = sum_r (C^r_{ri} + D^r_{ri}); zero iff unimodular."""
    return np.einsum("rri->i", a.C + a.D)


def require_ideal_pattern(a, allowed_d, pattern):
    """Raise PatternMismatch unless e_2..e_n span an abelian ideal, which
    allows only C^j_{1k} and C^j_{i1} with j >= 2, D fits the mask
    ``allowed_d(j, i, k)`` built on 0-based index grids, and D^1_11 is
    real; return D^1_11 as a float.

    The error names the first structure constant above the tolerance
    outside its mask, in (j, i, k) order with C before D at the same
    index, as a 1-based (tensor, j, i, k) tuple.
    """
    j, i, k = np.ogrid[: a.n, : a.n, : a.n]
    allowed_c = (j >= 1) & (((i == 0) & (k >= 1)) | ((k == 0) & (i >= 1)))
    bad = np.stack([(np.abs(a.C) > a.tol) & ~allowed_c,
                    (np.abs(a.D) > a.tol) & ~allowed_d(j, i, k)], axis=-1)
    if bad.any():
        j, i, k, t = (int(x) for x in np.unravel_index(np.argmax(bad), bad.shape))
        raise PatternMismatch(
            "%s entry outside the %s pattern" % ("CD"[t], pattern),
            offending=("CD"[t], j + 1, i + 1, k + 1),
        )
    lam = a.D[0, 0, 0]
    if abs(lam.imag) > a.tol:
        raise PatternMismatch(
            "D^1_11 must be real for this family", offending=("D", 1, 1, 1)
        )
    return float(lam.real)


def check_unitary(U, n=None, *, tol):
    """Validate that U is an n-by-n unitary matrix; raises NotUnitary."""
    U = np.asarray(U, dtype=complex)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise NotUnitary(f"expected a square matrix, got shape {U.shape}")
    if n is not None and U.shape[0] != n:
        raise NotUnitary(f"expected a {n}x{n} matrix, got {U.shape}")
    defect = max_abs(U @ U.conj().T - np.eye(U.shape[0]))
    if defect > tol:
        raise NotUnitary(f"matrix is not unitary (defect {defect:.3e})")
    return U


def change_frame(a, U):
    """Structure constants of the same algebra in the rotated unitary frame.

    The new frame is ``etilde_i = sum_p U[i, p] e_p``.  Both tensors pick
    up one U factor per lower index and one conjugated factor on the
    upper index.  Applying U and then conj(U).T returns to the original
    frame.
    """
    U = check_unitary(U, n=a.n, tol=max(ROUND_CUT * a.n, a.tol))
    # one factor at a time on the stacked pair (C, D): the upper index,
    # then each lower index
    T = contract("jm,smpq->sjpq", np.conj(U), np.stack([a.C, a.D]))
    T = contract("ip,sjpq->sjiq", U, T)
    T = contract("kq,sjiq->sjik", U, T)
    return make_algebra(a.n, T[0], T[1], tol=a.tol)


def _complexified_bracket_tensor(a):
    """Bracket of the real algebra on the basis (e_1..e_n, ebar_1..ebar_n).

    Returns B with B[g, x, y] = coefficient of basis vector g in
    [basis_x, basis_y].
    """
    n = a.n
    C, D = a.C, a.D
    Dc = np.conj(D)
    B = np.zeros((2 * n, 2 * n, 2 * n), dtype=complex)
    # [e_i, e_j] = C^k_{ij} e_k
    B[:n, :n, :n] = C
    # [ebar_i, ebar_j] = conj(C^k_{ij}) ebar_k
    B[n:, n:, n:] = np.conj(C)
    # [e_i, ebar_j] = conj(D^i_{kj}) e_k - D^j_{ki} ebar_k = -[ebar_j, e_i]
    B[:n, :n, n:] = Dc.transpose(1, 0, 2)
    B[n:, :n, n:] = -D.transpose(1, 2, 0)
    B[:n, n:, :n] = -Dc.transpose(1, 2, 0)
    B[n:, n:, :n] = D.transpose(1, 0, 2)
    return B


def lower_central_dims(a):
    """Dimensions of the lower central series of the complexified algebra.

    Returns the list [dim g^1, dim g^2, ...] where g^1 = [g, g] and
    g^{m+1} = [g, g^m], stopping once the dimension stabilizes or hits 0.
    Rank cuts use the algebra's tolerance.
    """
    n2 = 2 * a.n
    B = _complexified_bracket_tensor(a)
    scale = 1.0 + max_abs(B)

    def _span(vectors):
        # orthonormal basis of the column span.  a.tol already carries the
        # data scale, so tol / scale is relative and the cut grows
        # linearly with the largest singular value.
        if vectors.size == 0:
            return np.zeros((n2, 0), dtype=complex)
        u, s, _ = np.linalg.svd(vectors, full_matrices=False)
        r = int(np.sum(s > a.tol / scale * max(1.0, s[0] if s.size else 0.0)))
        return u[:, :r]

    # the first image, [g, g], is spanned by the columns of B itself
    img, width = B.reshape(n2, -1), n2
    dims = []
    for _ in range(n2 + 1):
        nxt = _span(img)
        dims.append(nxt.shape[1])
        if nxt.shape[1] in (0, width):
            break
        width = nxt.shape[1]
        img = contract("gxy,ys->gxs", B, nxt).reshape(n2, -1)
    return dims


def is_nilpotent(a):
    """Whether the underlying real Lie algebra is nilpotent.

    Decided numerically from the lower central series; rank cuts use a
    scale-aware tolerance, so inputs should be well away from the
    nilpotent/non-nilpotent boundary.
    """
    return lower_central_dims(a)[-1] == 0
