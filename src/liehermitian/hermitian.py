"""Torsion, canonical connections and curvature of the frame metric.

Everything here treats the frame e_1..e_n as unitary, so the metric is
the identity matrix and never appears explicitly.  A connection is
described by a single coefficient array with layout ``[coefficient,
argument, direction]``:

    nabla_{e_dir} e_arg = sum_c Gamma[c, arg, dir] e_c

The barred-direction and barred-argument blocks are all determined by
Gamma through metric compatibility and type considerations, which is
why no second array is carried around; the covariant derivative
routines conjugate Gamma internally where required.

The torsion of the canonical (Chern) connection has pure (2,0) type
with components

    T^j_{ik} = -C^j_{ik} - D^j_{ik} + D^j_{ki}

and the Chern curvature, a (1,1)-form valued endomorphism, is

    R_{i jbar k lbar} = sum_r ( D^r_{ki} conj(D^r_{lj})
                              - D^l_{ri} conj(D^k_{rj})
                              - D^j_{ri} conj(D^k_{lr})
                              - conj(D^i_{rj}) D^l_{kr} ).

The fourth sum is the conjugate of the third with i <-> j and k <-> l,
so :func:`chern_curvature` forms the third product once and reads the
fourth term off it; each sign still multiplies one term alone.

The module-level sign tuples below exist only so the verification
harness can flip individual terms and confirm that the identity battery
notices; see :func:`sign_mutation`.
"""

import contextlib
from types import SimpleNamespace

import numpy as np

from . import forms
from .algebra import TOL_X10, TOL_X100, contract, max_abs, unimodularity_defect
from .errors import CrossCheckFailure, DimensionMismatch, InvalidAlgebra

# term signs for (C, D, D-swapped) in the torsion and for the four
# curvature terms.  Do not edit; flip temporarily via sign_mutation().
_TORSION_SIGNS = [-1.0, -1.0, 1.0]
_CURVATURE_SIGNS = [1.0, -1.0, -1.0, -1.0]


@contextlib.contextmanager
def sign_mutation(torsion_index=None, curvature_index=None):
    """Temporarily flip one torsion or curvature term sign.

    Used by the self-check battery to demonstrate that the internal
    identities are sensitive to each convention choice.  Never nest.
    """
    try:
        if torsion_index is not None:
            _TORSION_SIGNS[torsion_index] *= -1.0
        if curvature_index is not None:
            _CURVATURE_SIGNS[curvature_index] *= -1.0
        yield
    finally:
        if torsion_index is not None:
            _TORSION_SIGNS[torsion_index] *= -1.0
        if curvature_index is not None:
            _CURVATURE_SIGNS[curvature_index] *= -1.0


# ---------------------------------------------------------------------------
# torsion and trace vectors


def chern_torsion(a):
    """Torsion tensor T[j, i, k] of the canonical connection."""
    sC, sD, sDsw = _TORSION_SIGNS
    return sC * a.C + sD * a.D + sDsw * a.D.transpose(0, 2, 1)


def bracket_trace(a):
    """gamma_i = sum_r C^r_{ri}, the (1,0)-trace of ad(e_i) on the frame."""
    return np.einsum("rri->i", a.C)


def chern_connection_trace(a):
    """zeta_k = sum_r D^r_{rk}: trace of the direction-k connection matrix."""
    return np.einsum("rrk->k", a.D)


def chern_divergence(a):
    """nu_k = sum_r D^r_{kr}: the (1,0) divergence of the frame field e_k."""
    return np.einsum("rkr->k", a.D)


def torsion_trace(T):
    """eta_i = sum_r T^r_{ri} of the torsion T = chern_torsion(a);
    vanishes exactly for balanced metrics.

    Coincides with :func:`chern_divergence` on unimodular algebras.
    """
    return np.einsum("rri->i", T)


# ---------------------------------------------------------------------------
# connections


def chern_connection(a):
    """Coefficients Gamma[c, arg, dir] = D[c, arg, dir] of the canonical
    Hermitian connection (the one whose (0,1) part is the holomorphic
    structure)."""
    return np.array(a.D)


def bismut_connection(a):
    """Coefficients of the metric connection with totally skew torsion,
    Gamma^b = Gamma + T entrywise, i.e. -C^j_{ik} + D^j_{ki}."""
    return -a.C + a.D.transpose(0, 2, 1)


# ---------------------------------------------------------------------------
# curvature and its traces


def chern_curvature(a):
    """Curvature tensor R[i, j, k, l] = R_{i jbar k lbar}.

    Index pair (i, j) is the 2-form slot, (k, l) the endomorphism slot;
    R[i, j, k, l] = conj(R[j, i, l, k]) always holds.
    """
    D = a.D
    Dc = np.conj(D)
    s1, s2, s3, s4 = _CURVATURE_SIGNS
    X = contract("jri,klr->ijkl", D, Dc)
    return (
        s1 * contract("rki,rlj->ijkl", D, Dc)
        + s2 * contract("lri,krj->ijkl", D, Dc)
        + s3 * X
        + s4 * np.conj(X.transpose(1, 0, 3, 2))
    )


def ricci_first(R):
    """Endomorphism trace: Ric1[a, b] = sum_r R[a, b, r, r]."""
    return np.einsum("abrr->ab", R)


def ricci_second(R):
    """Form trace: Ric2[k, l] = sum_r R[r, r, k, l]."""
    return np.einsum("rrkl->kl", R)


def ricci_third(R):
    """Mixed trace: Ric3[a, b] = sum_r R[r, b, a, r]."""
    return np.einsum("rbar->ab", R)


def chern_scalar(R):
    """s = sum R[i, i, k, k], the double trace."""
    return complex(np.einsum("iikk->", R))


def chern_scalar_alt(R):
    """The crossed double trace sum R[i, k, k, i], written s-hat."""
    return complex(np.einsum("ikki->", R))


def curvature_hermitian_residual(R):
    """Max-abs deviation from R[i,j,k,l] = conj(R[j,i,l,k]).

    This holds for every metric; a visible residual means the tensor
    was not produced by chern_curvature (or was mutated for testing).
    """
    return max_abs(R - np.conj(R.transpose(1, 0, 3, 2)))


# ---------------------------------------------------------------------------
# covariant derivatives of the torsion


def torsion_cov_deriv(T, G, barred):
    """Covariant derivative of a (2,0) torsion tensor along frame
    directions, for the connection with coefficient array G.

    With direction index last, the unbarred derivative is

        out[j, i, k, l] = sum_r ( -T^j_{rk} G^r_{il} - T^j_{ir} G^r_{kl}
                                  + T^r_{ik} G^j_{rl} )

    and the barred one (direction ebar_l) is

        out[j, i, k, l] = sum_r (  T^j_{rk} conj(G^i_{rl})
                                 + T^j_{ir} conj(G^k_{rl})
                                 - T^r_{ik} conj(G^r_{jl}) ).

    T must be antisymmetric in its lower pair, as every torsion is:
    with T^j_{ir} = -T^j_{ri}, the second sum is the first with i and k
    exchanged and its sign flipped, so it is read off the first product
    as a transposed view and each derivative takes two products.
    :func:`chern_torsion` is antisymmetric up to the rounding of its
    three-term sum, and exactly so on Gaussian-integer data.  Under
    ``sign_mutation(torsion_index=2)`` the torsion is not antisymmetric,
    and the result is the formula above with -T^j_{ri} in place of
    T^j_{ir} in the second sum.
    """
    if T.shape != G.shape:
        raise DimensionMismatch(
            f"torsion shape {T.shape} vs connection shape {G.shape}"
        )
    if barred:
        Gc = np.conj(G)
        X = contract("jrk,irl->jikl", T, Gc)
        return X - X.transpose(0, 2, 1, 3) - contract("rik,rjl->jikl", T, Gc)
    X = contract("jrk,ril->jikl", T, G)
    return X.transpose(0, 2, 1, 3) - X + contract("rik,jrl->jikl", T, G)


def bismut_torsion_derivative_residuals(a):
    """Max-abs of the two covariant derivatives of the torsion under the
    skew-torsion connection; both vanish exactly when the torsion is
    parallel."""
    return _parallel_residuals(chern_torsion(a), bismut_connection(a))


def _parallel_residuals(T, G):
    """Max-abs of the unbarred and barred derivatives of T along G."""
    return (
        max_abs(torsion_cov_deriv(T, G, barred=False)),
        max_abs(torsion_cov_deriv(T, G, barred=True)),
    )


def torsion_bianchi_residual(a):
    """Residual of the curvature identity

        (nabla_{ebar_j} T)^l_{ik} = R_{k jbar i lbar} - R_{i jbar k lbar}

    for the canonical connection.  Zero (to roundoff) whenever the
    Jacobi identity holds; one of the battery checks the sign-mutation
    harness is expected to break."""
    T = chern_torsion(a)
    DbarT = torsion_cov_deriv(T, chern_connection(a), barred=True)
    R = chern_curvature(a)
    rhs = np.einsum("kjil->likj", R) - np.einsum("ijkl->likj", R)
    return max_abs(DbarT - rhs)


# ---------------------------------------------------------------------------
# trace forms and Ricci forms


def chern_trace_form(a):
    """trace of the canonical connection form, as an invariant 1-form."""
    return forms.invariant_one_form(chern_connection_trace(a))


def bismut_trace_form(a):
    """trace of the skew-torsion connection form, as an invariant 1-form."""
    return forms.invariant_one_form(-bracket_trace(a) + chern_divergence(a))


def chern_ricci_form(a):
    """d of the canonical trace form.  Its (1,1) block equals the first
    Ricci trace of the curvature entrywise; vanishing characterizes
    trivial restricted canonical holonomy determinant."""
    return forms.exterior_d(a, chern_trace_form(a))


def bismut_ricci_form(a):
    """d of the skew-torsion trace form; vanishing is the CYT condition."""
    return forms.exterior_d(a, bismut_trace_form(a))


def one_one_matrix(f, n):
    """Coefficient matrix N[a, b] of phi_{a+1} ^ phibar_{b+1} in a form."""
    N = np.zeros((n, n), dtype=complex)
    for (I, J), c in f.items():
        if len(I) == 1 and len(J) == 1:
            N[I[0] - 1, J[0] - 1] = c
    return N


def two_zero_matrix(f, n):
    """Antisymmetric coefficient matrix M[a, b] of phi_{a+1} ^ phi_{b+1}."""
    M = np.zeros((n, n), dtype=complex)
    for (I, J), c in f.items():
        if len(I) == 2 and len(J) == 0:
            M[I[0] - 1, I[1] - 1] = c
            M[I[1] - 1, I[0] - 1] = -c
    return M


def bismut_ricci_blocks(a):
    """The (1,1) and (2,0) coefficient matrices of the skew-torsion
    Ricci form.  The (0,2) block is determined: it is minus the
    conjugate of the (2,0) one."""
    rho = bismut_ricci_form(a)
    return one_one_matrix(rho, a.n), two_zero_matrix(rho, a.n)


def ricci_form_trace_residual(a):
    """Max-abs gap between the (1,1) block of the canonical Ricci form
    and the first Ricci trace of the curvature tensor.  An unconditional
    identity of the formulas; sensitive to every sign convention."""
    rho = chern_ricci_form(a)
    N = one_one_matrix(rho, a.n)
    return max_abs(N - ricci_first(chern_curvature(a)))


# ---------------------------------------------------------------------------
# the pluriclosed tensor

# pinned numerically: coefficient of phi_i^phi_k^phibar_j^phibar_l
# (i<k, j<l, canonical order) in del delbar omega equals this factor
# times skt_tensor[i, k, j, l].
SKT_FORM_FACTOR = -1.0j


def skt_tensor(a):
    """Five-term torsion-bilinear tensor S[i, k, j, l] whose vanishing is
    the pluriclosed condition.

        S = - T^r_{ik} conj(C^r_{jl}) - T^j_{ir} conj(D^k_{rl})
            + T^j_{kr} conj(D^i_{rl}) + T^l_{ir} conj(D^k_{rj})
            - T^l_{kr} conj(D^i_{rj})

    Antisymmetric in (i,k) and, after conjugation, in (j,l).  The last
    four terms are one product relabelled (i <-> k, j <-> l, or both),
    so the tensor takes two products.
    """
    T = chern_torsion(a)
    X = contract("jir,krl->ikjl", T, np.conj(a.D))
    return (
        -contract("rik,rjl->ikjl", T, np.conj(a.C))
        - X
        + X.transpose(1, 0, 2, 3)
        + X.transpose(0, 1, 3, 2)
        - X.transpose(1, 0, 3, 2)
    )


def skt_form_tensor_residual(a):
    """Gap between del delbar omega computed by the forms engine and the
    closed tensor expression, over canonical index positions."""
    S = skt_tensor(a)
    ddbar = forms.partial_d(a, forms.partial_dbar(a, forms.kaehler_power(a.n, 1)))
    F = np.zeros_like(S)
    for ((i, k), (j, l)), c in ddbar.items():
        F[i - 1, k - 1, j - 1, l - 1] = c
    upper = np.triu_indices(a.n, 1)
    gap = (F - SKT_FORM_FACTOR * S)[upper][:, upper[0], upper[1]]
    # hypot, not np.abs: it rounds as abs() of a complex scalar does
    return float(np.hypot(gap.real, gap.imag).max())


# ---------------------------------------------------------------------------
# scalar identities


def scalar_identity_residuals(a):
    """Residuals of trace identities satisfied by the curvature scalars.

    's' and 's_hat' check the double traces against expressions in the
    connection trace vectors (unconditional, no Jacobi needed).  'gap'
    checks s_hat = s - chi with chi = sum_r eta_r conj(nu_r), an
    identity of the Jacobi variety.
    """
    R = chern_curvature(a)
    s = chern_scalar(R)
    s_hat = chern_scalar_alt(R)
    zeta = chern_connection_trace(a)
    nu = chern_divergence(a)
    eta = torsion_trace(chern_torsion(a))
    q = complex(contract("trs,tsr->", a.D, np.conj(a.D)))
    s_pred = -complex(np.sum(nu * np.conj(zeta) + np.conj(nu) * zeta))
    s_hat_pred = -q - complex(np.sum(np.abs(nu) ** 2))
    chi = complex(np.sum(eta * np.conj(nu)))
    return {
        "s": abs(s - s_pred),
        "s_hat": abs(s_hat - s_hat_pred),
        "gap": abs(s_hat - (s - chi)),
    }


# ---------------------------------------------------------------------------
# the property report


def _realpart(z, tol):
    z = complex(z)
    if abs(z.imag) > TOL_X100 * tol:
        raise ArithmeticError(
            f"expected a real scalar, got imaginary part {z.imag:.3e}"
        )
    return z.real


def require_lie_algebra(a):
    """Raise InvalidAlgebra unless the Jacobi residual is within the
    tolerance (a NaN residual is not); no predicate or curvature scalar
    means anything then."""
    if not a.is_valid:
        raise InvalidAlgebra(
            "Jacobi residual %.3e exceeds tolerance %.3e; "
            "not a Lie algebra" % (a.jacobi_max, a.tol)
        )


def decide(residuals, tol):
    """The boolean of each residual: whether it is at most ``tol``, with
    None (a condition without content) passed through.  This is the one
    place where a residual becomes a boolean."""
    return {k: None if v is None else bool(v <= tol) for k, v in residuals.items()}


def report_scalars(a, R, bismut_one_one, eta):
    """The five scalars of a report, from the Chern curvature R, the
    (1,1) block of the skew-torsion Ricci form and the torsion trace
    eta: s, s_hat, the Bismut scalar s_b, chi = sum_r eta_r conj(nu_r)
    and |eta|^2."""
    tol = a.tol
    nu = chern_divergence(a)
    return {
        "s": _realpart(chern_scalar(R), tol),
        "s_hat": _realpart(chern_scalar_alt(R), tol),
        "s_b": _realpart(np.trace(bismut_one_one), tol),
        "chi": _realpart(np.sum(eta * np.conj(nu)), tol),
        "eta_norm_sq": float(np.sum(np.abs(eta) ** 2)),
    }


def evaluate(table, *args):
    """Each predicate's residual, in ``table`` order, from its route
    called on ``args``.  bkl has no route (None): Bismut Kaehler-like is
    BTP and pluriclosed, so its residual is the larger of theirs."""
    res = {}
    for name, route in table.items():
        res[name] = max(res["btp"], res["pluriclosed"]) if route is None else route(*args)
    return res


# Each predicate's engine route, in report order, on the namespace t of
# report_tensors.  Routes look forms functions up when called, so a
# wrapper installed there sees them.
PREDICATES = {
    "kaehler": lambda t: max_abs(t.T),
    "balanced": lambda t: max_abs(t.eta),
    "pluriclosed": lambda t: forms.del_delbar_residual(t.a, 1),
    "gauduchon": lambda t: forms.del_delbar_residual(t.a, t.a.n - 1),
    "astheno_kaehler": lambda t: (
        None if t.a.n == 2 else forms.del_delbar_residual(t.a, t.a.n - 2)),
    "chern_flat": lambda t: max_abs(t.R),
    # the barred Chern derivative of the torsion: zero iff the curvature
    # has the full Kaehler symmetry package
    "chern_kaehler_like": lambda t: max_abs(
        torsion_cov_deriv(t.T, chern_connection(t.a), barred=True)),
    "btp": lambda t: max(_parallel_residuals(t.T, bismut_connection(t.a))),
    "bkl": None,
    "cyt": lambda t: forms.max_coeff(t.rho_b),
    "chern_ricci_flat": lambda t: forms.max_coeff(chern_ricci_form(t.a)),
    "unimodular": lambda t: max_abs(unimodularity_defect(t.a)),
}


def report_tensors(a):
    """The tensors a report reads, each formed once: a namespace of the
    algebra ``a``, its Chern torsion ``T`` and curvature ``R``, the torsion
    trace ``eta`` and the Bismut Ricci form ``rho_b``.  Raises
    InvalidAlgebra as :func:`property_report` does."""
    require_lie_algebra(a)
    T = chern_torsion(a)
    return SimpleNamespace(a=a, T=T, R=chern_curvature(a), eta=torsion_trace(T),
                           rho_b=bismut_ricci_form(a))


def property_report(a, t=None):
    """Classify the frame metric of an algebra against the standard
    special-metric conditions, the predicates of :data:`PREDICATES`.

    Returns a dict with keys 'properties' (booleans, or None where a
    condition does not apply), 'residuals' (the numbers the booleans
    threshold), 'scalars' and 'jacobi_residual'.  The astheno condition
    is reported as None in complex dimension 2, where it is vacuous.
    ``t`` is ``report_tensors(a)`` when the caller has formed it already.

    Raises InvalidAlgebra when the Jacobi residual exceeds the
    tolerance; none of the predicates mean anything in that case.
    """
    n, tol = a.n, a.tol
    t = report_tensors(a) if t is None else t
    res = evaluate(PREDICATES, t)
    return {
        "n": n,
        "tol": tol,
        "jacobi_residual": list(a.jacobi),
        "properties": decide(res, tol),
        "residuals": res,
        "scalars": report_scalars(a, t.R, one_one_matrix(t.rho_b, n), t.eta),
    }


# ---------------------------------------------------------------------------
# closed forms against the engine


def cross_check(closed, engine, tol, closed_res=None, engine_res=None,
                sides="closed form and tensor engine"):
    """Hold closed-form values against the engine's, key by key.

    This is the one place where a family closed form, or a second route
    to a quantity, is compared with the general engine.  Every key of
    ``closed`` is compared with the same key of ``engine``; a key that
    is missing or None on either side is skipped, since the quantity
    has no content there.  Booleans must be equal, numbers and arrays
    must agree entrywise within 10 tol.  The first disagreement raises
    CrossCheckFailure naming the key.  A boolean's error carries the
    residuals it thresholds, taken from ``closed_res`` and
    ``engine_res``; a number's error carries the two values, an array's
    the largest entrywise gap against 0.

    Returns the gap of every number and array compared.
    """
    gaps = {}
    for key, mine in closed.items():
        theirs = engine.get(key)
        if mine is None or theirs is None:
            continue
        message = "%s disagree on %r" % (sides, key)
        if isinstance(mine, bool):
            if mine != theirs:
                raise CrossCheckFailure(message, name=key, closed=closed_res[key],
                                        engine=engine_res[key])
            continue
        gaps[key] = gap = max_abs(np.asarray(mine) - np.asarray(theirs))
        if gap > TOL_X10 * tol:
            if np.ndim(mine) == 0:
                raise CrossCheckFailure(message, name=key, closed=mine, engine=theirs)
            raise CrossCheckFailure(message, name=key, closed=gap, engine=0.0)
    return gaps
