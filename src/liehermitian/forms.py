"""Left-invariant complex differential forms and the exterior differential.

A form of bidegree (p, q) is represented as a dict mapping
``(I, J) -> coefficient`` where I and J are strictly increasing tuples
of 1-based frame indices: the key stands for the wedge monomial

    phi_{I1} ^ .. ^ phi_{Ip} ^ phibar_{J1} ^ .. ^ phibar_{Jq}.

Mixed-degree forms simply carry keys of several lengths.  Coefficients
below a caller-supplied cleanup threshold are dropped so dictionaries
stay sparse.

The differential on generator 1-forms follows from the structure
constants:

    d phi_j = -1/2 sum C^j_{ik} phi_i ^ phi_k - sum conj(D^i_{jk}) phi_i ^ phibar_k

and extends to arbitrary invariant forms by the graded Leibniz rule.
Generator differentials are cached per Algebra instance.
"""

import weakref

import numpy as np

from .errors import InvalidDegree

_ZERO_CUT = 1e-14


def _merge_sorted(A, B):
    """Merge two strictly increasing tuples.

    Returns (merged_tuple, sign) with sign the parity of the shuffle,
    or (None, 0) if the tuples share an element.
    """
    if not A:
        return B, 1
    if not B:
        return A, 1
    out = []
    i = j = 0
    inversions = 0
    la, lb = len(A), len(B)
    while i < la and j < lb:
        if A[i] == B[j]:
            return None, 0
        if A[i] < B[j]:
            out.append(A[i])
            i += 1
        else:
            # B[j] jumps over the remaining elements of A
            inversions += la - i
            out.append(B[j])
            j += 1
    out.extend(A[i:])
    out.extend(B[j:])
    return tuple(out), (-1) ** inversions


def _normalize_key(I, J):
    """Sort a possibly unordered monomial key, tracking sign; None if repeated."""
    sign = 1
    for part in (I, J):
        lst = list(part)
        if len(set(lst)) != len(lst):
            return None, None, 0
        # insertion sort, counting swaps (keys are short)
        for a in range(1, len(lst)):
            b = a
            while b > 0 and lst[b - 1] > lst[b]:
                lst[b - 1], lst[b] = lst[b], lst[b - 1]
                sign = -sign
                b -= 1
        if part is I:
            I = tuple(lst)
        else:
            J = tuple(lst)
    return I, J, sign


def form(entries=(), cut=_ZERO_CUT):
    """Build a form dict from (I, J, coefficient) triples.

    Index tuples may be unordered; they are sorted with the appropriate
    sign.  Repeated indices inside a tuple make the monomial vanish.
    """
    out = {}
    for I, J, c in entries:
        I, J, sgn = _normalize_key(tuple(I), tuple(J))
        if sgn == 0:
            continue
        c = complex(c) * sgn
        key = (I, J)
        out[key] = out.get(key, 0.0) + c
    return {k: v for k, v in out.items() if abs(v) > cut}


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


def wedge(f, g, cut=_ZERO_CUT):
    """Wedge product of two forms.

    For monomials (I1,J1) and (I2,J2) the barred block of the first
    factor moves past the unbarred block of the second, contributing
    (-1)^(|J1| |I2|) on top of the two merge signs.
    """
    out = {}
    for (I1, J1), c1 in f.items():
        for (I2, J2), c2 in g.items():
            I, si = _merge_sorted(I1, I2)
            if si == 0:
                continue
            J, sj = _merge_sorted(J1, J2)
            if sj == 0:
                continue
            sgn = si * sj * ((-1) ** (len(J1) * len(I2)))
            key = (I, J)
            out[key] = out.get(key, 0.0) + sgn * c1 * c2
    return {k: v for k, v in out.items() if abs(v) > cut}


def wedge_all(forms_, cut=_ZERO_CUT):
    if not forms_:
        return {((), ()): 1.0 + 0.0j}
    acc = forms_[0]
    for g in forms_[1:]:
        acc = wedge(acc, g, cut=cut)
    return acc


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


_GEN_CACHE = weakref.WeakKeyDictionary()


def _generator_differentials(alg):
    """d(phi_i) and d(phibar_i) for every generator, cached per algebra."""
    try:
        return _GEN_CACHE[alg]
    except KeyError:
        pass
    n = alg.n
    C, D = alg.C, alg.D
    Dc = np.conj(D)
    d_phi = []
    for m in range(n):
        entries = []
        for i in range(n):
            for k in range(i + 1, n):
                c = -C[m, i, k]
                if abs(c) > _ZERO_CUT:
                    entries.append(((i + 1, k + 1), (), c))
        for i in range(n):
            for k in range(n):
                c = -Dc[i, m, k]
                if abs(c) > _ZERO_CUT:
                    entries.append(((i + 1,), (k + 1,), c))
        d_phi.append(form(entries))
    d_phibar = [conjugate(f) for f in d_phi]
    _GEN_CACHE[alg] = (d_phi, d_phibar)
    return d_phi, d_phibar


def exterior_d(alg, f, cut=_ZERO_CUT):
    """Exterior differential of an invariant form, by graded Leibniz.

    For a monomial g_1 ^ .. ^ g_r in generators, d inserts d(g_m) in
    place of g_m with sign (-1)^(m-1).
    """
    d_phi, d_phibar = _generator_differentials(alg)
    pieces = []
    for (I, J), c in f.items():
        gens = [("u", i) for i in I] + [("b", j) for j in J]
        r = len(gens)
        for m in range(r):
            kind, idx = gens[m]
            dg = d_phi[idx - 1] if kind == "u" else d_phibar[idx - 1]
            prefix = gens[:m]
            suffix = gens[m + 1 :]
            left = wedge_all(
                [phi(i) if k == "u" else phibar(i) for k, i in prefix], cut=0.0
            )
            right = wedge_all(
                [phi(i) if k == "u" else phibar(i) for k, i in suffix], cut=0.0
            )
            sgn = (-1) ** m
            term = wedge(wedge(left, dg, cut=0.0), right, cut=0.0)
            pieces.append(scale(term, sgn * c))
    return add(*pieces, cut=cut)


def partial_d(alg, f, cut=_ZERO_CUT):
    """The (1,0) part of d, taken bidegree by bidegree."""
    out = {}
    degs = {(len(I), len(J)) for I, J in f}
    for p, q in degs:
        comp = bidegree_project(f, p, q)
        dcomp = exterior_d(alg, comp, cut=cut)
        out.update(bidegree_project(dcomp, p + 1, q))
    return add(out, cut=cut)


def partial_dbar(alg, f, cut=_ZERO_CUT):
    """The (0,1) part of d, taken bidegree by bidegree."""
    out = {}
    degs = {(len(I), len(J)) for I, J in f}
    for p, q in degs:
        comp = bidegree_project(f, p, q)
        dcomp = exterior_d(alg, comp, cut=cut)
        out.update(bidegree_project(dcomp, p, q + 1))
    return add(out, cut=cut)


def kaehler_form(n):
    """The fundamental form i * sum phi_k ^ phibar_k of the unitary frame."""
    return {((k,), (k,)): 1.0j for k in range(1, n + 1)}


_POWER_CACHE = {}


def kaehler_power(n, k):
    """omega^k for the dimension-n fundamental form, cached."""
    key = (n, k)
    if key not in _POWER_CACHE:
        acc = {((), ()): 1.0 + 0.0j}
        w = kaehler_form(n)
        for _ in range(k):
            acc = wedge(acc, w)
        _POWER_CACHE[key] = acc
    return dict(_POWER_CACHE[key])


def del_delbar_residual(alg, k):
    """Max coefficient of  partial(partialbar(omega^k)).

    Zero iff omega^k is pluriclosed in the generalized sense: k = 1 is
    the usual pluriclosed condition, k = n - 2 the astheno one, and
    k = n - 1 vanishes for every unimodular algebra."""
    if not 1 <= k <= alg.n - 1:
        raise InvalidDegree(
            f"power k={k} outside the meaningful range 1..{alg.n - 1}"
        )
    wk = kaehler_power(alg.n, k)
    inner = partial_dbar(alg, wk)
    outer = partial_d(alg, inner)
    return max_coeff(bidegree_project(outer, k + 1, k + 1))


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
