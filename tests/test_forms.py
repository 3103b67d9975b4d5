"""Exterior algebra engine against hand-computed values.

The wedge and differential conventions are easiest to pin on tiny
algebras where every coefficient can be written down by hand; the
larger identities (Leibniz, d squared, the top-form trace identity) are
then checked on curved samples.  The engine works on bitmasks, so the
same identities are also checked in dense frames up to n = 16, where
every generator bit and every sign parity is in use, and d is compared
with a loop that applies its definition.

The expected values come from a small reference of the test's own:
a monomial is a word of (barred, index) factors, sorted phi before
phibar by counting transpositions, and form, wedge and reference_d are
built on that, apart from the engine's sign code.
"""

import itertools
import math

import numpy as np
import pytest

from liehermitian import InvalidDegree, build_general, exterior_d, kaehler_power
from liehermitian import forms as F
from liehermitian import hermitian as H
from liehermitian.algebra import change_frame, make_algebra
from liehermitian.codim2 import build_codim2
from liehermitian.sampling import (
    aa_kaehler,
    aa_random,
    c2_from_aa,
    c2_kahler,
    c2_scramble,
    hopf_algebra,
    random_unitary,
    rng_for,
)
from liehermitian.almost_abelian import build_almost_abelian


# ------------------------------------------------------ the test's reference


def word(key):
    """The factors of the monomial key (I, J), as (barred, index) pairs."""
    I, J = key
    return [(False, i) for i in I] + [(True, j) for j in J]


def monomial(factors):
    """(key, sign) of a word of (barred, index) factors: the key (I, J)
    of the factors sorted, phi before phibar, and (-1) to the number of
    transpositions that sort them; sign 0 when a factor repeats."""
    if len(set(factors)) < len(factors):
        return None, 0
    swaps = sum(x > y for p, x in enumerate(factors) for y in factors[p + 1:])
    ordered = sorted(factors)
    return ((tuple(j for b, j in ordered if not b), tuple(j for b, j in ordered if b)),
            (-1) ** swaps)


def form(terms):
    """A form dict from (word, coefficient) pairs, the coefficients of
    equal monomials added up and exact zeros dropped."""
    out = {}
    for factors, c in terms:
        key, sign = monomial(factors)
        if sign:
            out[key] = out.get(key, 0) + sign * c
    return {key: c for key, c in out.items() if c != 0}


def total(*forms):
    """The sum of forms."""
    return form((word(key), c) for f in forms for key, c in f.items())


def wedge(f, g):
    """f ^ g, one concatenated word per pair of monomials."""
    return form((word(a) + word(b), x * y) for a, x in f.items() for b, y in g.items())


def part(f, p, q):
    """The (p, q) component of a mixed form."""
    return {key: c for key, c in f.items() if (len(key[0]), len(key[1])) == (p, q)}


def graded(f):
    """f with the sign (-1)^degree on each monomial, so that
    d(f ^ g) = df ^ g + graded(f) ^ dg."""
    return {key: (-1) ** (len(key[0]) + len(key[1])) * c for key, c in f.items()}


def gap(f, g):
    """The largest coefficient of f - g."""
    return max((abs(f.get(key, 0) - g.get(key, 0)) for key in f.keys() | g.keys()),
               default=0.0)


def phibar(i):
    return {((), (i,)): 1.0 + 0j}


def hold_top_form(a):
    """d(phi_1 ^ .. ^ phi_n) = zetabar ^ phi_1 ^ .. ^ phi_n with
    zetabar = sum conj(zeta_k) phibar_k and zeta_k = sum_r D^r_{rk};
    the right-hand side is written out, moving phibar_k past the n
    factors for (-1)^n.  Returns it."""
    top = tuple(range(1, a.n + 1))
    zeta = np.einsum("rrk->k", a.D)
    rhs = {(top, (k + 1,)): (-1) ** a.n * np.conj(z) for k, z in enumerate(zeta)}
    assert gap(exterior_d(a, {(top, ()): 1.0 + 0j}), rhs) <= 10 * a.tol
    return rhs


# ------------------------------------------------------ hand-computed values


def test_monomial_counts_transpositions():
    assert monomial([(False, 2), (False, 1)]) == (((1, 2), ()), -1)
    assert monomial([(True, 1), (False, 3), (False, 1)]) == (((1, 3), (1,)), -1)
    assert monomial([(True, 2), (False, 1), (True, 2)]) == (None, 0)


def test_wedge_anticommutes():
    f = wedge(F.phi(1), F.phi(2))
    g = wedge(F.phi(2), F.phi(1))
    assert f == {((1, 2), ()): 1.0 + 0j}
    assert g == {((1, 2), ()): -1.0 + 0j}


def test_wedge_squares_to_zero():
    assert wedge(F.phi(1), F.phi(1)) == {}
    assert wedge(phibar(3), phibar(3)) == {}


def test_mixed_wedge_ordering():
    # phibar_1 ^ phi_1 reorders to -phi_1 ^ phibar_1.
    f = wedge(phibar(1), F.phi(1))
    assert f == {((1,), (1,)): -1.0 + 0j}


def test_kaehler_form_coefficients():
    w = kaehler_power(3, 1)
    assert w == {((k,), (k,)): 1j for k in (1, 2, 3)}
    assert list(w) == [((k,), (k,)) for k in (1, 2, 3)]


def test_kaehler_square_coefficient():
    # omega^2 in complex dimension 2 is +2 phi_12 ^ phibar_12 after the
    # two reorder signs and i^2 cancel.
    w2 = kaehler_power(2, 2)
    assert set(w2) == {((1, 2), (1, 2))}
    assert w2[((1, 2), (1, 2))] == pytest.approx(2.0)


def test_kaehler_power_agrees_with_repeated_wedge():
    w = kaehler_power(3, 1)
    w3 = wedge(wedge(w, w), w)
    assert gap(w3, kaehler_power(3, 3)) == 0.0


def test_exterior_d_single_entry():
    # D^1_{21} = 1 makes d phi_2 = -phi_1 ^ phibar_1 and leaves phi_1 closed.
    a = build_general(2, D_entries=[(1, 2, 1, 1.0)])
    assert exterior_d(a, F.phi(1)) == {}
    d2 = exterior_d(a, F.phi(2))
    assert d2 == {((1,), (1,)): -1.0 + 0j}


def test_exterior_d_c_entry():
    # C^1_{12} = 1 contributes -1/2 C^1_{ik} phi_i phi_k = -phi_1 ^ phi_2.
    a = build_general(2, C_entries=[(1, 1, 2, 1.0)])
    d1 = exterior_d(a, F.phi(1))
    assert d1 == {((1, 2), ()): -1.0 + 0j}


def test_conjugate_swaps_bidegree():
    # conj(phi_I ^ phibar_J) = (-1)^(|I||J|) phi_J ^ phibar_I
    a = build_general(2, D_entries=[(1, 2, 1, 1.0)])
    db = exterior_d(a, phibar(2))
    conjugate = {(J, I): (-1) ** (len(I) * len(J)) * np.conj(c)
                 for (I, J), c in exterior_d(a, F.phi(2)).items()}
    assert db == conjugate
    assert set(db) == {((1,), (1,))}


def test_d_squared_vanishes_on_valid_algebra():
    a = hopf_algebra(3)
    for k in range(1, 4):
        for gen in (F.phi(k), phibar(k)):
            dd = exterior_d(a, exterior_d(a, gen))
            assert F.max_coeff(dd) <= 10 * a.tol


def test_leibniz_rule():
    rng = rng_for(321, 0)
    a = build_almost_abelian(aa_random(rng, 3))
    f = {((1,), (2,)): 1.0 + 0j, ((3,), ()): 2.0 - 1.0j}  # mixed degree
    g = {((2, 3), ()): 1.0 + 0j}
    lhs = exterior_d(a, wedge(f, g))
    rhs = total(wedge(exterior_d(a, f), g), wedge(graded(f), exterior_d(a, g)))
    assert gap(lhs, rhs) <= 100 * a.tol


def test_partial_splits_d():
    rng = rng_for(321, 1)
    a = build_almost_abelian(aa_random(rng, 3))
    w = kaehler_power(3, 1)
    split = total(F.partial_d(a, w), F.partial_dbar(a, w))
    assert gap(exterior_d(a, w), split) <= 10 * a.tol


def test_del_delbar_residual_zero_on_abelian():
    # no row is live, so every plan is empty
    for n in (2, 4, 9, 16):
        a = build_general(n)
        assert not any(any(live) or coef.size for live, coef in F._term_table(a))
        for k in range(1, n) if n <= 4 else (1, n - 2, n - 1):
            assert F.del_delbar_residual(a, k) == 0.0
            assert all(step == (0, (), 0) for _, step in ddbar_steps(a, k))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_pluriclosed_residual_zero_on_kaehler(n):
    rng = rng_for(321, 50 + n)
    adapted = build_codim2(c2_kahler(rng, n))
    for a in (build_almost_abelian(aa_kaehler(rng, n)), adapted,
              change_frame(adapted, random_unitary(rng, n))):
        assert F.del_delbar_residual(a, 1) == 0.0


def test_invalid_degree_rejected():
    a = build_general(3)
    with pytest.raises(Exception):
        F.del_delbar_residual(a, 0)


def test_top_form_trace_identity():
    rng = rng_for(321, 3)
    for i in range(5):
        a = build_almost_abelian(aa_random(rng, int(rng.integers(2, 5))))
        hold_top_form(a)


# ------------------------------------------------------ dense frames, large n


def dense_draw(n, unimodular=True):
    """A codimension-two algebra moved to a random unitary frame, where
    nearly every structure constant is nonzero."""
    rng = rng_for(4242, n)
    a = build_codim2(c2_from_aa(rng, n, unimodular=unimodular))
    return change_frame(a, random_unitary(rng, n))


def random_word(rng, n, p, q):
    """A word of p distinct phi and q distinct phibar factors, unordered."""
    return word(((rng.choice(n, p, replace=False) + 1).tolist(),
                 (rng.choice(n, q, replace=False) + 1).tolist()))


def random_form(rng, n, count):
    """Mixed-degree form from unordered index draws, up to bidegree (3,3)."""
    return form((random_word(rng, n, p, q), complex(*rng.normal(size=2)))
                for p, q in rng.integers(0, 4, size=(count, 2)))


def reference_d(a, f):
    """d by its definition, with loops: put d x_m, read off C and D, in
    the place of the m-th factor with sign (-1)^(m-1), then sort the
    factors with monomial."""
    n = a.n
    d_phi = [[([(False, i + 1), (False, k + 1)], -a.C[m, i, k])
               for i in range(n) for k in range(i + 1, n)]
             + [([(False, i + 1), (True, k + 1)], -np.conj(a.D[i, m, k]))
                for i in range(n) for k in range(n)]
             for m in range(n)]
    terms = []
    for key, c in f.items():
        factors = word(key)
        for m, (barred, g) in enumerate(factors):
            for pair, t in d_phi[g - 1]:
                if barred:
                    pair, t = [(not b, j) for b, j in pair], np.conj(t)
                terms.append((factors[:m] + pair + factors[m + 1:], (-1) ** m * t * c))
    return form(terms)


@pytest.mark.parametrize("n", [2, 5, 9, 16])
def test_kaehler_power_closed_coefficient(n):
    # omega^k = i^k k! (-1)^(k(k-1)/2) sum_|K|=k phi_K ^ phibar_K, and
    # omega^k = omega^(k-1) ^ omega for every k up to n.  omega^(k-1)
    # holds only the terms phi_R ^ phibar_R, so the wedge coefficient of
    # phi_K ^ phibar_K is the sum over j in K of the words
    # (R, R) + (j, j) with R = K - {j}.  It is taken on every K up to
    # n = 9; at n = 16 (2^16 terms) on the first, the last and six
    # random K of each size, K = (1..16) among them.
    rng = rng_for(4141, n)
    w = kaehler_power(n, 1)
    prev = {((), ()): 1.0 + 0j}
    for k in range(1, n + 1):
        wk = kaehler_power(n, k)
        c = 1j ** k * math.factorial(k) * (-1) ** (k * (k - 1) // 2)
        assert set(wk) == {(K, K) for K in itertools.combinations(range(1, n + 1), k)}
        assert all(v == pytest.approx(c, rel=1e-12) for v in wk.values())
        if n <= 9:
            keys = list(wk)
        else:
            keys = [tuple(range(1, k + 1)), tuple(range(n - k + 1, n + 1))] + [
                tuple(sorted((rng.choice(n, k, replace=False) + 1).tolist())) for _ in range(6)]
            keys = [(K, K) for K in keys]
        for key in keys:
            via = 0
            for j in key[0]:
                R = tuple(i for i in key[0] if i != j)
                at, sign = monomial(word((R, R)) + word(((j,), (j,))))
                assert at == key
                via += sign * prev[(R, R)] * w[((j,), (j,))]
            assert via == pytest.approx(wk[key], rel=1e-12)
        prev = wk


def hold_against_reference(a, f):
    """d, del and delbar of f against reference_d, del and delbar one
    bidegree of f at a time."""
    ref = reference_d(a, f)
    scale = 1.0 + F.max_coeff(ref)
    assert gap(exterior_d(a, f), ref) <= 1e-12 * scale
    for p, q in {(len(I), len(J)) for I, J in f}:
        fpq = part(f, p, q)
        ref = reference_d(a, fpq)
        assert gap(F.partial_d(a, fpq), part(ref, p + 1, q)) <= 1e-12 * scale
        assert gap(F.partial_dbar(a, fpq), part(ref, p, q + 1)) <= 1e-12 * scale


def test_exterior_d_matches_definition_in_dense_frame():
    a = dense_draw(5, unimodular=False)
    rng = rng_for(321, 5)
    for _ in range(3):
        hold_against_reference(a, random_form(rng, 5, 10))


def test_exterior_d_reads_keys_in_the_order_written():
    # a key (I, J) stands for phi_I ^ phibar_J with the factors in the
    # order written, so an unsorted key carries the sign that sorts it
    a = dense_draw(5, unimodular=False)
    rng = rng_for(321, 6)
    written = {}
    for p, q in rng.integers(1, 4, size=(10, 2)):
        key = (tuple((rng.choice(5, p, replace=False) + 1).tolist()),
               tuple((rng.choice(5, q, replace=False) + 1).tolist()))
        written[key] = complex(*rng.normal(size=2))
    assert any(list(I) != sorted(I) for I, J in written)
    hold_against_reference(a, written)


@pytest.mark.parametrize("n", [3, 9, 16])
def test_exterior_d_is_del_plus_delbar_in_dense_frame(n):
    # d runs the del and delbar term tables concatenated, in one pass
    a = dense_draw(n, unimodular=False)
    rng = rng_for(321, 100 + n)
    for _ in range(3):
        f = random_form(rng, n, 10)
        d = exterior_d(a, f)
        split = total(F.partial_d(a, f), F.partial_dbar(a, f))
        assert F.max_coeff(d) > 1.0
        assert gap(d, split) <= 1e-12


def test_leibniz_on_mixed_forms_in_dense_frame():
    a = dense_draw(7, unimodular=False)
    rng = rng_for(321, 7)
    f, g = random_form(rng, 7, 12), random_form(rng, 7, 12)
    assert {(len(I) + len(J)) % 2 for I, J in f} == {0, 1}  # even and odd parts
    lhs = exterior_d(a, wedge(f, g))
    rhs = total(wedge(exterior_d(a, f), g), wedge(graded(f), exterior_d(a, g)))
    assert F.max_coeff(lhs) > 1.0
    assert gap(lhs, rhs) <= 10 * a.tol


@pytest.mark.parametrize("n", [8, 12])
def test_skt_tensor_route_in_dense_frame(n):
    a = dense_draw(n)
    assert H.skt_form_tensor_residual(a) <= 10 * a.tol


@pytest.mark.parametrize("n", [12, 16])
def test_d_squared_and_top_form_in_dense_frame(n):
    a = dense_draw(n, unimodular=False)
    assert F.d_squared_residual(a) <= 10 * a.tol
    assert F.max_coeff(hold_top_form(a)) > 1.0


@pytest.mark.parametrize("n", range(10, 17))
def test_unimodular_is_gauduchon_in_dense_frame(n):
    a = dense_draw(n)
    assert H.property_report(a)["properties"]["gauduchon"]


# ------------------------------------------------- the del-delbar plans


def three_frames(n):
    """One non-unimodular codimension-two draw in its adapted frame, with
    the ideal directions scrambled, and in a dense unitary frame."""
    rng = rng_for(4343, n)
    d = c2_from_aa(rng, n)
    adapted = build_codim2(d)
    return {"adapted": adapted,
            "scrambled": build_codim2(c2_scramble(rng, d)),
            "dense": change_frame(adapted, random_unitary(rng, n))}


@pytest.mark.parametrize("frame", ["adapted", "scrambled", "dense"])
@pytest.mark.parametrize("n", range(2, 17))
def test_del_delbar_plan_matches_generic_route(n, frame):
    # del_delbar_residual against partial_d(partial_dbar(omega^k)), the
    # same two recorded steps with the output cut between them;
    # one term of the sum is at most |omega^k| * max(|C|, |D|)^2
    a = three_frames(n)[frame]
    coef = max(np.abs(a.C).max(), np.abs(a.D).max())
    for k in range(1, n) if n <= 7 else sorted({1, n - 2, n - 1}):
        wk = kaehler_power(n, k)
        ref = F.max_coeff(F.partial_d(a, F.partial_dbar(a, wk)))
        scale = F.max_coeff(wk) * coef ** 2
        assert abs(math.factorial(k) * F.del_delbar_residual(a, k) - ref) <= 1e-12 * scale


def ddbar_steps(a, k):
    """The _d_plan keys and steps of partial(partialbar(omega^k)) on the
    live rows of a, as del_delbar_residual looks them up: delbar on the
    monomials of omega^k, then del on those it made."""
    keys, steps = F._power(a.n, k)[0], []
    for part in (1, 0):
        key = (a.n, part, keys.tobytes(), F._term_table(a)[part][0])
        step, keys = F._d_plan(*key)
        steps.append((key, step))
    return steps


def test_del_delbar_plans_are_shared_per_dimension():
    # two dense frames, where every row is live, share both steps
    F._D_PLANS.clear()
    kaehler_power(6, 2)
    assert not F._D_PLANS  # recorded on first use only
    first, second = dense_draw(6), three_frames(6)["dense"]
    F.del_delbar_residual(first, 2)
    plan = dict(F._D_PLANS)
    F.del_delbar_residual(second, 2)
    assert len(plan) == len(F._D_PLANS) == 2
    assert all(F._D_PLANS[key] is step for key, step in plan.items())
    assert [key for key, _ in ddbar_steps(first, 2)] == list(plan)
    inputs = math.comb(6, 2)
    for (entries, blocks, size), _ in plan.values():
        (rows, count, slots, src), = blocks  # one block of every live row
        # entry e writes its real part to slots[2e] = 2 out and its
        # imaginary part to slots[2e+1] = 2 out + 1 of the float64 output
        assert rows == slice(0, count.size) and count.sum() == entries
        assert slots.dtype == np.min_scalar_type(2 * size)
        assert src.dtype == np.min_scalar_type(2 * inputs)
        assert 2 * entries == slots.size == 2 * src.size
        even, odd = slots[::2], slots[1::2]
        assert not (even % 2).any() and np.array_equal(odd, even + 1) and odd.max() < 2 * size
        assert src.min() < inputs <= src.max() < 2 * inputs  # both signs occur
        inputs = size
    # the slots of the three report powers fit 16 bits up to n = 16
    a = dense_draw(16)
    for k in (1, 14, 15):
        assert all(x.itemsize <= 2 for _, step in ddbar_steps(a, k)
                   for block in step[1] for x in block[2:])
    # the residual of omega and partial_dbar of the form omega share a
    # single delbar step
    F._D_PLANS.clear()
    a = dense_draw(6)
    F.del_delbar_residual(a, 1)
    (delbar, step), _ = ddbar_steps(a, 1)
    F.partial_dbar(a, kaehler_power(6, 1))
    assert len(F._D_PLANS) == 2 and F._D_PLANS[delbar][0] is step


def test_del_delbar_steps_share_the_plan_budget(monkeypatch):
    # at n = 9 the steps of omega^1, omega^7 and omega^8 hold 73,917
    # entries in all; under a budget of 60,000 the least recently used
    # steps go first, plans recorded again give the same residuals, and
    # omega^4 is refused at its del step (1,048,950 entries) once its
    # delbar step (22,680) is kept, with nothing evicted for the refusal
    a = dense_draw(9)
    powers = (1, 7, 8, 4, 8)
    F._D_PLANS.clear()
    full = [F.del_delbar_residual(a, k) for k in powers]
    sizes = {key: step[0] for key, (step, _) in F._D_PLANS.items()}
    steps = {k: [key for key, _ in ddbar_steps(a, k)] for k in powers}
    assert sum(sizes[key] for k in (1, 7, 8) for key in steps[k]) == 73917
    monkeypatch.setattr(F, "_PLAN_ENTRIES", 60000)
    F._D_PLANS.clear()
    order = []  # every key used, least recently used first
    for k, residual in zip(powers, full):
        used = steps[k]
        if sizes[used[1]] > F._PLAN_ENTRIES:
            with pytest.raises(InvalidDegree, match="n=9 .* 60000 "):
                F.del_delbar_residual(a, k)
            used = used[:1]
        else:
            assert F.del_delbar_residual(a, k) == residual
        order = [key for key in order if key not in used] + used
        kept = list(F._D_PLANS)
        held = sum(sizes[key] for key in kept)
        assert kept == order[len(order) - len(kept):]
        assert held <= F._PLAN_ENTRIES
        if len(kept) < len(order):  # none went that could have stayed
            assert held + sizes[order[-len(kept) - 1]] > F._PLAN_ENTRIES
    assert len(order) == 7 and len(kept) == 5


def test_oversized_step_is_refused(monkeypatch):
    # the del step of omega^2 at n = 16 would hold 18,768,960 entries,
    # more than the whole budget: it is refused within one block of
    # passing the budget, the plans kept stay within the budget, and
    # the powers the reports take still replay
    F._D_PLANS.clear()
    a = dense_draw(16)
    delbar = (16, 1, F._power(16, 2)[0].tobytes(), F._term_table(a)[1][0])
    matched, match = [], F._match

    def counted(keys, rows):
        out = match(keys, rows)
        matched.append(out[0].size)
        return out

    monkeypatch.setattr(F, "_match", counted)
    with pytest.raises(InvalidDegree, match=f"n=16 .* {F._PLAN_ENTRIES} "):
        F.del_delbar_residual(a, 2)
    assert list(F._D_PLANS) == [delbar]
    recorded = F._D_PLANS[delbar][0][0]
    assert sum(matched) - recorded <= F._PLAN_ENTRIES + F._GRID
    for k in (1, 14, 15):
        F.del_delbar_residual(a, k)
    assert sum(step[0] for step, _ in F._D_PLANS.values()) <= F._PLAN_ENTRIES


def test_refusal_depends_on_the_live_rows():
    # a plan holds the live rows alone: omega^2 at n = 16 fits the cache
    # in the adapted frame of a sparse algebra (6,090 + 161,595 entries)
    # and is refused in a dense frame of the same algebra
    rng = rng_for(9, 16)
    adapted = build_codim2(c2_from_aa(rng, 16, unimodular=True))
    F._D_PLANS.clear()
    assert F.del_delbar_residual(adapted, 2) > 1.0
    assert [step[0] for _, step in ddbar_steps(adapted, 2)] == [6090, 161595]
    with pytest.raises(InvalidDegree, match=f"n=16 .* {F._PLAN_ENTRIES} "):
        F.del_delbar_residual(change_frame(adapted, random_unitary(rng, 16)), 2)


def test_plans_are_keyed_on_live_rows():
    # doubling the structure constants keeps the live rows, so the plans
    # are shared, and multiplies the residual by 4 exactly; a dense frame
    # of the same algebra records plans of its own, with more entries
    frames = three_frames(8)
    a = frames["adapted"]
    double = make_algebra(8, 2 * a.C, 2 * a.D)
    F._D_PLANS.clear()
    residual = F.del_delbar_residual(a, 6)
    sparse = dict(F._D_PLANS)
    assert F.del_delbar_residual(double, 6) == 4 * residual > 0.0
    assert list(F._D_PLANS) == list(sparse)
    assert all(F._D_PLANS[key] is plan for key, plan in sparse.items())
    F.del_delbar_residual(frames["dense"], 6)
    dense = {key: plan for key, plan in F._D_PLANS.items() if key not in sparse}
    assert len(dense) == 2
    (delbar, first), (_, second) = sparse.items()
    (dense_delbar, dense_first), (_, dense_second) = dense.items()
    assert dense_delbar[:3] == delbar[:3] and dense_delbar[3] != delbar[3]
    assert first[0][0] < dense_first[0][0] and second[0][0] < dense_second[0][0]


def random_two_form(rng, n, count):
    """A 2-form of bidegrees (2,0), (1,1) and (0,2) from unordered draws."""
    return form((random_word(rng, n, p, 2 - p), complex(*rng.normal(size=2)))
                for p in rng.integers(0, 3, size=count))


@pytest.mark.parametrize("frame", ["adapted", "scrambled", "dense"])
@pytest.mark.parametrize("n", [2, 9, 16])
def test_replayed_d_matches_definition(n, frame):
    # the recorded d, del and delbar plans against the loops of
    # reference_d, on the two trace 1-forms (laid out on all 2n
    # generators) and on random 2-forms
    a = three_frames(n)[frame]
    rng = rng_for(321, 200 + n)
    for f in [H.chern_trace_form(a), H.bismut_trace_form(a)] + [
            random_two_form(rng, n, 8) for _ in range(2)]:
        hold_against_reference(a, f)


@pytest.mark.parametrize("frame", ["adapted", "scrambled", "dense"])
@pytest.mark.parametrize("n", range(3, 7))
def test_replayed_del_delbar_matches_definition(n, frame):
    # omega^k through the recorded d, del and delbar plans, and
    # partial(partialbar(omega^k)) through two of them with and without
    # the cut between them, against reference_d alone
    a = three_frames(n)[frame]
    coef = max(np.abs(a.C).max(), np.abs(a.D).max())
    for k in range(1, n):
        wk = kaehler_power(n, k)
        hold_against_reference(a, wk)
        ref = part(reference_d(a, wk), k, k + 1)
        ref = part(reference_d(a, ref), k + 1, k + 1)
        scale = F.max_coeff(wk) * coef ** 2
        assert gap(F.partial_d(a, F.partial_dbar(a, wk)), ref) <= 1e-12 * scale
        residual = math.factorial(k) * F.del_delbar_residual(a, k)
        assert abs(residual - F.max_coeff(ref)) <= 1e-12 * scale


@pytest.mark.parametrize("n", range(3, 11))
def test_del_delbar_residual_agrees_across_replay_branches(n):
    # the coefficient of the (n, n)-form partial(partialbar(omega^(n-1)))
    # does not change under a unitary change of frame, although each
    # frame replays plans of its own live rows
    frames = three_frames(n)
    a = frames["adapted"]
    scale = F.max_coeff(kaehler_power(n, n - 1)) * max(np.abs(a.C).max(), np.abs(a.D).max()) ** 2
    got = {name: F.del_delbar_residual(b, n - 1) for name, b in frames.items()}
    assert got["adapted"] > 0.0
    assert max(got.values()) - min(got.values()) <= 1e-12 * scale


def reference_replay(step, x, coef):
    """forms._replay as a loop of np.add.at over the live rows of a
    plan.  Each block of rows holding at most _GRID entries (a longer
    row alone) is summed apart and then added up, as the replay does."""
    _, blocks, size = step
    count, slots, src = (np.concatenate(parts) for parts in list(zip(*blocks))[1:])
    ptr = np.concatenate(([0], np.cumsum(count)))
    signed = np.concatenate((x, -x))
    y, block, used = np.zeros(size, complex), np.zeros(size, complex), 0
    for t in range(coef.size):
        e = np.arange(ptr[t], ptr[t + 1])
        if used and used + e.size > F._GRID:
            y, block, used = y + block, np.zeros(size, complex), 0
        np.add.at(block, slots[2 * e] // 2, signed[src[e]] * coef[t])
        used += e.size
    return y + block


@pytest.mark.parametrize("frame", ["adapted", "scrambled", "dense"])
@pytest.mark.parametrize("n", [4, 8, 13])
def test_replay_matches_reference_bit_for_bit(n, frame):
    # both steps of partial(partialbar(omega^k)) for k = 1 and n - 1 and
    # the 1-form d plan; at n = 13 the dense k = 1 del step (371,124
    # entries) takes two blocks, where the sparse frames' steps hold at
    # most 6,480 entries
    a = three_frames(n)[frame]
    table = F._term_table(a)
    cases = []
    for k in (1, n - 1):
        x = F._power(n, k)[1]
        for (_, part, _, _), step in ddbar_steps(a, k):
            cases.append((step, x, table[part][1]))
            x = F._replay(step, x, table[part][1])
    f = H.bismut_trace_form(a)
    generators = np.int64(1) << np.r_[:n, F._BAR:F._BAR + n]
    step, _ = F._d_plan(n, 2, generators.tobytes(), table[2][0])
    x = np.array([f.get(((i,), ()), 0) for i in range(1, n + 1)]
                 + [f.get(((), (i,)), 0) for i in range(1, n + 1)], dtype=complex)
    cases.append((step, x, table[2][1]))
    for step, x, coef in cases:
        assert np.array_equal(F._replay(step, x, coef), reference_replay(step, x, coef))
    assert max(len(step[1]) for step, _, _ in cases) == (2 if (n, frame) == (13, "dense") else 1)


def test_d_plans_are_shared_and_bounded():
    # the trace forms keep only coefficients above the cut (2 and 12
    # here in the adapted frame, 12 and 12 in the dense one); a plan is
    # keyed on the monomials of its input and the live rows, so the two
    # dense forms on all 12 generators share one, and the adapted form
    # on all 12 has one of its own
    F._D_PLANS.clear()
    sizes, monomials, keys = [], set(), set()
    for a in (three_frames(6)["adapted"], dense_draw(6)):
        for f in (H.chern_trace_form(a), H.bismut_trace_form(a)):
            assert min(abs(c) for c in f.values()) > F.ZERO_CUT
            sizes.append(len(f))
            monomials.add(F._from_dict(f)[0].tobytes())
            keys.add((F._from_dict(f)[0].tobytes(), F._term_table(a)[2][0]))
            exterior_d(a, f)
            assert len(F._D_PLANS) == len(keys)
    assert len(set(sizes)) > 1 and len(monomials) == 2 and len(F._D_PLANS) == 3
    # d of a closed form and of the top form records a plan of no entries
    a = dense_draw(9)
    top = {(tuple(range(1, 10)), tuple(range(1, 10))): 1.0 + 0j}
    assert exterior_d(a, {}) == exterior_d(a, top) == F.partial_d(a, top) == {}
    assert [step[0] for step, _ in list(F._D_PLANS.values())[3:]] == [0, 0, 0]
    for i in range(1, 10):
        for j in range(1, 10):
            exterior_d(a, {((i,), (j,)): 1.0 + 0j})
    assert len(F._D_PLANS) == 3 + 3 + 81  # all small: none is dropped


def test_d_plans_are_bounded_by_entries():
    # distinct dense 2-forms at n = 16, each recorded once: the plans kept
    # never hold more than _PLAN_ENTRIES entries, the least recently used
    # go first, and their arrays take at most 8 bytes per entry kept
    F._D_PLANS.clear()
    a = dense_draw(16, unimodular=False)
    rng = rng_for(80, 16)
    twos = [random_two_form(rng, 16, 1200) for _ in range(10)]
    keys = [(16, 2, F._from_dict(f)[0].tobytes(), F._term_table(a)[2][0]) for f in twos]
    for f in twos[:9]:
        exterior_d(a, f)
        assert sum(step[0] for step, _ in F._D_PLANS.values()) <= F._PLAN_ENTRIES
    kept = len(F._D_PLANS)
    assert 1 < kept < 9 and list(F._D_PLANS) == keys[9 - kept:9]
    exterior_d(a, twos[9 - kept])  # the oldest kept, used again, stays
    exterior_d(a, twos[9])
    assert keys[9 - kept] in F._D_PLANS and keys[10 - kept] not in F._D_PLANS
    held = sum(step[0] for step, _ in F._D_PLANS.values())
    nbytes = sum(monomials.nbytes + sum(x.nbytes for block in step[1] for x in block[1:])
                 for step, monomials in F._D_PLANS.values())
    assert held <= F._PLAN_ENTRIES and nbytes <= 8 * held
