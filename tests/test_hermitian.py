"""Torsion, connections, curvature and the metric predicates.

Single-entry algebras pin the sign conventions exactly; the named
fixtures (the flat-factor circle bundle, a two-step nilpotent algebra,
a hyperbolic-type solvable one) pin the predicate and scalar values;
randomized draws exercise the identities that hold for every metric.
"""

import numpy as np
import pytest

from liehermitian import (
    AlmostAbelianData,
    CrossCheckFailure,
    InvalidAlgebra,
    bismut_connection,
    bismut_ricci_blocks,
    build_almost_abelian,
    build_general,
    chern_connection,
    chern_curvature,
    chern_scalar,
    chern_torsion,
    curvature_hermitian_residual,
    property_report,
    ricci_first,
    ricci_second,
    ricci_third,
)
from liehermitian import hermitian as H
from liehermitian.algebra import max_abs
from liehermitian.codim2 import build_codim2
from liehermitian.sampling import aa_random, c2_random, hopf_algebra, rng_for


def single_entry():
    return build_general(2, D_entries=[(1, 2, 1, 1.0)])


def heisenberg():
    return AlmostAbelianData(n=2, lam=0.0, v=np.array([1.0 + 0j]),
                             A=np.zeros((1, 1), dtype=complex))


def solvable_unimodular():
    # lam = 1 balanced against A = -1/2: the smallest curved unimodular case.
    return AlmostAbelianData(n=2, lam=1.0, v=np.zeros(1, dtype=complex),
                             A=np.array([[-0.5 + 0j]]))


# --------------------------------------------------------------- conventions


def test_torsion_single_entry_signs():
    T = chern_torsion(single_entry())
    assert T[0, 1, 0] == -1.0
    assert T[0, 0, 1] == 1.0
    assert np.count_nonzero(T) == 2


def test_torsion_antisymmetric_in_arguments():
    rng = rng_for(40, 0)
    a = build_codim2(c2_random(rng, 4))
    T = chern_torsion(a)
    assert max_abs(T + T.transpose(0, 2, 1)) == 0.0


def test_chern_connection_is_d():
    a = single_entry()
    assert np.array_equal(chern_connection(a), a.D)


def test_bismut_single_entry():
    Gb = bismut_connection(single_entry())
    assert Gb[0, 0, 1] == 1.0
    assert np.count_nonzero(Gb) == 1


def test_bismut_is_chern_plus_torsion():
    rng = rng_for(40, 1)
    a = build_almost_abelian(aa_random(rng, 3))
    lhs = bismut_connection(a)
    rhs = chern_connection(a) + chern_torsion(a)
    assert max_abs(lhs - rhs) == 0.0


# ------------------------------------------------------------------ fixtures


def test_heisenberg_curvature_entry():
    a = build_almost_abelian(heisenberg())
    R = chern_curvature(a)
    assert R[0, 0, 0, 0] == pytest.approx(-1.0)


def test_heisenberg_predicates():
    rep = property_report(build_almost_abelian(heisenberg()))
    p = rep["properties"]
    assert p["pluriclosed"] and p["bkl"] and p["btp"]
    assert p["chern_ricci_flat"] and p["unimodular"] and p["gauduchon"]
    assert not p["kaehler"] and not p["balanced"] and not p["chern_flat"]
    assert not p["chern_kaehler_like"] and not p["cyt"]
    assert p["astheno_kaehler"] is None  # vacuous in complex dimension 2


def test_heisenberg_scalars():
    rep = property_report(build_almost_abelian(heisenberg()))
    s = rep["scalars"]
    assert s["s"] == pytest.approx(0.0)
    assert s["s_hat"] == pytest.approx(-1.0)
    assert s["s_b"] == pytest.approx(-2.0)
    assert s["chi"] == pytest.approx(1.0)
    assert s["eta_norm_sq"] == pytest.approx(1.0)


def test_hopf_predicates():
    rep = property_report(hopf_algebra(2))
    p = rep["properties"]
    assert p["pluriclosed"] and p["bkl"] and p["btp"] and p["cyt"]
    assert not p["chern_ricci_flat"] and not p["kaehler"]
    assert not p["balanced"] and not p["chern_flat"]
    s = rep["scalars"]
    assert s["s"] == pytest.approx(1.0)
    assert s["s_b"] == pytest.approx(0.0)
    assert s["s_hat"] == pytest.approx(0.5)


def test_hopf_higher_dimension_astheno():
    rep = property_report(hopf_algebra(3))
    assert rep["properties"]["astheno_kaehler"] is True
    assert rep["properties"]["pluriclosed"] is True


def test_solvable_scalars_and_curvature():
    d = solvable_unimodular()
    a = build_almost_abelian(d)
    rep = property_report(a)
    assert rep["scalars"]["s"] == pytest.approx(-1.0)
    assert rep["scalars"]["s_hat"] == pytest.approx(-2.0)
    assert rep["scalars"]["s_b"] == pytest.approx(-3.0)
    R = chern_curvature(a)
    assert R[0, 0, 0, 0] == pytest.approx(-2.0)
    p = rep["properties"]
    assert p["pluriclosed"] and p["unimodular"]
    assert not p["bkl"] and not p["btp"] and not p["balanced"]


# ----------------------------------------------------------------- identities


def random_curved(i):
    rng = rng_for(41, i)
    n = int(rng.integers(2, 5))
    if i % 2:
        return build_almost_abelian(aa_random(rng, n, unimodular=bool(i % 4 == 1)))
    return build_codim2(c2_random(rng, n + 1, unimodular=bool(i % 4 == 0)))


@pytest.mark.parametrize("i", range(8))
def test_curvature_hermitian_symmetry(i):
    a = random_curved(i)
    assert curvature_hermitian_residual(chern_curvature(a)) <= 10 * a.tol


@pytest.mark.parametrize("i", range(8))
def test_torsion_bianchi(i):
    a = random_curved(i)
    assert H.torsion_bianchi_residual(a) <= 1e4 * a.tol


@pytest.mark.parametrize("i", range(8))
def test_scalar_trace_routes_agree(i):
    a = random_curved(i)
    R = chern_curvature(a)
    s1, s2 = np.trace(ricci_first(R)), np.trace(ricci_second(R))
    assert s1 == pytest.approx(s2, abs=100 * a.tol)
    assert s1 == pytest.approx(chern_scalar(R), abs=100 * a.tol)
    assert np.trace(ricci_third(R)) == pytest.approx(H.chern_scalar_alt(R), abs=100 * a.tol)


@pytest.mark.parametrize("i", range(8))
def test_ricci_form_traces_match_matrices(i):
    a = random_curved(i)
    assert H.ricci_form_trace_residual(a) <= 100 * a.tol


def skt_residual_by_loop(a):
    """skt_form_tensor_residual as a loop over the positions i<k, j<l."""
    n, S = a.n, H.skt_tensor(a)
    ddbar = H.forms.partial_d(a, H.forms.partial_dbar(a, H.forms.kaehler_power(n, 1)))
    worst = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    c = ddbar.get(((i + 1, k + 1), (j + 1, l + 1)), 0.0)
                    worst = max(worst, abs(c - H.SKT_FORM_FACTOR * S[i, k, j, l]))
    return worst


@pytest.mark.parametrize("i", range(6))
def test_pluriclosed_tensor_matches_forms(i):
    a = random_curved(i)
    got = H.skt_form_tensor_residual(a)
    assert got <= 100 * a.tol
    # a max does not depend on order, so the value is the loop's to the bit
    assert got == skt_residual_by_loop(a)


def test_bismut_ricci_blocks_shapes():
    a = random_curved(0)
    one_one, two_zero = bismut_ricci_blocks(a)
    assert one_one.shape == (a.n, a.n)
    assert two_zero.shape == (a.n, a.n)
    assert max_abs(one_one - one_one.conj().T) <= 100 * a.tol
    assert max_abs(two_zero + two_zero.T) <= 100 * a.tol


def test_property_report_refuses_invalid_algebra():
    a = build_general(2, C_entries=[(1, 1, 2, 1.0)],
                      D_entries=[(1, 2, 1, 1.0)])
    assert a.jacobi_max == pytest.approx(1.0)
    with pytest.raises(InvalidAlgebra):
        property_report(a)


@pytest.mark.parametrize("i", range(4))
def test_report_builds_torsion_and_bismut_connection_once(i, monkeypatch):
    a = random_curved(i)
    calls = []
    for name in ("chern_torsion", "bismut_connection"):
        real = getattr(H, name)
        monkeypatch.setattr(H, name, lambda a, name=name, real=real:
                            calls.append(name) or real(a))
    rep = property_report(a)
    assert sorted(calls) == ["bismut_connection", "chern_torsion"]
    res = rep["residuals"]
    # one route to each residual, whether read off the report or alone
    assert res["btp"] == max(H.bismut_torsion_derivative_residuals(a))
    assert res["balanced"] == max_abs(H.torsion_trace(chern_torsion(a)))


def test_sign_mutation_flips_and_restores():
    a = build_almost_abelian(solvable_unimodular())
    base = chern_torsion(a).copy()
    with H.sign_mutation(torsion_index=2):
        mutated = chern_torsion(a)
        assert max_abs(mutated - base) > 0.1
    assert max_abs(chern_torsion(a) - base) == 0.0
    Rbase = chern_curvature(a).copy()
    with H.sign_mutation(curvature_index=1):
        assert max_abs(chern_curvature(a) - Rbase) > 0.1
    assert max_abs(chern_curvature(a) - Rbase) == 0.0


# ------------------------------------------------------------- cross-check


def test_cross_check_booleans_exact_and_none_skipped():
    closed = {"kaehler": True, "astheno_kaehler": None, "only_closed": False}
    engine = {"kaehler": True, "astheno_kaehler": False}
    assert H.cross_check(closed, engine, 1e-9) == {}
    with pytest.raises(CrossCheckFailure) as info:
        H.cross_check({"kaehler": False}, engine, 1e-9, {"kaehler": 0.5}, {"kaehler": 0.0})
    assert (info.value.name, info.value.closed, info.value.engine) == ("kaehler", 0.5, 0.0)


def test_cross_check_numbers_within_ten_tol():
    gaps = H.cross_check({"s": 1.0, "M": np.eye(2)}, {"s": 1.0 + 5e-9, "M": np.eye(2)}, 1e-9)
    assert gaps["s"] == pytest.approx(5e-9) and gaps["M"] == 0.0
    with pytest.raises(CrossCheckFailure) as info:
        H.cross_check({"s": 1.0}, {"s": 1.0 + 2e-8}, 1e-9)
    assert (info.value.name, info.value.closed, info.value.engine) == ("s", 1.0, 1.0 + 2e-8)
    with pytest.raises(CrossCheckFailure) as info:
        H.cross_check({"M": np.eye(2)}, {"M": 2 * np.eye(2)}, 1e-9)
    assert (info.value.name, info.value.closed, info.value.engine) == ("M", 1.0, 0.0)
