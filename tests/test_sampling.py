import numpy as np
import pytest

from liehermitian import build_codim2, c2_report, property_report
from liehermitian.algebra import max_abs, unimodularity_defect
from liehermitian.almost_abelian import build_almost_abelian
from liehermitian.codim2 import make_btpv0, make_btpv1, make_btpv2
from liehermitian.errors import DimensionMismatch, ParameterDomain
from liehermitian import sampling as sm


def test_rng_streams_are_deterministic():
    a = sm.rng_for(42, 3).standard_normal(4)
    b = sm.rng_for(42, 3).standard_normal(4)
    assert np.array_equal(a, b)


def test_rng_streams_differ_by_index():
    a = sm.rng_for(42, 0).standard_normal(4)
    b = sm.rng_for(42, 1).standard_normal(4)
    assert not np.array_equal(a, b)


def test_generator_label_present():
    assert "PCG64" in sm.GENERATOR_LABEL


def test_random_unitary_is_unitary():
    U = sm.random_unitary(sm.rng_for(42, 2), 5)
    assert max_abs(U @ U.conj().T - np.eye(5)) <= 1e-12


def test_aa_random_unimodular_flag():
    d = sm.aa_random(sm.rng_for(42, 3), 4, unimodular=True)
    a = build_almost_abelian(d)
    assert max_abs(unimodularity_defect(a)) <= 10 * a.tol


def test_hopf_satisfies_jacobi():
    for n in (2, 3, 4):
        assert sm.hopf_algebra(n).jacobi_max <= 1e-12


def test_hopf_refuses_n_below_two():
    with pytest.raises(DimensionMismatch):
        sm.hopf_algebra(1)


@pytest.mark.parametrize("kind", ["v1", "v2", "v0"])
def test_generators_are_integrable_and_unimodular(kind):
    for i in range(3):
        d = sm.c2_generator(sm.rng_for(43, i), 4 + i, kind=kind)
        a = build_codim2(d)  # IntegrabilityViolation would propagate
        assert max_abs(unimodularity_defect(a)) <= 10 * a.tol


@pytest.mark.parametrize("kind", [None, "v1", "v2", "v0"])
def test_generator_refuses_n_below_three(kind):
    with pytest.raises(DimensionMismatch):
        sm.c2_generator(sm.rng_for(43, 0), 2, kind=kind)


def test_generator_refuses_an_unknown_kind():
    with pytest.raises(ParameterDomain, match="v3"):
        sm.c2_generator(sm.rng_for(43, 0), 4, kind="v3")


def test_grouped_singular_data_refuses_groups_off_the_rank():
    with pytest.raises(ParameterDomain, match="must sum to r = 5"):
        sm.grouped_singular_data(sm.rng_for(44, 2), 5, groups=(3, 1))


def test_mixed_draw_refuses_n_below_three():
    with pytest.raises(DimensionMismatch):
        sm.c2_random(sm.rng_for(43, 0), 2)


def generator_by_hand(rng, n, kind):
    """The draw order of c2_generator, step by step."""
    if kind is None:
        kind = ("v1", "v2", "v0")[int(rng.integers(0, 3))]
    if kind == "v1":
        return make_btpv1(n, 0.5 + rng.random(), sm.cgauss(rng, n - 2))
    if kind == "v2":
        v2 = 0.5 + rng.random()
        return make_btpv2(n, v2, 0.5 + rng.random(), sm.cgauss(rng, n - 3))
    r = int(rng.integers(1, (n - 1) // 2 + 1))
    S, W = sm.grouped_singular_data(rng, r)
    return make_btpv0(n, r, S, W, sm.cgauss(rng, n - 1 - 2 * r))


@pytest.mark.parametrize("kind", [None, "v1", "v2", "v0"])
def test_generator_draws_are_fixed_by_the_seed(kind):
    for n in range(3, 7):
        for i in range(4):
            d = sm.c2_generator(sm.rng_for(45, i), n, kind=kind)
            ref = generator_by_hand(sm.rng_for(45, i), n, kind)
            for field in ("lam", "v", "X", "Y", "Z"):
                assert np.array_equal(getattr(d, field), getattr(ref, field))


def test_scramble_preserves_predicates():
    d = sm.c2_random(sm.rng_for(44, 0), 4, unimodular=True)
    before = property_report(build_codim2(d))["properties"]
    after = property_report(
        build_codim2(sm.c2_scramble(sm.rng_for(44, 1), d)))["properties"]
    assert before == after


def test_grouped_singular_data_multiplicities():
    S, W = sm.grouped_singular_data(sm.rng_for(44, 2), 5, groups=(3, 2))
    vals = sorted(set(np.round(S, 10)), reverse=True)
    assert len(vals) == 2
    assert np.sum(np.isclose(S, vals[0])) == 3
    assert np.sum(np.isclose(S, vals[1])) == 2
    # W is symmetric unitary and commutes with diag(S)
    assert max_abs(W - W.T) <= 1e-9
    assert max_abs(W @ W.conj().T - np.eye(5)) <= 1e-9
    assert max_abs(W @ np.diag(S) - np.diag(S) @ W) <= 1e-9


def test_astheno_sampler_k2_trades_unimodularity():
    # prescribing two eigenvalue groups forces a nonzero defect
    # lam (k - 1) / (n - 2); the certificate survives, unimodularity
    # does not.
    d = sm.aa_astheno(sm.rng_for(44, 3), 5, k=2)
    a = build_almost_abelian(d)
    defect = max_abs(unimodularity_defect(a))
    assert defect == pytest.approx(abs(d.lam) * (2 - 1) / (5 - 2), abs=1e-9)
    rep = property_report(a)
    assert rep["properties"]["astheno_kaehler"] is True
    assert rep["properties"]["unimodular"] is False


def test_perturbed_parallel_sampler_is_refuted():
    from liehermitian.almost_abelian import aa_residuals
    res = aa_residuals(sm.aa_btp_perturbed(sm.rng_for(44, 4), 4))
    assert res["btp"] >= 0.05
