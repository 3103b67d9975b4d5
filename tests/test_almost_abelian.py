import itertools

import numpy as np
import pytest

from liehermitian import (
    AlmostAbelianData,
    CrossCheckFailure,
    NotAstheno,
    ParameterDomain,
    PatternMismatch,
    aa_report,
    aa_astheno_profile,
    build_almost_abelian,
    c2_residuals,
    c2_scalars,
    extract_almost_abelian,
    integrability_residuals,
    make_algebra,
    property_report,
)
from liehermitian import forms
from liehermitian.almost_abelian import aa_residuals
from liehermitian.codim2 import c2_unimodularity_defect
from liehermitian.hermitian import (SKT_FORM_FACTOR, chern_curvature, chern_scalar_alt,
                                   decide, ricci_first, ricci_second, sign_mutation,
                                   skt_tensor)
from liehermitian.algebra import change_frame, max_abs, unimodularity_defect
from liehermitian.sampling import (
    aa_balanced,
    aa_btp,
    aa_btp_perturbed,
    aa_chern_flat,
    aa_cyt,
    aa_kaehler,
    aa_normal_matrix,
    aa_nilpotent,
    aa_pluriclosed,
    aa_random,
    hopf_algebra,
    rng_for,
)


def test_build_extract_roundtrip():
    rng = rng_for(60, 0)
    d = aa_random(rng, 4)
    back = extract_almost_abelian(build_almost_abelian(d))
    assert back.n == d.n
    assert back.lam == pytest.approx(d.lam)
    assert max_abs(back.v - d.v) <= 1e-12
    assert max_abs(back.A - d.A) <= 1e-12


def test_extract_refuses_wrong_pattern():
    with pytest.raises(PatternMismatch) as info:
        extract_almost_abelian(hopf_algebra(2))
    # the offending structure constant is named
    assert info.value.offending is not None


@pytest.mark.parametrize("extra_d, named", [
    ((1, 1, 2), ("C", 2, 2, 3)),  # C and D break at one index: C is named
    ((0, 0, 1), ("D", 1, 1, 2)),  # D breaks at an earlier index
])
def test_extract_names_first_offending_entry(extra_d, named):
    a = build_almost_abelian(aa_random(rng_for(60, 2), 3))
    C, D = np.array(a.C), np.array(a.D)
    C[1, 1, 2], C[1, 2, 1] = 0.5, -0.5
    D[extra_d] = 0.5
    with pytest.raises(PatternMismatch) as info:
        extract_almost_abelian(make_algebra(3, C, D))
    assert info.value.offending == named


def test_unimodular_draws_have_zero_defect():
    rng = rng_for(60, 1)
    for i in range(5):
        d = aa_random(rng, int(rng.integers(2, 6)), unimodular=True)
        a = build_almost_abelian(d)
        assert max_abs(unimodularity_defect(a)) <= 10 * a.tol


@pytest.mark.parametrize("i", range(6))
def test_scalars_match_engine_when_unimodular(i):
    rng = rng_for(60, 10 + i)
    d = aa_random(rng, int(rng.integers(2, 6)), unimodular=True)
    a = build_almost_abelian(d)
    scal = c2_scalars(d)
    s_closed, s_hat_closed = scal["s"], scal["s_hat"]
    R = chern_curvature(a)
    assert s_closed == pytest.approx(np.trace(ricci_first(R)), abs=100 * a.tol)
    assert s_closed == pytest.approx(np.trace(ricci_second(R)), abs=100 * a.tol)
    assert s_hat_closed == pytest.approx(chern_scalar_alt(R), abs=100 * a.tol)


def test_scalar_closed_forms_on_fixed_data():
    # lam = 2, v = (3i,), A = (-1,): unimodular since 2 + 2(-1) = 0.
    d = AlmostAbelianData(n=2, lam=2.0, v=np.array([3.0j]),
                          A=np.array([[-1.0 + 0j]]))
    scal = c2_scalars(d)
    assert scal["s"] == pytest.approx(-4.0)          # -lam^2
    assert scal["s_hat"] == pytest.approx(-17.0)     # -2 lam^2 - |v|^2


# ------------------------------------------ codimension-two closed forms

AA_SAMPLERS = (aa_random, aa_normal_matrix, aa_btp, aa_btp_perturbed, aa_kaehler,
               aa_balanced, aa_pluriclosed, aa_nilpotent, aa_chern_flat, aa_cyt)


def _flipped(d):
    """(lam, v, A) -> (-lam, v, -A), the frame change diag(-1, 1, ..., 1)."""
    return AlmostAbelianData(n=d.n, lam=-d.lam, v=d.v, A=-d.A)


def _hold_codim2_forms_against_engine(d):
    """The codimension-two closed forms, read on the slice blocks of d,
    against property_report of the built algebra."""
    eng = property_report(build_almost_abelian(d))
    bound = 10 * d.tol
    assert max_abs(integrability_residuals(d)) == 0.0  # the slice is integrable
    assert c2_unimodularity_defect(d) == pytest.approx(
        eng["residuals"]["unimodular"], abs=bound)
    res = c2_residuals(d)
    assert decide(res, d.tol) == {key: eng["properties"][key] for key in res}
    for key, value in c2_scalars(d).items():
        assert value == pytest.approx(eng["scalars"][key], abs=bound), key
    return res, eng


@pytest.mark.parametrize("sampler", AA_SAMPLERS, ids=lambda f: f.__name__)
def test_codim2_closed_forms_answer_for_both_signs_of_lambda(sampler):
    lams = []
    for i in range(4):
        rng = rng_for(62, i)
        d = sampler(rng, int(rng.integers(2, 6)))
        for data in (d, _flipped(d)):
            _hold_codim2_forms_against_engine(data)
            lams.append(data.lam)
    # both signs are met, unless the sampler only draws lam = 0
    assert min(lams) < 0.0 < max(lams) or not any(lams)


def test_negative_lambda_normal_action_is_curved():
    # v = 0 and a normal A leave lam as the only source of Chern curvature,
    # so the flatness residual must read |lam| and not lam.
    rng = rng_for(62, 100)
    A = aa_normal_matrix(rng, 4).A
    d = AlmostAbelianData(n=4, lam=-0.75, v=np.zeros(3, dtype=complex), A=A)
    res, eng = _hold_codim2_forms_against_engine(d)
    assert res["chern_flat"] == pytest.approx(0.75, abs=10 * d.tol)
    assert eng["properties"]["chern_flat"] is False
    assert aa_report(d)["properties"]["chern_flat"] is False


def test_report_fields_and_crosscheck():
    rng = rng_for(60, 20)
    d = aa_random(rng, 4, unimodular=True)
    rep = aa_report(d)  # raises CrossCheckFailure on any disagreement
    assert rep["family"] == "almost_abelian"
    assert set(rep["properties"]) == set(aa_residuals(d))
    eng = rep["engine"]["properties"]
    for key in ("kaehler", "balanced", "pluriclosed", "btp", "bkl"):
        assert rep["properties"][key] == eng[key]


def test_report_crosscheck_catches_a_sign_flip():
    d = aa_random(rng_for(60, 30), 3, unimodular=True)
    with sign_mutation(curvature_index=1):
        with pytest.raises(CrossCheckFailure) as info:
            aa_report(d)
    err = info.value
    assert err.name in aa_report(d)["engine"]["scalars"]
    assert err.closed is not None and err.engine is not None
    assert abs(err.closed - err.engine) > 10 * build_almost_abelian(d).tol


def test_report_scalars_and_cyt_outside_unimodular():
    # The shared closed forms hold off the unimodular locus, for either
    # sign of lam, so the report carries cyt and every scalar there.
    d = AlmostAbelianData(n=2, lam=1.0, v=np.zeros(1, dtype=complex),
                          A=np.array([[1.0 + 0j]]))
    rep = aa_report(d)
    assert rep["properties"]["unimodular"] is False
    assert rep["scalars"] == pytest.approx({"s": -4.0, "s_hat": -2.0, "s_b": 0.0})
    assert rep["properties"]["cyt"] is True
    lams = []
    for i in range(6):
        rng = rng_for(63, i)
        drawn = aa_random(rng, int(rng.integers(2, 6)))
        for data in (drawn, _flipped(drawn)):
            rep = aa_report(data)
            eng = rep["engine"]
            assert rep["properties"]["unimodular"] is False
            assert rep["properties"]["cyt"] == eng["properties"]["cyt"]
            assert set(rep["scalars"]) == {"s", "s_hat", "s_b"}
            for key, value in rep["scalars"].items():
                assert value == pytest.approx(eng["scalars"][key], abs=10 * data.tol), key
            lams.append(data.lam)
    assert min(lams) < 0.0 < max(lams)


def test_eigen_data_reported():
    d = AlmostAbelianData(n=2, lam=1.0, v=np.zeros(1, dtype=complex),
                          A=np.array([[-0.5 + 0j]]))
    rep = aa_report(d)
    assert np.allclose(rep["eigen_data"]["eigenvalues"], [-0.5])
    assert np.allclose(rep["eigen_data"]["doubled_real_parts"], [-1.0])


# ------------------------------------------------------------- constructions


def test_kaehler_construction():
    rng = rng_for(61, 0)
    d = aa_kaehler(rng, 4)
    assert aa_report(d)["properties"]["kaehler"] is True


def test_balanced_construction():
    rng = rng_for(61, 1)
    rep = aa_report(aa_balanced(rng, 4))
    assert rep["properties"]["balanced"] is True


def test_pluriclosed_construction():
    rng = rng_for(61, 2)
    rep = aa_report(aa_pluriclosed(rng, 4, unimodular=True))
    assert rep["properties"]["pluriclosed"] is True
    assert rep["properties"]["unimodular"] is True


def test_chern_flat_construction():
    rng = rng_for(61, 3)
    from liehermitian import chern_curvature
    d = aa_chern_flat(rng, 4)
    a = build_almost_abelian(d)
    assert max_abs(chern_curvature(a)) <= 100 * a.tol
    assert aa_report(d)["properties"]["chern_flat"] is True


def test_cyt_construction():
    rng = rng_for(61, 4)
    rep = aa_report(aa_cyt(rng, 4))
    assert rep["properties"]["cyt"] is True
    assert rep["properties"]["unimodular"] is True


def test_nilpotent_construction():
    rng = rng_for(61, 5)
    rep = aa_report(aa_nilpotent(rng, 3))
    assert rep["properties"]["nilpotent"] is True


def test_torsion_parallel_construction_and_perturbation():
    rng = rng_for(61, 6)
    rep = aa_report(aa_btp(rng, 4))
    assert rep["properties"]["btp"] is True
    assert rep["properties"]["bkl"] is True
    pert = aa_report(aa_btp_perturbed(rng_for(61, 7), 4))
    assert pert["properties"]["btp"] is False
    assert aa_residuals(aa_btp_perturbed(rng_for(61, 7), 4))["btp"] >= 0.05


# ----------------------------------------------------------------- astheno


def test_astheno_profile_on_certified_draw():
    from liehermitian.sampling import aa_astheno
    d = aa_astheno(rng_for(123, 4), 5, k=1)
    k, h, comm = aa_astheno_profile(d)
    assert k == 1
    assert comm <= 1e-9
    # the trace relation ties h to lam
    assert (d.n - 1 - k) * d.lam + (d.n - 2) * h == pytest.approx(0.0, abs=1e-9)
    rep = aa_report(d)
    assert rep["properties"]["astheno_kaehler"] is True
    assert rep["properties"]["pluriclosed"] is True


def test_astheno_profile_refuses_generic_draw():
    d = aa_random(rng_for(123, 9), 5, unimodular=True)
    rep = aa_report(d)
    if rep["properties"]["astheno_kaehler"]:
        pytest.skip("draw happened to be astheno")
    with pytest.raises(NotAstheno) as info:
        aa_astheno_profile(d)
    assert info.value.clause


def test_astheno_profile_needs_dimension():
    d = aa_random(rng_for(123, 10), 2)
    with pytest.raises(ParameterDomain):
        aa_astheno_profile(d)


def test_astheno_vacuous_in_dimension_two():
    d = aa_random(rng_for(123, 11), 2)
    rep = property_report(build_almost_abelian(d))
    assert rep["properties"]["astheno_kaehler"] is None


# ------------------------------------------- Gaussian-integer lattice data
#
# On Gaussian-integer data every residual is computed from integers well
# below 2^53, so float64 arithmetic is exact in any order: a predicate
# holds exactly when its residual is 0.0, and two routes to one
# polynomial give the same number with no tolerance.

LATTICE_KEYS = ("unimodular", "balanced", "kaehler", "pluriclosed", "chern_flat",
                "cyt", "chern_kaehler_like", "btp", "bkl")


def gaussian_integers(rng, shape):
    """Entries in {-3..3} + i{-3..3}."""
    return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)


def lattice_draws():
    """(data, algebra) pairs of Gaussian-integer almost-abelian data with
    integer lam, 40 at each n = 3..6, cycling through five kinds: free
    draws; skew-Hermitian A with v = 0; normal diagonal A with real
    parts in {0, -lam/2} and v = 0; skew-Hermitian A with a zero first
    row and column, and v = (c, 0, ..)  in its kernel or free.  Every
    other group of five takes lam = -2 Re tr A (unimodular), and every
    other group of ten has its algebra moved by a monomial unitary, a
    permutation times diag(+-1, +-i), which keeps the structure
    constants Gaussian integers."""
    rng = rng_for(990, 0)
    units = np.array([1, -1, 1j, -1j])
    for n in range(3, 7):
        for i in range(40):
            lam = int(rng.integers(-3, 4))
            v = gaussian_integers(rng, n - 1)
            A = gaussian_integers(rng, (n - 1, n - 1))
            kind = i % 5
            if kind == 2:
                lam = 2 * int(rng.integers(-1, 2))
                A = np.diag(rng.integers(0, 2, n - 1) * (-lam // 2)
                            + 1j * rng.integers(-3, 4, n - 1))
                v[:] = 0
            elif kind:
                A = np.triu(A, 1) - np.triu(A, 1).conj().T + 1j * np.diag(np.diag(A).imag)
                if kind == 1:
                    v[:] = 0
                else:
                    A[0, :] = A[:, 0] = 0
                if kind == 3:
                    v[1:] = 0
            if i // 5 % 2:
                lam = -2 * int(np.trace(A).real)
            d = AlmostAbelianData(n=n, lam=lam, v=v, A=A)
            a = build_almost_abelian(d)
            if i // 10 % 2:
                a = change_frame(a, np.eye(n)[rng.permutation(n)] * rng.choice(units, n))
            yield d, a


def test_closed_forms_and_engine_vanish_together_on_lattice():
    held = dict.fromkeys(LATTICE_KEYS, 0)
    for d, a in lattice_draws():
        closed = aa_residuals(d)
        engine = property_report(a)["residuals"]
        for key in LATTICE_KEYS:
            assert (closed[key] == 0.0) == (engine[key] == 0.0), (key, d)
            held[key] += closed[key] == 0.0
    # every predicate both holds and fails on some draw
    assert all(0 < count < 160 for count in held.values()), held


def test_del_delbar_omega_is_the_skt_tensor_exactly_on_lattice():
    for d, a in lattice_draws():
        n = a.n
        ddbar = forms.partial_d(a, forms.partial_dbar(a, forms.kaehler_power(n, 1)))
        S = SKT_FORM_FACTOR * skt_tensor(a)
        for i, k in itertools.combinations(range(n), 2):
            for j, l in itertools.combinations(range(n), 2):
                assert ddbar.get(((i + 1, k + 1), (j + 1, l + 1)), 0.0) == S[i, k, j, l]
