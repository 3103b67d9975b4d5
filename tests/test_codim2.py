"""The codimension-two family: construction, reports, normal forms.

The classification tests freeze three concrete generators, one per
normal form, and require the classifier to recover the defining
parameters from a scrambled frame.  The paired-block shape of rank
r >= 2 is pinned as a negative: its per-index residual eq1 equals the
obstruction max_{q != l} S_q S_l max_q' |W_{l q'}|, the engine residual
is max(eq1, eq2), and the classifier must answer NotBTP.  An independent
Bismut connection, built from the Koszul formula on the complexified
algebra, confirms the engine's verdict on every generator shape.
"""

import numpy as np
import pytest

from liehermitian import (
    AlmostAbelianData,
    Codim2Data,
    CrossCheckFailure,
    DimensionMismatch,
    IntegrabilityViolation,
    NegativeLambda,
    NotUnimodular,
    ParameterDomain,
    PatternMismatch,
    aa_report,
    btpv0_obstruction,
    build_codim2,
    c2_report,
    chern_curvature,
    bismut_connection,
    chern_flat_normal_form,
    classify_btp,
    extract_codim2,
    from_almost_abelian,
    make_algebra,
    make_btpv0,
    make_btpv1,
    make_btpv2,
    rotate_codim2,
)
from liehermitian import codim2 as C2
from liehermitian import hermitian as H
from liehermitian.algebra import change_frame, max_abs
from liehermitian.hermitian import bismut_torsion_derivative_residuals, sign_mutation
from liehermitian.sampling import (
    aa_chern_flat,
    aa_random,
    c2_generator,
    c2_kahler,
    c2_random,
    c2_scramble,
    cgauss,
    grouped_singular_data,
    random_unitary,
    rng_for,
)
from liehermitian.verify import hold_curvature_blocks


def zeros(m):
    return np.zeros((m, m), dtype=complex)


# ------------------------------------------------------------ construction


def test_build_extract_roundtrip():
    d = c2_random(rng_for(70, 0), 4)
    back = extract_codim2(build_codim2(d))
    assert back.lam == pytest.approx(d.lam)
    for name in ("v", "X", "Y", "Z"):
        assert max_abs(getattr(back, name) - getattr(d, name)) <= 1e-10


def test_extract_refuses_generic_algebra():
    from liehermitian import build_almost_abelian
    a = build_almost_abelian(aa_random(rng_for(70, 1), 3))
    # generic almost abelian data has C entries outside this family's
    # pattern only after a frame change; in the adapted frame it embeds,
    # so scramble first.
    U = random_unitary(rng_for(70, 2), 3)
    with pytest.raises(PatternMismatch):
        extract_codim2(change_frame(a, U))


@pytest.mark.parametrize("extra_d, named", [
    ((1, 1, 2), ("C", 2, 2, 3)),  # C and D break at one index: C is named
    ((0, 0, 1), ("D", 1, 1, 2)),  # D breaks at an earlier index
])
def test_extract_names_first_offending_entry(extra_d, named):
    a = build_codim2(c2_random(rng_for(70, 3), 3, scramble=False))
    C, D = np.array(a.C), np.array(a.D)
    C[1, 1, 2], C[1, 2, 1] = 0.5, -0.5
    D[extra_d] = 0.5
    with pytest.raises(PatternMismatch) as info:
        extract_codim2(make_algebra(3, C, D))
    assert info.value.offending == named


def test_negative_lambda_refused():
    with pytest.raises(NegativeLambda):
        Codim2Data(n=3, lam=-1.0, v=np.zeros(2, dtype=complex),
                   X=zeros(2), Y=zeros(2), Z=zeros(2))


def test_complex_lambda_refused():
    with pytest.raises(ParameterDomain):
        Codim2Data(n=3, lam=1.0 + 1.0j, v=np.zeros(2, dtype=complex),
                   X=zeros(2), Y=zeros(2), Z=zeros(2))


def test_integrability_violation_carries_residuals():
    X = zeros(2)
    Y = zeros(2)
    Z = zeros(2)
    X[0, 0] = 1.0
    Y[0, 1] = 1.0
    Z[1, 1] = 1.0
    d = Codim2Data(n=3, lam=1.0, v=np.zeros(2, dtype=complex),
                   X=X, Y=Y, Z=Z)
    with pytest.raises(IntegrabilityViolation) as info:
        build_codim2(d)
    assert info.value.residuals is not None


def test_embedding_from_almost_abelian():
    d = aa_random(rng_for(70, 3), 4, unimodular=True)
    c = from_almost_abelian(d)
    a = build_codim2(c)
    from liehermitian import build_almost_abelian, property_report
    b = build_almost_abelian(d)
    pa = property_report(a)["properties"]
    pb = property_report(b)["properties"]
    assert pa == pb


def _same_algebra(a, b):
    # bit for bit, signed zeros included
    for x, y in ((a.C, b.C), (a.D, b.D), (a.tol, b.tol), (a.jacobi, b.jacobi)):
        x, y = np.asarray(x), np.asarray(y)
        assert x.tobytes() == y.tobytes()


def test_almost_abelian_is_the_codim2_assembly():
    from liehermitian import AlmostAbelianData, build_almost_abelian
    for i in range(40):
        rng = rng_for(71, i)
        n = 2 + i % 5
        d = aa_random(rng, n, unimodular=bool(i % 3 == 0))
        if i % 2:
            d = AlmostAbelianData(n=n, lam=-abs(d.lam), v=d.v, A=d.A)
        a = build_almost_abelian(d)
        if d.lam >= 0.0:
            _same_algebra(a, build_codim2(from_almost_abelian(d)))
        else:
            C = np.zeros((n, n, n), dtype=complex)
            D = np.zeros((n, n, n), dtype=complex)
            D[0, 0, 0] = d.lam
            D[0, 1:, 0] = d.v
            D[1:, 1:, 0] = d.A.T
            C[1:, 0, 1:] = -np.conj(d.A)
            C[1:, 1:, 0] = np.conj(d.A)
            _same_algebra(a, make_algebra(n, C, D, tol=d.tol))


@pytest.mark.parametrize("family, fields, error", [
    ("aa", dict(n=1), DimensionMismatch),
    ("aa", dict(lam=1.0j), ParameterDomain),
    ("aa", dict(v=zeros(1)[0]), DimensionMismatch),
    ("aa", dict(A=zeros(3)), DimensionMismatch),
    ("c2", dict(n=1, lam=-1.0), DimensionMismatch),
    ("c2", dict(lam=-1.0 + 1.0j), ParameterDomain),
    ("c2", dict(lam=-1.0, v=zeros(1)[0]), NegativeLambda),
    ("c2", dict(lam=-1.0, X=zeros(3)), NegativeLambda),
    ("c2", dict(v=zeros(3)[0]), DimensionMismatch),
    ("c2", dict(Y=zeros(1)), DimensionMismatch),
    ("c2", dict(Z=np.zeros(4, dtype=complex)), DimensionMismatch),
    # well-shaped data above MAX_DIM = 16
    ("aa", dict(n=17, v=zeros(16)[0], A=zeros(16)), DimensionMismatch),
    ("c2", dict(n=17, v=zeros(16)[0], X=zeros(16), Y=zeros(16), Z=zeros(16)),
     DimensionMismatch),
])
def test_malformed_family_data_error_classes(family, fields, error):
    from liehermitian import AlmostAbelianData
    base = dict(n=3, lam=1.0, v=np.zeros(2, dtype=complex))
    if family == "aa":
        make, base["A"] = AlmostAbelianData, zeros(2)
    else:
        make = Codim2Data
        base.update(X=zeros(2), Y=zeros(2), Z=zeros(2))
    with pytest.raises(error):
        make(**dict(base, **fields))


def test_rotation_matches_frame_change():
    d = c2_random(rng_for(70, 4), 4)
    U = random_unitary(rng_for(70, 5), 3)
    left = build_codim2(rotate_codim2(d, U))
    big = np.zeros((4, 4), dtype=complex)
    big[0, 0] = 1.0
    big[1:, 1:] = U
    right = change_frame(build_codim2(d), big)
    assert max_abs(left.C - right.C) <= 1e-9
    assert max_abs(left.D - right.D) <= 1e-9


# ------------------------------------------------------------------ reports


@pytest.mark.parametrize("i", range(6))
def test_report_crosscheck_clean(i):
    d = c2_random(rng_for(71, i), int(rng_for(71, i).integers(3, 6)))
    rep = c2_report(d)  # CrossCheckFailure would propagate
    assert rep["family"] == "codim2"
    assert set(rep["properties"]) == set(C2.c2_residuals(d))


def test_every_report_reads_its_predicates_off_one_table():
    d = c2_random(rng_for(71, 0), 4)
    aa = aa_random(rng_for(71, 1), 4)
    # the engine table is the engine report's list of predicates
    assert list(H.PREDICATES) == list(H.property_report(d.build())["residuals"])
    # cross_check skips a key the engine lacks, so a misspelt family key
    # would never be compared; nilpotent alone is held elsewhere
    for table in (Codim2Data.PREDICATES, AlmostAbelianData.PREDICATES):
        assert set(table) - {"nilpotent"} <= set(H.PREDICATES)
    assert list(c2_report(d)["properties"]) == list(Codim2Data.PREDICATES)
    assert list(aa_report(aa)["properties"]) == list(AlmostAbelianData.PREDICATES)


def _curvature_draws(kind):
    """Four draws of one kind for the closed curvature blocks: mixed
    c2_random data, unscrambled generator shapes (btpv0 at block rank
    one) and almost-abelian slice data with lam < 0."""
    out = []
    for i in range(4):
        rng = rng_for(74, 100 * len(kind) + i)
        n = int(rng.integers(3, 7))
        if kind == "c2_random":
            out.append(c2_random(rng, n, unimodular=bool(i % 2)))
        elif kind in ("v1", "v2"):
            out.append(c2_generator(rng, n, kind=kind))
        elif kind == "v0":
            n = 4 + i
            S, W = grouped_singular_data(rng, 1)
            out.append(make_btpv0(n, 1, S, W, cgauss(rng, n - 3)))
        else:
            d = aa_random(rng, n, unimodular=bool(i % 2))
            out.append(AlmostAbelianData(n=n, lam=-abs(d.lam), v=d.v, A=d.A))
    return out


@pytest.mark.parametrize("kind", ["c2_random", "v1", "v2", "v0", "aa_negative_lambda"])
def test_closed_curvature_blocks_match_the_engine(kind):
    for d in _curvature_draws(kind):
        if kind == "aa_negative_lambda":
            assert d.lam < 0.0
        hold_curvature_blocks(d, d.build())  # CrossCheckFailure would propagate


def test_closed_curvature_blocks_catch_a_sign_flip():
    d = _curvature_draws("c2_random")[1]
    a = d.build()
    with sign_mutation(curvature_index=1):
        with pytest.raises(CrossCheckFailure) as info:
            hold_curvature_blocks(d, a)
    assert info.value.name in ("ric1", "ric2", "ric3")


def test_closed_scalars_evaluated_once_per_call(monkeypatch):
    # the data keeps its scalars: one evaluation serves its report, its
    # curvature blocks and its residuals, and other data forms its own
    calls, real = [], C2.c2_scalars
    monkeypatch.setattr(C2, "c2_scalars", lambda d: calls.append(d) or real(d))
    d = _curvature_draws("c2_random")[0]
    rep = c2_report(d)
    hold_curvature_blocks(d, rep["algebra"])
    assert C2.c2_residuals(d) == rep["residuals"]
    assert len(calls) == 1 and calls[0] is d
    twin = Codim2Data(n=d.n, lam=d.lam, v=d.v, X=d.X, Y=d.Y, Z=d.Z, tol=d.tol)
    assert C2.c2_residuals(twin) == rep["residuals"]  # the public call works alone
    assert len(calls) == 2 and calls[1] is twin


def test_report_routes_share_one_context():
    # the routes of one report read the adjoints, Y + Y*, max |v| and
    # the scalars off the data, which forms each once and keeps it
    d = aa_random(rng_for(71, 2), 4)
    aa_report(d)
    kept = {name: vars(d)[name] for name in ("scal", "Xs", "Ys", "Y_herm", "v_max")}
    aa_report(d)
    assert all(vars(d)[name] is value for name, value in kept.items())


def test_derived_blocks_are_read_only():
    d = c2_random(rng_for(71, 3), 4)
    for name in ("Xs", "Ys", "B", "Am", "Y_herm"):
        with pytest.raises(ValueError):
            getattr(d, name)[0, 0] = 1.0
    assert np.array_equal(d.B, d.Y - d.X) and np.array_equal(d.Am, d.Z.T - d.Z)


def test_report_scalars_are_a_copy():
    d = c2_random(rng_for(71, 4), 4)
    first = c2_report(d)["scalars"]
    kept = dict(first)
    first["s"] = 1e300
    first.clear()
    assert c2_report(d)["scalars"] == kept


def test_classifier_and_flat_normal_form_compute_no_scalars(monkeypatch):
    # each reads the one closed form it tests, Kaehler or Chern-flat,
    # not every shared predicate with the scalars the cyt one needs
    calls, real = [], C2.c2_scalars
    monkeypatch.setattr(C2, "c2_scalars", lambda d: calls.append(d) or real(d))
    rng = rng_for(77, 40)
    assert classify_btp(c2_scramble(rng, make_btpv1(6, 1.0, cgauss(rng, 4))))["family"] == "v1"
    chern_flat_normal_form(from_almost_abelian(aa_chern_flat(rng_for(55, 3), 4)))
    assert calls == []


def test_report_crosscheck_catches_a_sign_flip():
    d = c2_random(rng_for(71, 30), 4, unimodular=True)
    with sign_mutation(curvature_index=1):
        with pytest.raises(CrossCheckFailure) as info:
            c2_report(d)
    err = info.value
    assert err.name in c2_report(d)["scalars"]
    assert err.closed is not None and err.engine is not None
    assert abs(err.closed - err.engine) > 10 * build_codim2(d).tol


def test_scalars_against_engine():
    d = c2_random(rng_for(71, 50), 4, unimodular=True)
    rep = c2_report(d)
    eng = rep["engine"]["scalars"]
    assert rep["scalars"]["s"] == pytest.approx(eng["s"], abs=1e-7)
    assert rep["scalars"]["s_b"] == pytest.approx(eng["s_b"], abs=1e-7)
    assert rep["scalars"]["s_hat"] == pytest.approx(eng["s_hat"], abs=1e-7)


# ----------------------------------------------------------- normal forms


def test_generator_v1_lights():
    d = make_btpv1(3, 1.0, np.array([1.0j]))
    p = c2_report(d)["engine"]["properties"]
    assert p["unimodular"] and p["btp"] and p["bkl"] and p["pluriclosed"]
    assert not p["balanced"] and not p["kaehler"]


def test_generator_v2_lights():
    d = make_btpv2(4, 1.25, 0.75, np.array([0.5 + 0j]))
    p = c2_report(d)["engine"]["properties"]
    assert p["unimodular"] and p["btp"]
    assert not p["bkl"] and not p["balanced"] and not p["pluriclosed"]


def test_generator_v0_rank_one_lights():
    d = make_btpv0(5, 1, np.array([1.9]), np.array([[np.exp(1.1j)]]),
                   np.array([-0.6j, 0.3j]))
    p = c2_report(d)["engine"]["properties"]
    assert p["unimodular"] and p["btp"] and p["balanced"]
    assert not p["pluriclosed"] and not p["bkl"] and not p["kaehler"]


def test_classify_recovers_v1():
    d = make_btpv1(3, 1.0, np.array([1.0j]))
    out = classify_btp(c2_scramble(rng_for(77, 1), d))
    assert out["family"] == "v1"
    assert out["params"]["v2"] == pytest.approx(1.0, abs=1e-8)
    assert np.abs(out["params"]["a"]) == pytest.approx([1.0], abs=1e-8)


def test_classify_recovers_v1_at_n13():
    rng = rng_for(5, 1300)
    out = classify_btp(c2_scramble(rng, c2_generator(rng, 13, kind="v1")))
    assert out["family"] == "v1"


def test_classify_recovers_v2():
    d = make_btpv2(4, 1.25, 0.75, np.array([0.5 + 0j]))
    out = classify_btp(c2_scramble(rng_for(77, 2), d))
    assert out["family"] == "v2"
    assert out["params"]["v2"] == pytest.approx(1.25, abs=1e-8)
    assert out["params"]["p"] == pytest.approx(0.75, abs=1e-8)


def test_classify_recovers_v0_rank_one():
    d = make_btpv0(5, 1, np.array([1.9]), np.array([[np.exp(1.1j)]]),
                   np.array([-0.6j, 0.3j]))
    out = classify_btp(c2_scramble(rng_for(77, 0), d))
    assert out["family"] == "v0"
    assert int(out["params"]["r"]) == 1
    S = np.asarray(out["params"]["S"], dtype=float).reshape(-1)
    assert S == pytest.approx([1.9], abs=1e-8)
    assert np.sort(np.abs(np.asarray(out["params"]["a"]))) == pytest.approx(
        [0.3, 0.6], abs=1e-8)


def test_classify_frame_is_explicit():
    d = make_btpv1(3, 1.0, np.array([1.0j]))
    scrambled = c2_scramble(rng_for(77, 3), d)
    out = classify_btp(scrambled)
    U = np.asarray(out["frame"])
    assert max_abs(U @ U.conj().T - np.eye(3)) <= 1e-9
    rebuilt = change_frame(build_codim2(scrambled), U)
    got = extract_codim2(rebuilt)
    # the rotated algebra sits back in the family pattern
    assert got.lam >= 0


def rank_one_draw(kind, n, rng):
    """A v1 or v2 generator draw, or a v0 draw of block rank one."""
    if kind != "v0":
        return c2_generator(rng, n, kind=kind)
    S, W = grouped_singular_data(rng, 1)
    return make_btpv0(n, 1, S, W, cgauss(rng, n - 3))


@pytest.mark.parametrize("kind", ["v1", "v2", "v0"])
@pytest.mark.parametrize("n", range(3, 10))
def test_classify_frame_carries_input_onto_its_normal_form(kind, n):
    # the whole output at once: the frame carries the scrambled algebra
    # onto the normal form its params build, entry by entry
    rng = rng_for(82, 100 + 10 * n + ("v1", "v2", "v0").index(kind))
    scrambled = c2_scramble(rng, rank_one_draw(kind, n, rng))
    out = classify_btp(scrambled)
    assert out["family"] == kind
    moved = change_frame(build_codim2(scrambled), out["frame"])
    make = {"v1": make_btpv1, "v2": make_btpv2, "v0": make_btpv0}[kind]
    normal = build_codim2(make(n, **out["params"]))
    bound = 1e-12 * (1.0 + max_abs((normal.C, normal.D)))
    assert max_abs((moved.C - normal.C, moved.D - normal.D)) <= bound
    if kind == "v0":
        assert abs(out["params"]["W"][0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_classify_refuses_a_normal_form_with_conjugated_phase(monkeypatch):
    # a v0 normal form built with conj(W) has the invariants and the
    # property report of the input, but not its Z in the returned frame
    def conjugated(n, r, S, W, a=(), tol=None):
        return make_btpv0(n, r, S, np.conj(W), a, tol=tol)

    monkeypatch.setitem(C2._NORMAL_FORMS, "v0", conjugated)
    rng = rng_for(83, 0)
    scrambled = c2_scramble(rng, rank_one_draw("v0", 6, rng))
    with pytest.raises(CrossCheckFailure, match="'Z'") as caught:
        classify_btp(scrambled)
    assert caught.value.name == "Z"


def test_classify_refuses_a_tail_out_of_its_frame(monkeypatch):
    # eigenvalues of the tail of X read in reverse, with the frame left
    # as it was: the spectrum is kept, the returned frame is wrong
    diagonalize = C2.diagonalize_normal

    def reversed_tail(M):
        vals, Q = diagonalize(M)
        return vals[::-1], Q

    monkeypatch.setattr(C2, "diagonalize_normal", reversed_tail)
    rng = rng_for(83, 1)
    scrambled = c2_scramble(rng, rank_one_draw("v1", 6, rng))
    with pytest.raises(CrossCheckFailure, match="'X'") as caught:
        classify_btp(scrambled)
    assert caught.value.name == "X"


def test_classify_kahler_tag():
    d = c2_kahler(rng_for(77, 4), 4)
    assert classify_btp(d)["family"] == "Kahler"


def test_classify_refuses_non_unimodular():
    d = c2_random(rng_for(77, 6), 4, unimodular=False)
    assert not c2_report(d)["engine"]["properties"]["unimodular"]
    with pytest.raises(NotUnimodular):
        classify_btp(d)


# ------------------------------------------------- rank-two obstruction


def rank_two_pair():
    return make_btpv0(5, 2, np.array([1.5, 0.7]),
                      np.diag([np.exp(0.3j), np.exp(-0.9j)]),
                      np.zeros(0, dtype=complex))


def test_rank_two_residual_sits_in_untraced_equations():
    d = rank_two_pair()
    res = C2.c2_btp_residuals(d)
    heavy = sorted(k for k, v in res.items() if v > 1e-10)
    assert heavy == ["eq1", "eq2"]
    # with distinct singular values W is diagonal, and the obstruction
    # max_{q != l} S_q S_l max_q' |W_{l q'}| reduces to S_1 S_2
    assert max(res.values()) == pytest.approx(1.5 * 0.7, abs=1e-9)


def test_rank_two_is_not_torsion_parallel():
    d = rank_two_pair()
    p = c2_report(d)["engine"]["properties"]
    assert p["unimodular"] and p["balanced"]
    assert not p["btp"]
    out = classify_btp(d)
    assert out["family"] == "NotBTP"
    assert out["params"]["residual"] == pytest.approx(1.05, abs=1e-9)


@pytest.mark.parametrize("i", range(6))
def test_per_index_equations_bound_the_engine(i):
    # every entry of eq1 and eq2 is, up to sign, an entry of the engine's
    # covariant derivative of the torsion, on arbitrary data of the
    # family; so both vanish on every torsion-parallel metric
    rng = rng_for(81, i)
    n = int(rng.integers(3, 7))
    m = n - 1
    d = Codim2Data(n=n, lam=float(rng.random()), v=cgauss(rng, m),
                   X=cgauss(rng, (m, m)), Y=cgauss(rng, (m, m)),
                   Z=cgauss(rng, (m, m)), tol=np.inf)  # skip integrability
    res = C2.c2_btp_residuals(d)
    engine = max(bismut_torsion_derivative_residuals(build_codim2(d)))
    assert min(res["eq1"], res["eq2"]) > 0.1
    assert engine >= max(res["eq1"], res["eq2"]) - 1e-12


def obstruction_by_loops(S, W):
    r = len(S)
    return max((S[q] * S[l] * abs(W[l, k])
                for q in range(r) for l in range(r) if l != q
                for k in range(r)), default=0.0)


@pytest.mark.parametrize("groups", [(1,), (1, 1), (2,), (2, 1), (1, 2), (3,),
                                    (2, 2), (1, 1, 1, 1), (4,)])
def test_paired_block_obstruction_is_exact(groups):
    r = sum(groups)
    S, W = grouped_singular_data(rng_for(78, r * 100 + len(groups)), r,
                                 groups=groups)
    if max(groups) > 1:
        # repeated values with a genuinely non-diagonal W
        assert max_abs(W - np.diag(np.diag(W))) > 0.05
    n = 2 * r + 2
    d = make_btpv0(n, r, S, W, cgauss(rng_for(79, r), 1))
    res = C2.c2_btp_residuals(d)
    predicted = btpv0_obstruction(S, W)
    assert predicted == pytest.approx(obstruction_by_loops(S, W), abs=1e-12)
    assert res["eq1"] == pytest.approx(predicted, abs=1e-9)
    engine = max(bismut_torsion_derivative_residuals(build_codim2(d)))
    assert engine == pytest.approx(max(res["eq1"], res["eq2"]), abs=1e-9)
    if r == 1:
        assert engine <= 1e-9
    else:
        top = np.sort(S)[::-1]
        assert res["eq1"] >= top[0] * top[1] / np.sqrt(r) - 1e-9
        assert max(v for k, v in res.items() if k not in ("eq1", "eq2")) <= 1e-9


def koszul_bismut(a):
    """Bismut connection of the frame metric from first principles.

    Works on the complexified algebra with basis E = (e_1..e_n,
    ebar_1..ebar_n), the metric g(e_i, ebar_k) = delta_ik extended
    complex-bilinearly, and J = i on e, -i on ebar.  The Levi-Civita
    connection of left-invariant fields is given by the Koszul formula

        2 g(nabla_x y, z) = g([x, y], z) - g([y, z], x) + g([z, x], y),

    and the Bismut connection adds (1/2) d omega(Jx, Jy, Jz) with
    omega(x, y) = g(Jx, y).  Returns (Gamma, T, g, J): nabla_{E_a} E_b =
    sum_c Gamma[c, b, a] E_c, and T[c, a, b] is the E_c component of the
    torsion T(E_a, E_b).  Nothing here reads the engine's torsion or
    connection formulas; only the bracket of algebra.py is used.
    """
    n, N = a.n, 2 * a.n
    c = np.zeros((N, N, N), dtype=complex)  # [E_a, E_b] = sum_c c[c, a, b] E_c
    c[:n, :n, :n] = a.C
    c[n:, n:, n:] = np.conj(a.C)
    # [e_i, ebar_k] = sum_j conj(D^i_jk) e_j - D^k_ji ebar_j
    c[:n, :n, n:] = np.conj(a.D).transpose(1, 0, 2)
    c[n:, :n, n:] = -a.D.transpose(1, 2, 0)
    c[:, n:, :n] = -c[:, :n, n:].transpose(0, 2, 1)
    g = np.zeros((N, N))
    g[:n, n:] = g[n:, :n] = np.eye(n)
    J = np.concatenate([np.full(n, 1j), np.full(n, -1j)])
    low = np.einsum("dab,dc->abc", c, g)  # g([E_a, E_b], E_c)
    koszul = 0.5 * (low - low.transpose(2, 0, 1) + low.transpose(1, 2, 0))
    d_omega = -np.einsum("dab,dc->abc", c, J[:, None] * g)
    d_omega = d_omega + d_omega.transpose(1, 2, 0) + d_omega.transpose(2, 0, 1)
    H = np.einsum("a,b,c,abc->abc", J, J, J, d_omega)
    # g is its own inverse
    Gam = np.einsum("abc,cd->dba", koszul + 0.5 * H, g)
    T = Gam.transpose(0, 2, 1) - Gam - c
    return Gam, T, g, J


def rank_two_repeated():
    S, W = grouped_singular_data(rng_for(80, 0), 2, groups=(2,))
    return make_btpv0(6, 2, S, W, np.array([0.4j]))


@pytest.mark.parametrize("make, parallel", [
    (lambda: make_btpv1(3, 1.0, np.array([1.0j])), True),
    (lambda: make_btpv2(4, 1.25, 0.75, np.array([0.5 + 0j])), True),
    (lambda: make_btpv0(5, 1, np.array([1.9]), np.array([[np.exp(1.1j)]]),
                        np.array([-0.6j, 0.3j])), True),
    (rank_two_pair, False),
    (rank_two_repeated, False),
], ids=["v1", "v2", "v0-r1", "v0-r2", "v0-r2-repeated"])
def test_koszul_bismut_connection_agrees_with_engine(make, parallel):
    a = build_codim2(make())
    n = a.n
    Gam, T, g, J = koszul_bismut(a)
    # a Hermitian connection with totally skew torsion ...
    assert max_abs(Gam * (J[:, None, None] - J[None, :, None])) <= 1e-12
    low = np.einsum("cba,cd->abd", Gam, g)
    assert max_abs(low + low.transpose(0, 2, 1)) <= 1e-12
    Tlow = np.einsum("cab,cd->abd", T, g)
    assert max_abs(Tlow + Tlow.transpose(1, 0, 2)) <= 1e-12
    assert max_abs(Tlow + Tlow.transpose(0, 2, 1)) <= 1e-12
    # ... whose (1,0) block is the engine's skew-torsion connection
    assert max_abs(Gam[:n, :n, :n] - bismut_connection(a)) <= 1e-12
    dT = (np.einsum("dea,ebc->dbca", Gam, T)
          - np.einsum("dec,eba->dbca", T, Gam)
          - np.einsum("dbe,eca->dbca", T, Gam))
    engine = max(bismut_torsion_derivative_residuals(a))
    if parallel:
        assert max_abs(dT) <= 1e-9 and engine <= 1e-9
    else:
        assert engine > 0.1
        assert max_abs(dT) == pytest.approx(engine, rel=1e-9)


# ------------------------------------------------------ classifier guards


def unit_cells(s1, s2, n=4):
    """Integrable, unimodular data whose only cells are Y = s1 E_01 and
    Z = s2 E_01: a rank-one v0 point when |s1| = |s2| > 0."""
    m = n - 1
    Y, Z = zeros(m), zeros(m)
    Y[0, 1], Z[0, 1] = s1, s2
    return Codim2Data(n=n, lam=0.0, v=np.zeros(m, dtype=complex),
                      X=zeros(m), Y=Y, Z=Z)


@pytest.fixture
def residuals_vanish(monkeypatch):
    # every input passes the residual system, so classify_btp reaches
    # the guards of its v0 branch and its postcondition
    real = C2.c2_btp_residuals
    monkeypatch.setattr(C2, "c2_btp_residuals",
                        lambda d: dict.fromkeys(real(d), 0.0))


def test_classify_states_the_rank_one_cap(residuals_vanish):
    scrambled = c2_scramble(rng_for(82, 0), rank_two_pair())
    with pytest.raises(CrossCheckFailure, match="Z must have rank one"):
        classify_btp(scrambled)


@pytest.mark.parametrize("scramble", [False, True], ids=["adapted", "scrambled"])
def test_classify_refuses_unequal_paired_cells(residuals_vanish, scramble):
    d = unit_cells(1.0, 1.5)
    if scramble:
        d = c2_scramble(rng_for(82, 1), d)
    with pytest.raises(CrossCheckFailure, match="must have equal modulus"):
        classify_btp(d)


def postcondition_violator(block):
    """Integrable, unimodular n = 4 data that no normal form fits, which
    the postcondition of classify_btp refuses on ``block``."""
    e = np.eye(3, dtype=complex)
    X, Y, Z = zeros(3), zeros(3), zeros(3)
    lam, v = 0.0, np.zeros(3, dtype=complex)
    if block == "lam":
        # lam beside a nonzero coupling vector
        lam, v = 1.0, e[1]
        X[0, 0] = 0.5
        Y = -X
    elif block == "Z":
        # Z off its first row beside a nonzero coupling vector
        v = e[0]
        Z[1, 2] = 1.0
    else:
        # B beyond the paired columns
        Z[0, 1] = 1.0
        Y = Z.copy()
        Y[0, 2] = 0.7
    return Codim2Data(n=4, lam=lam, v=v, X=X, Y=Y, Z=Z)


# The data that would break the other structure the postcondition holds
# (X decoupled from v, the coupling cell decoupled from the tail, lam or
# X on the paired blocks in the v0 branch) is not integrable: it raises
# IntegrabilityViolation before classify_btp picks a branch.
@pytest.mark.parametrize("block", ["lam", "Z", "Y"])
def test_classify_postcondition_refuses_what_no_normal_form_fits(residuals_vanish, block):
    with pytest.raises(CrossCheckFailure, match="disagree on '%s'" % block) as caught:
        classify_btp(postcondition_violator(block))
    assert caught.value.name == block


@pytest.mark.parametrize("scramble", [False, True], ids=["adapted", "scrambled"])
def test_classify_equal_paired_cells_are_v0(scramble):
    d = unit_cells(1.3, 1.3 * np.exp(0.4j))
    if scramble:
        d = c2_scramble(rng_for(82, 2), d)
    out = classify_btp(d)
    assert out["family"] == "v0"
    # the phase of W follows the frame's free phase; its modulus is one
    assert out["params"]["S"] == pytest.approx([1.3], abs=1e-12)
    assert abs(out["params"]["W"][0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_classify_refuses_a_vanishing_paired_cell_of_b():
    # Z of order 50 tol passes the quadratic residual system, but B has
    # no cell to pair with it, so the frame has no phase to read
    d = unit_cells(0.0, 5e-8)
    assert max(C2.c2_btp_residuals(d).values()) <= d.tol
    with pytest.raises(CrossCheckFailure, match="paired cell of B must be nonzero"):
        classify_btp(d)


# ------------------------------------------------------------- flat forms


def test_chern_flat_normal_form_structure():
    d = from_almost_abelian(aa_chern_flat(rng_for(55, 3), 4))
    nf, frame = chern_flat_normal_form(d)
    assert max_abs(nf.Y - np.diag(np.diag(nf.Y))) <= 1e-9
    a = build_codim2(nf)
    assert max_abs(chern_curvature(a)) <= 1e-8
    assert frame.shape == (4, 4)
    assert max_abs(frame @ frame.conj().T - np.eye(4)) <= 1e-9


def test_chern_flat_normal_form_keeps_a_repeated_eigenvalue_together():
    # Y = diag(1, 1 + 2i, 1) with X coupling the two copies of 1: after a
    # random frame, rounding can sort 1 + 2i between the copies, which
    # must still form one group, with the X entries that join them kept
    for s in range(200):
        rng = rng_for(77, s)
        G = cgauss(rng, (2, 2))
        X = zeros(3)
        X[np.ix_([0, 2], [0, 2])] = 1j * (G + G.conj().T)
        X[1, 1] = cgauss(rng)
        flat = Codim2Data(n=4, lam=0.0, v=np.zeros(3, dtype=complex), X=X,
                          Y=np.diag([1.0, 1.0 + 2.0j, 1.0]), Z=zeros(3))
        d = rotate_codim2(flat, random_unitary(rng, 3))
        nf, frame = chern_flat_normal_form(d)
        ones = np.flatnonzero(np.abs(np.diag(nf.Y) - 1.0) <= 1e-9)
        assert list(ones) in ([0, 1], [1, 2]), (s, np.diag(nf.Y))
        moved, want = change_frame(build_codim2(d), frame), build_codim2(nf)
        scale = max(max_abs(want.C), max_abs(want.D))
        assert max(max_abs(moved.C - want.C), max_abs(moved.D - want.D)) <= 1e-12 * (1 + scale), s


def test_chern_flat_normal_form_refuses_curved():
    d = c2_random(rng_for(55, 9), 4)
    if C2.c2_residuals(d)["chern_flat"] <= d.tol:
        pytest.skip("draw happened to be flat")
    with pytest.raises(ParameterDomain):
        chern_flat_normal_form(d)


# --------------------------------------------- numpy routines, scipy oracle


def _normal_draws():
    """Normal matrices at m = 1..15: random spectra, clusters of repeated
    zero eigenvalues, and Chern-flat Y (aa_chern_flat's shape) whose
    eigenvalues repeat in groups."""
    rng = rng_for(880, 0)
    for m in range(1, 16):
        for _ in range(4):
            Q = random_unitary(rng, m)
            random = cgauss(rng, m)
            zeros = cgauss(rng, m)
            zeros[: int(rng.integers(1, m + 1))] = 0.0
            sizes = rng.multinomial(m, [1.0 / 3] * 3)
            grouped = np.repeat(cgauss(rng, 3), sizes)
            grouped = grouped - grouped.real.mean()
            for mu in (random, zeros, grouped):
                yield Q @ np.diag(mu) @ Q.conj().T


def test_diagonalize_normal_matches_schur():
    linalg = pytest.importorskip("scipy.linalg")
    for M in _normal_draws():
        vals, Q = C2.diagonalize_normal(M)
        diag = np.diag(linalg.schur(M, output="complex")[0])
        assert np.array_equal(vals, diag[C2._eig_order(diag)])
        assert max_abs(Q.conj().T @ Q - np.eye(len(M))) <= 1e-13
        assert max_abs(Q.conj().T @ M @ Q - np.diag(vals)) <= 1e-13 * max(1.0, max_abs(M))
