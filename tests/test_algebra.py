import numpy as np
import pytest

from liehermitian import (
    Algebra,
    AntisymmetryViolation,
    DimensionMismatch,
    DuplicateEntry,
    IndexOutOfRange,
    NonFiniteValue,
    NotUnitary,
    build_general,
    change_frame,
    is_nilpotent,
    lower_central_dims,
    make_algebra,
    unimodularity_defect,
)
from liehermitian.algebra import _complexified_bracket_tensor, jacobi_tensors, max_abs
from liehermitian.codim2 import build_codim2
from liehermitian.sampling import c2_from_aa, hopf_algebra, random_unitary, rng_for


def test_abelian_is_trivial():
    a = build_general(3)
    assert a.C.shape == (3, 3, 3)
    assert not a.C.any() and not a.D.any()
    assert a.jacobi_max == 0.0
    assert not unimodularity_defect(a).any()


def test_sparse_entries_are_one_based():
    a = build_general(2, D_entries=[(1, 2, 1, 1.0)])
    assert a.D[0, 1, 0] == 1.0
    assert np.count_nonzero(a.D) == 1


def test_c_mirror_is_filled():
    a = build_general(3, C_entries=[(1, 2, 3, 2.0 + 1.0j)])
    assert a.C[0, 1, 2] == 2.0 + 1.0j
    assert a.C[0, 2, 1] == -2.0 - 1.0j


def test_c_diagonal_refused():
    with pytest.raises(AntisymmetryViolation):
        build_general(3, C_entries=[(1, 2, 2, 1.0)])


def test_inconsistent_mirror_refused():
    with pytest.raises(AntisymmetryViolation):
        build_general(3, C_entries=[(1, 2, 3, 1.0), (1, 3, 2, 1.0)])


def test_duplicate_entry_refused_even_when_equal():
    with pytest.raises(DuplicateEntry):
        build_general(3, D_entries=[(1, 2, 3, 1.0), (1, 2, 3, 1.0)])


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        build_general(2, D_entries=[(3, 1, 1, 1.0)])
    with pytest.raises(IndexOutOfRange):
        build_general(2, D_entries=[(0, 1, 1, 1.0)])


def test_dimension_bounds():
    with pytest.raises(DimensionMismatch):
        build_general(1)
    with pytest.raises(DimensionMismatch):
        build_general(17)


def test_make_algebra_rejects_bad_shapes():
    C = np.zeros((2, 2, 2), dtype=complex)
    D = np.zeros((2, 2, 3), dtype=complex)
    with pytest.raises(DimensionMismatch):
        make_algebra(2, C, D)


def test_make_algebra_rejects_asymmetric_c():
    C = np.zeros((2, 2, 2), dtype=complex)
    C[0, 0, 1] = 1.0
    C[0, 1, 0] = 1.0
    with pytest.raises(AntisymmetryViolation):
        make_algebra(2, C, np.zeros_like(C))


@pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0.0, -np.inf)])
def test_builders_refuse_non_finite_input_typed(bad):
    # NonFiniteValue is a ValueError too, so callers catching that still work
    C = np.zeros((2, 2, 2), dtype=complex)
    D = np.zeros_like(C)
    D[0, 1, 0] = bad
    with pytest.raises(NonFiniteValue):
        make_algebra(2, C, D)
    with pytest.raises(NonFiniteValue, match=r"C entry at \(1,1,2\)"):
        build_general(2, C_entries=[(1, 1, 2, bad)])
    with pytest.raises(NonFiniteValue, match=r"D entry at \(1,2,1\)"):
        build_general(2, D_entries=[(1, 2, 1, bad)])


def test_jacobi_residual_zero_for_hopf():
    a = hopf_algebra(3)
    assert a.jacobi_max <= a.tol
    comps = [max_abs(t) for t in jacobi_tensors(a.n, a.C, a.D)]
    assert max(comps) == a.jacobi_max


def test_jacobi_residual_nonzero_for_random_tensors():
    rng = rng_for(2026, 0)
    found = False
    for i in range(10):
        C = np.zeros((3, 3, 3), dtype=complex)
        C[0, 1, 2] = rng.standard_normal() + 1j * rng.standard_normal()
        C[0, 2, 1] = -C[0, 1, 2]
        C[1, 0, 2] = rng.standard_normal()
        C[1, 2, 0] = -C[1, 0, 2]
        D = (rng.standard_normal((3, 3, 3))
             + 1j * rng.standard_normal((3, 3, 3)))
        a = make_algebra(3, C, D)
        if a.jacobi_max > 1e-3:
            found = True
            break
    assert found


def test_change_frame_preserves_jacobi_and_defect():
    rng = rng_for(2026, 1)
    a = hopf_algebra(2)
    U = random_unitary(rng, 2)
    b = change_frame(a, U)
    assert isinstance(b, Algebra)
    assert b.jacobi_max <= 10 * b.tol
    assert abs(max_abs(unimodularity_defect(b))
               - max_abs(unimodularity_defect(a))) <= 10 * b.tol


def test_change_frame_demands_unitary():
    a = hopf_algebra(2)
    with pytest.raises(NotUnitary):
        change_frame(a, np.array([[1.0, 0.0], [0.5, 1.0]]))


def test_make_algebra_takes_any_memory_layout():
    # change_frame and contract hand over transposed views
    a = hopf_algebra(3)
    b = make_algebra(3, np.asfortranarray(a.C), np.asfortranarray(a.D))
    assert np.array_equal(b.C, a.C) and np.array_equal(b.D, a.D)
    assert b.jacobi == a.jacobi


def test_change_frame_roundtrip():
    rng = rng_for(2026, 2)
    a = hopf_algebra(3)
    U = random_unitary(rng, 3)
    b = change_frame(change_frame(a, U), U.conj().T)
    assert np.abs(b.C - a.C).max() <= 100 * a.tol
    assert np.abs(b.D - a.D).max() <= 100 * a.tol


def test_nilpotency_of_heisenberg_like_sample():
    # lam = 0, nilpotent A, nonzero v: two-step nilpotent algebra.
    from liehermitian import AlmostAbelianData, build_almost_abelian
    d = AlmostAbelianData(n=2, lam=0.0,
                          v=np.array([1.0 + 0j]),
                          A=np.zeros((1, 1), dtype=complex))
    a = build_almost_abelian(d)
    assert is_nilpotent(a)
    dims = lower_central_dims(a)
    assert dims[-1] == 0


def test_hopf_is_not_nilpotent():
    assert not is_nilpotent(hopf_algebra(2))


@pytest.mark.parametrize("n", [2, 5, 9])
def test_complexified_bracket_matches_module_formulas(n):
    rng = rng_for(77, n)
    a = change_frame(build_codim2(c2_from_aa(rng, n)), random_unitary(rng, n))
    C, D = a.C, a.D
    B = _complexified_bracket_tensor(a)
    e = list(range(n))
    ebar = [n + i for i in e]
    for i in e:
        for k in e:
            # [e_i, e_k] = sum_j C^j_{ik} e_j, and its conjugate
            assert not B[ebar, i, k].any() and not B[e, ebar[i], ebar[k]].any()
            for j in e:
                assert B[j, i, k] == C[j, i, k]
                assert B[ebar[j], ebar[i], ebar[k]] == np.conj(C[j, i, k])
                # [e_i, ebar_k] = sum_j conj(D^i_{jk}) e_j - D^k_{ji} ebar_j
                assert B[j, i, ebar[k]] == np.conj(D[i, j, k])
                assert B[ebar[j], i, ebar[k]] == -D[k, j, i]
                # [ebar_k, e_i] = -[e_i, ebar_k]
                assert B[j, ebar[k], i] == -np.conj(D[i, j, k])
                assert B[ebar[j], ebar[k], i] == D[k, j, i]
