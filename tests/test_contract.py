"""The one route for two-operand tensor contractions, and the rank cut of
the lower central series.

``algebra.contract`` replaces every two-operand ``np.einsum`` under
``src/``.  These tests hold it to ``np.einsum`` on every spec the
package uses, guard that no multi-operand ``np.einsum`` comes back, and
check the frame change built on it.  Where one term of a tensor is an
index relabelling of another, the package forms the product once; the
reference formulas below keep one product per term, and exact
Gaussian-integer tests hold the two equal.
"""

import ast
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from liehermitian import AlmostAbelianData, build_almost_abelian, cli, codim2
from liehermitian.algebra import (change_frame, contract, jacobi_tensors,
                                  lower_central_dims, max_abs)
from liehermitian.codim2 import build_codim2
from liehermitian.hermitian import (bismut_connection, chern_connection, chern_curvature,
                                    chern_torsion, sign_mutation, skt_tensor,
                                    torsion_cov_deriv)
from liehermitian.sampling import c2_from_aa, random_unitary, rng_for

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "liehermitian"


def _calls(name):
    """Every call ``<...>.name(...)`` or ``name(...)`` in the package, as
    (file, line, ast.Call)."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                f = node.func
                called = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if called == name:
                    yield path.name, node.lineno, node


# One product per term, as (sign, spec, first operand, second operand):
# the Jacobi tensors, the Chern curvature (signs of _CURVATURE_SIGNS),
# the shared parts of the BTP residual system, the unbarred and barred
# covariant derivatives of the torsion and the pluriclosed tensor.
# Operands are named in the dict each test passes.
REFERENCE_TERMS = {
    "jcc": [(1, "rij,lrk->ijkl", "C", "C"), (1, "rjk,lri->ijkl", "C", "C"),
            (1, "rki,lrj->ijkl", "C", "C")],
    "jcd": [(1, "rik,ljr->ijkl", "C", "D"), (1, "rji,lrk->ijkl", "D", "D"),
            (-1, "rjk,lri->ijkl", "D", "D")],
    "jcdbar": [(1, "rik,rjl->ijkl", "C", "Dc"), (-1, "jrk,irl->ijkl", "C", "Dc"),
               (1, "jri,krl->ijkl", "C", "Dc"), (-1, "lri,kjr->ijkl", "D", "Dc"),
               (1, "lrk,ijr->ijkl", "D", "Dc")],
    "curvature": [(1, "rki,rlj->ijkl", "D", "Dc"), (-1, "lri,krj->ijkl", "D", "Dc"),
                  (-1, "jri,klr->ijkl", "D", "Dc"), (-1, "irj,lkr->ijkl", "Dc", "D")],
    "eq1": [(1, "kj,li->ijkl", "B", "Z"), (-1, "ij,lk->ijkl", "B", "Z"),
            (-1, "ik,lj->ijkl", "Am", "B")],
    "eq2": [(1, "kj,li->ijkl", "B", "Bc"), (-1, "ij,lk->ijkl", "B", "Bc"),
            (-1, "ik,lj->ijkl", "Am", "Zc")],
    "v1": [(1, "k,li->ikl", "v", "Z"), (-1, "i,lk->ikl", "v", "Z"),
           (-1, "l,ik->ikl", "v", "Am")],
    "v2": [(1, "k,li->ikl", "v", "Bc"), (-1, "i,lk->ikl", "v", "Bc"),
           (-1, "l,ik->ikl", "vc", "Am")],
    "w1": [(1, "l,kj->jkl", "v", "B"), (-1, "k,lj->jkl", "v", "B")],
    "unbarred": [(-1, "jrk,ril->jikl", "T", "G"), (-1, "jir,rkl->jikl", "T", "G"),
                 (1, "rik,jrl->jikl", "T", "G")],
    "barred": [(1, "jrk,irl->jikl", "T", "Gc"), (1, "jir,krl->jikl", "T", "Gc"),
               (-1, "rik,rjl->jikl", "T", "Gc")],
    "skt": [(-1, "rik,rjl->ikjl", "T", "Cc"), (-1, "jir,krl->ikjl", "T", "Dc"),
            (1, "jkr,irl->ikjl", "T", "Dc"), (1, "lir,krj->ikjl", "T", "Dc"),
            (-1, "lkr,irj->ikjl", "T", "Dc")],
}

CONTRACT_CALLS = list(_calls("contract"))
# The reference formulas are computed with contract too, so their specs
# stay under the einsum comparison.
SOURCE_SPECS = sorted({node.args[0].value for _, _, node in CONTRACT_CALLS
                       if isinstance(node.args[0], ast.Constant)}
                      | {spec for terms in REFERENCE_TERMS.values() for _, spec, _, _ in terms})


def test_every_contraction_names_its_spec_literally():
    # the AST scan finds every call site that a plain-text search finds,
    # so that the comparison below covers every spec the package uses
    text = "".join(path.read_text() for path in sorted(PACKAGE.glob("*.py")))
    assert CONTRACT_CALLS
    assert len(CONTRACT_CALLS) == len(re.findall(r"(?<!def )\bcontract\(", text))
    for name, line, node in CONTRACT_CALLS:
        assert isinstance(node.args[0], ast.Constant), "%s:%d" % (name, line)


def test_no_multi_operand_einsum_in_the_package():
    offenders = [
        "%s:%d" % (name, line)
        for name, line, node in _calls("einsum")
        if len(node.args) > 2
    ]
    assert offenders == [], "contract, not np.einsum, for two operands: %s" % offenders


def _operand(rng, letters, n):
    """Random complex operand for ``letters``: the conjugate of a
    transposed view, so not C-contiguous from rank two on."""
    shape = (n,) * len(letters)
    return np.conj((rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).T)


def _assert_matches_einsum(spec, A, B):
    got = contract(spec, A, B)
    want = np.einsum(spec, A, B)
    assert got.shape == want.shape
    # the summation error is relative to the sum of |terms|
    scale = max(np.max(np.einsum(spec, np.abs(A), np.abs(B))), 1e-300)
    assert max_abs(got - want) <= 1e-13 * scale, spec


@pytest.mark.parametrize("n", [2, 5, 16])
@pytest.mark.parametrize("spec", SOURCE_SPECS)
def test_contract_matches_einsum_on_source_specs(spec, n):
    rng = rng_for(4242, n)
    a, b = spec.split("->")[0].split(",")
    _assert_matches_einsum(spec, _operand(rng, a, n), _operand(rng, b, n))


@pytest.mark.parametrize("n", [2, 5, 16])
def test_contract_on_views_scalars_and_outer_products(n):
    rng = rng_for(4243, n)
    X = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    Y = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
    view = np.conj(X.transpose(2, 0, 1))
    assert not view.flags.c_contiguous
    _assert_matches_einsum("rki,rlj->ijkl", view, Y)
    # full contraction to a scalar
    full = contract("trs,tsr->", view, Y)
    assert full.shape == ()
    _assert_matches_einsum("trs,tsr->", view, Y)
    # pure outer product, nothing summed
    _assert_matches_einsum("kj,li->ijkl", X[0].T, np.conj(Y[:, 1, :]))
    _assert_matches_einsum("k,li->ikl", X[0, 0], Y[1].T)


@pytest.mark.parametrize("spec", [
    "rri,ij->j",        # trace inside the first operand
    "ij,kkj->i",        # trace inside the second operand
    "ij,jk,kl->il",     # three operands
    "ij,jk",            # no output
    "ij,ij->ij",        # index shared by both operands and the output
    "ij,jk->ikm",       # output index in neither operand
])
def test_contract_refuses_what_it_does_not_compute(spec):
    with pytest.raises(ValueError):
        contract(spec, np.ones((2, 2)), np.ones((2, 2)))


def test_contract_refuses_mismatched_summed_axes():
    with pytest.raises(ValueError):
        contract("ij,jk->ik", np.ones((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("shape_a, shape_b", [((2,), (2, 2)), ((2, 2), (2, 2, 2))])
def test_contract_refuses_operands_of_another_rank(shape_a, shape_b):
    with pytest.raises(ValueError, match="rank 2 and 2"):
        contract("ij,jk->ik", np.ones(shape_a), np.ones(shape_b))


def test_change_frame_roundtrip_at_the_largest_dimension():
    n = 16
    rng = rng_for(2026, 16)
    a = change_frame(build_codim2(c2_from_aa(rng, n)), random_unitary(rng, n))
    U = random_unitary(rng, n)
    b = change_frame(change_frame(a, U), U.conj().T)
    scale = max(max_abs(a.C), max_abs(a.D))
    assert max_abs(b.C - a.C) <= 1e-12 * scale
    assert max_abs(b.D - a.D) <= 1e-12 * scale
    assert b.C.flags.c_contiguous and b.D.flags.c_contiguous


# ------------------------------------------------- lower central series

LAMBDAS = [1e-6, 1.0, 1e3, 1e6]


def _aa_spec(lam):
    # solvable and not nilpotent at every lambda > 0: the complexified
    # lower central series stays at dimension 3
    return {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
            "payload": {"lambda": lam, "v": [[0.0, 0.0]], "A": [[[-0.5, 0.0]]]}}


@pytest.mark.parametrize("lam", LAMBDAS)
def test_lower_central_series_is_scale_free(lam):
    d = AlmostAbelianData(n=2, lam=lam, v=np.zeros(1, dtype=complex),
                          A=np.array([[-0.5 + 0j]]))
    assert lower_central_dims(build_almost_abelian(d)) == [3, 3]


def test_check_large_scale_spec_is_not_nilpotent(tmp_path, capsys):
    path = tmp_path / "aa.json"
    path.write_text(json.dumps(_aa_spec(1e6)))
    code = cli.main(["check", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["family_report"]["properties"]["nilpotent"] is False


# ------------------------------------------------- shared products, exactly


def _reference(name, ops, flip=None):
    """The one-product-per-term sum ``name``, with term ``flip`` negated."""
    return sum((-sign if t == flip else sign) * contract(spec, ops[x], ops[y])
               for t, (sign, spec, x, y) in enumerate(REFERENCE_TERMS[name]))


def _gaussian(rng, *shape):
    """Entries in {-3..3} + i{-3..3}: every sum below stays an exact
    integer far below 2^53, so the routes must agree with ==."""
    return rng.integers(-3, 4, shape) + 1j * rng.integers(-3, 4, shape)


def _gaussian_algebra(n):
    rng = rng_for(5150, n)
    C = _gaussian(rng, n, n, n)
    return {"C": C - C.transpose(0, 2, 1), "D": _gaussian(rng, n, n, n)}


@pytest.mark.parametrize("n", range(2, 17))
def test_jacobi_tensors_equal_one_product_per_term(n):
    ops = _gaussian_algebra(n)
    ops["Dc"] = np.conj(ops["D"])
    got = jacobi_tensors(n, ops["C"], ops["D"])
    for name, tensor in zip(("jcc", "jcd", "jcdbar"), got):
        assert np.array_equal(tensor, _reference(name, ops)), name


@pytest.mark.parametrize("n", range(2, 17))
def test_chern_curvature_equals_one_product_per_term(n):
    ops = _gaussian_algebra(n)
    ops["Dc"] = np.conj(ops["D"])
    a = SimpleNamespace(D=ops["D"])
    assert np.array_equal(chern_curvature(a), _reference("curvature", ops))
    # flipping one sign moves that term alone: terms 3 and 4 share a
    # product but not a sign
    for t in range(4):
        with sign_mutation(curvature_index=t):
            assert np.array_equal(chern_curvature(a), _reference("curvature", ops, flip=t)), t


@pytest.mark.parametrize("n", range(2, 17))
def test_btp_system_equals_one_product_per_term(n, monkeypatch):
    m = n - 1
    rng = rng_for(5151, n)
    X, Y, Z = (_gaussian(rng, m, m) for _ in range(3))
    v = _gaussian(rng, m)
    d = codim2.Codim2Data(n=n, lam=2.0, v=v, X=X, Y=Y, Z=Z)
    seen = []
    monkeypatch.setattr(codim2, "max_abs", lambda x: seen.append(x) or max_abs(x))
    codim2.c2_btp_residuals(d)
    # eq1 and eq2 are the system's only rank-4 tensors; v1, v2, w1 and
    # w2 its rank-3 ones, in that order
    eq1, eq2 = [x for x in seen if np.ndim(x) == 4]
    v1, v2, w1, _ = [x for x in seen if np.ndim(x) == 3]
    B = Y - X
    ops = {"B": B, "Z": Z, "Am": Z.T - Z, "Bc": np.conj(B), "Zc": np.conj(Z),
           "v": v, "vc": np.conj(v)}
    for name, tensor in zip(("eq1", "eq2", "v1", "v2", "w1"), (eq1, eq2, v1, v2, w1)):
        assert np.array_equal(tensor, _reference(name, ops)), name


@pytest.mark.parametrize("n", range(2, 17))
def test_torsion_derivatives_equal_one_product_per_term(n):
    a = SimpleNamespace(**_gaussian_algebra(n))
    T = chern_torsion(a)
    for G in (chern_connection(a), bismut_connection(a)):
        ops = {"T": T, "G": G, "Gc": np.conj(G)}
        for barred, name in ((False, "unbarred"), (True, "barred")):
            got = torsion_cov_deriv(T, G, barred=barred)
            assert np.array_equal(got, _reference(name, ops)), name


@pytest.mark.parametrize("n", range(2, 17))
def test_skt_tensor_equals_one_product_per_term(n):
    a = SimpleNamespace(**_gaussian_algebra(n))
    ops = {"T": chern_torsion(a), "Cc": np.conj(a.C), "Dc": np.conj(a.D)}
    assert np.array_equal(skt_tensor(a), _reference("skt", ops))
