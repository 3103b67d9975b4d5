import json
import math

import numpy as np
import pytest

from liehermitian import (
    DimensionMismatch, ParseError, canonical_json, load_spec, materialize, validate_spec)
from liehermitian import serial
from liehermitian.algebra import max_abs
from liehermitian import sampling as sm


def minimal_spec():
    return {"schema": "lie-hermitian/v1", "n": 2, "family": "general",
            "payload": {"C": [], "D": []}}


def test_validate_accepts_minimal():
    validate_spec(minimal_spec())


def test_validate_rejects_wrong_schema():
    s = minimal_spec()
    s["schema"] = "other/v2"
    with pytest.raises(ParseError):
        validate_spec(s)


def test_validate_rejects_missing_key():
    s = minimal_spec()
    del s["n"]
    with pytest.raises(ParseError, match="n"):
        validate_spec(s)


@pytest.mark.parametrize("n", [1, 17])
def test_validate_refuses_n_outside_the_domain(n):
    # the abelian payload is valid at any n, so only the range refuses it
    s = minimal_spec()
    s["n"] = n
    with pytest.raises(DimensionMismatch, match="between 2 and 16"):
        validate_spec(s)


def test_validate_rejects_unknown_top_key():
    s = minimal_spec()
    s["extra"] = 1
    with pytest.raises(ParseError):
        validate_spec(s)


def test_validate_rejects_unknown_payload_key():
    s = minimal_spec()
    s["payload"]["E"] = []
    with pytest.raises(ParseError):
        validate_spec(s)


def test_validate_rejects_unknown_family():
    s = minimal_spec()
    s["family"] = "mystery"
    with pytest.raises(ParseError):
        validate_spec(s)


def test_complex_encoding_is_two_element_array():
    assert serial.cnum(1.5 - 2.0j) == [1.5, -2.0]
    s = {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
         "payload": {"lambda": 1.0, "v": [[0.5, -0.5]], "A": [[[0.0, 1.0]]]}}
    family, d = materialize(s)
    assert family == "almost_abelian"
    assert d.v[0] == 0.5 - 0.5j
    assert d.A[0, 0] == 1.0j


def test_malformed_complex_rejected():
    s = {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
         "payload": {"lambda": 1.0, "v": [[0.5]], "A": [[[0.0, 1.0]]]}}
    with pytest.raises(ParseError, match="v"):
        materialize(s)


def test_sparse_entries_one_based():
    s = {"schema": "lie-hermitian/v1", "n": 2, "family": "general",
         "payload": {"C": [], "D": [{"j": 1, "i": 2, "k": 1, "v": [1.0, 0.0]}]}}
    _, a = materialize(s)
    assert a.D[0, 1, 0] == 1.0


def test_sparse_entry_index_zero_rejected():
    s = {"schema": "lie-hermitian/v1", "n": 2, "family": "general",
         "payload": {"C": [], "D": [{"j": 0, "i": 1, "k": 1, "v": [1.0, 0.0]}]}}
    with pytest.raises(Exception):
        materialize(s)


@pytest.mark.parametrize("maker,family", [
    (lambda rng: sm.aa_random(rng, 3), "almost_abelian"),
    (lambda rng: sm.c2_random(rng, 4), "codim2"),
    (lambda rng: sm.c2_generator(rng, 4, kind="v1"), "codim2"),
    (lambda rng: sm.random_general(rng, 3), "general"),
])
def test_roundtrip_through_spec(maker, family):
    rng = sm.rng_for(80, hash(family) % 100)
    d = maker(rng)
    spec = serial.spec_from_data(d)
    assert spec["family"] == family
    validate_spec(serial.jsonable(spec))
    fam2, d2 = materialize(json.loads(canonical_json(serial.jsonable(spec))))
    assert fam2 == family
    if family == "general":
        assert max_abs(d2.C - d.C) <= 1e-12
        assert max_abs(d2.D - d.D) <= 1e-12
    else:
        for name in ("v", "X", "Y", "Z") if family == "codim2" else ("v", "A"):
            assert max_abs(getattr(d2, name) - getattr(d, name)) <= 1e-12


def test_generator_payloads_materialize():
    s = {"schema": "lie-hermitian/v1", "n": 3, "family": "btpv1",
         "payload": {"v2": 1.0, "a": [[0.0, 1.0]]}}
    family, d = materialize(s)
    assert family == "btpv1"
    assert d.n == 3
    s0 = {"schema": "lie-hermitian/v1", "n": 5, "family": "btpv0",
          "payload": {"r": 1, "S": [1.9], "W": [[[math.cos(1.1), math.sin(1.1)]]],
                      "a": [[0.0, -0.6], [0.0, 0.3]]}}
    family, d0 = materialize(s0)
    assert family == "btpv0"
    assert d0.Z.shape == (4, 4)


def test_canonical_json_is_stable():
    obj = {"b": 1, "a": [1.5, {"z": None, "y": True}]}
    one = canonical_json(obj)
    two = canonical_json(json.loads(one))
    assert one == two
    assert one.endswith("\n")
    assert one.index('"a"') < one.index('"b"')


def test_canonical_json_refuses_nan():
    with pytest.raises(ValueError):
        canonical_json({"x": float("nan")})


def test_jsonable_converts_numpy_and_complex():
    out = serial.jsonable({"m": np.array([[1.0 + 2.0j]]), "f": np.float64(3.0),
                           "i": np.int64(7), "b": np.bool_(True)})
    assert out == {"m": [[[1.0, 2.0]]], "f": 3.0, "i": 7, "b": True}


def test_jsonable_refuses_nonfinite():
    with pytest.raises(ValueError):
        serial.jsonable(np.array([np.inf]))


def test_load_spec_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_spec(str(tmp_path / "absent.json"))


def test_load_spec_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        load_spec(str(p))


def test_sparse_tensor_roundtrip_halves():
    a = sm.hopf_algebra(3)
    ent = serial.sparse_tensor3(a.C, antisymmetric=True)
    # only the i < k half is stored
    assert all(e["i"] < e["k"] for e in ent)
    dense = np.zeros_like(a.C)
    for e in ent:
        v = e["v"][0] + 1j * e["v"][1]
        dense[e["j"] - 1, e["i"] - 1, e["k"] - 1] = v
        dense[e["j"] - 1, e["k"] - 1, e["i"] - 1] = -v
    assert max_abs(dense - a.C) == 0.0


def loop_tensor3(T, tol=0.0, antisymmetric=False):
    """sparse_tensor3 as nested loops over the indices."""
    out = []
    n = T.shape[0]
    for j in range(n):
        for i in range(n):
            for k in range(n):
                if antisymmetric and i >= k:
                    continue
                val = T[j, i, k]
                if abs(val) <= tol:
                    continue
                out.append({"j": j + 1, "i": i + 1, "k": k + 1, "v": serial.cnum(val)})
    return out


def loop_tensor4(R, tol=0.0):
    """sparse_tensor4 as nested loops over the indices."""
    out = []
    n = R.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    val = R[i, j, k, l]
                    if abs(val) <= tol:
                        continue
                    out.append({"i": i + 1, "j": j + 1, "k": k + 1, "l": l + 1,
                                "v": serial.cnum(val)})
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_sparse_tensors_match_the_index_loops(n):
    # zeros, entries just either side of the cut and one NaN, which is
    # kept for jsonable to refuse; repr compares NaN and the key types
    rng = np.random.default_rng(n)
    for shape, encode, loop in (((n,) * 3, serial.sparse_tensor3, loop_tensor3),
                                ((n,) * 4, serial.sparse_tensor4, loop_tensor4)):
        T = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        T[rng.random(shape) < 0.4] = 0.0
        T.flat[rng.integers(T.size)] = 1e-3
        T.flat[rng.integers(T.size)] = complex(np.nan, 1.0)
        for tol in (0.0, 1e-3, 0.5):
            assert repr(encode(T, tol=tol)) == repr(loop(T, tol=tol))
            assert repr(encode(T.real, tol=tol)) == repr(loop(T.real, tol=tol))
        if encode is serial.sparse_tensor3:
            for tol in (0.0, 0.5):
                got = encode(T, tol=tol, antisymmetric=True)
                assert repr(got) == repr(loop(T, tol=tol, antisymmetric=True))
    assert any(math.isnan(e["v"][0]) for e in serial.sparse_tensor4(T))
