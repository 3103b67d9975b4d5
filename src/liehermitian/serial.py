"""Spec files and JSON reports.

A spec file is a small JSON document pinning down one algebra:

    {"schema": "lie-hermitian/v1",
     "n": 3,
     "family": "almost_abelian",
     "tolerance": 1e-9,
     "payload": {"lambda": 2.0, "v": [[0,0],[0,0]], "A": [[...],[...]]}}

``tolerance`` is optional.  Complex numbers are two-element [re, im]
arrays everywhere, including inside matrices.  Payload fields by family:

    general         C, D           sparse entries {"j","i","k","v"}, 1-based
    almost_abelian  lambda, v, A
    codim2          lambda, v, X, Y, Z
    btpv1           v2, a
    btpv2           v2, p, a
    btpv0           r, S, W, a

The reader is strict: unknown keys, wrong shapes, or non-finite numbers
raise ParseError with the offending path in the message.  Values a spec
can express are exactly the values the builders accept, so a file
round-trips through load -> build -> emit unchanged up to float repr.
"""

import json
import math

import numpy as np

from . import __version__
from .algebra import build_general, require_dimension
from .almost_abelian import AlmostAbelianData
from .codim2 import Codim2Data, make_btpv0, make_btpv1, make_btpv2
from .errors import NonFiniteValue, ParseError

SCHEMA = "lie-hermitian/v1"
REPORT_SCHEMA = "lie-hermitian/v1-report"
FAMILIES = ("general", "almost_abelian", "codim2", "btpv1", "btpv2", "btpv0")

_TOP_KEYS = {"schema", "n", "family", "tolerance", "payload"}
# the two parameter families: lambda, v and the (n-1) x (n-1) blocks
_FAMILY_DATA = {"almost_abelian": AlmostAbelianData, "codim2": Codim2Data}
_PAYLOAD_KEYS = {
    "general": {"C", "D"},
    "almost_abelian": {"lambda", "v", "A"},
    "codim2": {"lambda", "v", "X", "Y", "Z"},
    "btpv1": {"v2", "a"},
    "btpv2": {"v2", "p", "a"},
    "btpv0": {"r", "S", "W", "a"},
}


def _fail(where, what):
    raise ParseError("%s: %s" % (where, what))


def _real(x, where):
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        _fail(where, "expected a real number, got %r" % (x,))
    x = float(x)
    if not math.isfinite(x):
        _fail(where, "number must be finite")
    return x


def _integer(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        _fail(where, "expected an integer, got %r" % (x,))
    return x


def _complex(x, where):
    if not isinstance(x, list) or len(x) != 2:
        _fail(where, "expected [re, im], got %r" % (x,))
    return complex(_real(x[0], where + "[0]"), _real(x[1], where + "[1]"))


def _cvector(x, where, length=None):
    if not isinstance(x, list):
        _fail(where, "expected a list of [re, im] pairs")
    if length is not None and len(x) != length:
        _fail(where, "expected length %d, got %d" % (length, len(x)))
    return np.array(
        [_complex(e, "%s[%d]" % (where, i)) for i, e in enumerate(x)],
        dtype=complex,
    )


def _cmatrix(x, where, rows=None, cols=None):
    if not isinstance(x, list) or (rows is not None and len(x) != rows):
        _fail(where, "expected %s rows" % ("some" if rows is None else rows))
    if len(x) == 0:
        return np.zeros((0, 0 if cols is None else cols), dtype=complex)
    width = len(x[0]) if cols is None else cols
    out = np.array(
        [_cvector(row, "%s[%d]" % (where, i), width) for i, row in enumerate(x)],
        dtype=complex,
    )
    return out


def _rvector(x, where, length=None):
    if not isinstance(x, list):
        _fail(where, "expected a list of reals")
    if length is not None and len(x) != length:
        _fail(where, "expected length %d, got %d" % (length, len(x)))
    return np.array([_real(e, "%s[%d]" % (where, i)) for i, e in enumerate(x)])


def _sparse_entries(x, where, n):
    """Decode a list of {"j","i","k","v"} records into (j,i,k,value) tuples."""
    if not isinstance(x, list):
        _fail(where, "expected a list of sparse entries")
    out = []
    for pos, rec in enumerate(x):
        here = "%s[%d]" % (where, pos)
        if not isinstance(rec, dict) or set(rec) != {"j", "i", "k", "v"}:
            _fail(here, 'expected keys {"j","i","k","v"}')
        idx = []
        for key in ("j", "i", "k"):
            val = _integer(rec[key], here + "." + key)
            if not 1 <= val <= n:
                _fail(here + "." + key, "index %d outside 1..%d" % (val, n))
            idx.append(val)
        out.append((idx[0], idx[1], idx[2], _complex(rec["v"], here + ".v")))
    return out


def validate_spec(obj):
    """Check a decoded JSON object against the spec-file schema.

    Returns the object unchanged.  Everything structural is checked
    here, the range of n by ``require_dimension`` (DimensionMismatch,
    as in the builders); value-level domain rules (positivity,
    unitarity, Jacobi) are left to the builders so their error classes
    stay meaningful.
    """
    if not isinstance(obj, dict):
        _fail("top level", "expected a JSON object")
    extra = set(obj) - _TOP_KEYS
    if extra:
        _fail("top level", "unknown keys %s" % sorted(extra))
    for key in ("schema", "n", "family", "payload"):
        if key not in obj:
            _fail("top level", "missing key %r" % key)
    if obj["schema"] != SCHEMA:
        _fail("schema", "expected %r, got %r" % (SCHEMA, obj["schema"]))
    require_dimension(_integer(obj["n"], "n"))
    family = obj["family"]
    if family not in FAMILIES:
        _fail("family", "unknown family %r, expected one of %s" % (family, list(FAMILIES)))
    if "tolerance" in obj:
        t = _real(obj["tolerance"], "tolerance")
        if t <= 0.0:
            _fail("tolerance", "must be positive")
    payload = obj["payload"]
    if not isinstance(payload, dict):
        _fail("payload", "expected a JSON object")
    want = _PAYLOAD_KEYS[family]
    if set(payload) != want:
        _fail("payload", "expected keys %s, got %s" % (sorted(want), sorted(payload)))
    return obj


def load_spec(path):
    """Read and validate a spec file; returns the decoded dict."""
    try:
        with open(path, "r") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise ParseError("%s is not valid JSON: %s" % (path, exc))
    return validate_spec(obj)


def materialize(spec):
    """Turn a validated spec into family data.

    Returns (family, data) where data is an Algebra for the general
    family, AlmostAbelianData for almost_abelian, and Codim2Data for
    codim2 and the three generator families.
    """
    n = spec["n"]
    family = spec["family"]
    tol = spec.get("tolerance")
    p = spec["payload"]
    if family == "general":
        C = _sparse_entries(p["C"], "payload.C", n)
        D = _sparse_entries(p["D"], "payload.D", n)
        return family, build_general(n, C, D, tol=tol)
    if family in _FAMILY_DATA:
        make = _FAMILY_DATA[family]
        return family, make(
            n=n,
            lam=_real(p["lambda"], "payload.lambda"),
            v=_cvector(p["v"], "payload.v", n - 1),
            tol=tol,
            **{b: _cmatrix(p[b], "payload." + b, n - 1, n - 1) for b in make.BLOCKS},
        )
    if family == "btpv1":
        return family, make_btpv1(
            n, _real(p["v2"], "payload.v2"),
            _cvector(p["a"], "payload.a", n - 2), tol=tol,
        )
    if family == "btpv2":
        if n < 3:
            _fail("n", "btpv2 needs n >= 3, got %d" % n)
        return family, make_btpv2(
            n, _real(p["v2"], "payload.v2"), _real(p["p"], "payload.p"),
            _cvector(p["a"], "payload.a", n - 3), tol=tol,
        )
    if family == "btpv0":
        r = _integer(p["r"], "payload.r")
        if r < 1:
            _fail("payload.r", "need r >= 1, got %d" % r)
        if 2 * r > n - 1:
            _fail("payload.r", "need 2r <= n - 1, got r = %d at n = %d" % (r, n))
        return family, make_btpv0(
            n, r, _rvector(p["S"], "payload.S", r),
            _cmatrix(p["W"], "payload.W", r, r),
            _cvector(p["a"], "payload.a", n - 1 - 2 * r), tol=tol,
        )
    raise ParseError("unknown family %r" % family)  # unreachable after validate


def algebra_of(family, data):
    """Build the Algebra behind materialized family data."""
    return data if family == "general" else data.build()


# ---------------------------------------------------------------------------
# encoding


def cnum(z):
    z = complex(z)
    return [z.real, z.imag]


def cvec(v):
    return [cnum(z) for z in np.asarray(v).reshape(-1)]


def cmat(M):
    return [cvec(row) for row in np.asarray(M)]


def _sparse(T, names, tol, antisymmetric):
    """Sparse records of an array in C order: for each entry not at or
    below ``tol`` in modulus, its 1-based indices under ``names`` and its
    value under "v".  A NaN entry is kept, for jsonable to refuse.  With
    ``antisymmetric`` only the half where the last two indices increase
    is emitted."""
    T = np.asarray(T)
    keep = ~(np.abs(T) <= tol)
    if antisymmetric:
        keep &= np.triu(np.ones(T.shape[-2:], dtype=bool), 1)
    at = (np.argwhere(keep) + 1).T.tolist()
    vals = T[keep].astype(complex)
    values = np.stack((vals.real, vals.imag), axis=1).tolist()  # cnum of each
    keys = (*names, "v")
    return [dict(zip(keys, record)) for record in zip(*at, values)]


def sparse_tensor3(T, tol=0.0, antisymmetric=False):
    """Sparse {"j","i","k","v"} records of a 3-index array, 1-based.

    With ``antisymmetric`` only the i < k half is emitted; the mirror
    entries are implied.  Entries at or below ``tol`` in modulus are
    dropped.
    """
    return _sparse(T, "jik", tol, antisymmetric)


def sparse_tensor4(R, tol=0.0):
    """Sparse {"i","j","k","l","v"} records of a 4-index array, 1-based."""
    return _sparse(R, "ijkl", tol, False)


def spec_from_data(data):
    """Spec dict reproducing ``data`` (the inverse of materialize).

    Accepts AlmostAbelianData, Codim2Data, or an Algebra.  Generator
    data goes out as "codim2": generators are gauge choices, the stored
    matrices are the ground truth.
    """
    for family, make in _FAMILY_DATA.items():
        if isinstance(data, make):
            payload = {"lambda": data.lam, "v": cvec(data.v)}
            payload.update((b, cmat(getattr(data, b))) for b in data.BLOCKS)
            out = {"schema": SCHEMA, "n": data.n, "family": family, "payload": payload}
            break
    else:
        # Algebra: dense C and D go out sparsely.
        out = {
            "schema": SCHEMA,
            "n": data.n,
            "family": "general",
            "payload": {
                "C": sparse_tensor3(data.C, antisymmetric=True),
                "D": sparse_tensor3(data.D),
            },
        }
    if data.tol is not None:
        out["tolerance"] = float(data.tol)
    return out


def jsonable(x):
    """Recursively convert report values to plain JSON types.

    Complex numbers (and complex arrays) become [re, im] pairs; numpy
    scalars and arrays become Python scalars and nested lists; dict
    keys must already be strings.  An inf or NaN raises NonFiniteValue.
    """
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, (np.bool_,)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        val = float(x)
        if not math.isfinite(val):
            raise NonFiniteValue("non-finite value in report")
        return val
    if isinstance(x, (complex, np.complexfloating)):
        return jsonable(cnum(x))
    if isinstance(x, np.ndarray):
        if x.ndim == 0:
            return jsonable(x[()])
        return [jsonable(row) for row in x]
    if isinstance(x, dict):
        out = {}
        for key, val in x.items():
            if not isinstance(key, str):
                raise ValueError("report keys must be strings, got %r" % (key,))
            out[key] = jsonable(val)
        return out
    if isinstance(x, (list, tuple)):
        return [jsonable(e) for e in x]
    raise ValueError("cannot serialize %r" % type(x))


def report_header(command, tol=None, seed=None):
    head = {"schema": REPORT_SCHEMA, "version": __version__, "command": command}
    if tol is not None:
        head["tolerance"] = float(tol)
    if seed is not None:
        head["seed"] = int(seed)
    return head


def canonical_json(obj):
    """Deterministic JSON text: sorted keys, two-space indent, newline."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def write_text(text, path=None):
    if path is None:
        print(text, end="" if text.endswith("\n") else "\n")
    else:
        with open(path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
