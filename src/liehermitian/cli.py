"""Command line front end.

Five subcommands over JSON spec files: ``check`` classifies the metric,
``tensors`` dumps the raw arrays, ``classify`` runs the normal-form
search, ``sample`` drives the seeded randomized invariant suites, and
``verify`` executes the full acceptance battery.  Reports are emitted
through the canonical JSON writer, so identical inputs and flags give
byte-identical output.

Exit codes are stable and documented: 0 for success including valid
negative answers (a metric that is simply not pluriclosed, a
classification answering NotBTP); a refusal exits with the
``exit_code`` its error class declares, by the table in the
:mod:`liehermitian.errors` docstring (2 malformed input, 3 structural
failure, 4 closed form against engine, 1 anything else), and an
ArithmeticError (a complex "real" scalar), a numpy LinAlgError or an
OSError while writing the output exits 1.
Each refusal writes a JSON error to stderr and nothing to stdout.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from . import forms
from . import hermitian
from . import serial
from .algebra import TOL_X10, max_abs, unimodularity_defect
from .almost_abelian import aa_report, build_almost_abelian
from .codim2 import build_codim2, c2_report, classify_btp, from_almost_abelian
from .errors import (
    CrossCheckFailure, LieHermitianError, NonFiniteValue, ParameterDomain, ParseError)

EXIT_OK = 0
EXIT_OTHER = 1
EXIT_PARSE = ParseError.exit_code
EXIT_CROSSCHECK = CrossCheckFailure.exit_code


def exit_code_for(exc):
    """The code a package error declares, EXIT_OTHER for the numpy and
    OS errors that main also catches."""
    return exc.exit_code if isinstance(exc, LieHermitianError) else EXIT_OTHER


def _error_payload(exc):
    """JSON-able description of a refusal, written to stderr.

    Structured attachments ride along when the exception carries them,
    in particular the integrability residual matrices, so a failing
    spec can be debugged from the error output alone.  An attachment
    holding inf or NaN, which JSON cannot carry, is written as null.
    """
    out = {"error": type(exc).__name__, "message": str(exc)}
    attached = {}
    if getattr(exc, "residuals", None) is not None:
        attached["residuals"] = exc.residuals
    if isinstance(exc, CrossCheckFailure):
        out["quantity"] = exc.name
        attached.update(closed_form=exc.closed, engine=exc.engine)
    for key, value in attached.items():
        try:
            out[key] = serial.jsonable(value)
        except NonFiniteValue:
            out[key] = None
    return out


# ---------------------------------------------------------------- output


def _fmt_scalar(v):
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _text_lines(prefix, value, lines):
    if isinstance(value, dict):
        for key in sorted(value):
            _text_lines(prefix + "." + key if prefix else key, value[key], lines)
    elif isinstance(value, (list, tuple)):
        if len(value) <= 6 and not any(isinstance(x, (dict, list, tuple)) for x in value):
            lines.append("%s: %s" % (prefix, json.dumps(list(value))))
        else:
            lines.append("%s: [%d entries]" % (prefix, len(value)))
    else:
        lines.append("%s: %s" % (prefix, _fmt_scalar(value)))


def _render(report, fmt):
    if fmt == "json":
        return serial.canonical_json(report)
    lines = []
    _text_lines("", report, lines)
    return "\n".join(lines) + "\n"


def _emit(report, args):
    serial.write_text(_render(report, args.format), args.output)


# ----------------------------------------------------------------- input


def _load(args):
    spec = serial.load_spec(args.path)
    if args.tol is not None:
        spec = dict(spec)
        spec["tolerance"] = float(args.tol)
        serial.validate_spec(spec)
    family, data = serial.materialize(spec)
    return spec, family, data


def _structure_checks(t):
    """Jacobi, unimodularity and curvature symmetry residuals of the
    algebra of ``t = hermitian.report_tensors(a)``."""
    return {
        "jacobi_residual": t.a.jacobi_max,
        "unimodularity_defect": max_abs(unimodularity_defect(t.a)),
        "curvature_hermitian_residual": hermitian.curvature_hermitian_residual(t.R),
    }


# ------------------------------------------------------------- commands


def cmd_check(args):
    spec, family, data = _load(args)
    report = serial.report_header("check", tol=data.tol)
    report["input"] = spec
    report["family"] = family
    report["n"] = data.n
    if family == "general":
        t = hermitian.report_tensors(data)
        report["report"] = hermitian.property_report(data, t)
    else:
        # The family report formed the tensors and holds the engine's report.
        fam = aa_report(data) if family == "almost_abelian" else c2_report(data)
        t = fam.pop("tensors")
        del fam["algebra"]
        report["report"] = fam.pop("engine")
        report["family_report"] = fam
    report["structure"] = _structure_checks(t)
    _emit(serial.jsonable(report), args)
    return EXIT_OK


def cmd_tensors(args):
    spec, family, data = _load(args)
    t = hermitian.report_tensors(serial.algebra_of(family, data))
    a, T, R, eta = t.a, t.T, t.R, t.eta
    cut = a.tol
    b11, b20 = hermitian.one_one_matrix(t.rho_b, a.n), hermitian.two_zero_matrix(t.rho_b, a.n)
    report = serial.report_header("tensors", tol=a.tol)
    report["input"] = spec
    report["family"] = family
    report["n"] = a.n
    report["sparse"] = {
        "C": serial.sparse_tensor3(a.C, tol=cut, antisymmetric=True),
        "D": serial.sparse_tensor3(a.D, tol=cut),
        "torsion": serial.sparse_tensor3(T, tol=cut, antisymmetric=True),
        "curvature": serial.sparse_tensor4(R, tol=cut),
    }
    report["matrices"] = {
        "ricci_first": serial.cmat(hermitian.ricci_first(R)),
        "ricci_second": serial.cmat(hermitian.ricci_second(R)),
        "ricci_third": serial.cmat(hermitian.ricci_third(R)),
        "bismut_one_one": serial.cmat(b11),
        "bismut_two_zero": serial.cmat(b20),
    }
    report["vectors"] = {
        "torsion_trace": serial.cvec(eta),
        "connection_trace": serial.cvec(hermitian.chern_connection_trace(a)),
        "bracket_trace": serial.cvec(hermitian.bracket_trace(a)),
        "divergence": serial.cvec(hermitian.chern_divergence(a)),
    }
    report["scalars"] = hermitian.report_scalars(a, R, b11, eta)
    report["structure"] = _structure_checks(t)
    _emit(serial.jsonable(report), args)
    return EXIT_OK


def cmd_classify(args):
    spec, family, data = _load(args)
    if family == "general":
        raise ParameterDomain(
            "classification expects a codimension-two family; "
            "rebuild the spec with an explicit family")
    flip = family == "almost_abelian" and data.lam < 0.0
    if flip:
        # the unitary frame change diag(-1, 1, ..., 1) maps (lam, v, A)
        # to (-lam, v, -A), which meets the codimension-two lam >= 0
        data = dataclasses.replace(data, lam=-data.lam, A=-data.A)
    if family == "almost_abelian":
        data = from_almost_abelian(data)
    out = classify_btp(data)
    if flip:
        # compose the frame with diag(-1, 1, ..., 1); 0.0 - x keeps zeros unsigned
        out["frame"][:, 0] = 0.0 - out["frame"][:, 0]
    report = serial.report_header("classify", tol=data.tol)
    report["input"] = spec
    report["classification"] = {
        "family": out["family"],
        "params": out["params"],
        "frame": serial.cmat(out["frame"]),
        "residuals": out["residuals"],
    }
    _emit(serial.jsonable(report), args)
    return EXIT_OK


# The sample and verify commands import sampling and verify where they
# run, so check, classify and tensors neither compile nor run them.


def _sample_general(rng):
    from . import sampling as sm
    a = sm.random_general(rng, int(rng.integers(2, 5)))
    bound = TOL_X10 * a.tol
    dd = forms.d_squared_residual(a)
    checks = {"duality": (a.jacobi_max <= bound) == (dd <= bound)}
    return a, checks


def _sample_aa(rng):
    from . import sampling as sm
    unimod = bool(rng.integers(0, 2))
    d = sm.aa_random(rng, int(rng.integers(2, 6)), unimodular=unimod)
    try:
        a, checks = aa_report(d)["algebra"], {"cross_check": True}
    except CrossCheckFailure:
        a, checks = build_almost_abelian(d), {"cross_check": False}
    bound = TOL_X10 * a.tol
    checks["jacobi"] = a.jacobi_max <= bound
    if unimod:
        checks["gauduchon"] = forms.del_delbar_residual(a, a.n - 1) <= bound
        res = hermitian.scalar_identity_residuals(a)
        checks["scalar_identities"] = max(res["s"], res["s_hat"]) <= bound
    return d, checks


def _sample_c2(rng):
    from . import sampling as sm
    unimod = bool(rng.integers(0, 2))
    d = sm.c2_random(rng, int(rng.integers(3, 6)), unimodular=unimod)
    try:
        a, checks = c2_report(d)["algebra"], {"cross_check": True}
    except CrossCheckFailure:
        a, checks = build_codim2(d), {"cross_check": False}
    bound = TOL_X10 * a.tol
    checks["jacobi"] = a.jacobi_max <= bound
    if max_abs(unimodularity_defect(a)) <= bound:
        checks["gauduchon"] = forms.del_delbar_residual(a, a.n - 1) <= bound
    return d, checks


def _sample_generator(kind):
    def draw(rng):
        from . import sampling as sm
        from . import verify
        d = sm.c2_generator(rng, int(rng.integers(3, 7)), kind=kind)
        r, expected = verify.generator_answer(kind, d)
        checks = verify.generator_checks(kind, d, c2_report(d), r)
        scrambled = sm.c2_scramble(rng, d)
        try:
            checks["classify_roundtrip"] = classify_btp(scrambled)["family"] == expected
        except LieHermitianError:
            checks["classify_roundtrip"] = False
        return d, checks
    return draw


_SAMPLERS = {
    "general": _sample_general,
    "almost_abelian": _sample_aa,
    "codim2": _sample_c2,
    "btpv1": _sample_generator("v1"),
    "btpv2": _sample_generator("v2"),
    "btpv0": _sample_generator("v0"),
}


def cmd_sample(args):
    """Seeded random draws with per-family invariant suites.

    A failing draw is an answer, not an error, so the exit code stays
    zero; every failing draw is additionally written out as a
    standalone spec file that reproduces the finding through the check
    command.
    """
    from . import sampling as sm
    if args.count < 1:
        raise ParameterDomain("count must be at least 1")
    seed = _seed(args.seed)
    draw = _SAMPLERS[args.family]
    outdir = os.path.dirname(args.output) if args.output else ""
    tallies = {}
    failures = []
    emitted = []
    for i in range(args.count):
        rng = sm.rng_for(seed, i)
        try:
            data, checks = draw(rng)
        except LieHermitianError as exc:
            data, checks = None, {"construction": False}
            failed = ["construction (%s)" % type(exc).__name__]
        else:
            failed = sorted(k for k, v in checks.items() if not v)
        for name, good in checks.items():
            slot = tallies.setdefault(name, {"pass": 0, "fail": 0})
            slot["pass" if good else "fail"] += 1
        if failed:
            entry = {"index": i, "failed": failed}
            if data is not None:
                spec = serial.spec_from_data(data)
                entry["spec"] = spec
                fname = "%s-failure-%d.spec.json" % (args.family, i)
                serial.write_text(serial.canonical_json(serial.jsonable(spec)),
                                  os.path.join(outdir, fname))
                emitted.append(fname)
            failures.append(entry)
    report = serial.report_header("sample", seed=seed)
    report["generator"] = sm.GENERATOR_LABEL
    report["family"] = args.family
    report["count"] = args.count
    report["tallies"] = tallies
    report["failures"] = failures
    report["failure_files"] = emitted
    _emit(serial.jsonable(report), args)
    return EXIT_OK


def cmd_verify(args):
    from . import verify
    seed = verify.DEFAULT_SEED if args.seed is None else _seed(args.seed)
    results = verify.run_battery(seed=seed, name_filter=args.filter)
    if not results:
        raise ParameterDomain("no criterion matches the filter %r" % args.filter)
    if args.format == "json":
        report = serial.report_header("verify", seed=seed)
        report["results"] = [r.as_dict() for r in results]
        report["passed"] = all(r.passed for r in results)
        _emit(serial.jsonable(report), args)
    else:
        lines = []
        for r in results:
            line = "%s criterion-%d %s checks=%d" % (
                "PASS" if r.passed else "FAIL", r.number, r.slug, r.checks)
            if r.detail:
                line += "  " + r.detail
            lines.append(line)
            for f in r.failures[:10]:
                lines.append("     " + f)
        lines.append("%d/%d criteria pass" % (
            sum(r.passed for r in results), len(results)))
        serial.write_text("\n".join(lines) + "\n", args.output)
    return EXIT_OK if all(r.passed for r in results) else EXIT_OTHER


# ------------------------------------------------------------------ glue


def _seed(seed):
    # SeedSequence takes no negative entropy
    if seed < 0:
        raise ParseError("--seed must be a nonnegative integer, got %d" % seed)
    return seed


def _common_flags(p):
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="write the report here instead of stdout")


def build_parser():
    top = argparse.ArgumentParser(
        prog="liehermitian",
        description="left-invariant Hermitian geometry from structure constants")
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    for name, func, what in (
            ("check", cmd_check, "metric predicates for one spec file"),
            ("tensors", cmd_tensors, "torsion, curvature and trace dumps"),
            ("classify", cmd_classify, "normal-form search for one spec file")):
        p = sub.add_parser(name, help=what)
        p.add_argument("path")
        p.add_argument("--tol", type=float, default=None, help="tolerance override")
        _common_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("sample", help="seeded random invariant suites")
    p.add_argument("family", choices=tuple(_SAMPLERS))
    p.add_argument("--count", type=int, default=20)
    _common_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("verify", help="run the acceptance battery")
    p.add_argument("--filter", default=None, metavar="NAME",
                   help="run only criteria whose label 'criterion-N slug' contains NAME")
    _common_flags(p)
    # None stands for verify.DEFAULT_SEED, read once the command runs
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return top


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # an overflow surfaces as inf or NaN, which the checks refuse
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    # reading a spec raises ParseError, so an OSError comes from writing output
    except (LieHermitianError, ArithmeticError, np.linalg.LinAlgError, OSError) as exc:
        sys.stderr.write(serial.canonical_json(_error_payload(exc)))
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
