"""The four benchmark workloads: inputs, operations and output checks.

Each builder takes the seed and returns a :class:`Workload`: a fixed,
ordered list of operations.  Every operation draws its inputs from
``rng_for(seed, slot)`` (the slot is its place in the list), so the
seed changes the numbers and never the make-up of the list.  Input
generation and cache warming happen in the builder, which is the
set-up the benchmark times.

Each operation carries a check that looks at its output alone, against
an expectation computed apart from the code under test (another frame,
a closed form, the generator's own parameters) or against a property
the method must have.  Checks run after the timed rounds.
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Operations call the package through module attributes (codim2.classify_btp,
# not a name imported here), so that the traced run's wrappers see them.
from liehermitian import cli, codim2, forms, hermitian, serial, verify
from liehermitian.algebra import change_frame, max_abs
from liehermitian.almost_abelian import aa_residuals
from liehermitian.codim2 import (
    btpv0_obstruction,
    build_codim2,
    c2_residuals,
    c2_scalars,
    make_btpv0,
    make_btpv1,
    make_btpv2,
)
from liehermitian import sampling as sm

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"  # results, traces and generated spec files

# The predicates with a closed form in each family that the tensor
# engine also decides.
C2_KEYS = ("unimodular", "balanced", "kaehler", "pluriclosed", "chern_flat", "cyt")
AA_KEYS = ("unimodular", "kaehler", "balanced", "pluriclosed", "astheno_kaehler",
           "chern_flat", "chern_kaehler_like", "btp", "bkl")
# Bound on the scalar curvatures across frames and on recovered
# parameters, in units of the data tolerance.
SCALAR_BOUND = 10.0
PARAM_BOUND = 100.0
UNITARY_BOUND = 1e-9


@dataclass
class Op:
    """One timed operation.  ``run`` takes no argument and returns the
    output; ``check`` takes the output and returns a list of problems."""

    label: str
    run: object
    check: object


@dataclass
class Workload:
    ops: list
    child_processes: bool = False  # operations run in fresh interpreters
    workdir: Path = None           # removed by close()

    def close(self):
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def _span(recorder, name):
    return recorder.span(name) if recorder is not None else contextlib.nullcontext()


def _warm_kaehler_powers(ns):
    for n in ns:
        for k in {1, n - 2, n - 1}:
            if 1 <= k <= n - 1:
                forms.kaehler_power(n, k)


# ------------------------------------------------------------ dense-report

C2_BUILDERS = {
    "aa": sm.c2_from_aa,
    "diag": sm.c2_commuting_diag,
    "herm": sm.c2_hermitian_pair,
}

# (n, construction, unimodular).  The four n = 8 reports make up the
# middle half of the latency order, which op_iqm_ref_s averages; they are
# spread over the round so that they do not all fall into one slow spell
# of the machine.  Unimodular dense
# draws stop at n = 9: at n = 10 the engine calls some of them
# non-Gauduchon (see CHANGES.md), so the n = 10 draw is non-unimodular.
DENSE_SLOTS = (
    (8, "herm", True),
    (10, "herm", False),
    (6, "aa", True),
    (8, "diag", True),
    (9, "diag", True),
    (7, "herm", False),
    (8, "aa", True),
    (8, "aa", False),
)


def dense_report(seed, slots=DENSE_SLOTS, recorder=None):
    """property_report on codimension-two algebras in a dense frame."""
    ops = []
    with _span(recorder, "sampling.inputs"):
        drawn = []
        for slot, (n, kind, unimodular) in enumerate(slots):
            rng = sm.rng_for(seed, slot)
            d = C2_BUILDERS[kind](rng, n, unimodular=unimodular)
            adapted = build_codim2(d)
            dense = change_frame(adapted, sm.random_unitary(rng, n))
            drawn.append((n, kind, unimodular, d, adapted, dense))
    _warm_kaehler_powers({n for n, _, _ in slots})
    for n, kind, unimodular, d, adapted, dense in drawn:
        forms.exterior_d(dense, forms.phi(1))  # fills the generator cache
        ops.append(Op(
            "dense/n%d-%s-%s" % (n, kind, "u" if unimodular else "nu"),
            lambda a=dense: hermitian.property_report(a),
            _dense_check(d, adapted, unimodular),
        ))
    return Workload(ops)


def _dense_check(d, adapted, unimodular):
    ref = {}

    def check(rep):
        if not ref:
            ref["adapted"] = hermitian.property_report(adapted)
            ref["closed"] = {k: bool(v <= d.tol) for k, v in c2_residuals(d).items()}
        out = []
        props = rep["properties"]
        if props != ref["adapted"]["properties"]:
            diff = sorted(k for k in props if props[k] != ref["adapted"]["properties"][k])
            out.append("booleans differ from the adapted frame: %s" % diff)
        for name in ("s", "s_hat"):
            gap = abs(rep["scalars"][name] - ref["adapted"]["scalars"][name])
            if gap > SCALAR_BOUND * d.tol:
                out.append("%s moved by %.3e across frames" % (name, gap))
        for key in C2_KEYS:
            if props[key] != ref["closed"][key]:
                out.append("closed form and engine disagree on %s" % key)
        if unimodular and not props["gauduchon"]:
            out.append("unimodular draw is not Gauduchon")
        return out

    return check


# ---------------------------------------------------------- classify-sweep

# (kind, n).  v1, v2, v0 are torsion-parallel generator draws (v0 with
# block rank one), "w<r>" a paired-block witness of block rank r >= 2,
# and aa/diag/herm random unimodular data.  Every input is scrambled in
# the ideal.  The five v1 draws at n = 7 sit in the middle of the latency
# order and are spread over the round.
CLASSIFY_SLOTS = (
    ("v1", 7), ("w2", 5), ("v2", 13), ("v1", 3), ("v1", 7), ("aa", 4),
    ("v0", 11), ("v1", 5), ("v1", 7), ("v2", 9), ("w2", 7), ("v0", 3),
    ("v1", 7), ("v2", 11), ("diag", 8), ("v2", 5), ("v0", 7), ("v1", 9),
    ("v1", 7), ("w3", 9), ("v0", 13), ("v0", 5), ("herm", 12), ("v1", 11),
    ("v2", 7), ("w5", 13), ("v0", 9),
)

# Scrambled v1 draws at n = 13 fail with CrossCheckFailure on the fixed
# stream rng_for(5, 1300 + i) (see CHANGES.md), whatever the seed.
CLASSIFY_FAULT_SLOTS = (("v1", 13),)


def _classify_input(rng, kind, n):
    """(scrambled data, expectation) for one classify-sweep slot.

    The expectation holds the family and the parameters the classifier
    must recover, read from the generator's own draw."""
    if kind in ("v1", "v2"):
        d = sm.c2_generator(rng, n, kind=kind)
        expect = {"family": kind, "v2": d.v[0].real}
        if kind == "v2":
            expect["p"] = d.Z[0, 1].real
    elif kind == "v0" or kind.startswith("w"):
        r = 1 if kind == "v0" else int(kind[1:])
        S, W = sm.grouped_singular_data(rng, r)
        with warnings.catch_warnings():
            # n = 2r + 1 leaves the diagonal tail empty, which is allowed.
            warnings.simplefilter("ignore", RuntimeWarning)
            d = make_btpv0(n, r, S, W, sm.cgauss(rng, n - 1 - 2 * r))
        if r == 1:
            expect = {"family": "v0", "S": S}
        else:
            expect = {"family": "NotBTP", "obstruction": btpv0_obstruction(S, W),
                      "witness": d}
    else:
        d = C2_BUILDERS[kind](rng, n, unimodular=True)
        expect = {"family": None}
    return sm.c2_scramble(rng, d), expect


def classify_sweep(seed, slots=CLASSIFY_SLOTS, fault_slots=CLASSIFY_FAULT_SLOTS,
                   recorder=None):
    """classify_btp on scrambled generator draws, rank obstruction
    witnesses and random unimodular data."""
    ops = []
    with _span(recorder, "sampling.inputs"):
        drawn = []
        for slot, (kind, n) in enumerate(slots):
            drawn.append((kind, n) + _classify_input(sm.rng_for(seed, slot), kind, n))
        for i, (kind, n) in enumerate(fault_slots):
            drawn.append((kind, n) + _classify_input(sm.rng_for(5, 1300 + i), kind, n))
    _warm_kaehler_powers({n for _, n in tuple(slots) + tuple(fault_slots)})
    for kind, n, scrambled, expect in drawn:
        ops.append(Op(
            "classify/%s-n%d" % (kind, n),
            lambda d=scrambled: codim2.classify_btp(d),
            _classify_check(scrambled, expect),
        ))
    return Workload(ops)


def _classify_check(scrambled, expect):
    tol = scrambled.tol
    bound = PARAM_BOUND * tol

    def check(out):
        fam = out["family"]
        want = expect["family"]
        if want is None:
            # Random data: the tensor engine decides, apart from the
            # classifier's own residual system.
            du, db = hermitian.bismut_torsion_derivative_residuals(build_codim2(scrambled))
            if (fam == "NotBTP") != (max(du, db) > tol):
                return ["family %r, but the engine's torsion residual is %.3e"
                        % (fam, max(du, db))]
        elif fam != want:
            return ["family %r, expected %r" % (fam, want)]
        problems = []
        F = out["frame"]
        if max_abs(F @ F.conj().T - np.eye(F.shape[0])) > UNITARY_BOUND:
            problems.append("returned frame is not unitary")
        p = out["params"]
        for name in ("v2", "p"):
            if name in expect and abs(p[name] - expect[name]) > bound:
                problems.append("%s = %r, expected %r" % (name, p[name], expect[name]))
        if "S" in expect:
            got = np.sort(np.asarray(p["S"], dtype=float))
            if got.shape != expect["S"].shape or max_abs(got - np.sort(expect["S"])) > bound:
                problems.append("S = %r, expected %r" % (got, expect["S"]))
        if "obstruction" in expect:
            # Max-abs residuals are not frame invariant, so the bound
            # eq1 >= btpv0_obstruction(S, W) is checked in the generator's
            # frame, on the tensor engine, as criterion 11 does.
            if p["residual"] <= tol:
                problems.append("NotBTP with residual %.3e <= tol" % p["residual"])
            du, db = hermitian.bismut_torsion_derivative_residuals(
                build_codim2(expect["witness"]))
            if max(du, db) < expect["obstruction"] - SCALAR_BOUND * tol:
                problems.append("engine residual %.3e below the obstruction %.3e"
                                % (max(du, db), expect["obstruction"]))
        return problems

    return check


# ----------------------------------------------------------------- battery


def battery(seed, numbers=tuple(sorted(verify.SLUGS)), recorder=None):
    """verify.run_battery, one operation per criterion.

    The battery draws its own inputs from ``verify.DEFAULT_SEED``, the
    seed its verdicts are settled at; the benchmark seed does not enter.
    """
    _warm_kaehler_powers(range(2, 8))
    ops = []
    for number in numbers:
        label = "criterion-%d %s" % (number, verify.SLUGS[number])
        ops.append(Op(
            "verify.criterion_%d" % number,
            lambda label=label: verify.run_battery(verify.DEFAULT_SEED, name_filter=label),
            _battery_check(number),
        ))
    return Workload(ops)


def _battery_check(number):
    def check(results):
        if [r.number for r in results] != [number]:
            return ["expected criterion %d alone, got %r" % (number, [r.number for r in results])]
        r = results[0]
        out = []
        if not r.passed:
            out.append("criterion %d failed: %s" % (number, r.failures[:3]))
        if r.checks <= 0:
            out.append("criterion %d made no checks" % number)
        return out

    return check


# ----------------------------------------------------------------- cli-spec

# (spec name, n).  One spec file per family, all at n <= 6.
CLI_SPECS = (
    ("general", 4), ("almost_abelian", 5), ("codim2", 6),
    ("btpv1", 5), ("btpv2", 6), ("btpv0", 6),
)
# (subcommand, spec name).  The last invocation repeats the first, so
# every run compares two outputs of one invocation byte for byte.
CLI_CALLS = (
    ("check", "general"), ("check", "almost_abelian"), ("check", "codim2"),
    ("check", "btpv1"), ("check", "btpv2"), ("check", "btpv0"),
    ("classify", "btpv1"), ("classify", "btpv2"), ("classify", "btpv0"),
    ("tensors", "general"), ("tensors", "btpv2"),
    ("check", "general"),
)


def _cli_spec(rng, name, n):
    """(spec dict, expectation) for one family.

    The expectation holds the closed-form booleans and the Chern scalar
    curvature of the parameter data, and the family classify must name.
    """
    expect = {"family": None}
    if name == "general":
        d = sm.c2_hermitian_pair(rng, n, unimodular=True)
        a = change_frame(build_codim2(d), sm.random_unitary(rng, n))
        spec = serial.spec_from_data(a)
    elif name == "almost_abelian":
        d = sm.aa_random(rng, n, unimodular=True)
        spec = serial.spec_from_data(d)
    elif name == "codim2":
        d = sm.c2_scramble(rng, sm.c2_commuting_diag(rng, n, unimodular=True))
        spec = serial.spec_from_data(d)
    else:
        v2 = 0.5 + rng.random()
        if name == "btpv1":
            a = sm.cgauss(rng, n - 2)
            d = make_btpv1(n, v2, a)
            payload = {"v2": v2, "a": serial.cvec(a)}
        elif name == "btpv2":
            p = 0.5 + rng.random()
            a = sm.cgauss(rng, n - 3)
            d = make_btpv2(n, v2, p, a)
            payload = {"v2": v2, "p": p, "a": serial.cvec(a)}
        else:
            S, W = sm.grouped_singular_data(rng, 1)
            a = sm.cgauss(rng, n - 3)
            d = make_btpv0(n, 1, S, W, a)
            payload = {"r": 1, "S": [float(x) for x in S], "W": serial.cmat(W),
                       "a": serial.cvec(a)}
        spec = {"schema": serial.SCHEMA, "n": n, "family": name, "payload": payload}
        expect["family"] = name[-2:]
    serial.validate_spec(spec)
    if name == "almost_abelian":
        closed = {k: v for k, v in aa_residuals(d).items() if k in AA_KEYS}
    else:
        closed = {k: v for k, v in c2_residuals(d).items() if k in C2_KEYS}
        expect["s"] = c2_scalars(d)["s"]
    expect["closed"] = {k: bool(v <= d.tol) for k, v in closed.items() if v is not None}
    expect["tol"] = d.tol
    return spec, expect


@dataclass
class CliOutput:
    code: int
    text: bytes
    rss_kb: int = 0


def _run_child(argv, out_path, env):
    """Run one CLI process to its end; its stdout goes to ``out_path``.
    Returns the exit code, the output and the child's own peak RSS."""
    with open(out_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                env=env, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, Path(out_path).read_bytes(), usage.ru_maxrss)


def _run_in_process(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return CliOutput(code, buf.getvalue().encode())


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cli_spec(seed, specs=CLI_SPECS, calls=CLI_CALLS, in_process=False, recorder=None):
    """Fresh ``liehermitian`` processes on spec files of every family.

    With ``in_process`` the same invocations go through ``cli.main`` in
    this process, which is how the traced run times the CLI layers.
    """
    workdir = OUT / ("cli-%d" % os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    _warm_kaehler_powers({n for _, n in specs})  # for the in-process calls
    expects = {}
    with _span(recorder, "sampling.inputs"):
        for slot, (name, n) in enumerate(specs):
            spec, expects[name] = _cli_spec(sm.rng_for(seed, slot), name, n)
            (workdir / (name + ".spec.json")).write_text(
                serial.canonical_json(serial.jsonable(spec)))
    env = child_env()
    first = {}
    ops = []
    for i, (cmd, name) in enumerate(calls):
        argv = [cmd, str(workdir / (name + ".spec.json"))]
        if in_process:
            run = lambda argv=argv: _run_in_process(argv)
        else:
            full = [sys.executable, "-m", "liehermitian.cli"] + argv
            out_path = workdir / ("out-%d.json" % i)
            run = lambda full=full, out_path=out_path: _run_child(full, out_path, env)
        ops.append(Op("cli/%s-%s" % (cmd, name), run,
                      _cli_check(cmd, name, expects[name], first)))
    return Workload(ops, child_processes=not in_process, workdir=workdir)


def _cli_check(cmd, name, expect, first):
    def check(out):
        if out.code != 0:
            return ["exit code %d" % out.code]
        problems = []
        key = (cmd, name)
        if first.setdefault(key, out.text) != out.text:
            problems.append("output differs from an earlier run of the same invocation")
        report = json.loads(out.text)
        if cmd == "check":
            props = report["report"]["properties"]
            wrong = sorted(k for k, v in expect["closed"].items() if props.get(k) != v)
            if wrong:
                problems.append("booleans differ from the closed forms: %s" % wrong)
        elif cmd == "classify":
            fam = report["classification"]["family"]
            if fam != expect["family"]:
                problems.append("classified as %r, expected %r" % (fam, expect["family"]))
        elif abs(report["scalars"]["s"] - expect["s"]) > SCALAR_BOUND * expect["tol"]:
            problems.append("scalar s = %r, closed form %r" % (report["scalars"]["s"], expect["s"]))
        return problems

    return check


BUILDERS = {
    "dense-report": dense_report,
    "classify-sweep": classify_sweep,
    "battery": battery,
    "cli-spec": cli_spec,
}
