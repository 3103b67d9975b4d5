"""End-to-end checks of the command line surface.

Each test drives ``cli.main`` with a real argv, reads the report off
stdout or the output file, and asserts on the exit code contract.  The
acceptance battery itself is exercised in test_acceptance; here the
verify subcommand only runs single fast criteria.
"""

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from liehermitian import algebra, cli, codim2, hermitian, sampling, serial, verify
from liehermitian.algebra import change_frame, max_abs
from liehermitian.almost_abelian import build_almost_abelian
from liehermitian.codim2 import build_codim2, classify_btp, from_almost_abelian
from liehermitian.errors import CrossCheckFailure, NotUnimodular, ParseError

SRC = Path(__file__).resolve().parent.parent / "src"


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def btpv1_spec():
    return {"schema": "lie-hermitian/v1", "n": 3, "family": "btpv1",
            "payload": {"v2": 1.0, "a": [[0.0, 1.0]]}}


def abelian_spec(n=3):
    return {"schema": "lie-hermitian/v1", "n": n, "family": "general",
            "payload": {"C": [], "D": []}}


def aa_spec():
    return {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
            "payload": {"lambda": 1.0, "v": [[0.0, 0.0]],
                        "A": [[[-0.5, 0.0]]]}}


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# -------------------------------------------------------------------- check


def test_check_btpv1(tmp_path, capsys):
    path = write(tmp_path, "v1.json", btpv1_spec())
    code, rep = run_json(capsys, ["check", path])
    assert code == 0
    assert rep["report"]["properties"]["btp"] is True
    assert rep["report"]["properties"]["bkl"] is True
    assert rep["family"] == "btpv1"
    assert rep["input"]["n"] == 3


def test_check_abelian_is_kaehler(tmp_path, capsys):
    path = write(tmp_path, "ab.json", abelian_spec())
    code, rep = run_json(capsys, ["check", path])
    assert code == 0
    assert rep["report"]["properties"]["kaehler"] is True
    assert rep["structure"]["jacobi_residual"] == 0.0


def test_check_text_format(tmp_path, capsys):
    path = write(tmp_path, "ab.json", abelian_spec())
    code = cli.main(["check", path, "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert "report.properties.kaehler: yes" in out


def test_check_output_file(tmp_path, capsys):
    path = write(tmp_path, "ab.json", abelian_spec())
    dest = tmp_path / "rep.json"
    assert cli.main(["check", path, "--output", str(dest)]) == 0
    assert json.loads(dest.read_text())["family"] == "general"


def test_check_reports_are_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "v1.json", btpv1_spec())
    cli.main(["check", path])
    first = capsys.readouterr().out
    cli.main(["check", path])
    second = capsys.readouterr().out
    assert first == second


def count_calls(monkeypatch, module, name):
    """Count the calls of ``module.name`` under every liehermitian module
    attribute that refers to it; returns the list that grows per call."""
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("liehermitian")
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(mod, name, counted)
    return calls


def keys_of(obj):
    if isinstance(obj, dict):
        return set(obj).union(*(keys_of(v) for v in obj.values()))
    if isinstance(obj, list):
        return set().union(*(keys_of(v) for v in obj))
    return set()


def codim2_spec():
    d = sampling.c2_random(sampling.rng_for(607, 0), 4, unimodular=True)
    return serial.spec_from_data(d)


@pytest.mark.parametrize("spec", [aa_spec, codim2_spec, btpv1_spec, abelian_spec])
def test_check_builds_once_and_emits_no_algebra(tmp_path, capsys, monkeypatch, spec):
    path = write(tmp_path, "spec.json", spec())
    builds = count_calls(monkeypatch, algebra, "make_algebra")
    reports = count_calls(monkeypatch, hermitian, "property_report")
    code, rep = run_json(capsys, ["check", path])
    assert code == 0
    assert (len(builds), len(reports)) == (1, 1)
    assert "algebra" not in keys_of(rep)


@pytest.mark.parametrize("spec", [aa_spec, codim2_spec])
def test_check_writes_the_engine_report_once(tmp_path, capsys, spec):
    path = write(tmp_path, "spec.json", spec())
    code, rep = run_json(capsys, ["check", path])
    assert code == 0
    _, data = serial.materialize(serial.load_spec(path))
    engine = serial.canonical_json(serial.jsonable(hermitian.property_report(data.build())))
    assert rep["report"] == json.loads(engine)
    assert "engine" not in rep["family_report"]
    assert {"family", "n", "tol", "properties", "residuals", "scalars"} <= set(rep["family_report"])
    assert set(rep["structure"]) == {"jacobi_residual", "unimodularity_defect",
                                     "curvature_hermitian_residual"}
    code, tensors = run_json(capsys, ["tensors", path])
    assert code == 0 and tensors["structure"] == rep["structure"]


def test_criterion_10_builds_each_draw_once(monkeypatch):
    # one build per draw plus one per flat normal form reconstructed
    builds = count_calls(monkeypatch, algebra, "make_algebra")
    res = verify.criterion_10(verify.DEFAULT_SEED, count=20)
    assert res.passed
    assert len(builds) == 22


def test_check_malformed_spec_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"schema": "lie-hermitian/v1"}')
    code = cli.main(["check", str(p)])
    err = capsys.readouterr().err
    assert code == 2
    assert json.loads(err)["error"] == "ParseError"


def test_check_non_integrable_exits_3_with_residuals(tmp_path, capsys):
    spec = {"schema": "lie-hermitian/v1", "n": 3, "family": "codim2",
            "payload": {"lambda": 1.0,
                        "v": [[0.0, 0.0], [0.0, 0.0]],
                        "X": [[[1.0, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [0.0, 0.0]]],
                        "Y": [[[0.0, 0.0], [1.0, 0.0]],
                              [[0.0, 0.0], [0.0, 0.0]]],
                        "Z": [[[0.0, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [1.0, 0.0]]]}}
    path = write(tmp_path, "ni.json", spec)
    code = cli.main(["check", path])
    err = capsys.readouterr().err
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "IntegrabilityViolation"
    assert "residuals" in payload


def non_jacobi_spec():
    # [e1, e2] = e2 and [e2, e3] = e1 alone violate the Jacobi identity
    return {"schema": "lie-hermitian/v1", "n": 3, "family": "general",
            "payload": {"C": [{"j": 2, "i": 1, "k": 2, "v": [1.0, 0.0]},
                              {"j": 1, "i": 2, "k": 3, "v": [1.0, 0.0]}],
                        "D": []}}


@pytest.mark.parametrize("command", ["check", "tensors"])
def test_non_jacobi_spec_exits_3(tmp_path, capsys, command):
    path = write(tmp_path, "nj.json", non_jacobi_spec())
    code = cli.main([command, path])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert json.loads(captured.err)["error"] == "InvalidAlgebra"


def test_exit_code_table():
    assert cli.exit_code_for(ParseError("x")) == 2
    assert cli.exit_code_for(NotUnimodular("x")) == 3
    assert cli.exit_code_for(CrossCheckFailure("x")) == 4


def _svd_fails(*args, **kwargs):
    raise np.linalg.LinAlgError("SVD did not converge")


@pytest.mark.parametrize("target, name, stub, error", [
    # a Chern scalar with a large imaginary part makes _realpart raise
    (hermitian, "chern_scalar", lambda R: 1e3j, "ArithmeticError"),
    # the lower central series of the nilpotency cross-check runs an SVD
    (np.linalg, "svd", _svd_fails, "LinAlgError"),
], ids=["arithmetic", "linalg"])
def test_numeric_failures_exit_1_with_json(tmp_path, capsys, monkeypatch,
                                           target, name, stub, error):
    monkeypatch.setattr(target, name, stub)
    path = write(tmp_path, "aa.json", aa_spec())
    code = cli.main(["check", path])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OTHER == 1
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == error
    assert payload["message"]


def overflow_specs():
    # lambda, v and A of order 1e200: every Jacobi residual is NaN
    aa = {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
          "payload": {"lambda": 1e200, "v": [[1e200, 0.0]], "A": [[[-5e199, 0.0]]]}}
    # a finite Jacobi residual, but curvature and residuals overflow
    general = {"schema": "lie-hermitian/v1", "n": 3, "family": "general",
               "payload": {"C": [{"j": 1, "i": 2, "k": 3, "v": [1e200, 0.0]}],
                           "D": [{"j": 2, "i": 1, "k": 3, "v": [1e200, 0.0]}]}}
    return {"almost_abelian": aa, "general": general}


@pytest.mark.parametrize("family, command, code, error", [
    ("almost_abelian", "check", 3, "InvalidAlgebra"),
    ("almost_abelian", "tensors", 3, "InvalidAlgebra"),
    ("almost_abelian", "classify", 3, "IntegrabilityViolation"),
    ("general", "check", 1, "NonFiniteValue"),
    ("general", "tensors", 1, "NonFiniteValue"),
    ("general", "classify", 2, "ParameterDomain"),
])
def test_overflowing_specs_exit_with_json_error(tmp_path, capsys, family, command,
                                                code, error):
    path = write(tmp_path, "big.json", overflow_specs()[family])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([command, path]) == code
    # a warning would reach stderr ahead of the JSON error
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == error
    if error == "IntegrabilityViolation":
        # the NaN residual matrices cannot ride along in JSON
        assert payload["residuals"] is None


@pytest.mark.parametrize("command", ["check", "tensors", "classify"])
def test_unwritable_output_exits_1_with_json(tmp_path, capsys, command):
    path = write(tmp_path, "v1.json", btpv1_spec())
    dest = tmp_path / "missing" / "x.json"
    code = cli.main([command, path, "--output", str(dest)])
    captured = capsys.readouterr()
    assert code == cli.EXIT_OTHER == 1
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "FileNotFoundError"
    assert str(dest) in payload["message"]
    assert not dest.parent.exists()


def test_check_and_classify_load_no_scipy(tmp_path):
    # the package has no scipy dependency: neither a fresh `check` nor a
    # fresh `classify` process loads it
    rng = sampling.rng_for(606, 0)
    d = sampling.c2_hermitian_pair(rng, 4, unimodular=True)
    dense = change_frame(build_codim2(d), sampling.random_unitary(rng, 4))
    general = write(tmp_path, "general.json",
                    serial.jsonable(serial.spec_from_data(dense)))
    v1 = write(tmp_path, "v1.json", btpv1_spec())
    script = textwrap.dedent("""
        import json, sys
        from liehermitian import cli
        general, v1, out = sys.argv[1:]
        assert cli.main(["check", general, "--output", out]) == 0
        assert cli.main(["classify", v1, "--output", out]) == 0
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-c", script, general, v1, str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == []
    assert json.loads(out.read_text())["classification"]["family"] == "v1"


# ------------------------------------------------------------------ tensors


def test_tensors_frozen_curvature_entry(tmp_path, capsys):
    path = write(tmp_path, "aa.json", aa_spec())
    code, rep = run_json(capsys, ["tensors", path])
    assert code == 0
    entry = [e for e in rep["sparse"]["curvature"]
             if (e["j"], e["i"], e["k"], e["l"]) == (1, 1, 1, 1)]
    assert entry and entry[0]["v"] == [-2.0, 0.0]
    assert rep["scalars"]["s"] == -1.0
    assert "torsion_trace" in rep["vectors"]
    assert "connection_trace" in rep["vectors"]


def test_tensors_abelian_empty(tmp_path, capsys):
    path = write(tmp_path, "ab.json", abelian_spec())
    code, rep = run_json(capsys, ["tensors", path])
    assert code == 0
    assert rep["sparse"]["C"] == []
    assert rep["sparse"]["torsion"] == []
    assert rep["sparse"]["curvature"] == []


# ----------------------------------------------------------------- classify


def test_classify_btpv1(tmp_path, capsys):
    path = write(tmp_path, "v1.json", btpv1_spec())
    code, rep = run_json(capsys, ["classify", path])
    assert code == 0
    assert rep["classification"]["family"] == "v1"
    assert rep["classification"]["params"]["v2"] == pytest.approx(1.0)


def test_classify_almost_abelian_embeds(tmp_path, capsys):
    # Kaehler flat input classifies as Kaehler through the embedding.
    spec = {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
            "payload": {"lambda": 0.0, "v": [[0.0, 0.0]],
                        "A": [[[0.0, 0.0]]]}}
    path = write(tmp_path, "aak.json", spec)
    code, rep = run_json(capsys, ["classify", path])
    assert code == 0
    assert rep["classification"]["family"] == "Kahler"


def test_classify_almost_abelian_negative_lambda(tmp_path, capsys):
    # the unitary frame change diag(-1, 1, ..., 1) maps (lam, v, A) to
    # (-lam, v, -A); classify answers for lam < 0, and its frame carries
    # the input algebra to the normal form of the flipped data
    d = sampling.aa_random(sampling.rng_for(101, 1), 5, unimodular=True)
    assert d.lam < 0.0
    path = write(tmp_path, "aa.json", serial.jsonable(serial.spec_from_data(d)))
    code, rep = run_json(capsys, ["classify", path])
    assert code == 0
    flipped = from_almost_abelian(dataclasses.replace(d, lam=-d.lam, A=-d.A))
    out = classify_btp(flipped)
    got = rep["classification"]
    assert got["family"] == out["family"]
    frame = np.array(got["frame"])
    moved = change_frame(build_almost_abelian(d), frame[..., 0] + 1j * frame[..., 1])
    normal = change_frame(build_codim2(flipped), out["frame"])
    assert max_abs(moved.C - normal.C) <= 1e-12
    assert max_abs(moved.D - normal.D) <= 1e-12


def test_classify_general_rejected(tmp_path, capsys):
    path = write(tmp_path, "ab.json", abelian_spec())
    code = cli.main(["classify", path])
    capsys.readouterr()
    assert code == 2


def test_classify_non_unimodular_exits_3(tmp_path, capsys):
    spec = {"schema": "lie-hermitian/v1", "n": 2, "family": "almost_abelian",
            "payload": {"lambda": 1.0, "v": [[0.0, 0.0]],
                        "A": [[[1.0, 0.0]]]}}
    path = write(tmp_path, "nu.json", spec)
    code = cli.main(["classify", path])
    err = capsys.readouterr().err
    assert code == 3
    assert json.loads(err)["error"] == "NotUnimodular"


def test_classify_not_btp_is_exit_zero(tmp_path, capsys):
    # rank-two paired blocks: a valid negative answer
    spec = {"schema": "lie-hermitian/v1", "n": 5, "family": "btpv0",
            "payload": {"r": 2, "S": [1.5, 0.7],
                        "W": [[[1.0, 0.0], [0.0, 0.0]],
                              [[0.0, 0.0], [1.0, 0.0]]],
                        "a": []}}
    path = write(tmp_path, "r2.json", spec)
    code = cli.main(["classify", path])
    captured = capsys.readouterr()
    assert code == 0
    # n = 2r + 1 leaves the diagonal tail empty, which is valid input
    assert captured.err == ""
    rep = json.loads(captured.out)
    assert rep["classification"]["family"] == "NotBTP"
    assert rep["classification"]["params"]["residual"] == pytest.approx(1.05)


def test_empty_tail_rank_one_spec_is_quiet(tmp_path):
    # n = 3, r = 1: the rank-one paired blocks fill the ideal, valid and
    # torsion-parallel; a fresh interpreter prints no warning for it
    spec = {"schema": "lie-hermitian/v1", "n": 3, "family": "btpv0",
            "payload": {"r": 1, "S": [1.2], "W": [[[0.6, 0.8]]], "a": []}}
    path = write(tmp_path, "r1.json", spec)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for command in ("check", "classify"):
        proc = subprocess.run([sys.executable, "-m", "liehermitian.cli", command, path],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        assert proc.stderr == ""
        rep = json.loads(proc.stdout)
        if command == "check":
            assert rep["report"]["properties"]["btp"] is True
        else:
            assert rep["classification"]["family"] == "v0"


def _normal_form_draw(kind, n, rng):
    if kind != "v0":
        return sampling.c2_generator(rng, n, kind=kind)
    S, W = sampling.grouped_singular_data(rng, 1)
    return codim2.make_btpv0(n, 1, S, W, sampling.cgauss(rng, n - 3))


@pytest.mark.parametrize("kind", ["v1", "v2", "v0"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_classified_params_round_trip_as_spec(tmp_path, capsys, kind, n):
    # the params classify reports are the payload of the btp<family> spec,
    # which is the contract classify_btp's rebuild rests on
    rng = sampling.rng_for(612, 10 * n + ("v1", "v2", "v0").index(kind))
    scrambled = sampling.c2_scramble(rng, _normal_form_draw(kind, n, rng))
    path = write(tmp_path, "in.json", serial.jsonable(serial.spec_from_data(scrambled)))
    code, rep = run_json(capsys, ["classify", path])
    assert code == 0
    out = rep["classification"]
    assert out["family"] == kind
    spec = {"schema": "lie-hermitian/v1", "n": n, "family": "btp" + kind,
            "payload": out["params"]}
    family, data = serial.materialize(serial.validate_spec(spec))
    assert family == "btp" + kind
    back = write(tmp_path, "back.json", spec)
    code, checked_in = run_json(capsys, ["check", path])
    assert code == 0
    code, checked_back = run_json(capsys, ["check", back])
    assert code == 0
    assert checked_back["report"]["properties"] == checked_in["report"]["properties"]
    assert checked_in["report"]["properties"]["btp"] is True


# ------------------------------------------------------------------- sample


def test_sample_exit_zero_and_deterministic(tmp_path, capsys):
    argv = ["sample", "almost_abelian", "--count", "8", "--seed", "7"]
    code, rep = run_json(capsys, argv)
    assert code == 0
    assert rep["generator"].startswith("numpy PCG64")
    assert rep["tallies"]["cross_check"]["pass"] == 8
    code2, rep2 = run_json(capsys, argv)
    assert rep == rep2


def test_sample_failures_are_data_with_repro_files(tmp_path, capsys, monkeypatch):
    # A v1 draw with its coupling vector pushed off the torsion-parallel
    # locus: still integrable, but no longer parallel.
    drawn = sampling.c2_generator

    def off_locus(rng, n, kind=None):
        d = drawn(rng, n, kind=kind)
        return dataclasses.replace(d, v=d.v + 0.5 * np.eye(n - 1)[1])

    monkeypatch.setattr(sampling, "c2_generator", off_locus)
    monkeypatch.chdir(tmp_path)
    code, rep = run_json(capsys, ["sample", "btpv1", "--count", "2",
                                  "--seed", "1"])
    assert code == 0
    assert rep["failures"]
    first = rep["failures"][0]
    assert "torsion_parallel" in first["failed"]
    assert first["spec"]["family"] == "codim2"
    fname = rep["failure_files"][0]
    # the emitted file reproduces the finding through the check command
    code2, rep2 = run_json(capsys, ["check", fname])
    assert code2 == 0
    assert rep2["report"]["properties"]["btp"] is False
    assert rep2["report"]["properties"]["unimodular"] is True


def test_sample_btpv0_counts_rank_two_as_refuted_witness(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, rep = run_json(capsys, ["sample", "btpv0", "--count", "5",
                                  "--seed", "1"])
    assert code == 0
    assert rep["failures"] == [] and rep["failure_files"] == []
    # index 4 draws block rank two: the obstruction witness, refuted
    assert rep["tallies"]["rank_obstruction"] == {"pass": 1, "fail": 0}
    assert rep["tallies"]["torsion_parallel"] == {"pass": 4, "fail": 0}
    assert rep["tallies"]["classify_roundtrip"] == {"pass": 5, "fail": 0}


@pytest.mark.parametrize("report", ["aa_report", "c2_report"])
def test_sample_builds_each_draw_once(tmp_path, capsys, monkeypatch, report):
    # a draw takes its algebra from its report; only a draw whose report
    # raises CrossCheckFailure builds it apart
    monkeypatch.chdir(tmp_path)
    family = {"aa_report": "almost_abelian", "c2_report": "codim2"}[report]
    made, calls = algebra.make_algebra, []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return made(*args, **kwargs)

    monkeypatch.setattr(algebra, "make_algebra", counted)
    monkeypatch.setattr(codim2, "make_algebra", counted)
    code, rep = run_json(capsys, ["sample", family, "--count", "6", "--seed", "1"])
    assert code == 0 and rep["tallies"]["cross_check"] == {"pass": 6, "fail": 0}
    assert len(calls) == 6

    def refused(d):
        raise CrossCheckFailure("refused before building")

    calls.clear()
    monkeypatch.setattr(cli, report, refused)
    code, rep = run_json(capsys, ["sample", family, "--count", "6", "--seed", "1"])
    assert code == 0 and rep["tallies"]["cross_check"] == {"pass": 0, "fail": 6}
    assert rep["tallies"]["jacobi"] == {"pass": 6, "fail": 0}
    assert len(calls) == 6


@pytest.mark.parametrize("argv", [["sample", "general"], ["verify"]])
def test_tol_is_not_a_flag_of_sample_or_verify(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv + ["--tol", "1e-3"])
    assert info.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_sample_count_must_be_positive(capsys):
    code = cli.main(["sample", "general", "--count", "0"])
    capsys.readouterr()
    assert code == 2


# ------------------------------------------------------------------- verify


def test_verify_single_criterion(capsys):
    code = cli.main(["verify", "--filter", "duality", "--format", "text"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("PASS criterion-1 duality")
    assert "1/1 criteria pass" in out


def test_verify_json_structure(capsys):
    code, rep = cli.main(["verify", "--filter", "gauduchon"]), None
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert code == 0
    assert rep["passed"] is True
    assert rep["results"][0]["slug"] == "gauduchon"
    assert rep["results"][0]["checks"] > 0


def test_verify_filter_matching_nothing_exits_2(capsys):
    code = cli.main(["verify", "--filter", "nomatch"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_PARSE == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "ParameterDomain"
    assert "nomatch" in payload["message"]
