"""End-to-end checks of the command line surface.

Each test drives ``cli.main`` with a real argv, reads the report off
stdout or the output file, and asserts on the exit code contract.  The
acceptance battery itself is exercised in test_acceptance; here the
verify subcommand only runs single fast criteria.
"""

import dataclasses
import json

import numpy as np
import pytest

from liehermitian import cli, sampling
from liehermitian.errors import CrossCheckFailure, NotUnimodular, ParseError


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
    assert rep["structure"]["d_squared_residual"] == 0.0


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
    with pytest.warns(RuntimeWarning):
        code, rep = run_json(capsys, ["classify", path])
    assert code == 0
    assert rep["classification"]["family"] == "NotBTP"
    assert rep["classification"]["params"]["residual"] == pytest.approx(1.05)


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
