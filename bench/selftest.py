"""Smoke-size self-test of the benchmark, about ten seconds.

    python3 bench/selftest.py

Runs each workload's operations once on small inputs and requires that
every check passes on the true outputs and fails on a corrupted copy
(one boolean flipped, a wrong family, a changed parameter, a changed
byte).  It also checks that the span wrappers reach the names other
modules import directly and that they come off again.  Exits 0 when
everything holds, 1 otherwise.
"""

import copy
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import gauge  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wk  # noqa: E402

FAILURES = []
PASSED = [0]


def expect(cond, what):
    if cond:
        PASSED[0] += 1
    else:
        FAILURES.append(what)


def run_once(wl):
    """(op, output) for every operation, with the clean outputs checked."""
    outs = []
    for op in wl.ops:
        out = op.run()
        expect(op.check(out) == [], "%s: clean output rejected: %s" % (op.label, op.check(out)))
        outs.append((op, out))
    return outs


def rejected(op, out, what, needle):
    """The check must reject ``out`` for the reason that contains ``needle``."""
    problems = op.check(out)
    expect(any(needle in p for p in problems),
           "%s: corrupted output (%s) not rejected for it: %s" % (op.label, what, problems))


def flip(d, key):
    d = copy.deepcopy(d)
    d[key] = not d[key]
    return d


def test_dense():
    wl = wk.dense_report(7, slots=((4, "aa", True), (5, "herm", False)))
    for op, rep in run_once(wl):
        for key in ("kaehler", "gauduchon", "pluriclosed"):
            bad = dict(rep, properties=flip(rep["properties"], key))
            rejected(op, bad, "%s flipped" % key, "adapted frame")
        bad = dict(rep, properties=flip(rep["properties"], "balanced"))
        rejected(op, bad, "balanced flipped", "closed form and engine disagree")
        bad = dict(rep, scalars=dict(rep["scalars"], s=rep["scalars"]["s"] + 1e-3))
        rejected(op, bad, "s moved", "across frames")


def test_classify():
    wl = wk.classify_sweep(7, slots=(("v1", 3), ("v2", 4), ("v0", 5), ("w2", 5), ("aa", 4)),
                           fault_slots=())
    for op, out in run_once(wl):
        rejected(op, dict(out, family="v2" if out["family"] != "v2" else "v1"),
                 "family", "family ")
        params = out["params"]
        for name in ("v2", "p"):
            if name in params:
                bad = dict(out, params=dict(params, **{name: params[name] * 0.5}))
                rejected(op, bad, name, "%s = " % name)
        if "S" in params:
            bad = dict(out, params=dict(params, S=[s * 1.01 for s in params["S"]]))
            rejected(op, bad, "S", "S = ")
        if op.label.startswith("classify/w"):
            rejected(op, dict(out, params={"residual": 0.0}), "residual", "NotBTP with residual")
        rejected(op, dict(out, frame=out["frame"] * 1.001), "frame", "not unitary")


def test_battery():
    wl = wk.battery(7, numbers=(4, 13))
    for op, results in run_once(wl):
        r = results[0]
        rejected(op, [dataclasses.replace(r, passed=False)], "criterion failed", "failed")
        rejected(op, [dataclasses.replace(r, checks=0)], "no checks", "no checks")


def test_cli(in_process):
    calls = (("check", "general"), ("check", "almost_abelian"), ("classify", "btpv2"),
             ("tensors", "btpv0"), ("check", "general"))
    if not in_process:
        calls = calls[:1] + calls[-1:]
    wl = wk.cli_spec(7, calls=calls, in_process=in_process)
    try:
        outs = run_once(wl)
    finally:
        wl.close()
    for op, out in outs:
        report = json.loads(out.text)
        if "report" in report:
            for key in ("kaehler", "unimodular", "pluriclosed"):
                bad = copy.deepcopy(report)
                bad["report"]["properties"] = flip(bad["report"]["properties"], key)
                rejected(op, dataclasses.replace(out, text=_json(bad)), "%s flipped" % key,
                         "closed forms")
        if "classification" in report:
            bad = copy.deepcopy(report)
            bad["classification"]["family"] = "v1"
            rejected(op, dataclasses.replace(out, text=_json(bad)), "family", "classified as")
        if "scalars" in report:
            bad = copy.deepcopy(report)
            bad["scalars"]["s"] += 1e-3
            rejected(op, dataclasses.replace(out, text=_json(bad)), "scalar s", "closed form")
        rejected(op, dataclasses.replace(out, code=3), "exit code", "exit code")
        rejected(op, dataclasses.replace(out, text=out.text.replace(b"\n", b" \n", 1)),
                 "one byte more", "differs from an earlier run")


def _json(obj):
    import liehermitian.serial as serial
    return serial.canonical_json(obj).encode()


def test_spans():
    import liehermitian.cli as cli
    import liehermitian.codim2 as codim2
    import liehermitian.verify as verify

    before = (cli.aa_report, cli.classify_btp, verify.c2_report, codim2.make_algebra)
    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        expect(cli.classify_btp is not before[1] and verify.c2_report is not before[2]
               and codim2.make_algebra is not before[3],
               "names imported directly were not wrapped")
        wl = wk.dense_report(7, slots=((5, "diag", True),))
        with rec.span(wl.ops[0].label):
            wl.ops[0].run()
        classify = wk.classify_sweep(7, slots=(("v1", 3),), fault_slots=()).ops[0]
        classify.run()
    finally:
        uninstall()
    expect((cli.aa_report, cli.classify_btp, verify.c2_report, codim2.make_algebra) == before,
           "uninstall left wrappers behind")
    m = spans.layer_metrics(rec.spans, {wl.ops[0].label})
    expect(m["codim2.classify_btp_calls"] == 1 and m["codim2.classify_property_reports"] == 2,
           "classify_btp spans: %r" % m)
    expect(m["forms.ddbar_calls"] == 3 + 2 * 3 and m["hermitian.property_report_calls"] == 3,
           "span counts: %r" % m)
    expect(m["forms.exterior_d_calls"] >= 6 and m["forms.exterior_d_terms"] > 0,
           "exterior_d counts: %r" % m)
    expect(m["hermitian.property_report_self_s"] < m["hermitian.property_report_s"],
           "self time not below total")
    expect(m["trace.coverage_pct"] > 50.0, "coverage %r" % m["trace.coverage_pct"])
    expect(set(m) | {"cli.import_s", "cli.import_scipy_s", "trace.overhead_pct"}
           == set(spans.layer_units()), "unit table out of step with the metrics")


def test_importtime_parse():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:         5 |          5 |       inspect",
        "import time:        10 |         15 |     scipy._lib",
        "import time:        20 |         35 |   scipy",
        "import time:        30 |         30 |   scipy.linalg",
        "import time:        40 |        105 | liehermitian.codim2",
    ])
    expect(run.scipy_import_us(log) == 65, "scipy import parse gave %r" % run.scipy_import_us(log))


def test_interquartile_mean():
    got = run.interquartile_mean([0.1, 9.0, 0.2, 0.3, 0.4, 0.5, 0.01, math.inf])
    expect(abs(got - 0.35) < 1e-12, "interquartile mean of a known sample gave %r" % got)


def test_gauge():
    """Reference latencies on made-up timings: chunks inside an
    operation come off its time, and a machine at half speed (chunks
    twice the reference) halves the latency."""
    g = gauge.Gauge()
    ref = gauge.REF_CHUNK_S
    g.chunks = [(0.0, ref), (1.0, 2 * ref), (1.5, 2 * ref), (3.0, 2 * ref), (3.5, 2 * ref)]
    g.windows = [(0.5, 2.0 + 2 * ref), (2.5, 3.2)]
    got = g.reference_latencies()
    # The first operation holds two chunks and has a reference one before
    # it: speed (1 + 2 + 2) / 3.  The second holds one chunk and has slow
    # ones on either side: speed 2.
    want = [(1.5 + 2 * ref - 4 * ref) / (5 / 3), (0.7 - 2 * ref) / 2]
    expect(all(abs(a - b) < 1e-12 for a, b in zip(got, want)) and len(got) == 2,
           "reference latencies %r, expected %r" % (got, want))
    g = gauge.Gauge(lambda: None, 1.0, interval=None)
    g.after(0.0, 1.0)
    expect(len(g.chunks) == 1 and g.windows == [(0.0, 1.0)],
           "after() ran %d chunks" % len(g.chunks))


def main():
    for test in (test_dense, test_classify, test_battery, lambda: test_cli(True),
                 lambda: test_cli(False), test_spans, test_importtime_parse,
                 test_interquartile_mean, test_gauge):
        test()
    for f in FAILURES:
        print("FAIL", f)
    print("selftest: %d checks passed, %d failed" % (PASSED[0], len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
