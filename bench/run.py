"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of the repository:

    python3 bench/run.py --workload dense-report --seed 1 --seconds 15 --trace 0

The workloads are listed in ``bench/workloads.py`` and described in
``bench/README.md``.  With ``--trace 0`` the run times whole rounds of
the workload's operation list until ``--seconds`` have passed, with the
speed gauge of ``bench/gauge.py`` running alongside, and reports the
end-to-end metrics.  With ``--trace 1`` it times one round
with layer spans recorded, then untraced rounds for the rest of the
time, and reports the per-layer metrics with the tracing overhead.

The last line of standard output is the result object; a copy goes to
``bench/out/``.  The run exits 2 without a result when the package
source is missing.
"""

import os

# One BLAS and OpenMP thread: set before numpy loads, inherited by children.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters whose set-up is timed in each run; setup_s is their median.
SETUP_RUNS = 5
IMPORT_RUNS = 3
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import liehermitian.cli; "
                  "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure(ops, seconds, recorder=None, gauge=None):
    """Run whole rounds of ``ops`` until ``seconds`` have passed (at
    least one round).  Returns (samples, wall seconds), one sample
    (op, latency, output, error) per operation run.  With a ``gauge``,
    each operation's (start, end) goes to ``gauge.windows`` and gauge
    chunks follow it."""
    from liehermitian.errors import LieHermitianError

    samples = []
    start = perf_counter()
    while True:
        for op in ops:
            span = recorder.open(op.label) if recorder is not None else None
            t0 = perf_counter()
            try:
                out, err = op.run(), None
            except LieHermitianError as exc:
                out, err = None, exc
            t1 = perf_counter()
            if span is not None:
                recorder.close(span)
            samples.append((op, t1 - t0, out, err))
            if gauge is not None:
                gauge.after(t0, t1)
        if perf_counter() - start >= seconds:
            return samples, perf_counter() - start


def check_samples(samples):
    """Problems found in the outputs of the operations that did not fail."""
    problems = []
    for op, _, out, err in samples:
        if err is None:
            problems += ["%s: %s" % (op.label, p) for p in op.check(out)]
    return problems


def time_setup(workload, seed, env):
    """Seconds from starting a fresh interpreter until it reports that the
    workload's set-up is done."""
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-probe"]
    t0 = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed (exit %s)" % proc.returncode)
    return elapsed


def scipy_import_us(importtime_log):
    """Cumulative microseconds of the outermost scipy imports in an
    ``-X importtime`` log.  The log lists each module after the modules
    it imported, indented one step deeper, so reading it backwards
    visits every module before its children."""
    total = 0
    stack = []  # (depth, name) of the modules enclosing the current line
    for line in reversed(importtime_log.splitlines()):
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:
            continue  # the header line
        raw = parts[2]
        depth, name = len(raw) - len(raw.lstrip()), raw.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        if name.split(".")[0] == "scipy" and not any(
                n.split(".")[0] == "scipy" for _, n in stack):
            total += cumulative
        stack.append((depth, name))
    return total


def time_import(env):
    """(seconds to import liehermitian.cli, seconds of it spent on scipy)
    in a fresh interpreter."""
    r = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_SNIPPET],
                       capture_output=True, env=env, cwd=ROOT, check=True, timeout=120)
    return float(r.stdout), scipy_import_us(r.stderr.decode()) / 1e6


def interquartile_mean(latencies):
    """Mean of the middle half of the latencies, the quarter fastest and
    the quarter slowest left out."""
    lat = sorted(latencies)
    cut = len(lat) // 4
    return statistics.fmean(lat[cut:len(lat) - cut])


def untraced(args, workloads, env):
    """End-to-end metrics, and wall-clock figures that are printed but
    not reported (the reference-second ones divide the machine's drift
    out of them)."""
    setups = [time_setup(args.workload, args.seed, env) for _ in range(SETUP_RUNS)]
    wl = workloads.BUILDERS[args.workload](args.seed)
    g = gauge.for_workload(wl.child_processes, env)
    try:
        g.start()
        try:
            samples, wall = measure(wl.ops, args.seconds, gauge=g)
        finally:
            g.stop()
        if wl.child_processes:
            peak_kb = max(out.rss_kb for _, _, out, err in samples if err is None)
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        problems = check_samples(samples)
    finally:
        wl.close()
    failed = sum(err is not None for _, _, _, err in samples)
    ref = g.reference_latencies()
    # A failed operation counts as infinitely slow, so it falls in the
    # slowest quarter, which the interquartile mean leaves out.
    ref_lat = [math.inf if err is not None else r for (_, _, _, err), r in zip(samples, ref)]
    wall_lat = [math.inf if err is not None else dt for _, dt, _, err in samples]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_ref_s": ((len(samples) - failed) / sum(ref), "1/ref_s"),
        "op_iqm_ref_s": (interquartile_mean(ref_lat), "ref_s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    wall_figures = {
        "wall.ops_per_s": ((len(samples) - failed) / wall, "1/s"),
        "wall.op_iqm_s": (interquartile_mean(wall_lat), "s"),
        "gauge.chunk_over_ref": (g.speed(), "x"),
        "gauge.chunks": (len(g.chunks), "count"),
    }
    return samples, problems, metrics, wall_figures, g


def traced(args, workloads, env):
    """Layer figures from set-up plus one traced round.  Untraced and
    traced rounds then alternate until ``--seconds`` have passed; the
    overhead compares their median round times."""
    import spans

    rec = spans.Recorder()
    uninstall = spans.install(rec)
    try:
        build = workloads.BUILDERS[args.workload]
        kwargs = {"in_process": True} if args.workload == "cli-spec" else {}
        with rec.span("setup"):
            wl = build(args.seed, recorder=rec, **kwargs)
        try:
            samples, wall = measure(wl.ops, 0.0, rec)
        except BaseException:
            wl.close()
            raise
    finally:
        uninstall()
    traced_walls, plain_walls = [wall], []
    try:
        while True:
            more, wall = measure(wl.ops, 0.0)
            samples += more
            plain_walls.append(wall)
            if sum(traced_walls) + sum(plain_walls) >= args.seconds:
                break
            scratch = spans.Recorder()  # timed like rec, figures not kept
            uninstall = spans.install(scratch)
            try:
                more, wall = measure(wl.ops, 0.0, scratch)
            finally:
                uninstall()
            samples += more
            traced_walls.append(wall)
        problems = check_samples(samples)
    finally:
        wl.close()
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    rec.dump(workloads.OUT / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)))

    layers = spans.layer_metrics(rec.spans, {op.label for op in wl.ops})
    imports = [time_import(env) for _ in range(IMPORT_RUNS)]
    layers["cli.import_s"] = statistics.median(t for t, _ in imports)
    layers["cli.import_scipy_s"] = statistics.median(s for _, s in imports)
    layers["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0)
    units = spans.layer_units()
    metrics = {name: (value, units[name]) for name, value in layers.items()}
    return samples, problems, metrics, {}, None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "liehermitian" / "__init__.py").is_file():
        sys.stderr.write("bench: no package source at %s\n" % SRC)
        return 2
    # One CPU for this process and its children: the gauge then reads
    # the speed of the CPU the operations, child processes included, run on.
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[-1:])
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        sys.stderr.write("bench: unknown workload %r; choose from %s\n"
                         % (args.workload, ", ".join(workloads.BUILDERS)))
        return 2
    if args.setup_probe:
        wl = workloads.BUILDERS[args.workload](args.seed)
        print("ready", flush=True)
        wl.close()
        return 0

    env = workloads.child_env()
    run = traced if args.trace else untraced
    samples, problems, metrics, wall_figures, gauge_data = run(args, workloads, env)
    failed = sum(err is not None for _, _, _, err in samples)
    for p in problems[:20]:
        sys.stderr.write("bench: check failed: %s\n" % p)
    for op, _, _, err in samples:
        if err is not None:
            sys.stderr.write("bench: failed: %s: %s: %s\n" % (op.label, type(err).__name__, err))
            break
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    for name, (value, unit) in list(metrics.items()) + list(wall_figures.items()):
        print("%-36s %14.6g %s" % (name, value, unit))
    print("attempted %d, failed %d, correct %s" % (len(samples), failed, not problems))
    line = json.dumps(result)
    workloads.OUT.mkdir(parents=True, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    (workloads.OUT / ("result-%s.json" % stem)).write_text(line + "\n")
    (workloads.OUT / ("latencies-%s.json" % stem)).write_text(json.dumps(
        [[op.label, None if err is not None else dt] for op, dt, _, err in samples]) + "\n")
    if gauge_data is not None:
        gauge_data.dump(workloads.OUT / ("gauge-%s.json" % stem))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
