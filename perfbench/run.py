"""oaramp benchmark: three workloads, each checked against recorded outputs.

Run from the repository root:

    python3 perfbench/run.py --workload construct-verify --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` alternates untraced and traced passes, reports the per-layer
metrics, the tracing overhead and the work counts, counts field operations
in an untimed pass, and writes the spans to ``perfbench/out/``.  Every run
prints its metrics as readable lines, then one JSON line.  The program is
imported from ``src/`` in process, single-threaded, with one closed-loop
client.  ``--record`` rewrites ``expected.json`` from the current program;
run it only on a commit whose output is known to be right.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from contextlib import redirect_stderr
from io import StringIO
from pathlib import Path
from typing import NamedTuple

import jobs as J
from spans import GFCounter, Tracer, records, summarize

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
PASS_WORKLOADS = {"construct-verify": J.construct_verify_jobs, "ramp-audit": J.ramp_audit_jobs}
WORKLOADS = (*PASS_WORKLOADS, "deal-reconstruct")
SETUPS = {"construct-verify": 9, "ramp-audit": 9, "deal-reconstruct": 5}
BATCH = 100  # deal-reconstruct requests between checks of the clock
MIN_PASSES = 10
REFERENCE_ROWS = 10_000  # about 5 ms on a 2-vCPU Xeon host
perf = time.perf_counter


def load_program():
    """Import oaramp afresh from src/ and return its modules."""
    for name in [m for m in sys.modules if m == "oaramp" or m.startswith("oaramp.")]:
        del sys.modules[name]
    pkg = importlib.import_module("oaramp")
    mods = {n: importlib.import_module(f"oaramp.{n}")
            for n in ("gf", "linalg", "designs", "ramp", "cli")}
    return types.SimpleNamespace(modules=[pkg, *mods.values()], **mods)


@functools.cache
def reference_rows() -> list[tuple[int, ...]]:
    rng = random.Random(0)
    return [tuple(rng.randrange(11) for _ in range(8)) for _ in range(REFERENCE_ROWS)]


def reference() -> float:
    """Seconds for a fixed pure-Python loop of the benchmark's own: group
    rows by a prefix, with the tuple slicing, hashing and dict and list
    growth that the program's verifiers and audit do.

    The benchmark runs it after every job or request, so it sees the same
    host conditions as the program.  On a shared host other tenants slow
    whole runs by up to about 1.8x, for stretches of seconds to minutes, and
    a median, mean or low quantile of wall times follows them; the ratio of
    the program's time to this loop's time, summed over a run, does not.
    """
    rows = reference_rows()
    t0 = perf()
    groups: dict[tuple[int, ...], list[int]] = {}
    for row in rows:
        groups.setdefault(row[:3], []).append(row[7])
    return perf() - t0


def pass_cost(pass_seconds: float, refs: list[float]) -> tuple[float, str]:
    """A pass's mean time in reference loops, with a note giving both times."""
    ref = statistics.mean(refs)
    return pass_seconds / ref, (f"mean pass {pass_seconds * 1e3:.4g} ms / mean reference "
                                f"{ref * 1e3:.4g} ms ({len(refs)} reference loops)")


# ---------------------------------------------------------------------------
# pass workloads: construct-verify, ramp-audit


def run_stage(prog, argv, stdin):
    """Run one stage in process; returns (exit code, stdout, stderr, seconds)."""
    if argv == ("lib", "verify_mds"):
        t0 = perf()
        ok = prog.designs.verify_mds(prog.designs.load_array(stdin))
        dt = perf() - t0
        return (0 if ok else 1), f"{ok}\n", "", dt
    out, err = StringIO(), StringIO()
    with redirect_stderr(err):
        t0 = perf()
        code = prog.cli.main(list(argv), StringIO(stdin), out)
        dt = perf() - t0
    return code, out.getvalue(), err.getvalue(), dt


def run_job(prog, job, seed, stdin, hasher=None):
    """Run a job's stages, each stage's stdout shuffled into the next one's
    stdin.  Returns (stages, seconds, work): (exit code, stdout, stderr) per
    stage that ran, the summed stage time, and the planned work."""
    stages, secs, work = [], 0.0, []
    gc.collect()
    for i, argv in enumerate(job.stages):
        if i:
            stdin = J.shuffle_rows(stages[-1][1], J.job_rng(seed, job.name, i))
        if hasher:
            hasher.update(repr(argv).encode() + stdin.encode())
        work += J.stage_work(argv, stdin.split("\n", 1)[0].split() if stdin else None)
        code, out, err, dt = run_stage(prog, argv, stdin)
        secs += dt
        stages.append((code, out, err))
        if code != 0:
            break
    return stages, secs, work


class JobRun(NamedTuple):
    job: J.Job
    seconds: float
    traced_seconds: float | None
    stages: list  # (exit code, stdout, stderr) per stage, untraced run
    problems: list[str]
    work: dict


def run_pass(prog, jobs, seed, expected, tracer=None, hasher=None, refs=None) -> list[JobRun]:
    """One pass over the job list.  With a tracer each job also runs traced,
    back to back with its untraced run so both see the same machine
    conditions, and first on every other job so neither gains from running
    second.  With a ``refs`` list, the reference loop runs after each job and
    its time is appended."""
    firsts: dict[str, str] = {}
    results = []
    for index, job in enumerate(jobs):
        stdin, cor = "", None
        if job.source:
            stdin = firsts[job.source]
            if job.corrupt:
                stdin, cor = J.corrupt_cell(stdin, J.job_rng(seed, job.name, "cell"))
            stdin = J.shuffle_rows(stdin, J.job_rng(seed, job.name, 0))
        modes = ((False, True) if index % 2 == 0 else (True, False)) if tracer else (False,)
        runs = {}
        for traced in modes:
            if traced:
                tracer.op = f"{job.name}@{len(tracer.spans)}"
                tracer.install(prog)
            try:
                runs[traced] = run_job(prog, job, seed, stdin, None if traced else hasher)
            finally:
                if traced:
                    tracer.uninstall()
        if refs is not None:
            refs.append(reference())
        stages, secs, work = runs[False]
        problems = J.check_job(job, stages, expected, cor)
        traced_secs = None
        if tracer:
            traced_stages, traced_secs, _ = runs[True]
            problems += J.check_job(job, traced_stages, expected, cor)
        firsts[job.name] = stages[0][1]
        cap = int(job.stages[0][1]) if job.stages[0][0] == "--max-cells" else J.CELL_CAP
        results.append(JobRun(job, secs, traced_secs, stages, problems,
                              J.work_summary(work, cap)))
    return results


class Tally:
    """Operations attempted and failed, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems


def passes_loop(run_one, seconds, minimum):
    """Call ``run_one(i)`` until another pass of median length would overrun."""
    t_start, lengths = perf(), []
    while True:
        p0 = perf()
        run_one(len(lengths))
        lengths.append(perf() - p0)
        elapsed = perf() - t_start
        if len(lengths) >= minimum and elapsed + statistics.median(lengths) > seconds:
            return


def timed_pass_workload(args, expected, size="full"):
    setups = []
    for _ in range(SETUPS[args.workload]):
        t0 = perf()
        prog = load_program()
        jobs = PASS_WORKLOADS[args.workload](size)
        setups.append(perf() - t0)
    tally, passes, refs = Tally(), [], []
    for r in run_pass(prog, jobs, args.seed, expected, refs=[]):  # warm-up, untimed
        tally.add(r.problems)

    def one(_):
        results = run_pass(prog, jobs, args.seed, expected, refs=refs)
        passes.append(sum(r.seconds for r in results))
        for r in results:
            tally.add(r.problems)

    passes_loop(one, args.seconds, MIN_PASSES)
    cost, note = pass_cost(statistics.mean(passes), refs)
    metrics = {"setup_s": statistics.median(setups), "pass_cost": cost}
    notes = {"setup_s": f"median of {len(setups)} fresh imports",
             "pass_cost": f"{note}; {len(passes)} passes of {len(jobs)} jobs"}
    return metrics, notes, tally


def traced_pass_workload(args, expected, size="full"):
    prog = load_program()
    jobs = PASS_WORKLOADS[args.workload](size)
    tracer, tally = Tracer(), Tally()
    plain, traced = [], []

    def one(_):
        for r in run_pass(prog, jobs, args.seed, expected, tracer):
            plain.append(r.seconds)
            traced.append(r.traced_seconds)
            tally.add(r.problems)

    passes_loop(one, args.seconds, 1)
    metrics = summarize(tracer.spans, len(plain) // len(jobs))
    metrics["trace.overhead_pct"] = (sum(traced) / sum(plain) - 1) * 100

    hasher = hashlib.sha256(f"{args.workload}:{size}".encode())
    with GFCounter(prog.gf.GF) as counter:
        results = run_pass(prog, jobs, args.seed, expected, hasher=hasher)
    for r in results:
        tally.add(r.problems)
    work = {r.job.name: r.work for r in results}
    return metrics, tally, tracer.spans, work, counter.counts, hasher


# ---------------------------------------------------------------------------
# deal-reconstruct


def build_scheme(prog, p):
    """Shamir scheme through the array pipeline: shamir_matrix -> linear_aoa ->
    dump_array -> load_array -> scheme_from_aoa."""
    d = prog.designs
    field = prog.gf.field_for_order(p["q"])
    aoa = d.linear_aoa(d.shamir_matrix(field, p["s"], p["t"], p["n"]), p["s"], p["t"], p["n"])
    text = d.dump_array(aoa)
    return text, prog.ramp.scheme_from_aoa(d.load_array(text))


def scheme_name(p):
    return "deal-reconstruct-q{q}-s{s}-t{t}-n{n}".format(**p)


def check_scheme(text, p, expected):
    record = expected.get(scheme_name(p))
    if record is None:
        return [f"{scheme_name(p)}: no recorded expectation"]
    problems = []
    if J.sha256(text) != record["sha256"]:
        problems.append(f"{scheme_name(p)}: array text digest differs from the record")
    lines = text.splitlines()
    if lines[0] != "AOA {s} {t} {n} {q}".format(**p) or len(lines) - 1 != p["q"] ** p["t"]:
        problems.append(f"{scheme_name(p)}: array is not an AOA with q^t rows")
    return problems


def run_request(prog, sch, req, p):
    """Deal, then reconstruct from the request's bundle.  Returns (seconds, problems)."""
    ramp = prog.ramp
    t0 = perf()
    bundle = ramp.deal(sch, req.secret, req.deal_seed)
    t1 = perf()
    shares = dict(bundle.items())
    pairs = {pl: shares[pl] for pl in req.players}
    if req.corrupt:
        pl, offset = req.corrupt
        pairs[pl] = (pairs[pl] + offset) % p["q"]
    sub = ramp.ShareBundle(pairs)
    t2 = perf()
    res = ramp.reconstruct(sch, sub)
    t3 = perf()
    problems = []
    bad = J.check_dealt(shares, req.secret, **p)
    if bad:
        problems.append(bad)
    if (res.status, res.secret) != req.expect:
        problems.append(f"reconstruct {req}: got {res.status} {res.secret}")
    return (t1 - t0) + (t3 - t2), problems


def timed_deal(args, expected, size="full"):
    p = J.DEAL_RECONSTRUCT[size]
    tally, setups = Tally(), []
    for _ in range(SETUPS[args.workload]):
        t0 = perf()
        prog = load_program()
        text, sch = build_scheme(prog, p)
        setups.append(perf() - t0)
        tally.add(check_scheme(text, p, expected))
    gc.collect()
    reqs = J.requests(args.seed, **p)
    for _ in range(BATCH // 10):  # warm-up, untimed
        tally.add(run_request(prog, sch, next(reqs), p)[1])
        reference()
    lat, refs = [], []

    def one(_):
        for _ in range(BATCH):
            dt, problems = run_request(prog, sch, next(reqs), p)
            lat.append(dt)
            refs.append(reference())
            tally.add(problems)

    passes_loop(one, args.seconds, 1)
    # A pass is one request of each kind; the kinds alternate and BATCH is even.
    cost, note = pass_cost(2 * statistics.mean(lat), refs)
    metrics = {"setup_s": statistics.median(setups), "pass_cost": cost}
    notes = {"setup_s": f"median of {len(setups)} imports + scheme builds",
             "pass_cost": f"{note}; a pass is a valid and a corrupted request, "
                          f"{len(lat)} requests"}
    return metrics, notes, tally


def traced_deal(args, expected, size="full"):
    p = J.DEAL_RECONSTRUCT[size]
    tracer, tally = Tracer(), Tally()
    prog = load_program()
    tracer.install(prog)
    try:
        text, sch = build_scheme(prog, p)
    finally:
        tracer.uninstall()
    tally.add(check_scheme(text, p, expected))
    gc.collect()
    reqs = J.requests(args.seed, **p)
    lat = ([], [])

    def one(_):
        # Each request runs untraced and traced, back to back, in alternating order.
        for _ in range(BATCH):
            req = next(reqs)
            runs = {}
            for traced in (False, True) if len(lat[0]) % 2 == 0 else (True, False):
                if traced:
                    tracer.op = f"request {len(lat[0])}"
                    tracer.install(prog)
                try:
                    runs[traced] = run_request(prog, sch, req, p)
                finally:
                    if traced:
                        tracer.uninstall()
            lat[0].append(runs[False][0])
            lat[1].append(runs[True][0])
            tally.add(runs[False][1] + runs[True][1])

    passes_loop(one, args.seconds, 1)
    metrics = summarize(tracer.spans, 1)
    metrics["trace.overhead_pct"] = (sum(lat[1]) / sum(lat[0]) - 1) * 100

    hasher = hashlib.sha256(f"{args.workload}:{size}:{sorted(p.items())}".encode())
    first = J.requests(args.seed, **p)
    with GFCounter(prog.gf.GF) as counter:
        text, sch = build_scheme(prog, p)
        for _ in range(BATCH):
            req = next(first)
            hasher.update(repr(req).encode())
            tally.add(run_request(prog, sch, req, p)[1])
    tally.add(check_scheme(text, p, expected))
    work = {scheme_name(p): J.work_summary(J.scheme_work(**p))}
    return metrics, tally, tracer.spans, work, counter.counts, hasher


# ---------------------------------------------------------------------------
# results


END_TO_END = {"setup_s": "s", "pass_cost": "ref", "peak_rss_mb": "MB"}


def per_layer_units(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_us.p50"):
        return "us"
    if name.endswith("_ms") or name.endswith("_ms.p50"):
        return "ms"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + path.read_bytes())
    return h.hexdigest()


def check_gf_counts(counts, hasher, tally):
    """The counts must repeat exactly for the same program and the same inputs,
    across runs and across seeds that generate those inputs."""
    key = hashlib.sha256((source_digest() + hasher.hexdigest()).encode()).hexdigest()
    path = OUT / "gf-counts.json"
    seen = json.loads(path.read_text()) if path.exists() else {}
    if key in seen and seen[key] != counts:
        tally.add([f"gf call counts {counts} differ from an earlier run's {seen[key]}"])
        return
    seen[key] = counts
    path.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")


def machine():
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def run(args, expected):
    """Measure one workload; returns (metrics, units, notes, tally)."""
    if not args.trace:
        if args.workload == "deal-reconstruct":
            metrics, notes, tally = timed_deal(args, expected)
        else:
            metrics, notes, tally = timed_pass_workload(args, expected)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, dict(END_TO_END), notes, tally

    traced = traced_deal if args.workload == "deal-reconstruct" else traced_pass_workload
    metrics, tally, spans, work, gf_counts, hasher = traced(args, expected)
    OUT.mkdir(exist_ok=True)
    check_gf_counts(gf_counts, hasher, tally)
    for name in ("mul", "add", "inv"):
        metrics[f"gf.{name}_calls"] = gf_counts[name]
    for key in ("cells", "subsets", "independence_checks", "rule_visits"):
        metrics[f"work.{key}"] = sum(w[key] for w in work.values())
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with path.open("w") as f:
        for rec in records(spans):
            f.write(json.dumps(rec) + "\n")
        for name, w in work.items():
            f.write(json.dumps({"work": name, **w}) + "\n")
        f.write(json.dumps({"gf_calls": gf_counts, "machine": machine()}) + "\n")
    print(f"{'job':40} {'cells':>10} {'subsets':>8} {'indep':>7} {'visits':>9}  peak share of cap")
    for name, w in work.items():
        print(f"{name:40} {w['cells']:>10} {w['subsets']:>8} {w['independence_checks']:>7} "
              f"{w['rule_visits']:>9}  cells {w['peak_cells_of_cap']:.4g} "
              f"subsets {w['peak_subsets_of_cap']:.4g} visits {w['peak_rule_visits_of_cap']:.4g}")
    print(f"spans written to {path.relative_to(HERE.parent)}")
    units = {name: per_layer_units(name) for name in metrics}
    return metrics, units, {}, tally


def record_expected():
    """Write expected.json: each stage's exit code and stdout digest, from one
    pass at each size, refusing if any program-independent check fails.  The
    corrupted array's verify output depends on the seed, so it gets no digest."""
    expected = {}
    for size in ("full", "min"):
        prog = load_program()
        for make in PASS_WORKLOADS.values():
            jobs = make(size)
            for r in run_pass(prog, jobs, 0, {}):
                expected[r.job.name] = [
                    {"code": code, "sha256": None if r.job.corrupt else J.sha256(out)}
                    for code, out, _ in r.stages]
            problems = [p for r in run_pass(prog, jobs, 0, expected) for p in r.problems]
            if problems:
                sys.exit(f"not recording: {problems}")
        p = J.DEAL_RECONSTRUCT[size]
        expected[scheme_name(p)] = {"sha256": J.sha256(build_scheme(prog, p)[0])}
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="rewrite expected.json")
    args = ap.parse_args(argv)
    if not (SRC / "oaramp" / "__init__.py").is_file():
        sys.exit(f"error: no oaramp package under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))
    if args.record:
        record_expected()
        return
    if args.workload is None:
        ap.error("--workload is required")
    expected = json.loads(EXPECTED.read_text())
    metrics, units, notes, tally = run(args, expected)
    facts = machine()
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  python {facts['python']}  numpy {facts['numpy']}  "
          f"nproc {facts['nproc']}")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:34} {value:>14.6g} {units[name]:6} {note}")
    print(f"  {'failed_ratio':34} {tally.failed / max(tally.attempted, 1):>14.6g} "
          f"{'':6} {tally.failed} of {tally.attempted} operations")
    for problem in tally.problems[:10]:
        print(f"problem: {problem}", file=sys.stderr)
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
