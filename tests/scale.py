"""The scale tier: costs at sizes the benchmark's stages stay below, written
to one ``BENCH_*.json`` file.

Run from anywhere with ``python tests/scale.py OUT``, which writes the JSON
file ``OUT``; ``--quick`` cuts every size down, for a check of the file's
schema only.  The file has no ``test_`` prefix, so pytest does not collect it.

Each case runs at least three times.  It records its name, layer and
parameters, the median wall time in ms and that time in units of the
benchmark's reference loop (``perfbench/run.py``'s ``reference()``, timed
before every run), the work it did, and its peak memory: ``tracemalloc``'s
peak for a case run in process, and ``VmHWM`` (the peak resident set) of a
child for a ``verify`` run on stdin.  The cases:

- ``verify`` children on the two bodies at the cell cap, header ``OA 2 3 2``
  and 3,333,333 rows of ``0 1 1``, with 1-digit symbols and with 18-digit
  zero-padded ones (20 MB and 190 MB of text);
- ``load_array`` in process on 500,000 rows of ``0 1 1``, as ``dump_array``
  writes them and with a trailing space on every row, which the line loop reads;
- ``dump_array`` and ``load_array`` of RS GF(211) t=2, the 44,521 x 212
  array of ``construct oa-rs``, its text in canonical row order and shuffled;
- ``audit_security`` of the Shamir schemes q=9 s=2 t=4 n=8, q=11 s=1 t=3
  n=10 and q=11 s=2 t=4 n=8, each built before it is timed;
- ``deal`` and ``reconstruct``, 2,000 requests of each, on the benchmark's
  Shamir GF(11) s=2 t=4 n=8 scheme and on a table of 4,096 random rules for
  64 players over v = 2.  The deals' and reconstructs' peaks are those of a
  fresh scheme, its deal table or share index built inside them; the work
  records the time per request and the bytes the share index holds.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import run as bench  # noqa: E402  perfbench/run.py, for its reference loop and host details

from oaramp import designs  # noqa: E402
from oaramp.gf import GF, field_for_order  # noqa: E402
from oaramp.ramp import (  # noqa: E402
    RampScheme,
    ShareBundle,
    audit_security,
    deal,
    reconstruct,
    scheme_shamir,
)

RUNS = 3
REFS: list[float] = []  # every reference loop timed, in seconds
# A child that runs the CLI and writes its peak resident set, in KiB, last on stderr.
CHILD = ("import sys\n"
         "from oaramp import cli\n"
         "code = cli.main(sys.argv[1:])\n"
         "with open('/proc/self/status') as status:\n"
         "    print(next(ln.split()[1] for ln in status if ln.startswith('VmHWM:')),\n"
         "          file=sys.stderr)\n"
         "sys.exit(code)\n")


def timed(fn, runs=RUNS):
    """``fn()``'s last result, its median seconds and the median seconds of
    the reference loop, timed before each run."""
    seconds, refs = [], []
    for _ in range(runs):
        refs.append(bench.reference())
        t0 = time.perf_counter()
        result = fn()
        seconds.append(time.perf_counter() - t0)
    REFS.extend(refs)
    return result, statistics.median(seconds), statistics.median(refs)


def case(name, layer, params, seconds, ref, work, peak):
    return {"name": name, "layer": layer, "params": params, "runs": RUNS,
            "median_ms": round(seconds * 1e3, 3), "ref_ratio": round(seconds / ref, 3),
            "work": work, "peak": peak}


def cap_bodies(rows):
    """``verify`` children on ``rows`` rows of OA(2,3,2) text, narrow and wide."""
    out = []
    for name, row in [("narrow", b"0 1 1\n"),
                      ("wide", b"000000000000000000 000000000000000001 000000000000000001\n")]:
        body = b"OA 2 3 2\n" + row * rows
        peaks = []

        def child():
            proc = subprocess.run([sys.executable, "-c", CHILD, "verify"], input=body,
                                  capture_output=True, env={"PYTHONPATH": str(SRC),
                                                            "PYTHONDONTWRITEBYTECODE": "1"})
            peaks.append(int(proc.stderr.split()[-1]))
            return proc
        proc, seconds, ref = timed(child)
        want = f"witness: expected 4 rows, found {rows}\n".encode()
        out.append(case(f"verify stdin, {name} symbols", "cli", {"rows": rows, "chars": len(body)},
                        seconds, ref, {"cells": 3 * rows, "exit": proc.returncode,
                                       "witness_ok": proc.stdout.endswith(want)},
                        {"vmhwm_kib": max(peaks)}))
    return out


def traced_peak(fn):
    """``fn()``'s ``tracemalloc`` peak, and the bytes still held after it."""
    tracemalloc.start()
    try:
        fn()
        held, peak = tracemalloc.get_traced_memory()
        return peak, held
    finally:
        tracemalloc.stop()


def in_process(name, layer, params, fn, work):
    """A case run in process: timed without tracing, then once under ``tracemalloc``."""
    _, seconds, ref = timed(fn)
    return case(name, layer, params, seconds, ref, work, {"tracemalloc_bytes": traced_peak(fn)[0]})


def line_loop(rows):
    out = []
    for name, row in [("dump layout", "0 1 1\n"), ("trailing space", "0 1 1 \n")]:
        text = "OA 2 3 2\n" + row * rows
        out.append(in_process(f"load_array, {name}", "designs", {"rows": rows, "chars": len(text)},
                              lambda: designs.load_array(text), {"cells": 3 * rows}))
    return out


def rs_text(q):
    a = designs.oa_from_generator(designs.rs_generator(GF(q), 2), 2)
    text = designs.dump_array(a)
    head, *rows = text.splitlines(keepends=True)
    random.Random(0).shuffle(rows)
    params, work = {"q": q, "t": 2, "chars": len(text)}, {"cells": a.grid.size}
    return [in_process(f"dump_array, RS GF({q}) t=2", "designs", params,
                       lambda: designs.dump_array(a), work),
            in_process(f"load_array, RS GF({q}) t=2, canonical", "designs", params,
                       lambda: designs.load_array(text), work),
            in_process(f"load_array, RS GF({q}) t=2, shuffled", "designs", params,
                       lambda: designs.load_array(head + "".join(rows)), work)]


def audits(schemes):
    """``audit_security`` of each Shamir scheme (q, s, t, n)."""
    out = []
    for q, s, t, n in schemes:
        sch = scheme_shamir(field_for_order(q), s, t, n)
        report = audit_security(sch)
        out.append(in_process(f"audit_security, Shamir GF({q}) s={s} t={t} n={n}", "ramp",
                              {"q": q, "s": s, "t": t, "n": n}, lambda: audit_security(sch),
                              {"rules": len(sch.weights), "subsets": report.subsets_checked,
                               "groups": report.groups_checked, "ok": report.ok}))
    return out


def requests(name, build, count):
    """``count`` deals and reconstructs on the scheme ``build()`` returns, as
    the benchmark's client asks them: a random secret and deal seed, then
    alternately t of the dealt shares or t + 1 with one changed."""
    sch, rng, asks = build(), random.Random(7), []
    for i in range(count):
        secret, seed = rng.choice(sch.secrets), rng.getrandbits(32)
        pairs = dict(rng.sample(deal(sch, secret, seed).items(), sch.t + i % 2))
        if i % 2:
            p = rng.choice(sorted(pairs))
            pairs[p] = (pairs[p] + rng.randrange(1, sch.v)) % sch.v
        asks.append((secret, seed, ShareBundle(pairs)))
    statuses = [reconstruct(sch, bundle).status for _, _, bundle in asks]
    params = {"n": sch.n, "v": sch.v, "rules": len(sch.weights), "requests": count}

    def deals(sch):
        for secret, seed, _ in asks:
            deal(sch, secret, seed)

    def reconstructs(sch):
        for _, _, bundle in asks:
            reconstruct(sch, bundle)
    out = []
    for verb, fn in [("deal", deals), ("reconstruct", reconstructs)]:
        _, seconds, ref = timed(lambda: fn(sch))
        fresh = build()
        peak, held = traced_peak(lambda: fn(fresh))  # held: what ``fresh`` keeps built
        work = {"requests": count, "us_per_request": round(seconds / count * 1e6, 3)}
        if verb == "reconstruct":
            work.update(index_bytes=held, ok=statuses.count("ok"))
        out.append(case(f"{verb}, {name}", "ramp", params, seconds, ref, work,
                        {"tracemalloc_bytes": peak}))
    return out


def random_table(n, rules, seed=0):
    """``rules`` distinct random share vectors for n players over v = 2, each
    with a random secret of t - s = 2 bits (s = 1, t = 3)."""
    rng, shares = random.Random(seed), set()
    while len(shares) < rules:
        shares.add(tuple(rng.getrandbits(1) for _ in range(n)))
    return RampScheme(1, 3, n, 2, [(sh, (rng.getrandbits(1), rng.getrandbits(1)))
                                   for sh in sorted(shares)])


def git(*argv):
    proc = subprocess.run(["git", *argv], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path, help="JSON file to write")
    ap.add_argument("--quick", action="store_true", help="cut every size down")
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    q, n, rules, asks = (7, 6, 256, 50) if args.quick else (11, 8, 4096, 2000)
    cases = [*cap_bodies(3333 if args.quick else 3333333),
             *line_loop(500 if args.quick else 500000),
             *rs_text(11 if args.quick else 211),
             *audits([(5, 1, 3, 4), (7, 1, 2, 5), (5, 2, 4, 4)] if args.quick else
                     [(9, 2, 4, 8), (11, 1, 3, 10), (11, 2, 4, 8)]),
             *requests(f"Shamir GF({q}) s=2 t=4 n={n}", lambda: scheme_shamir(GF(q), 2, 4, n),
                       asks),
             *requests("random 64-player table over v = 2", lambda: random_table(64, rules),
                       asks)]
    report = {"commit": git("rev-parse", "HEAD"),
              "src_modified": bool(git("status", "--porcelain", "--", "src")),
              "source_digest": bench.source_digest(),
              "machine": bench.machine(), "quick": args.quick,
              "reference_ms": round(statistics.median(REFS) * 1e3, 3),
              "wall_s": round(time.perf_counter() - t0, 2), "cases": cases, "skipped": []}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for c in cases:
        print(f"{c['name']}: {c['median_ms']:.1f} ms ({c['ref_ratio']:.1f} ref), {c['peak']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
