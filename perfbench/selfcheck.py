"""Self-check of the benchmark's checker.

    python3 perfbench/selfcheck.py

Runs every workload once at its minimum size and requires every operation to
pass.  Then it runs each again against a deliberately wrong recorded digest
and a deliberately wrong verdict, and requires each to be counted as a
failure, so a checker that silently matches everything cannot report a
failed ratio of 0.  It also requires two field-operation counting passes over
the same inputs to agree, and a changed count to be caught.  Exits 1 if any
requirement fails.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from dataclasses import replace

import jobs as J
import run as R

SEED = 7
REQUESTS = 10
EXPECTED = json.loads(R.EXPECTED.read_text())


def pass_failures(prog, jobs, expected):
    return sum(1 for r in R.run_pass(prog, jobs, SEED, expected) if r.problems)


def deal_failures(prog, p, expected, mutate=lambda req: req):
    text, sch = R.build_scheme(prog, p)
    tally = R.Tally()
    tally.add(R.check_scheme(text, p, expected))
    reqs = J.requests(SEED, **p)
    for _ in range(REQUESTS):
        tally.add(R.run_request(prog, sch, mutate(next(reqs)), p)[1])
    return tally.failed


def wrong_verdict(req):
    """Expect the opposite reconstruction outcome."""
    if req.corrupt:
        return replace(req, expect=("ok", req.secret))
    return replace(req, expect=("no_matching_rule", None))


def counted_pass(prog, jobs):
    with R.GFCounter(prog.gf.GF) as counter:
        R.run_pass(prog, jobs, SEED, EXPECTED)
    return counter.counts


def main():
    sys.path.insert(0, str(R.SRC))
    prog = R.load_program()
    checks = []
    for name, make in R.PASS_WORKLOADS.items():
        jobs = make("min")
        first = jobs[0]
        bad_digest = copy.deepcopy(EXPECTED)
        bad_digest[first.name][-1]["sha256"] = "0" * 64
        bad_verdict = [replace(first, code=1 - first.code)] + jobs[1:]
        checks += [
            (f"{name}: recorded outputs pass", pass_failures(prog, jobs, EXPECTED) == 0),
            (f"{name}: wrong digest is a failure", pass_failures(prog, jobs, bad_digest) > 0),
            (f"{name}: wrong verdict is a failure",
             pass_failures(prog, bad_verdict, EXPECTED) > 0),
        ]
    p = J.DEAL_RECONSTRUCT["min"]
    bad_digest = copy.deepcopy(EXPECTED)
    bad_digest[R.scheme_name(p)]["sha256"] = "0" * 64
    checks += [
        ("deal-reconstruct: recorded outputs pass", deal_failures(prog, p, EXPECTED) == 0),
        ("deal-reconstruct: wrong digest is a failure", deal_failures(prog, p, bad_digest) > 0),
        ("deal-reconstruct: wrong verdict is a failure",
         deal_failures(prog, p, EXPECTED, wrong_verdict) > 0),
    ]

    jobs = R.PASS_WORKLOADS["construct-verify"]("min")
    counts = counted_pass(prog, jobs)
    checks.append(("gf counts repeat exactly", counted_pass(prog, jobs) == counts))
    R.OUT.mkdir(exist_ok=True)
    inputs = hashlib.sha256(f"selfcheck {SEED} {jobs!r}".encode())
    tally = R.Tally()
    R.check_gf_counts(counts, inputs, tally)
    R.check_gf_counts({**counts, "mul": counts["mul"] + 1}, inputs, tally)
    checks.append(("a changed gf count is a failure", tally.failed == 1))

    for label, ok in checks:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    sys.exit(0 if all(ok for _, ok in checks) else 1)


if __name__ == "__main__":
    main()
