"""Workload definitions: the jobs, the seeded inputs they see, and the checks
on their outputs.

A job is a CLI pipeline run in process through ``oaramp.cli.main``: each
stage's stdout, with its rows shuffled by the seed, is the next stage's
stdin.  The checks here do not trust the program: exit codes and stdout
digests are compared with the values recorded at the seed commit in
``expected.json``, and verdicts are compared with facts derived in this file
(row counts q^t, the Bush bound, the witness a one-cell corruption must
produce, Lagrange interpolation of dealt shares).
"""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
from dataclasses import dataclass

CELL_CAP = 10**7
SUBSET_CAP = 10**5
VISIT_CAP = 10**7

# Parameters of each workload, at the benchmark's size and at the minimum size
# the self-check runs.  At the full size every stage takes a few tens of
# milliseconds, so the reference loop timed between jobs (run.reference)
# samples the host as the program sees it; the minimum sizes keep every job
# kind and verdict.  The GF(81) job is rejected by its cap: any array over a
# field without multiplication tables (order above 64) has at least 81^2 rows,
# too many for a short stage, while the independence checks before the
# rejection run over that field.
CONSTRUCT_VERIFY = {
    "full": dict(rs=(16, 2), merge=(8, 3, 1), shamir=(16, 1, 2, 8), dual=(4, 1, 4),
                 thm48=(7, 3), thm410=(3, 2), cap=(1000, 8, 3), shamir_cap=(1000, 81, 1, 2, 8)),
    "min": dict(rs=(5, 2), merge=(4, 3, 1), shamir=(9, 1, 2, 4), dual=(3, 1, 3),
                thm48=(3, 3), thm410=(3, 1), cap=(100, 4, 3), shamir_cap=(100, 9, 1, 2, 4)),
}
RAMP_AUDIT = {
    "full": [(8, 2, 3, 4), (7, 1, 3, 4), (5, 1, 3, 5)],
    "min": [(5, 1, 2, 4)],
}
DEAL_RECONSTRUCT = {
    "full": dict(q=11, s=2, t=4, n=8),
    "min": dict(q=5, s=1, t=2, n=4),
}


def bush_bound(t: int, v: int) -> int:
    """Bush's bound on the columns of an OA(t,k,v), stated from the literature
    (not read from the program): v+t-1 for t=2 or v even, v+t-2 for v odd,
    when 3 <= t <= v; t+1 when t >= v; the smallest applicable case."""
    cases = []
    if t == 2 or (v % 2 == 0 and 3 <= t <= v):
        cases.append(v + t - 1)
    if v % 2 == 1 and 3 <= t <= v:
        cases.append(v + t - 2)
    if t >= v:
        cases.append(t + 1)
    return min(cases)


@dataclass(frozen=True)
class Job:
    """One pipeline.  ``stages`` are argv lists for ``cli.main``; the stage
    ``("lib", "verify_mds")`` is the library call on its stdin array.
    ``source`` names an earlier job of the same pass whose first-stage stdout
    is this job's stdin, ``corrupt`` changes one seeded cell of it.  ``code``
    is the exit code the last stage must return and ``facts`` are patterns
    its stdout must match, line by line.  ``roundtrip`` requires the last
    stdout to equal the first, byte for byte."""

    name: str
    stages: tuple[tuple[str, ...], ...]
    code: int
    facts: tuple[str, ...] = ()
    source: str | None = None
    corrupt: bool = False
    stderr_fact: str | None = None
    roundtrip: bool = False


def _argv(text: str) -> tuple[str, ...]:
    return tuple(text.split())


def construct_verify_jobs(size: str) -> list[Job]:
    p = CONSTRUCT_VERIFY[size]
    q, t = p["rs"]
    rs = f"rs-q{q}-t{t}"
    mq, mt, ms = p["merge"]
    sq, ss, st, sk = p["shamir"]
    dq, ds, dt = p["dual"]
    hq, ht = p["thm48"]
    fq, fs = p["thm410"]
    cells, cq, ct = p["cap"]
    ucells, uq, us, ut, uk = p["shamir_cap"]
    split_cols = 2 * dt - ds
    f_t = fq + 1
    return [
        Job(f"{rs}-verify", (_argv(f"construct oa-rs --q {q} --t {t}"), ("verify",)), 0,
            (rf"OA\({t},{q + 1},{q}\): VALID \({q**t} rows, exhaustive\)",)),
        Job(f"{rs}-mds", (("lib", "verify_mds"),), 0, ("True",), source=f"{rs}-verify"),
        Job(f"{rs}-corrupt-verify", (("verify",),), 1, source=f"{rs}-verify", corrupt=True),
        Job(f"rs-q{mq}-t{mt}-merge{ms}-split",
            (_argv(f"construct oa-rs --q {mq} --t {mt}"), _argv(f"construct aoa-merge --s {ms}"),
             ("split",)), 0, (rf"OA {mt} {mq + 1} {mq}",), roundtrip=True),
        Job(f"shamir-q{sq}-s{ss}-t{st}-k{sk}-verify",
            (_argv(f"construct aoa-shamir --q {sq} --s {ss} --t {st} --k {sk}"), ("verify",)), 0,
            (rf"AOA\({ss},{st},{sk},{sq}\): VALID \({sq**st} rows, exhaustive\)",)),
        # Splitting AOA(s,t,t,q) needs an OA(t,2t-s,q); it must fail when
        # 2t-s exceeds the Bush bound.
        Job(f"dual-q{dq}-s{ds}-t{dt}-split",
            (_argv(f"construct aoa-dual --q {dq} --s {ds} --t {dt}"), ("split",)),
            1 if split_cols > bush_bound(dt, dq) else 0,
            (rf"SPLIT INVALID: expanding AOA\({ds},{dt},{dt},{dq}\) is not an "
             rf"OA\({dt},{split_cols},{dq}\)", r"witness: columns [\d,]+ contain tuple .*",
             rf"dependency: column \d+ = .* over GF\({dq}\)")),
        Job(f"thm48-q{hq}-t{ht}", (_argv(f"demo thm48 --q {hq} --t {ht}"),), 0,
            (rf"AOA\(1,{ht},{hq},{hq}\): VALID \({hq**ht} rows, exhaustive\)",
             rf"conclusion: AOA\(1,{ht},{hq},{hq}\) exists but OA\({ht},{hq + ht - 1},{hq}\) "
             rf"does not \({hq + ht - 1} > {bush_bound(ht, hq)}\)")),
        Job(f"thm410-q{fq}-s{fs}", (_argv(f"demo thm410 --q {fq} --s {fs}"),), 0,
            (rf"AOA\({fs},{f_t},{f_t},{fq}\): VALID \({fq**f_t} rows, exhaustive\)",
             rf"conclusion: AOA\({fs},{f_t},{f_t},{fq}\) exists but "
             rf"OA\({f_t},{2 * f_t - fs},{fq}\) does not "
             rf"\({2 * f_t - fs} > {bush_bound(f_t, fq)}\)")),
        Job(f"cap{cells}-rs-q{cq}-t{ct}",
            (_argv(f"--max-cells {cells} construct oa-rs --q {cq} --t {ct}"),), 2,
            stderr_fact=rf"error: .*{cq**ct * (cq + 1)} cells, cap is {cells}"),
        Job(f"cap{ucells}-shamir-q{uq}-s{us}-t{ut}-k{uk}",
            (_argv(f"--max-cells {ucells} construct aoa-shamir --q {uq} --s {us} --t {ut} "
                   f"--k {uk}"),), 2,
            stderr_fact=rf"error: .*{uq**ut * (uk + ut - us)} cells, cap is {ucells}"),
    ]


def ramp_audit_jobs(size: str) -> list[Job]:
    jobs = []
    for q, s, t, k in RAMP_AUDIT[size]:
        jobs.append(Job(
            f"shamir-q{q}-s{s}-t{t}-k{k}-audit",
            (_argv(f"construct aoa-shamir --q {q} --s {s} --t {t} --k {k}"), _argv("ramp audit")),
            0, (r"audit: PASS", r"weak: ok  perfect: ok  bijection: ok",
                rf"subsets checked: {audit_subsets(s, t, k)}, projection groups: \d+")))
    jobs.append(Job("example-4-3-audit", (_argv("demo example-4-3"), _argv("ramp audit")), 0,
                    (r"audit: PASS", r"weak: ok  perfect: ok  bijection: ok",
                     rf"subsets checked: {audit_subsets(1, 3, 3)}, projection groups: \d+")))
    return jobs


# ---------------------------------------------------------------------------
# seeded inputs


def job_rng(seed: int, *parts: object) -> random.Random:
    return random.Random(":".join(map(str, (seed,) + parts)))


def shuffle_rows(text: str, rng: random.Random) -> str:
    """The same array with its data rows in a seeded order; the header stays first."""
    lines = text.splitlines()
    body = lines[1:]
    rng.shuffle(body)
    return "\n".join([lines[0]] + body) + "\n"


@dataclass(frozen=True)
class Corruption:
    row: tuple[int, ...]
    column: int  # 0-based
    value: int
    t: int


def corrupt_cell(text: str, rng: random.Random) -> tuple[str, Corruption]:
    """Change one seeded cell of an OA text to another symbol."""
    lines = text.splitlines()
    _, t, k, v = lines[0].split()
    t, k, v = int(t), int(k), int(v)
    r = rng.randrange(1, len(lines))
    row = [int(x) for x in lines[r].split()]
    c = rng.randrange(k)
    new = (row[c] + rng.randrange(1, v)) % v
    corrupted = list(row)
    corrupted[c] = new
    lines[r] = " ".join(map(str, corrupted))
    return "\n".join(lines) + "\n", Corruption(tuple(row), c, new, t)


def corruption_witness(cor: Corruption) -> str:
    """The witness line a one-cell corruption must produce.

    Only t-subsets containing the corrupted column fail, so the first failing
    subset in lexicographic order is the first one containing it.  There the
    original tuple now occurs 0 times and the changed one twice; the witness
    is the smaller of the two.
    """
    c, t = cor.column, cor.t
    cols = tuple(range(t)) if c < t else tuple(range(t - 1)) + (c,)
    old = tuple(cor.row[i] for i in cols)
    new = tuple(cor.value if i == c else cor.row[i] for i in cols)
    tup, count = (old, 0) if old < new else (new, 2)
    names = ",".join(str(i + 1) for i in cols)
    return f"witness: columns {names} contain tuple {tup} {count} times (expected once)"


# ---------------------------------------------------------------------------
# checks


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_job(job: Job, stages: list, expected: dict, cor: Corruption | None) -> list[str]:
    """Problems with one run of a job; empty when every output is as expected.

    ``stages`` holds (exit code, stdout, stderr) per stage that ran.
    """
    problems = []
    record = expected.get(job.name)
    if record is None:
        return [f"{job.name}: no recorded expectation"]
    for i, (code, out, _) in enumerate(stages):
        want = record[i]
        if code != want["code"]:
            problems.append(f"{job.name} stage {i}: exit {code}, recorded {want['code']}")
        if want["sha256"] is not None and sha256(out) != want["sha256"]:
            problems.append(f"{job.name} stage {i}: stdout digest differs from the record")
    if len(stages) != len(job.stages):
        return problems + [f"{job.name}: stopped after stage {len(stages) - 1}"]
    code, out, err = stages[-1]
    if code != job.code:
        problems.append(f"{job.name}: exit {code}, verdict needs {job.code}")
    facts = job.facts
    if cor is not None:
        facts = facts + (re.escape(corruption_witness(cor)),)
    lines = out.splitlines()
    for fact in facts:
        if not any(re.fullmatch(fact, ln) for ln in lines):
            problems.append(f"{job.name}: no stdout line matches {fact!r}")
    if job.stderr_fact and not re.search(job.stderr_fact, err):
        problems.append(f"{job.name}: stderr does not match {job.stderr_fact!r}")
    if job.roundtrip and out != stages[0][1]:
        problems.append(f"{job.name}: last stdout differs from the first")
    return problems


def interpolate(xs: list[int], ys: list[int], p: int) -> list[int]:
    """Coefficients (lowest first) of the polynomial of degree < len(xs) over
    GF(p), p prime, through the given points: Gauss-Jordan on the
    Vandermonde system."""
    m = len(xs)
    rows = [[pow(x, i, p) for i in range(m)] + [y % p] for x, y in zip(xs, ys)]
    for c in range(m):
        piv = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(m):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[c])]
    return [rows[i][m] for i in range(m)]


def check_dealt(shares: dict[int, int], secret: tuple[int, ...], q: int, s: int, t: int,
                n: int) -> str | None:
    """Dealt shares of the polynomial-evaluation scheme over prime GF(q):
    player j holds P(j) for one P of degree < t whose first t-s coefficients
    are the secret."""
    if sorted(shares) != list(range(1, n + 1)):
        return f"deal handed shares to players {sorted(shares)}"
    xs = list(range(1, t + 1))
    coeffs = interpolate(xs, [shares[x] for x in xs], q)
    for j in range(1, n + 1):
        if sum(c * pow(j, i, q) for i, c in enumerate(coeffs)) % q != shares[j]:
            return f"dealt shares lie on no polynomial of degree < {t}"
    if tuple(coeffs[: t - s]) != tuple(secret):
        return f"dealt shares encode secret {tuple(coeffs[:t - s])}, not {secret}"
    return None


@dataclass(frozen=True)
class Request:
    secret: tuple[int, ...]
    deal_seed: int
    players: tuple[int, ...]
    corrupt: tuple[int, int] | None  # (player, offset added to the share)
    expect: tuple[str, tuple[int, ...] | None]  # reconstruct's (status, secret)


def requests(seed: int, q: int, s: int, t: int, n: int):
    """Endless seeded requests, alternating a t-subset that must reconstruct
    the secret with a (t+1)-subset carrying one corrupted share, which no
    rule can match (two polynomials of degree < t agreeing on t points are
    equal)."""
    rng = job_rng(seed, "deal-reconstruct")
    for i in itertools.count():
        secret = tuple(rng.randrange(q) for _ in range(t - s))
        deal_seed = rng.getrandbits(32)
        if i % 2 == 0:
            players = tuple(sorted(rng.sample(range(1, n + 1), t)))
            yield Request(secret, deal_seed, players, None, ("ok", secret))
        else:
            players = tuple(sorted(rng.sample(range(1, n + 1), t + 1)))
            yield Request(secret, deal_seed, players, (rng.choice(players), rng.randrange(1, q)),
                          ("no_matching_rule", None))


# ---------------------------------------------------------------------------
# work counts, computed from the inputs with the program's own formulas


def audit_subsets(s: int, t: int, k: int) -> int:
    """Player subsets ``audit_security`` examines for an ideal scheme."""
    return sum(math.comb(k, i) for i in range(s + 1)) + math.comb(k, s) * math.comb(k - s, t - s)


def _verify_oa(t, k, v):
    return [dict(op="verify_oa", cells=v**t * k, subsets=math.comb(k, t))]


def _verify_aoa(s, t, k, v):
    return _verify_oa(t, k, v) + [dict(op="verify_aoa", cells=v**t * (k + 1),
                                       subsets=math.comb(k, s))]


def _linear(q, s, t, k):
    return [dict(op="independence", checks=math.comb(k, t) + math.comb(k, s)),
            dict(op="row_space", cells=q**t * (k + t - s))]


def _dual(q, s, t):
    return ([dict(op="row_space", cells=q**(t - s) * t)] + _verify_oa(t - s, t, q)
            + _linear(q, s, t, t))


def scheme_work(q: int, s: int, t: int, n: int) -> list[dict]:
    """Capped operations of building the deal-reconstruct scheme: the linear
    construction, then the verification inside ``scheme_from_aoa``."""
    return _linear(q, s, t, n) + _verify_aoa(s, t, n, q)


def _flag(argv, name):
    return int(argv[argv.index(name) + 1])


def stage_work(argv: tuple[str, ...], header: list[str] | None) -> list[dict]:
    """Capped operations one stage performs: cells, column subsets,
    independence checks and audit rule visits, from its flags and the header
    of its stdin array."""
    if argv[0] == "--max-cells":
        argv = argv[2:]
    if argv[0] == "construct":
        verb = argv[1]
        if verb == "oa-rs":
            q, t = _flag(argv, "--q"), _flag(argv, "--t")
            return [dict(op="independence", checks=math.comb(q + 1, t)),
                    dict(op="row_space", cells=q**t * (q + 1))]
        if verb == "aoa-shamir":
            return _linear(*(_flag(argv, f) for f in ("--q", "--s", "--t", "--k")))
        if verb == "aoa-dual":
            return _dual(*(_flag(argv, f) for f in ("--q", "--s", "--t")))
        t, k, v = map(int, header[1:])
        return _verify_oa(t, k, v)
    if argv[0] == "demo":
        if argv[1] == "thm48":
            q, t = _flag(argv, "--q"), _flag(argv, "--t")
            return _linear(q, 1, t, q) + _verify_aoa(1, t, q, q)
        if argv[1] == "thm410":
            q, s = _flag(argv, "--q"), _flag(argv, "--s")
            return _dual(q, s, q + 1) + _verify_aoa(s, q + 1, q + 1, q)
        return _linear(3, 1, 3, 3)
    kind, *dims = header
    dims = [int(x) for x in dims]
    if argv == ("lib", "verify_mds"):
        t, k, v = dims
        return [dict(op="verify_mds", cells=v**t * k)]
    if kind == "OA":
        return _verify_oa(*dims)
    s, t, k, v = dims
    ops = _verify_aoa(s, t, k, v)
    if argv[0] == "split":
        ops += _verify_oa(t, k + t - s, v)
    elif argv[0] == "ramp":
        ops.append(dict(op="audit", visits=v**t * audit_subsets(s, t, k)))
    return ops


def work_summary(ops: list[dict], cell_cap: int = CELL_CAP) -> dict:
    """Totals of one job's work and, for each count, its largest single
    operation as a share of the cap that bounds it.  The totals leave out
    operations over the cell cap, which are rejected, not done."""
    def total(key):
        return sum(o.get(key, 0) for o in ops if o.get("cells", 0) <= cell_cap)

    def peak(key):
        return max((o.get(key, 0) for o in ops), default=0)

    return dict(
        cells=total("cells"), subsets=total("subsets"),
        independence_checks=total("checks"), rule_visits=total("visits"),
        peak_cells_of_cap=peak("cells") / cell_cap,
        peak_subsets_of_cap=max(peak("subsets"), peak("checks")) / SUBSET_CAP,
        peak_rule_visits_of_cap=peak("visits") / VISIT_CAP,
        caps=dict(cells=cell_cap, subsets=SUBSET_CAP, rule_visits=VISIT_CAP))
