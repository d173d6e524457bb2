"""The cap policy lives in ``caps``: no other module constructs the refusal,
every public check is called from another module, so a deleted path leaves
no dead cap behind, and the audit stays bounded however large the scheme:
its count of rule visits, its failure records, which hold no per-secret
table, and its working memory, which its blocks of subsets bound."""

import ast
import contextlib
import signal
import tracemalloc
from pathlib import Path

import pytest

from oaramp import caps
from oaramp.errors import CapExceeded
from oaramp.gf import field_for_order
from oaramp.ramp import RampScheme, ShareBundle, audit_security, reconstruct, scheme_shamir

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oaramp"


def _constructs_cap_exceeded(source: str) -> bool:
    """Whether the module calls or raises ``CapExceeded``, by any name path."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            target = node.func
        elif isinstance(node, ast.Raise):
            target = node.exc
        else:
            continue
        if getattr(target, "id", getattr(target, "attr", None)) == "CapExceeded":
            return True
    return False


def test_cap_exceeded_is_constructed_in_caps_alone():
    modules = sorted(p.name for p in PACKAGE.glob("*.py")
                     if _constructs_cap_exceeded(p.read_text(encoding="utf-8")))
    assert modules == ["caps.py"]


def test_every_public_check_is_called_from_another_module():
    tree = ast.parse((PACKAGE / "caps.py").read_text(encoding="utf-8"))
    checks = {node.name for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    called = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "caps.py":
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and getattr(node.func.value, "id", None) == "caps"):
                    called.add(node.func.attr)
    assert checks and checks <= called, sorted(checks - called)


def test_capped_text_passes_each_piece_on_once_counted_and_counts_its_characters():
    """A body too short to pass the cap is kept uncounted and passed on at
    its end.  From 2 * cap characters on, each piece is counted before it is
    passed on, so no piece past the cap reaches the reader.  The length, the
    characters read, is what the benchmark's trace records as text bytes."""
    short = caps.CappedText(iter(["OA 1 1 2\n0", "\n1\n"]), 9, 100)
    assert list(short) == ["OA 1 1 2\n0", "\n1\n"] and len(short) == 13
    passed, text = [], caps.CappedText(iter(["OA 1 1 2\n", "0\n1\n", "0\n"]), 9, 2)
    with pytest.raises(CapExceeded, match="^array text holds more than 2 cells, cap is 2$"):
        for piece in text:
            passed.append(piece)
    assert passed == ["OA 1 1 2\n", "0\n1\n"] and len(text) == 15


class Overrun(Exception):
    pass


def _overrun(signum, frame):
    raise Overrun("the audit outran its alarm")


@contextlib.contextmanager
def _alarm(seconds: float):
    """Raise ``Overrun`` in the body once ``seconds`` of wall time have passed."""
    previous = signal.signal(signal.SIGALRM, _overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("s, n, formula", [
    (4000, 20000, "1*(C(20000,0)+...+C(20000,4000))"),
    (10000, 100000, "1*(C(100000,0)+...+C(100000,10000))"),
])
def test_a_huge_audit_count_is_refused_at_once(s, n, formula):
    # C(n, i) summed in full over every i <= s takes seconds, and its
    # thousands of digits are more than Python will print
    sch = RampScheme(s, s + 1, n, 2, [((0,) * n, (0,))])
    with _alarm(1.0), pytest.raises(CapExceeded) as raised:
        audit_security(sch)
    assert str(raised.value) == f"audit needs ~{formula} rule visits, cap is 10000000"


def test_audit_counts_are_exact_below_the_formula_rule():
    # 5 rules, n=4, s=1, t=3: (1 + 4) + C(4,1) * C(3,2) = 17 subsets
    assert caps.check_audit(5, 4, 1, 3, True, 85) == 17
    with pytest.raises(CapExceeded, match=r"^audit needs ~85 rule visits, cap is 84$"):
        caps.check_audit(5, 4, 1, 3, True, 84)
    # past 10^20 visits of an ideal scheme, the bijection term joins the formula
    with pytest.raises(CapExceeded, match=r"~8\*\(C\(90,0\)\+\.\.\.\+C\(90,1\)"
                                          r"\+C\(90,1\)\*C\(89,44\)\) rule visits"):
        caps.check_audit(8, 90, 1, 45, True, 10**7)


def test_failure_records_grow_with_the_failures_not_with_the_secrets():
    # 8,000 rules, each its own secret: every one-player view misses 7,999
    # secrets, so 16,000 weak and 16,000 bijection failures.  Weak records
    # that tallied every secret would hold 128 million (secret, weight) pairs.
    sch = RampScheme(1, 2, 2, 8000, [((i, 7 * i % 8000), (i,)) for i in range(8000)])
    with _alarm(5.0):
        report = audit_security(sch)
    assert len(report.failures) == 32000
    assert not report.weak_ok and report.perfect_ok is False and not report.bijection_ok
    first = report.failures[0]
    assert (first.check, first.players, first.projection) == ("weak", (1,), (0,))
    assert first.detail == "secret (1,) has no consistent rule"


def _sparse_scheme():
    """64 rules over an alphabet of 64, one to each secret: projections
    onto three players could take 64^3 values, but only 64 occur."""
    coefficients = (1, 3, 5, 7, 11, 13)
    return RampScheme(3, 4, 6, 64, [(tuple(c * i % 64 for c in coefficients), (i,))
                                    for i in range(64)])


@pytest.mark.parametrize("build, ok, subsets, groups, failures", [
    # 14,641 rules, 37 subsets of size <= 2 and 420 pairs
    pytest.param(lambda: scheme_shamir(field_for_order(11), 2, 4, 8), True, 457, 54297, 0,
                 id="shamir-gf11"),
    # tables sized by the 64^3 possible projections, not the 64 rows, would
    # take 2^24 cells for one subset
    pytest.param(_sparse_scheme, False, 102, 6465, 6464, id="sparse-v64"),
])
def test_a_large_audit_stays_within_a_fixed_memory_bound(build, ok, subsets, groups, failures):
    # the audit's blocks hold a few MiB however many subsets there are
    sch = build()
    tracemalloc.start()
    try:
        report = audit_security(sch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok is ok and len(report.failures) == failures
    assert (report.subsets_checked, report.groups_checked) == (subsets, groups)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("s, v", [(0, 4096), (1, 2**24)])
def test_a_two_rule_scheme_builds_and_reconstructs_in_a_fixed_memory_bound(s, v):
    # its secrets, and each player's shares, are ranked in tables of its two
    # rows, not keyed into v^(t-s) or v cells (2^24 either way)
    rules = [((0, 1), (0,) * (2 - s)), ((v - 1, 0), (v - 1,) * (2 - s))]
    tracemalloc.start()
    try:
        sch = RampScheme(s, 2, 2, v, rules)
        result = reconstruct(sch, ShareBundle({1: v - 1, 2: 0}))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.secret == (v - 1,) * (2 - s) and len(sch.secrets) == 2
    assert peak < 4 * 2**20
