"""``verify_aoa`` and ``aoa_split`` against their oracles, on both paths.

From ``designs._CERTIFY_VISITS`` key visits on, ``designs._verify`` passes a
v^t-row linear code over GF(v) by one least-weight rule per check, and scans
every other array.  Linear AOAs with q <= 13 (Shamir, dual and merged
Reed-Solomon arrays), their one-cell corruptions, per-column symbol
relabellings (linearity lost, the verdict mostly kept) and a row put in place
of another must give the oracles' results, witness and dependency included:
once at the real limit, and once with the limit at 0, so that small arrays
try the rule too.  Linear arrays at or above the limit never reach the scan.
"""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_kernel_differential import check_aoa

from oaramp import designs
from oaramp.designs import (
    AugmentedOA,
    OrthogonalArray,
    VerifyResult,
    aoa_merge,
    aoa_split,
    dual_aoa,
    linear_aoa,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    verify_aoa,
    verify_oa,
)
from oaramp.gf import field_for_order

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
FIELDS = (3, 4, 5, 7, 8, 9, 11, 13)
MAX_ROWS = 729  # the oracles count every subset's projections in Python
LIMITS = [None, 0]  # the real limit, and the rule on every array


def top_power(q):
    """The largest e with q^e rows within the oracles' budget."""
    return max(e for e in range(1, 7) if q**e <= MAX_ROWS)


@st.composite
def linear_aoas(draw):
    """A Shamir AOA(s,t,k,q), a dual AOA(s,t,t,q) from a Reed-Solomon basis,
    or a merge of a Reed-Solomon OA on some of its columns, with q <= 13."""
    q = draw(st.sampled_from(FIELDS))
    field = field_for_order(q)
    t = draw(st.integers(2, min(q, top_power(q))))
    kind = draw(st.sampled_from(["shamir", "dual", "merge"]))
    if kind == "shamir":
        s = draw(st.integers(1, t - 1))
        k = draw(st.integers(t, min(q, t + 3)))
        return linear_aoa(shamir_matrix(field, s, t, k), s, t, k)
    if kind == "dual":
        s = draw(st.integers(max(0, t - q), t - 2))
        return dual_aoa(rs_generator(field, t - s).columns(range(t)), s, t)
    s = draw(st.integers(max(0, 2 * t - q - 1), t - 1))
    n = draw(st.integers(2 * t - s, min(q + 1, 2 * t - s + 2)))  # k = n - (t - s) >= t
    cols = sorted(draw(st.lists(st.integers(0, q), min_size=n, max_size=n, unique=True)))
    return aoa_merge(oa_from_generator(rs_generator(field, t).columns(cols), t), s)


def variants(a, data):
    """``a`` as built, with one cell raised, with each column's symbols
    permuted, and with one row in place of another."""
    rows = [list(r) for r in a.rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    corrupted = [list(r) for r in rows]
    corrupted[i][j] = (rows[i][j] + data.draw(st.integers(1, a.v - 1))) % a.v
    perms = [data.draw(st.permutations(range(a.v))) for _ in rows[0]]
    relabelled = [[p[x] for p, x in zip(perms, row)] for row in rows]
    other = data.draw(st.integers(0, len(rows) - 1))
    replaced = [*rows[:other], rows[i], *rows[other + 1:]]
    return [a, *(AugmentedOA(a.s, a.t, a.k, a.v, r) for r in (corrupted, relabelled, replaced))]


@pytest.mark.parametrize("limit", LIMITS)
@SETTINGS
@given(linear_aoas(), st.data())
def test_verify_aoa_and_split_match_the_oracles(limit, a, data):
    with pytest.MonkeyPatch.context() as mp:
        if limit is not None:
            mp.setattr(designs, "_CERTIFY_VISITS", limit)
        for b in variants(a, data):
            check_aoa(b)  # verify_aoa, then aoa_split or its refusal


def test_the_rule_decides_linear_codes_alone():
    """On linear codes of v^t rows the rule gives each check's verdict: a
    Shamir AOA whose split fails, one whose split passes, and a merged array
    whose split is its own OA."""
    f11, f9 = field_for_order(11), field_for_order(9)
    cases = [(linear_aoa(shamir_matrix(f11, 2, 4, 8), 2, 4, 8), False),
             (linear_aoa(shamir_matrix(f9, 1, 2, 8), 1, 2, 8), True),
             (aoa_merge(oa_from_generator(rs_generator(f9, 3), 3), 1), True)]
    for a, split in cases:
        assert oracles.verify_aoa(a).ok and oracles.verify_oa(
            OrthogonalArray(a.t, a.k + a.aug_width, a.v, a.grid)).ok == split
        wide = OrthogonalArray(a.t, a.k + a.aug_width, a.v, a.grid)
        for array, check, verdict in [
                (a, (a.k, a.t, 0, "column_subset"), True),
                (a, (a.k, a.s, a.aug_width, "augmented_subset"), True),
                (wide, (wide.k, a.t, 0, "column_subset"), split)]:
            assert designs._certified(array, [check]) == verdict, (a, check)


def _fail(*args):
    pytest.fail("must not be reached")


def rs_oa(q, t):
    return oa_from_generator(rs_generator(field_for_order(q), t), t)


def shamir(q, s, t, k):
    return linear_aoa(shamir_matrix(field_for_order(q), s, t, k), s, t, k)


def visits(a):
    """Key visits of ``verify_oa`` or ``verify_aoa``'s scan."""
    if isinstance(a, OrthogonalArray):
        return len(a.grid) * math.comb(a.k, a.t)
    return len(a.grid) * (math.comb(a.k, a.t) + math.comb(a.k, a.s))


def test_linear_arrays_at_or_above_the_limit_never_reach_the_scan(monkeypatch):
    """RS OAs, Shamir, dual and merged AOAs at or above the key-visit limit,
    the deal-reconstruct scheme's GF(11) s=2 t=4 n=8 AOA among them, and the
    splits of the merged AOAs, verify with the scan patched to fail."""
    oas = [rs_oa(16, 2), rs_oa(8, 3), rs_oa(9, 4), rs_oa(13, 3)]
    merged = [aoa_merge(rs_oa(9, 3), 1), aoa_merge(rs_oa(8, 4), 1)]
    aoas = [shamir(11, 2, 4, 8), shamir(9, 1, 3, 9), shamir(25, 1, 2, 20),
            dual_aoa(rs_generator(field_for_order(5), 5).columns(range(6)), 1, 6), *merged]
    assert min(map(visits, oas + aoas)) >= designs._CERTIFY_VISITS
    monkeypatch.setattr(designs, "_first_repeat", _fail)
    for a in oas:
        assert verify_oa(a) == VerifyResult(True), a
    for a in aoas:
        assert verify_aoa(a) == VerifyResult(True), a
    for a in merged:
        got = aoa_split(a)
        assert got.ok and got.dependency is None and np.array_equal(got.array.grid, a.grid), a


def test_a_failing_split_pays_the_rule_and_then_the_scan(monkeypatch):
    """The GF(11) s=2 t=4 n=8 AOA is certified, and its split fails the rule:
    only the expanded array is scanned, and gives the scan's witness and
    dependency, the same as with no certificate at all."""
    a = shamir(11, 2, 4, 8)
    scans = []
    scan = designs._first_repeat
    monkeypatch.setattr(designs, "_first_repeat",
                        lambda b, checks: scans.append(type(b)) or scan(b, checks))
    got = aoa_split(a)
    assert scans == [OrthogonalArray]
    assert got.result.witness == designs.Witness("column_subset", (0, 1, 2, 9), (0, 0, 0, 0), 11)
    assert got.dependency.describe() == ("column 10 = 3*column 1 + 4*column 2 + 4*column 3 "
                                         "over GF(11)")
    monkeypatch.setattr(designs, "_CERTIFY_VISITS", math.inf)
    assert aoa_split(a) == got and scans == [OrthogonalArray] + [AugmentedOA, OrthogonalArray]
