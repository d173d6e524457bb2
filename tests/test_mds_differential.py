"""``verify_mds`` against the MDS oracle, and ``verify_oa``'s two paths.

An array is MDS exactly when it has v^t rows and strength t: v^t rows, any
two at Hamming distance k-t+1 or more, is the oracle, and ``verify_mds`` is
``verify_oa(a).ok``.  From ``designs._CERTIFY_VISITS`` key visits on,
``verify_oa`` certifies v^t rows that are a linear code over GF(v) of least
weight k-t+1 or more, and it scans everything else.
Linear arrays (Reed-Solomon arrays and their column subsets, split Shamir
arrays, the row spaces of random generators of any rank, so with and without
duplicate rows), their one-cell corruptions, per-column symbol relabellings
(distances kept, linearity lost) and duplicated rows must give the oracle's
verdict, and ``verify_oa`` must give the scan's own result, witness
included, at that limit and with the limit at 0.  Acceptance criterion 1's
arrays never reach the scan from the limit on.  Proper row
subsets, one row, more than v^t rows, alphabets that are not prime powers
(6, 10, 12) and a prime alphabet above the field order cap are never
certified; the caps come before the certificate and the scan.
"""

import io
import itertools
import math

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp import caps, designs
from oaramp.cli import main as cli_main
from oaramp.designs import (
    OrthogonalArray,
    VerifyResult,
    aoa_split,
    linear_aoa,
    load_array,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    verify_mds,
    verify_oa,
)
from oaramp.errors import CapExceeded
from oaramp.gf import ORDER_CAP, field_for_order
from oaramp.linalg import Matrix, row_space

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
FIELDS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
MAX_ROWS = 256  # the oracle compares every pair of rows in Python


def mds_by_oracle(a):
    return (len(a.rows) == a.expected_rows
            and oracles.min_distance(a.rows) >= a.k - a.t + 1)


def check(a):
    assert verify_mds(a) == mds_by_oracle(a)


OA_CHECK = "column_subset"


def strength(a):
    """``verify_oa``'s one check, as ``designs._verify`` and ``_certified`` take it."""
    return [(a.k, a.t, 0, OA_CHECK)]


def scanned(a):
    """``verify_oa`` by the row count and the scan alone."""
    if len(a.grid) != a.expected_rows:
        return VerifyResult(False, designs.Witness(
            "row_count", count=len(a.grid), expected=a.expected_rows))
    subsets = itertools.combinations(range(a.k), a.t)
    witness = designs._first_repeat(a, [(subsets, (), OA_CHECK)])
    return VerifyResult(witness is None, witness)


def same_params(a, rows):
    return OrthogonalArray(a.t, a.k, a.v, rows)


def top_power(q):
    """The largest e with q^e rows within the oracle's budget."""
    return max(e for e in range(1, 9) if q**e <= MAX_ROWS)


@st.composite
def linear_arrays(draw):
    """The row space of a generator over GF(q), q <= 16: a Reed-Solomon
    generator or some of its columns, a Shamir AOA generator (its split),
    or a random r x k matrix of any rank, whose duplicates are kept."""
    q = draw(st.sampled_from(FIELDS))
    field = field_for_order(q)
    kind = draw(st.sampled_from(["rs", "split", "random"]))
    if kind == "rs":
        t = draw(st.integers(2, min(q, top_power(q))))
        m = rs_generator(field, t)
        cols = draw(st.lists(st.integers(0, q), min_size=t, max_size=q + 1, unique=True))
        return oa_from_generator(m.columns(sorted(cols)), t)
    if kind == "split" and q >= 3 and q**2 <= MAX_ROWS:
        t = draw(st.integers(2, min(q, top_power(q))))
        s = draw(st.integers(1, t - 1))
        k = draw(st.integers(t, q))
        return aoa_split(linear_aoa(shamir_matrix(field, s, t, k), s, t, k)).array
    r = draw(st.integers(1, top_power(q)))
    k = draw(st.integers(1, 6))
    entries = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=k, max_size=k),
                            min_size=r, max_size=r))
    t = draw(st.integers(1, k))  # r < t gives a rank-deficient code with v^r rows
    return OrthogonalArray(t, k, q, row_space(Matrix(field, entries)))


@SETTINGS
@given(linear_arrays())
def test_linear_arrays_match_the_oracle_by_certificate(a):
    """Every linear array of v^t rows, duplicates included, is decided by the
    certificate alone: it passes exactly the MDS arrays."""
    check(a)
    if len(a.rows) == a.expected_rows:
        assert designs._certified(a, strength(a)) == mds_by_oracle(a)


@SETTINGS
@given(linear_arrays(), st.data())
def test_verify_oa_gives_the_scans_result(a, data):
    """``verify_oa`` gives the coverage scan's result, witness included, on
    the array as built, with one cell corrupted, with each column's symbols
    permuted, and with one row in place of another or added; at the
    certificate's key-visit limit, and with the limit at 0 so that small
    arrays try the certificate too."""
    rows = [list(r) for r in a.rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, a.k - 1))
    corrupted = [list(r) for r in rows]
    corrupted[i][j] = (rows[i][j] + data.draw(st.integers(1, a.v - 1))) % a.v
    perms = [data.draw(st.permutations(range(a.v))) for _ in range(a.k)]
    relabelled = [[p[x] for p, x in zip(perms, row)] for row in rows]
    other = data.draw(st.integers(0, len(rows) - 1))
    replaced = [*rows[:other], rows[i], *rows[other + 1:]]
    variants = [corrupted, relabelled, replaced, [*rows, rows[i]]]
    for limit in (designs._CERTIFY_VISITS, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(designs, "_CERTIFY_VISITS", limit)
            for b in [a, *(same_params(a, r) for r in variants)]:
                assert verify_oa(b) == scanned(b)


@SETTINGS
@given(linear_arrays(), st.data())
def test_one_cell_corruptions_match_the_oracle(a, data):
    rows = [list(r) for r in a.rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, a.k - 1))
    rows[i][j] = (rows[i][j] + data.draw(st.integers(1, a.v - 1))) % a.v
    check(same_params(a, rows))


@SETTINGS
@given(linear_arrays(), st.data())
def test_column_relabellings_keep_the_verdict(a, data):
    """A symbol permutation per column keeps every distance, and most of
    them make the rows no linear code."""
    perms = [data.draw(st.permutations(range(a.v))) for _ in range(a.k)]
    b = same_params(a, [[p[x] for p, x in zip(perms, row)] for row in a.rows])
    assert oracles.min_distance(b.rows) == oracles.min_distance(a.rows)
    check(b)
    assert verify_mds(b) == verify_mds(a)


def test_a_shifted_column_leaves_no_linear_code():
    """x -> x + 1 in the first column moves the zero row off zero and gives
    the code's translate by e_1, which is no linear code: its distances are
    the code's, and the scan finds them."""
    a = oa_from_generator(rs_generator(field_for_order(5), 2), 2)
    b = same_params(a, [[(row[0] + 1) % 5, *row[1:]] for row in a.rows])
    assert designs._certified(a, strength(a))
    assert not designs._certified(b, strength(b))
    assert verify_mds(b) and mds_by_oracle(b)


@SETTINGS
@given(linear_arrays(), st.data())
def test_duplicated_rows_and_single_rows_match_the_oracle(a, data):
    row = list(a.rows[data.draw(st.integers(0, len(a.rows) - 1))])
    check(same_params(a, [*a.rows, row]))
    check(same_params(a, [row]))


@SETTINGS
@given(st.sampled_from([6, 10, 12, ORDER_CAP + 1]), st.data())
def test_alphabets_without_a_field_match_the_oracle(v, data):
    """v = 6, 10, 12 are not prime powers, and 65537 is a prime above the
    field order cap: random rows, or the zero-sum array over Z_v."""
    k = data.draw(st.integers(1, 5))
    if v <= 12 and data.draw(st.booleans()):
        rows = [[x, y, (-x - y) % v] for x in range(v) for y in range(v)]
        a = OrthogonalArray(2, 3, v, rows)
    else:
        symbols = st.integers(0, v - 1) if data.draw(st.booleans()) else st.integers(0, 2)
        rows = data.draw(st.lists(st.lists(symbols, min_size=k, max_size=k),
                                  min_size=1, max_size=40))
        t = data.draw(st.integers(1, k)) if v <= 12 else 1  # v^t * k cells
        a = OrthogonalArray(t, k, v, rows)
    check(a)


def test_the_scan_finds_the_least_distance():
    """An array passes at t exactly when it has v^t rows at least distance
    k-t+1 apart: a Reed-Solomon array over GF(5), a product array over Z_6,
    and the former with one cell corrupted near the start, inside and at the
    last row, at every t."""
    base = oa_from_generator(rs_generator(field_for_order(5), 2), 2)
    arrays = [base, OrthogonalArray(2, 3, 6, [[x, y, (x * y) % 6] for x in range(6)
                                              for y in range(6)])]
    for i in (0, 7, 24):
        rows = [list(r) for r in base.rows]
        rows[i][i % base.k] = (rows[i][i % base.k] + 1) % 5
        arrays.append(same_params(base, rows))
    verdicts = []
    for a in arrays:
        for t in range(1, a.k + 1):
            b = OrthogonalArray(t, a.k, a.v, a.grid)
            check(b)
            verdicts.append(verify_mds(b))
    assert verdicts.count(True) == 1  # the Reed-Solomon array at t = 2


def _fail(*args):
    pytest.fail("must not be reached")


def _construct(q, t):
    out = io.StringIO()
    assert cli_main(["construct", "oa-rs", "--q", str(q), "--t", str(t)],
                    stdin=io.StringIO(""), stdout=out) == 0
    return load_array(out.getvalue())


def test_linear_arrays_never_reach_the_scan(monkeypatch):
    """Acceptance criterion 1's arrays and the benchmark's OA(2,17,16): from
    the key-visit limit on they are certified and never scanned, and below
    it they are scanned; with the limit at 0, every one is certified."""
    cases = [(q, t) for q in (2, 3, 4, 5, 7, 8, 9) for t in range(2, min(q, 4) + 1)]
    arrays = [_construct(q, t) for q, t in [*cases, (16, 2)]]
    scans = []
    scan = designs._first_repeat
    monkeypatch.setattr(designs, "_first_repeat",
                        lambda b, checks: scans.append(b) or scan(b, checks))
    for a in arrays:
        scans.clear()
        assert verify_oa(a) == VerifyResult(True) and verify_mds(a), a
        below = len(a.grid) * math.comb(a.k, a.t) < designs._CERTIFY_VISITS
        assert scans == ([a, a] if below else []), a
    assert len(arrays[-1].grid) * math.comb(17, 2) >= designs._CERTIFY_VISITS  # OA(2,17,16)
    monkeypatch.setattr(designs, "_first_repeat", _fail)
    monkeypatch.setattr(designs, "_CERTIFY_VISITS", 0)
    for a in arrays:
        assert verify_oa(a) == VerifyResult(True) and verify_mds(a), a


def test_the_subset_cap_is_checked_before_any_scan(monkeypatch):
    linear = oa_from_generator(rs_generator(field_for_order(3), 2), 2)
    rows = [list(r) for r in linear.rows]
    rows[4][1] = (rows[4][1] + 1) % 3
    corrupted = same_params(linear, rows)  # 4 columns: C(4, 2) = 6 subsets
    monkeypatch.setattr(designs, "_first_repeat", _fail)
    monkeypatch.setattr(designs, "_certified", _fail)
    monkeypatch.setattr(caps, "SUBSETS", 5)
    for a in (corrupted, linear):  # before the certificate too
        with pytest.raises(CapExceeded, match="^verification needs 6 column subsets, cap is 5$"):
            verify_mds(a)
    monkeypatch.undo()
    monkeypatch.setattr(caps, "SUBSETS", 6)
    assert verify_mds(linear) and not verify_mds(corrupted)
    monkeypatch.undo()
    repetition = OrthogonalArray(1, caps.SUBSETS + 1, 2, [[0] * (caps.SUBSETS + 1),
                                                          [1] * (caps.SUBSETS + 1)])
    with pytest.raises(CapExceeded, match="^verification needs 100001 column subsets"):
        verify_mds(repetition)  # MDS, but strength 1 escapes the Bush bound


def test_a_prime_alphabet_above_the_field_cap_is_scanned(monkeypatch):
    """65537 rows (x, 3x mod 65537) are a linear code over GF(65537), but no
    field is built above the cap: the scan gives the verdict."""
    v = ORDER_CAP + 1
    a = OrthogonalArray(1, 2, v, [[x, 3 * x % v] for x in range(v)])
    seen = []
    scan = designs._first_repeat
    monkeypatch.setattr(designs, "field_for_order", _fail)
    monkeypatch.setattr(designs, "_first_repeat",
                        lambda b, checks: seen.append(len(b.grid)) or scan(b, checks))
    assert verify_mds(a) and seen == [v]
    rows = [[x, 3 * x % v] for x in range(v)]
    rows[5][1] = rows[6][1]
    assert not verify_mds(same_params(a, rows)) and seen == [v, v]


@SETTINGS
@given(linear_arrays(), st.data())
def test_proper_row_subsets_match_the_oracle(a, data):
    """Fewer than v^t rows of a linear array: never MDS, and refused on the
    row count."""
    n = data.draw(st.integers(1, min(len(a.grid), a.expected_rows) - 1))
    order = data.draw(st.permutations(range(len(a.grid))))
    check(same_params(a, a.grid[sorted(order[:n])]))


@pytest.mark.parametrize("rows", [
    [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0], [1, 1, 1]],
    [[0, 0, 0]] * 200_000,
])
def test_more_than_v_to_the_t_rows_are_refused_at_once(monkeypatch, rows):
    """v^t + 1 rows, or many more, repeat a tuple on every t columns."""
    monkeypatch.setattr(designs, "_certified", _fail)
    monkeypatch.setattr(designs, "_first_repeat", _fail)
    assert not verify_mds(OrthogonalArray(2, 3, 2, rows))
