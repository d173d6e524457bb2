"""Differential tests: the grid-based verifiers, split, audit, reconstruction
and dealing against the pure-Python reference versions in ``oracles``.

Inputs cover alphabets 2..6 (6 is not a prime power): random candidates with
wrong row counts, one- to four-cell corruptions of constructed arrays, swapped
augmented tuples, non-ideal, short and weighted rule tables, and bundles
that are valid, inconsistent or ambiguous.  Reconstruction also runs on
tables of up to 130 players, and over v = 1000 and v = 2**70, whose packed
share ranks fill several words.  Every result must be equal to the
oracle's, field by field.

The verifiers' mark path is pinned at its edges (a first failure after many
passing subsets, in the last run of subsets sharing leading columns, and in
the augmented check with s = 0 and s = t-1), and the audit's dense tables are
checked against their ``np.unique`` fallback by lowering the table limit.
The split of constructed AOAs, as built and with their symbols relabelled,
must equal a full ``verify_oa`` of the expanded array.
"""

import dataclasses
import itertools
import math
import random
from operator import itemgetter
from types import SimpleNamespace

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oaramp.designs
import oaramp.ramp
from oaramp.designs import (
    AugmentedOA,
    ColumnDependency,
    OrthogonalArray,
    SplitResult,
    _id_bound,
    _ids,
    _ranks,
    aoa_merge,
    aoa_split,
    demo_aoa_1333,
    dual_aoa,
    linear_aoa,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    verify_aoa,
    verify_oa,
)
from oaramp.gf import field_for_order
from oaramp.linalg import Matrix, row_space
from oaramp.ramp import (
    RampScheme,
    ShareBundle,
    audit_security,
    deal,
    reconstruct,
    scheme_from_aoa,
    scheme_shamir,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)
PRIME_POWERS = (2, 3, 4, 5)


def zero_sum_oa(t, v):
    """OA(t, t+1, v) for any v: every t-tuple, then minus its sum mod v."""
    rows = [x + ((-sum(x)) % v,) for x in itertools.product(range(v), repeat=t)]
    return OrthogonalArray(t, t + 1, v, rows)


@st.composite
def constructed_oa(draw, v=None):
    """A verified OA: the zero-sum array for any v, or a Reed-Solomon array."""
    if v is None:
        v = draw(st.integers(2, 6))
    if v in PRIME_POWERS and draw(st.booleans()):
        t = draw(st.integers(2, min(v, 3)))
        return oa_from_generator(rs_generator(field_for_order(v), t), t)
    return zero_sum_oa(draw(st.integers(1, 3 if v <= 4 else 2)), v)


@st.composite
def constructed_aoa(draw):
    """A verified AOA: a merge of a constructed OA, or a Shamir array."""
    v = draw(st.integers(2, 6))
    if v in (3, 4, 5) and draw(st.booleans()):
        t = draw(st.integers(2, 3))
        s = draw(st.integers(1, t - 1))
        k = draw(st.integers(t, v))
        return linear_aoa(shamir_matrix(field_for_order(v), s, t, k), s, t, k)
    oa = draw(constructed_oa(v))
    s = draw(st.integers(max(0, 2 * oa.t - oa.k), oa.t - 1))
    return aoa_merge(oa, s)


def rows_of(a):
    return [list(r) for r in a.rows]


def corrupt_cell(draw, a):
    rows = rows_of(a)
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] = (rows[i][j] + draw(st.integers(1, a.v - 1))) % a.v
    return rows


def same_aoa(a, rows):
    return AugmentedOA(a.s, a.t, a.k, a.v, rows)


def plain(obj):
    """``obj`` after checking that no numpy scalar hides inside it: a numpy int
    equals a Python int but prints as ``np.int64(3)``, which would change the
    CLI's output."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            plain(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            plain(x)
    else:
        assert not isinstance(obj, np.generic), f"numpy scalar {obj!r}"
    return obj


def check_oa(a):
    assert plain(verify_oa(a)) == oracles.verify_oa(a)
    plain(a.rows)


def check_aoa(a):
    assert plain(verify_aoa(a)) == oracles.verify_aoa(a)
    try:
        expected = oracles.aoa_split(a)
    except ValueError as exc:
        with pytest.raises(ValueError, match="fails AOA verification") as got:
            aoa_split(a)
        assert str(got.value) == str(exc)
        return
    got = aoa_split(a)
    assert got == expected
    plain((got.result, got.dependency, got.array.rows))


# --- verify_oa / verify_aoa / aoa_split ----------------------------------------


@SETTINGS
@given(st.data())
def test_random_oa_candidates(data):
    v = data.draw(st.integers(2, 6))
    t = data.draw(st.integers(1, 3 if v <= 4 else 2))
    k = data.draw(st.integers(t, 4))
    n_rows = data.draw(st.sampled_from([v**t - 1, v**t, v**t, v**t + 1]))
    row = st.lists(st.integers(0, v - 1), min_size=k, max_size=k)
    rows = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    check_oa(OrthogonalArray(t, k, v, rows))


@SETTINGS
@given(st.data())
def test_random_aoa_candidates(data):
    v = data.draw(st.integers(2, 6))
    t = data.draw(st.integers(1, 3 if v <= 4 else 2))
    s = data.draw(st.integers(0, t - 1))
    k = data.draw(st.integers(t, 4))
    n_rows = data.draw(st.sampled_from([v**t - 1, v**t, v**t, v**t + 1]))
    row = st.lists(st.integers(0, v - 1), min_size=k + t - s, max_size=k + t - s)
    rows = data.draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    check_aoa(AugmentedOA(s, t, k, v, rows))


@SETTINGS
@given(st.data())
def test_one_cell_corruptions_of_constructed_oas(data):
    a = data.draw(constructed_oa())
    check_oa(a)
    check_oa(OrthogonalArray(a.t, a.k, a.v, corrupt_cell(data.draw, a)))


@SETTINGS
@given(st.data())
def test_one_cell_corruptions_of_constructed_aoas(data):
    a = data.draw(constructed_aoa())
    check_aoa(a)
    check_aoa(same_aoa(a, corrupt_cell(data.draw, a)))


@SETTINGS
@given(st.data())
def test_swapped_augmented_tuples(data):
    a = data.draw(constructed_aoa())
    rows = rows_of(a)
    i, j = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2,
                              unique=True))
    rows[i][a.k:], rows[j][a.k:] = rows[j][a.k:], rows[i][a.k:]
    check_aoa(same_aoa(a, rows))


# --- the mark path's edges ------------------------------------------------------


def rs_oa(q, t):
    return oa_from_generator(rs_generator(field_for_order(q), t), t)


def with_columns(a, values):
    """The rows of ``a`` with column c set to ``values[c](row)`` for each c given."""
    return [[values[c](r) if c in values else x for c, x in enumerate(r)] for r in a.rows]


def check_oa_witness(a, columns):
    got = verify_oa(a)
    assert got == oracles.verify_oa(a)
    assert got.witness.kind == "column_subset" and got.witness.columns == columns


def test_mark_path_finds_a_failure_after_many_passing_subsets():
    a = rs_oa(7, 2)  # OA(2,8,7): 28 subsets, the last one made to fail
    check_oa_witness(OrthogonalArray(2, 8, 7, with_columns(a, {7: itemgetter(6)})), (6, 7))
    a = rs_oa(8, 3)  # OA(3,9,8): (0,7,8) is subset 28 of 84
    check_oa_witness(OrthogonalArray(3, 9, 8, with_columns(a, {8: itemgetter(7)})), (0, 7, 8))


def test_mark_path_finds_a_failure_in_the_last_subset_of_the_last_prefix_run():
    # over GF(5), column 5 := column 3 + column 4 leaves every 3-subset
    # independent except (3, 4, 5), the last of all 20
    a = rs_oa(5, 3)
    rows = with_columns(a, {5: lambda r: (r[3] + r[4]) % 5})
    check_oa_witness(OrthogonalArray(3, 6, 5, rows), (3, 4, 5))


@pytest.mark.parametrize("q,t,s,aug,columns", [
    (5, 2, 0, lambda r: [r[0], r[0]], ()),  # s = 0: the tail alone is not a bijection
    (7, 2, 1, lambda r: [r[6]], (6,)),  # s = t-1: fails only with column 6
    (5, 3, 2, lambda r: [r[4]], (0, 4)),
])
def test_mark_path_finds_a_failure_in_the_augmented_check(q, t, s, aug, columns):
    a = aoa_merge(rs_oa(q, t), s)
    bad = AugmentedOA(s, t, a.k, q, [list(r[:a.k]) + aug(r) for r in a.rows])
    got = verify_aoa(bad)
    assert got == oracles.verify_aoa(bad)
    assert got.witness.kind == "augmented_subset" and got.witness.columns == columns


@pytest.mark.parametrize("a", [
    rs_oa(8, 3), rs_oa(5, 5), zero_sum_oa(1, 6), zero_sum_oa(3, 4),
    aoa_merge(rs_oa(5, 2), 0), aoa_merge(rs_oa(7, 3), 2),
    linear_aoa(shamir_matrix(field_for_order(9), 2, 4, 6), 2, 4, 6),
], ids=repr)
def test_valid_arrays_never_reach_the_counting_witness(a, monkeypatch):
    def counted(*args):
        raise AssertionError("_tally reached on a valid array")

    monkeypatch.setattr(oaramp.designs, "_tally", counted)
    assert (verify_oa(a) if isinstance(a, OrthogonalArray) else verify_aoa(a)).ok


def split_by_full_scan(a):
    """``aoa_split`` of a valid AOA by ``verify_oa`` over every t-subset of the
    expanded array, its dependency read from the ``np.unique`` rows of the
    witness columns by the oracle's elimination."""
    wide = OrthogonalArray(a.t, a.k + a.aug_width, a.v, a.grid)
    res = verify_oa(wide)
    if res.ok or oracles.factor_prime_power(a.v) is None:
        return SplitResult(wide, res)
    f, cols = field_for_order(a.v), res.witness.columns
    x = oracles.kernel_vector(f, np.unique(wide.grid[:, cols], axis=0).tolist())
    if x is None:
        return SplitResult(wide, res)
    lead = max(i for i, xi in enumerate(x) if xi)
    combo = tuple((cols[i], f.neg(f.mul(f.inv(x[lead]), x[i]))) for i in range(lead) if x[i])
    return SplitResult(wide, res, ColumnDependency(cols[lead], combo, a.v))


def shamir_aoa(q, s, t, k):
    return linear_aoa(shamir_matrix(field_for_order(q), s, t, k), s, t, k)


def dual_rs_aoa(q, s, t):
    return dual_aoa(rs_generator(field_for_order(q), t - s).columns(range(t)), s, t)


SPLIT_CASES = (
    [shamir_aoa(*c) for c in [(4, 1, 2, 4), (5, 1, 3, 5), (7, 1, 3, 7), (8, 2, 3, 8),
                              (9, 1, 3, 9), (5, 1, 4, 5), (5, 2, 4, 5)]]
    + [dual_rs_aoa(*c) for c in [(3, 1, 4), (4, 0, 2), (4, 1, 3), (5, 0, 3), (5, 2, 4),
                                 (7, 1, 3)]]
    + [aoa_merge(rs_oa(q, t), s) for q, t, s in [(3, 2, 0), (3, 2, 1), (4, 3, 1), (5, 3, 0),
                                                 (5, 3, 2), (7, 2, 1), (8, 3, 1)]]
    + [demo_aoa_1333()])


def relabelled(a, seed):
    """``a`` with each column's symbols permuted: still an AOA, no longer linear."""
    rng = np.random.default_rng(seed)
    grid = np.stack([rng.permutation(a.v)[col] for col in a.grid.T], axis=1)
    return AugmentedOA(a.s, a.t, a.k, a.v, grid)


def is_linear_code(a):
    """Whether the grid is the row space of rows v^(t-1), ..., v, 1, its
    positional basis, over GF(v)."""
    if oracles.factor_prime_power(a.v) is None:
        return False
    basis = Matrix(field_for_order(a.v), a.grid[[a.v**e for e in reversed(range(a.t))]])
    return np.array_equal(row_space(basis), a.grid)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("a", SPLIT_CASES, ids=repr)
def test_split_scans_only_the_mixed_subsets_and_matches_a_full_scan(a, seed):
    """The split scans only the mixed subsets, none when s = t-1, unless it
    certifies a linear code from the key-visit limit on, which it does at the
    real limit and with the limit at 0.  Relabelled arrays are mostly no
    linear code, and are scanned."""
    if seed is not None:
        a = relabelled(a, seed)
    assert verify_aoa(a).ok
    mixed = [cols for cols in itertools.combinations(range(a.k + a.aug_width), a.t)
             if 0 < sum(c >= a.k for c in cols) < a.aug_width]
    scan = oaramp.designs._first_repeat
    for limit in (oaramp.designs._CERTIFY_VISITS, 0):
        wide_scans = []

        def recorded(array, checks):
            if isinstance(array, OrthogonalArray):
                checks = [(list(subsets), tail, kind) for subsets, tail, kind in checks]
                wide_scans.append([cols for subsets, _, _ in checks for cols in subsets])
            return scan(array, checks)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(oaramp.designs, "_first_repeat", recorded)
            mp.setattr(oaramp.designs, "_CERTIFY_VISITS", limit)
            got = aoa_split(a)
        assert got == split_by_full_scan(a)
        plain((got.result, got.dependency))
        certified = got.ok and is_linear_code(a) and len(a.grid) * len(mixed) >= limit
        # for s = t-1 there are none, and the coverage kernel is not reached
        assert wide_scans == ([mixed] if mixed and not certified else [])


# (array, corruptions drawn): OAs, then AOAs with s = 0, 1 and 2
MULTI_CELL_CASES = [
    (rs_oa(4, 3), 40), (rs_oa(7, 2), 40), (zero_sum_oa(2, 6), 40),
    (aoa_merge(rs_oa(5, 2), 0), 40), (dual_rs_aoa(5, 0, 3), 30),
    (shamir_aoa(5, 1, 3, 5), 40), (aoa_merge(rs_oa(4, 3), 1), 40),
    (aoa_merge(rs_oa(5, 3), 2), 40), (dual_rs_aoa(4, 2, 4), 40), (shamir_aoa(7, 2, 4, 6), 12),
]


@pytest.mark.parametrize("a,draws", MULTI_CELL_CASES, ids=[repr(a) for a, _ in MULTI_CELL_CASES])
def test_witnesses_of_multi_cell_corruptions_match_the_oracle(a, draws):
    """One to four seeded corrupted cells.  Two or more often leave several
    offending tuples in the first failing subset, and the witness is the
    least of them with the subset's columns in order, augmented digits last.
    A corrupted plain cell usually breaks condition (i) first, so half the
    corruptions of an AOA touch only its augmented digits.  Every split,
    of the array as built and as corrupted, is compared too."""
    rng = random.Random(19)
    aug = isinstance(a, AugmentedOA)
    if aug:
        check_aoa(a)
    for _ in range(draws):
        rows = rows_of(a)
        first = a.k if aug and rng.random() < 0.5 else 0
        places = [(i, j) for i in range(len(rows)) for j in range(first, len(rows[0]))]
        for i, j in rng.sample(places, rng.randint(1, 4)):
            rows[i][j] = (rows[i][j] + rng.randrange(1, a.v)) % a.v
        if aug:
            check_aoa(same_aoa(a, rows))
        else:
            check_oa(OrthogonalArray(a.t, a.k, a.v, rows))


# --- schemes: audit, reconstruct, deal -------------------------------------------


def small_aoa():
    """Constructed AOAs whose audits stay cheap for the oracle."""
    return constructed_aoa().filter(lambda a: a.v**a.t <= 125 and a.k <= 5)


CHANGES = ("as-is", "non-ideal", "one-secret", "one-share", "permuted")


@st.composite
def rule_tables(draw, changes=CHANGES, vary=True):
    """A scheme from a constructed AOA, with one of ``changes`` applied: made
    non-ideal, corrupted in one secret or one share, or given permuted
    secrets.  With ``vary`` it may also be made short and given small
    positive integer weights."""
    a = draw(small_aoa())
    rows = rows_of(a)
    if vary and draw(st.booleans()):  # short: drop some rules
        keep = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, unique=True))
        rows = [rows[i] for i in sorted(keep)]
    kind = draw(st.sampled_from(changes))
    if kind == "non-ideal":  # fold the first secret digit onto fewer values
        for r in rows:
            r[a.k] = r[a.k] % max(1, a.v - 1)
    elif kind == "one-secret":
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(a.k, len(rows[i]) - 1))
        rows[i][j] = (rows[i][j] + 1) % a.v
    elif kind == "one-share":  # to a value that keeps the share vectors distinct
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, a.k - 1))
        taken = {tuple(r[:a.k]) for r in rows}
        free = [x for x in range(a.v)
                if tuple(rows[i][:j] + [x] + rows[i][j + 1:a.k]) not in taken]
        if free:
            rows[i][j] = draw(st.sampled_from(free))
    elif kind == "permuted":
        secrets = draw(st.permutations([r[a.k:] for r in rows]))
        rows = [r[:a.k] + sec for r, sec in zip(rows, secrets)]
    rules = [(r[:a.k], r[a.k:]) for r in rows]
    weights = None
    if vary and draw(st.booleans()):
        weights = draw(st.lists(st.integers(1, 3), min_size=len(rules), max_size=len(rules)))
    return RampScheme(a.s, a.t, a.k, a.v, rules, weights)


@st.composite
def random_rule_tables(draw):
    """Distinct random share vectors with random secrets and weights."""
    v = draw(st.integers(2, 6))
    t = draw(st.integers(1, 3))
    s = draw(st.integers(0, t - 1))
    n = draw(st.integers(t, 4))
    share = st.tuples(*[st.integers(0, v - 1)] * n)
    shares = draw(st.lists(share, min_size=1, max_size=40, unique=True))
    secret = st.tuples(*[st.integers(0, v - 1)] * (t - s))
    rules = [(sh, draw(secret)) for sh in shares]
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rules), max_size=len(rules)))
    return RampScheme(s, t, n, v, rules, weights)


schemes = st.one_of(small_aoa().map(scheme_from_aoa), rule_tables(), random_rule_tables())


@settings(SETTINGS, max_examples=150)
@given(schemes)
def test_audit_matches_oracle(sch):
    assert plain(audit_security(sch)) == oracles.audit_security(sch)


@SETTINGS
@given(rule_tables(changes=("one-secret", "one-share", "permuted"), vary=False))
def test_audit_of_corrupted_uniform_schemes_matches_oracle(sch):
    """Full tables with uniform weights: every perfect and bijection check runs."""
    assert plain(audit_security(sch)) == oracles.audit_security(sch)


@SETTINGS
@given(schemes)
def test_audit_with_every_table_over_the_limit_matches_oracle(sch):
    """A dense-table limit of one cell sends every count through np.unique."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oaramp.designs, "_DENSE_CELLS", 1)
        assert plain(audit_security(sch)) == oracles.audit_security(sch)


@SETTINGS
@given(schemes)
def test_audit_one_subset_per_block_matches_oracle(sch):
    """A block budget of one cell takes every subset and every pair alone."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oaramp.ramp, "_BLOCK_CELLS", 1)
        assert plain(audit_security(sch)) == oracles.audit_security(sch)


@SETTINGS
@given(schemes)
def test_audit_with_pairs_split_across_blocks_matches_oracle(sch):
    """A budget of C(n-s, t-s) - 1 pairs per block (at least one) puts the
    first s-subset's pairs in two blocks.  A scheme that is not ideal has
    no pairs and takes its last size of subsets two to a block."""
    blocks = oaramp.ramp._blocks
    calls = []

    def spy(items, cells):
        calls.append((cells, list(blocks(items, cells))))
        return iter(calls[-1][1])

    per_block = 2
    if sch.is_ideal:
        per_block = max(1, math.comb(sch.n - sch.s, sch.t - sch.s) - 1)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oaramp.ramp, "_blocks", spy)
        audit_security(sch)  # the last call's cells are those of a pair
        mp.setattr(oaramp.ramp, "_BLOCK_CELLS", per_block * calls[-1][0])
        calls.clear()
        assert plain(audit_security(sch)) == oracles.audit_security(sch)
    if not sch.is_ideal:
        return
    pairs = calls[-1][1]
    assert all(len(block) == per_block for block in pairs[:-1])
    if per_block > 1:  # the first s-subset's last pair opens the second block
        assert pairs[1][0][0] == pairs[0][0][0]


@SETTINGS
@given(st.data(), st.sampled_from([1, 2**24]))
def test_ranks_match_np_unique(data, limit):
    """``_ranks``, and ``_ids`` over a block of subsets, against np.unique:
    a limit of one cell ranks every projection but those onto no columns."""
    v = data.draw(st.integers(2, 6))
    width = data.draw(st.integers(0, 5))
    rows = data.draw(st.integers(0, 40))
    grid = np.array(data.draw(st.lists(st.lists(st.integers(0, v - 1), min_size=width,
                                                max_size=width), min_size=rows, max_size=rows)),
                    dtype=np.int64).reshape(rows, width)
    cols = data.draw(st.lists(st.integers(0, width - 1), unique=True)) if width else []
    # a block of subsets of one size, for ``_ids``
    size = data.draw(st.integers(0, width))
    block = data.draw(st.lists(st.permutations(range(width)).map(lambda p: p[:size]),
                               min_size=1, max_size=4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oaramp.designs, "_DENSE_CELLS", limit)
        projs, rank = _ranks(grid, cols, v)
        ids = _ids(np.ascontiguousarray(grid.T), block, v)
        bound = _id_bound(v, size, rows)
    want_projs, want_rank = np.unique(grid[:, cols], axis=0, return_inverse=True)
    for got, want in ((projs, want_projs), (rank, want_rank)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
    assert ids.shape == (len(block), rows)
    for subset, got in zip(block, ids):
        assert ((0 <= got) & (got < bound)).all()
        want = np.unique(grid[:, list(subset)], axis=0, return_inverse=True)[1]
        assert np.array_equal(np.unique(got, return_inverse=True)[1], want)


def test_ranks_of_no_columns_over_an_alphabet_past_int64():
    grid = np.array([[2**62, 1], [5, 0], [2**62, 1]], dtype=np.int64)
    projs, rank = _ranks(grid, [], 2**70)
    assert projs.shape == (1, 0) and projs.dtype == np.int64 and rank.tolist() == [0, 0, 0]


def check_reconstruct(sch, data, ends=False):
    """A bundle of t..n players, its lowest player any index that leaves room
    for the rest (with ``ends``, players 1 and n and any others), holding one
    rule's shares: as they are, one shifted by one, all random, or one (at
    any position) outside [0, v).  Returns the bundle's players."""
    rules = sch.rules
    size = data.draw(st.integers(max(sch.t, 2 if ends else 1), sch.n))
    lowest = 1 if ends else data.draw(st.integers(1, sch.n - size + 1))
    rest = data.draw(st.permutations(range(lowest + 1, sch.n + 1)))
    rest = ([sch.n] + [p for p in rest if p != sch.n] if ends else rest)[:size - 1]
    players = [lowest, *rest]
    base = data.draw(st.sampled_from(rules))[0]
    values = [base[p - 1] for p in players]
    kind = data.draw(st.sampled_from(["valid", "shifted", "random", "out-of-range"]))
    if kind == "shifted":  # usually inconsistent
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = (values[i] + 1) % sch.v
    elif kind == "random":
        values = [data.draw(st.integers(0, sch.v - 1)) for _ in players]
    elif kind == "out-of-range":
        i = data.draw(st.integers(0, len(values) - 1))
        values[i] = data.draw(st.sampled_from([-1, sch.v, 10**20]))
    bundle = ShareBundle(dict(zip(players, values)))
    assert plain(reconstruct(sch, bundle)) == oracles.reconstruct(sch, bundle)
    return players


def check_window_layout(sch):
    """The share index's windows, from the grid: ``window[p][j]`` packs the
    share ranks of players p, ..., p + 32 // b - 1 of row ``order[p][j]``,
    b bits each from bit 0 up and nothing above them, b the bit length of
    the largest rank."""
    order, values, _, window, b = sch._share_index
    assert b == max(1, (max(map(len, values)) - 1).bit_length())
    assert window.dtype == np.uint32 and window.shape == (sch.n, len(sch.weights))
    ranks = [np.searchsorted(np.array(values[p], dtype=np.int64), sch.aoa.grid[:, p])
             for p in range(sch.n)]
    for p in range(sch.n):
        want = sum(ranks[q][order[p]] << b * (q - p) for q in range(p, min(p + 32 // b, sch.n)))
        assert window[p].tolist() == want.tolist()


@SETTINGS
@given(schemes, st.data())
def test_reconstruct_matches_oracle(sch, data):
    check_reconstruct(sch, data)


@SETTINGS
@given(random_rule_tables(), st.data())
def test_reconstruct_on_uneven_share_buckets_matches_oracle(sch, data):
    """Random rule tables: non-ideal, with share buckets of unequal sizes, so
    the smallest bucket is often not the lowest player's."""
    check_reconstruct(sch, data)


@st.composite
def wide_rule_tables(draw):
    """Random rule tables whose players do not fit one window of packed share
    ranks: 64 to 130 players over v = 2 (a bit a rank, 32 players a window),
    or 22 to 40 players over v = 1000 or v = 2**70 whose shares take 8 to 70
    values (3 to 7 bits a rank, 10 to 4 players a window)."""
    v = draw(st.sampled_from([2, 1000, 2**70]))
    n = draw(st.integers(64, 130) if v == 2 else st.integers(22, 40))
    t = draw(st.integers(1, 3))
    s = draw(st.integers(0, t - 1))
    symbols = [0, 1] if v == 2 else draw(st.lists(
        st.integers(0, min(v, 2**63) - 1), min_size=8, max_size=70, unique=True))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shares = {tuple(rng.choice(symbols) for _ in range(n))
              for _ in range(draw(st.integers(8, 40)))}
    rules = [(sh, tuple(rng.choice(symbols[:2]) for _ in range(t - s))) for sh in shares]
    return RampScheme(s, t, n, v, rules)


@SETTINGS
@given(wide_rule_tables(), st.data())
def test_reconstruct_with_players_past_one_window_matches_oracle(sch, data):
    """Bundles name players anywhere, and a shifted share at any one of them
    must fail the compare.  The second bundle holds players 1 and n, more
    than a window apart, so it always reaches past the window of its
    smallest share bucket, whichever player's bucket that is."""
    check_window_layout(sch)
    check_reconstruct(sch, data)
    players = check_reconstruct(sch, data, ends=True)
    assert {1, sch.n} <= set(players) and sch.n - 1 >= 32 // sch._share_index[4]


@pytest.mark.parametrize("n, v, values, b", [
    (32, 2, 2, 1), (33, 2, 2, 1), (16, 5, 3, 2), (17, 5, 3, 2),
    (8, 17, 16, 4), (9, 17, 16, 4), (4, 2**70, 65, 7), (5, 2**70, 65, 7)])
def test_share_ranks_take_b_bits_and_a_window_holds_32_over_b_players(n, v, values, b):
    """``values`` rules, each giving all n players one of ``values`` symbols
    spread over [0, v): every share rank up to values - 1 occurs, so b is its
    bit length.  At n = 32 // b player 1's window holds every player; at one
    more, player n is past it.  Every bundle of two players, consistent or
    not, reconstructs as the oracle does."""
    symbols = [(min(v, 2**63) - 1) * i // (values - 1) for i in range(values)]
    sch = RampScheme(0, 1, n, v, [((x,) * n, (i % 2,)) for i, x in enumerate(symbols)])
    check_window_layout(sch)
    assert sch._share_index[4] == b
    for p, q in itertools.combinations(range(1, n + 1), 2):
        for x, y in itertools.product(symbols, (0, symbols[1])):
            bundle = ShareBundle({p: x, q: y})
            assert plain(reconstruct(sch, bundle)) == oracles.reconstruct(sch, bundle)


@SETTINGS
@given(schemes, st.integers(0, 2**32))
def test_deal_matches_oracle(sch, seed):
    plain((sch.secrets, sch.rules))
    for secret in sch.secrets:
        assert plain(deal(sch, secret, seed).items()) == oracles.deal(sch, secret, seed).items()


# Weights whose running sums round: summed in another order, or taken as
# differences of longer sums, they pick other rules (1e16 swallows the rest).
FLOAT_WEIGHTS = (0.1, 1 / 3, 2.5, 1e-3, 7.0, 1e16)


@SETTINGS
@given(schemes, st.data(), st.lists(st.integers(0, 2**64), min_size=1, max_size=8))
def test_deal_with_float_weights_matches_oracle(sch, data, seeds):
    weights = data.draw(st.lists(st.sampled_from(FLOAT_WEIGHTS), min_size=len(sch.weights),
                                 max_size=len(sch.weights)))
    sch = RampScheme(sch.s, sch.t, sch.n, sch.v, sch.rules, weights)
    for seed in seeds:
        for secret in sch.secrets:
            want = oracles.deal(sch, secret, seed).items()
            assert plain(deal(sch, secret, seed).items()) == want


def test_deal_picks_the_last_rule_at_a_draw_of_one_as_random_choices_does(monkeypatch):
    """A draw of 1.0, just past what ``random()`` returns, times the total
    reaches the last running sum: ``random.choices`` bounds its bisect to
    pick the last rule then, and ``deal`` must too."""
    monkeypatch.setattr(random.Random, "random", lambda self: 1.0)
    sch = scheme_shamir(field_for_order(5), 1, 3, 4)  # 25 rules a secret
    weighted = RampScheme(1, 3, 4, 5, sch.rules,
                          [FLOAT_WEIGHTS[i % 6] for i in range(len(sch.weights))])
    for x in (sch, weighted):
        for secret in x.secrets:
            assert plain(deal(x, secret, 0).items()) == oracles.deal(x, secret, 0).items()


def test_reconstruct_reports_every_ambiguous_candidate():
    rules = [((0, 0, x), (x % 3,)) for x in range(3)] + [((1, 1, 1), (0,))]
    sch = RampScheme(1, 2, 3, 3, rules)
    bundle = ShareBundle({1: 0, 2: 0})
    got = reconstruct(sch, bundle)
    assert got == oracles.reconstruct(sch, bundle)
    assert got.status == "ambiguous" and got.candidates == ((0,), (1,), (2,))


@pytest.fixture(scope="module")
def full_size():
    """The GF(11) s=2 t=4 n=8 Shamir scheme (14,641 rules, 121 per secret),
    the same rules with float weights, and stand-ins that hand the oracles
    each scheme's rules as one tuple, read once."""
    sch = scheme_shamir(field_for_order(11), 2, 4, 8)
    weighted = RampScheme(2, 4, 8, 11, sch.rules,
                          [FLOAT_WEIGHTS[i % 5] for i in range(len(sch.weights))])
    return [(x, SimpleNamespace(rules=x.rules, weights=x.weights, t=x.t, n=x.n))
            for x in (sch, weighted)]


def test_full_size_scheme_matches_oracles(full_size):
    """Seeded deals from both schemes, then t shares of the deal, t+1 shares
    with one changed, or a random bundle of t..n shares."""
    (sch, view), (weighted, weighted_view) = full_size
    rng = random.Random(11)
    for i in range(200):
        secret, seed = rng.choice(sch.secrets), rng.getrandbits(32)
        assert (plain(deal(weighted, secret, seed).items())
                == oracles.deal(weighted_view, secret, seed).items())
        shares = deal(sch, secret, seed)
        assert plain(shares.items()) == oracles.deal(view, secret, seed).items()
        if i % 3 == 0:
            players = rng.sample(range(1, 9), 4)
            bundle = ShareBundle([(p, x) for p, x in shares.items() if p in players])
        elif i % 3 == 1:
            players = rng.sample(range(1, 9), 5)
            pairs = {p: x for p, x in shares.items() if p in players}
            p = rng.choice(sorted(pairs))
            pairs[p] = (pairs[p] + rng.randrange(1, 11)) % 11
            bundle = ShareBundle(pairs)
        else:
            players = rng.sample(range(1, 9), rng.randint(4, 8))
            bundle = ShareBundle({p: rng.randrange(11) for p in players})
        got = reconstruct(sch, bundle)
        assert plain(got) == oracles.reconstruct(view, bundle)
        if i % 3 == 0:
            assert got.secret == secret
