"""An ideal ramp scheme is exactly an augmented orthogonal array.

The source paper proves that a rule table with v^t distinct share vectors,
all v^(t-s) secrets and uniform weights is a perfect ramp scheme exactly when
it is an AOA(s,t,n,v), extending Jackson and Martin's equivalence between
strong schemes and orthogonal arrays.  The census checks the theorem on every
such table for small parameters: the security audit passes exactly when the
array verifies.  A Hypothesis property checks it on mutations of
constructed AOAs.

The census also checks the paper's separation: on every AOA, strong security
counted from its definition holds exactly when the AOA splits into an OA,
and at (0,2,2,2), (0,2,3,2) and (1,3,3,2) ideal schemes exist but no strong
one does, which ``thm410_witness(2, 1)`` shows for (1,3,3,2) by the Bush bound.
"""

import itertools
import math

import oracles
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oaramp.designs import (
    aoa_merge,
    aoa_split,
    demo_aoa_1333,
    dual_aoa,
    linear_aoa,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    thm410_witness,
    verify_aoa,
)
from oaramp.gf import GF
from oaramp.linalg import Matrix
from oaramp.ramp import RampScheme, audit_security

# (s, t, n, v) -> how many of the tables are AOAs, counted by hand, and how
# many of those are strong.  With t-s = 1 every AOA is strong: its split is
# itself.  With t-s >= 2 none is here, for a strong scheme is an OA(t, n+t-s, 2)
# and the Bush bound allows n+t-s <= t+1.
# - (0,1,1,2): the two rows (0), (1) with a bijection onto two secrets.
# - (0,1,2,2): rows {00,11} or {01,10}, times 2 bijections.
# - (1,2,2,2): all four rows; the secret table is a Latin square of order 2.
# - (0,2,2,2): all four rows, times 4! bijections.
# - (1,2,3,2): none.  With t-s = 1 the secret would be a fourth column of an
#   OA(2,4,2), and the Bush bound allows at most 3.
# - (0,1,2,3): the 3! row sets {(i, p(i))} for a permutation p, times 3! bijections.
# - (0,1,3,2): a row and its complement, 4 pairs, times 2 bijections.
# - (0,2,3,2): the even- or the odd-weight rows, times 4! bijections.
# - (1,3,3,2): all eight rows, secrets labelled by first use (see FIRST_USE):
#   pairs of rows at distance 3 each share a secret.
AOAS = {
    (0, 1, 1, 2): (2, 2),
    (0, 1, 2, 2): (4, 4),
    (1, 2, 2, 2): (2, 2),
    (0, 2, 2, 2): (24, 0),
    (1, 2, 3, 2): (0, 0),
    (0, 1, 2, 3): (36, 36),
    (0, 1, 3, 2): (8, 8),
    (0, 2, 3, 2): (48, 0),
    (1, 3, 3, 2): (1, 0),
}
# Sets whose tables are enumerated up to a relabelling of the secrets, which
# changes no verdict: secrets are numbered in the order their first rows come.
FIRST_USE = {(1, 3, 3, 2)}


def ideal_tables(s, t, n, v, first_use=False):
    """Every rule table with v^t distinct share vectors over n players, each
    tagged with a secret, every one of the v^(t-s) secrets used; with
    ``first_use``, only those whose secrets first appear in ascending order."""
    secrets = list(itertools.product(range(v), repeat=t - s))
    for shares in itertools.combinations(itertools.product(range(v), repeat=n), v**t):
        for tags in itertools.product(secrets, repeat=v**t):
            if len(set(tags)) == len(secrets) and (
                    not first_use or list(dict.fromkeys(tags)) == secrets):
                yield list(zip(shares, tags))


def surjections(rows, secrets):
    return sum((-1) ** i * math.comb(secrets, i) * (secrets - i) ** rows
               for i in range(secrets + 1))


def census_size(s, t, n, v):
    tables = math.comb(v**n, v**t) * surjections(v**t, v ** (t - s))
    return tables // math.factorial(v ** (t - s)) if (s, t, n, v) in FIRST_USE else tables


@pytest.mark.parametrize("s,t,n,v", list(AOAS))
def test_every_ideal_table_passes_the_audit_exactly_when_it_is_an_aoa(s, t, n, v):
    tables = aoas = strong = 0
    for rules in ideal_tables(s, t, n, v, (s, t, n, v) in FIRST_USE):
        sch = RampScheme(s, t, n, v, rules)
        assert sch.is_ideal and sch.has_uniform_weights
        verified = verify_aoa(sch.aoa).ok
        assert audit_security(sch).ok == verified, rules
        if verified:
            split = aoa_split(sch.aoa).ok
            assert oracles.oracle_strong(sch) == split, rules
            strong += split
        tables += 1
        aoas += verified
    assert tables == census_size(s, t, n, v)
    assert (aoas, strong) == AOAS[s, t, n, v]


def test_the_census_covers_every_table():
    assert sum(census_size(*params) for params in AOAS) == 3272 + 1701


def test_the_smallest_separation_is_theorem_410s():
    """The one AOA(1,3,3,2) the census finds, up to secret labels, is the
    one ``thm410_witness(2, 1)`` builds, and it is not strong."""
    report = thm410_witness(2, 1)
    a = report.aoa
    assert report.holds and (a.s, a.t, a.k, a.v, report.attempted_columns) == (1, 3, 3, 2, 5)
    secrets = list(itertools.product(range(2), repeat=2))
    label = dict(zip(dict.fromkeys(r[3:] for r in a.rows), secrets))
    rules = [(r[:3], label[r[3:]]) for r in a.rows]
    assert rules in list(ideal_tables(1, 3, 3, 2, first_use=True))
    sch = RampScheme(1, 3, 3, 2, rules)
    assert verify_aoa(sch.aoa).ok and not oracles.oracle_strong(sch)


def _constructed():
    f2, f3, f4 = GF(2), GF(3), GF(2, 2)
    oa243 = oa_from_generator(rs_generator(f3, 2), 2)
    return [
        aoa_merge(oa_from_generator(rs_generator(f2, 2), 2), 1),
        aoa_merge(oa243, 0),
        aoa_merge(oa243, 1),
        aoa_merge(oa_from_generator(Matrix(f2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), 3), 2),
        linear_aoa(shamir_matrix(f3, 1, 2, 3), 1, 2, 3),
        linear_aoa(shamir_matrix(f4, 1, 3, 3), 1, 3, 3),
        dual_aoa(rs_generator(f3, 2).columns(range(3)), 1, 3),
        demo_aoa_1333(),
    ]


CONSTRUCTED = _constructed()


@st.composite
def mutated_tables(draw):
    """A constructed AOA's rules with one share or one secret changed, kept
    when the shares stay distinct and every secret is still used."""
    a = draw(st.sampled_from(CONSTRUCTED))
    rows = [list(r) for r in a.rows]
    row = draw(st.integers(0, len(rows) - 1))
    if draw(st.booleans()):
        col = draw(st.integers(0, a.k - 1))
        rows[row][col] = draw(st.integers(0, a.v - 1))
    else:
        rows[row][a.k:] = draw(st.lists(st.integers(0, a.v - 1), min_size=a.aug_width,
                                        max_size=a.aug_width))
    shares = [tuple(r[:a.k]) for r in rows]
    assume(len(set(shares)) == len(shares))
    sch = RampScheme(a.s, a.t, a.k, a.v, [(sh, r[a.k:]) for sh, r in zip(shares, rows)])
    assume(sch.is_ideal)
    return sch


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_tables())
def test_mutated_aoas_pass_the_audit_exactly_when_they_verify(sch):
    assert audit_security(sch).ok == verify_aoa(sch.aoa).ok


def test_every_constructed_aoa_is_a_perfect_scheme():
    strong = []
    for a in CONSTRUCTED:
        assert verify_aoa(a).ok
        sch = RampScheme(a.s, a.t, a.k, a.v, [(r[:a.k], r[a.k:]) for r in a.rows])
        assert audit_security(sch).ok
        strong.append(oracles.oracle_strong(sch))
        assert strong[-1] == aoa_split(a).ok
    assert strong == [True] * 6 + [False] * 2
