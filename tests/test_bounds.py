"""Bound oracles and the bound-beating nonexistence demonstrations."""

import pytest

from oaramp.designs import (
    bush_bound,
    mds_max,
    thm48_witness,
    thm410_witness,
    verify_aoa,
)


def test_bush_bound_branches():
    assert bush_bound(2, 3).max_k == 4
    assert bush_bound(2, 3).case_label == "t=2"
    assert bush_bound(3, 3).max_k == 4      # odd branch, coincides with t>=v at v=3
    assert bush_bound(4, 3).max_k == 5
    assert bush_bound(4, 3).case_label == "t>=v"
    assert bush_bound(3, 4).max_k == 6      # even branch
    assert bush_bound(3, 5).max_k == 6
    assert bush_bound(4, 5).max_k == 7
    assert bush_bound(2, 17).max_k == 18
    assert bush_bound(7, 2).max_k == 8
    assert all(b.status == "proven" for b in [bush_bound(2, 2), bush_bound(9, 4)])


def test_bush_bound_overlap_at_t_equals_v_takes_minimum():
    # both the parity case and t >= v apply; the verdict is the tighter one
    assert bush_bound(4, 4).max_k == 5
    assert bush_bound(4, 4).case_label == "t>=v"
    assert bush_bound(5, 5).max_k == 6
    assert bush_bound(3, 3).max_k == 4  # tie: 2v-2 = v+1 at v=3


def test_bush_bound_floor_invariant():
    for t in range(2, 13):
        for v in range(2, 13):
            assert bush_bound(t, v).max_k >= t + 1


def test_bush_bound_validation():
    with pytest.raises(ValueError):
        bush_bound(1, 3)
    with pytest.raises(ValueError):
        bush_bound(3, 1)


def test_mds_max_values():
    assert mds_max(3, 4).max_k == 6        # characteristic-2 exceptional case
    assert mds_max(3, 4).status == "proven"
    assert mds_max(2, 5).max_k == 6
    assert mds_max(6, 5).max_k == 7        # t >= q
    assert mds_max(6, 5).case_label == "t>=q"
    assert mds_max(3, 8).max_k == 10
    assert mds_max(7, 8).max_k == 10       # t = q-1 over GF(8)
    assert mds_max(4, 7).max_k == 8
    assert mds_max(4, 32).max_k == 33


def test_mds_max_status_regimes():
    assert mds_max(2, 11).status == "proven"     # q prime
    assert mds_max(10, 27).status == "proven"    # q <= 27
    assert mds_max(4, 64).status == "proven"     # t <= 5
    assert mds_max(61, 64).status == "proven"    # t >= q-3
    assert mds_max(7, 49).status == "proven"     # t <= p
    assert mds_max(6, 32).status == "conjectured"
    assert mds_max(8, 49).status == "conjectured"
    assert mds_max(100, 64).status == "proven"   # t >= q gives t >= q-3


def test_mds_max_validation():
    with pytest.raises(ValueError):
        mds_max(3, 6)
    with pytest.raises(ValueError):
        mds_max(1, 5)


def test_nonexistence_thm48_q3_t3():
    report = thm48_witness(3, 3)
    a = report.aoa
    assert (a.s, a.t, a.k, a.v) == (1, 3, 3, 3)
    assert report.aoa_result.ok
    assert report.attempted_columns == 5
    assert report.bound.max_k == 4
    assert report.holds
    assert any("5 > 4" in line for line in report.lines())


def test_nonexistence_thm48_larger():
    report = thm48_witness(9, 3)
    assert (report.aoa.s, report.aoa.t, report.aoa.k, report.aoa.v) == (1, 3, 9, 9)
    assert report.holds
    assert report.attempted_columns == 11 and report.bound.max_k == 10


def test_nonexistence_thm48_hypotheses():
    with pytest.raises(ValueError):
        thm48_witness(4, 3)   # q must be odd
    with pytest.raises(ValueError):
        thm48_witness(15, 3)  # odd but not a prime power
    with pytest.raises(ValueError):
        thm48_witness(5, 2)   # t >= 3
    with pytest.raises(ValueError):
        thm48_witness(5, 6)   # t <= q


def test_nonexistence_thm410_q3_s2():
    report = thm410_witness(3, 2)
    a = report.aoa
    assert (a.s, a.t, a.k, a.v) == (2, 4, 4, 3)
    assert len(a.rows) == 81
    assert report.aoa_result.ok and verify_aoa(a).ok
    assert report.attempted_columns == 6
    assert report.bound.max_k == 5
    assert report.holds


def test_nonexistence_thm410_q2():
    report = thm410_witness(2, 1)
    assert (report.aoa.s, report.aoa.t, report.aoa.k, report.aoa.v) == (1, 3, 3, 2)
    assert report.holds
    assert report.attempted_columns == 5 and report.bound.max_k == 4


def test_nonexistence_thm410_hypotheses():
    with pytest.raises(ValueError):
        thm410_witness(6, 1)  # not a prime power
    with pytest.raises(ValueError):
        thm410_witness(3, 3)  # s <= q-1
    with pytest.raises(ValueError):
        thm410_witness(3, 0)  # s >= 1 for the basis to exist
