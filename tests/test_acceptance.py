"""Acceptance suite: every criterion is exact (integer counting, no float
tolerances) and exhaustive at the stated scale.  Each test prints one
PASS line with its runtime; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import itertools
import random
import time

from oaramp.cli import main as cli_main
from oaramp.designs import (
    THM48,
    THM410,
    Matrix,
    aoa_merge,
    aoa_split,
    bush_bound,
    demo_aoa_1333,
    dual_aoa,
    load_array,
    nonexistence_witness,
    oa_from_generator,
    rs_generator,
    verify_aoa,
    verify_mds,
    verify_oa,
)
from oaramp.gf import GF, field_for_order
from oaramp.ramp import (
    ShareBundle,
    aoa_from_scheme,
    audit_security,
    deal,
    reconstruct,
    scheme_from_aoa,
    scheme_shamir,
)


def _cli(argv, input_text=""):
    out = io.StringIO()
    code = cli_main(argv, stdin=io.StringIO(input_text), stdout=out)
    return code, out.getvalue()


def _passed(number, name, started):
    print(f"ACCEPTANCE {number} ({name}): PASS [{time.perf_counter() - started:.2f}s]")


def test_criterion_1_rs_family():
    """construct oa-rs passes verify_oa and verify_mds for every prime power
    q in {2,3,4,5,7,8,9} and 2 <= t <= min(q,4), exhaustively, under 60 s."""
    started = time.perf_counter()
    checked = 0
    for q in [2, 3, 4, 5, 7, 8, 9]:
        for t in range(2, min(q, 4) + 1):
            code, text = _cli(["construct", "oa-rs", "--q", str(q), "--t", str(t)])
            assert code == 0
            oa = load_array(text)
            assert (oa.t, oa.k, oa.v) == (t, q + 1, q)
            assert len(oa.rows) == q**t
            assert verify_oa(oa).ok, (q, t)
            assert verify_mds(oa), (q, t)
            checked += 1
    assert checked == 18
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"RS family took {elapsed:.1f}s"
    _passed(1, "RS family constructs verified OA/MDS", started)


def test_criterion_2_sum_coupled_aoa_round_trip():
    """The AOA(1,3,3,3) demo verifies exactly (27 rows) and its split fails
    with the witness column 4 = column 1 + column 2 over GF(3)."""
    started = time.perf_counter()
    a = demo_aoa_1333()
    assert len(a.rows) == 27
    expected = sorted(
        (x, y, z, (x + y) % 3, (x + z) % 3)
        for x, y, z in itertools.product(range(3), repeat=3))
    assert list(a.rows) == expected
    assert verify_aoa(a).ok

    split = aoa_split(a)
    assert not split.ok
    dep = split.dependency
    assert dep is not None
    assert dep.target == 3 and dep.combination == ((0, 1), (1, 1)) and dep.order == 3
    assert dep.describe() == "column 4 = column 1 + column 2 over GF(3)"

    code, text = _cli(["demo", "example-4-3"])
    assert code == 0
    assert _cli(["verify"], text)[0] == 0
    code, report = _cli(["split"], text)
    assert code == 1
    assert "dependency: column 4 = column 1 + column 2 over GF(3)" in report
    _passed(2, "AOA(1,3,3,3) verifies, split fails with sum witness", started)


def test_criterion_3_bound_beating_aoa_family():
    """AOA(1,t,q,q) for (q,t) in {(3,3),(5,3),(5,4),(5,5)}: construct,
    exhaustively verify, and confirm q+t-1 beats the Bush bound; under 30 s."""
    started = time.perf_counter()
    for q, t in [(3, 3), (5, 3), (5, 4), (5, 5)]:
        report = nonexistence_witness(THM48, q, t=t)
        a = report.aoa
        assert (a.s, a.t, a.k, a.v) == (1, t, q, q)
        assert len(a.rows) == q**t
        assert report.aoa_result.ok
        assert report.attempted_columns == q + t - 1
        assert report.attempted_columns > report.bound.max_k
        assert report.holds
    assert nonexistence_witness(THM48, 3, t=3).bound.max_k == 4  # 5 > 4
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"bound-beating family took {elapsed:.1f}s"
    _passed(3, "AOA(1,t,q,q) exists where OA(t,q+t-1,q) cannot", started)


def test_criterion_4_dual_construction_exact_matrices():
    """The exact published-shape N and M matrices reproduce a verified
    AOA(2,4,4,3); bush_bound(4,3) = 5 < 6 certifies no OA(4,6,3)."""
    started = time.perf_counter()
    f = GF(3)
    basis = rs_generator(f, 2)
    assert basis.entries.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    m = Matrix.identity(f, 4).hstack(basis.transpose())
    assert m.entries.tolist() == [
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 1, 2],
        [0, 0, 0, 1, 0, 1],
    ]
    a = dual_aoa(basis, 2, 4)
    assert (a.s, a.t, a.k, a.v) == (2, 4, 4, 3)
    assert len(a.rows) == 81
    assert verify_aoa(a).ok

    report = nonexistence_witness(THM410, 3, s=2)
    assert report.aoa == a
    assert report.attempted_columns == 6
    assert bush_bound(4, 3).max_k == 5
    assert report.holds
    _passed(4, "dual construction gives AOA(2,4,4,3), no OA(4,6,3)", started)


def test_criterion_5_scheme_array_equivalence():
    """For the polynomial schemes (GF(5),1,2,3), (GF(5),2,3,4), (GF(7),1,3,4):
    the rule array verifies as an AOA, the transforms invert each other, and
    the audit finds exactly equal per-secret counts; under 60 s."""
    started = time.perf_counter()
    for q, s, t, n in [(5, 1, 2, 3), (5, 2, 3, 4), (7, 1, 3, 4)]:
        sch = scheme_shamir(field_for_order(q), s, t, n)
        a = aoa_from_scheme(sch)
        assert (a.s, a.t, a.k, a.v) == (s, t, n, q)
        assert verify_aoa(a).ok
        assert scheme_from_aoa(a) == sch

        report = audit_security(sch)
        assert report.ok and report.weak_ok
        assert report.perfect_ok is True and report.bijection_ok is True
        assert not report.failures

        # independent recount: each size-s projection admits each secret once
        for players in itertools.combinations(range(n), s):
            groups = {}
            for rule in sch.rules:
                proj = tuple(rule.shares[p] for p in players)
                per = groups.setdefault(proj, {})
                per[rule.secret] = per.get(rule.secret, 0) + 1
            for per in groups.values():
                assert set(per.values()) == {1}
                assert len(per) == q ** (t - s)
    elapsed = time.perf_counter() - started
    assert elapsed < 60, f"equivalence suite took {elapsed:.1f}s"
    _passed(5, "scheme<->AOA equivalence with exact audit counts", started)


def test_criterion_6_property_suites():
    """Field axioms exhaustive for q <= 16; merge/split round trips on 5+
    arrays; deal/reconstruct exhaustive over secrets x 10 seeds; no ambiguity
    in 10^4 randomized reconstructions.  All checks are exact."""
    started = time.perf_counter()

    # field axioms, exhaustive triples
    for q in [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]:
        f = field_for_order(q)
        add, mul = f.add, f.mul
        for a in range(q):
            assert add(a, 0) == a and mul(a, 1) == a
            assert add(a, f.neg(a)) == 0
            if a:
                assert mul(a, f.inv(a)) == 1
            for b in range(q):
                assert add(a, b) == add(b, a) and mul(a, b) == mul(b, a)
                for c in range(q):
                    assert add(add(a, b), c) == add(a, add(b, c))
                    assert mul(mul(a, b), c) == mul(a, mul(b, c))
                    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))

    # merge/split round trips, row for row
    corpus = [
        (oa_from_generator(rs_generator(GF(2), 2), 2), 1),
        (oa_from_generator(Matrix(GF(2), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]), 3), 2),
        (oa_from_generator(rs_generator(GF(3), 2), 2), 0),
        (oa_from_generator(rs_generator(GF(2, 2), 3), 3), 2),
        (oa_from_generator(rs_generator(GF(5), 4), 4), 3),
        (oa_from_generator(rs_generator(GF(7), 2), 2), 1),
    ]
    assert len(corpus) >= 5
    for oa, s in corpus:
        merged = aoa_merge(oa, s)
        assert verify_aoa(merged).ok
        back = aoa_split(merged)
        assert back.ok and back.array == oa

    # deal/reconstruct round trip, exhaustive over secrets and 10 seeds each
    schemes = [
        scheme_shamir(GF(5), 1, 2, 3),
        scheme_shamir(GF(5), 2, 3, 4),
        scheme_shamir(GF(7), 1, 3, 4),
        scheme_from_aoa(demo_aoa_1333()),
    ]
    for sch in schemes:
        for key in sch.secrets:
            for seed in range(10):
                bundle = deal(sch, key, seed)
                result = reconstruct(sch, bundle)
                assert result.status == "ok" and result.secret == key

    # 10^4 randomized reconstructions on valid schemes: never ambiguous
    rng = random.Random(20260810)
    ambiguous = 0
    for i in range(10_000):
        sch = schemes[i % len(schemes)]
        rule = sch.rules[rng.randrange(len(sch.rules))]
        size = rng.randint(sch.t, sch.n)
        players = rng.sample(range(1, sch.n + 1), size)
        bundle = ShareBundle({p: rule.shares[p - 1] for p in players})
        result = reconstruct(sch, bundle)
        if result.status == "ambiguous":
            ambiguous += 1
        assert result.status == "ok" and result.secret == rule.secret
    assert ambiguous == 0
    _passed(6, "property suites (axioms, round trips, no ambiguity)", started)
