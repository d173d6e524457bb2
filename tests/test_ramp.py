"""Ramp schemes: construction, dealing, reconstruction, the security audit,
and the two transform directions between schemes and augmented arrays."""

import itertools

import pytest

from oaramp.designs import aoa_merge, demo_aoa_1333, oa_from_generator, rs_generator, verify_aoa
from oaramp.errors import CapExceeded, SchemeError
from oaramp.gf import GF
from oaramp.ramp import (
    RampScheme,
    Rule,
    ShareBundle,
    aoa_from_scheme,
    audit_security,
    deal,
    format_bundle,
    ideal_bound_check,
    parse_bundle,
    reconstruct,
    scheme_from_aoa,
    scheme_shamir,
    strongness,
)


def poly_eval_mod(coeffs, x, q):
    """Independent plain-integer polynomial evaluation for prime q."""
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


def example_1333_scheme():
    return scheme_from_aoa(demo_aoa_1333())


# --- scheme_shamir -------------------------------------------------------------


def test_scheme_shamir_basic_shape():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    assert (sch.s, sch.t, sch.n, sch.v) == (1, 2, 3, 5)
    assert len(sch.rules) == 25
    assert len(sch.secrets) == 5
    assert sch.is_ideal and sch.has_uniform_weights


def test_scheme_shamir_matches_polynomial_oracle():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    expected = set()
    for coeffs in itertools.product(range(5), repeat=2):
        shares = tuple(poly_eval_mod(coeffs, x, 5) for x in (1, 2, 3))
        expected.add((shares, (coeffs[0],)))
    assert {(r.shares, r.secret) for r in sch.rules} == expected


def test_scheme_shamir_specific_rules():
    sch = scheme_shamir(GF(3), 1, 2, 2)
    assert Rule((0, 0), (0,)) in sch.rules  # the zero polynomial

    sch533 = scheme_shamir(GF(5), 1, 3, 3)
    # coefficients (1,2,1): share at the point 1 is 1+2+1 = 4
    shares = tuple(poly_eval_mod((1, 2, 1), x, 5) for x in (1, 2, 3))
    assert shares[0] == 4
    assert Rule(shares, (1, 2)) in sch533.rules


def test_scheme_shamir_parameter_errors():
    with pytest.raises(SchemeError):
        scheme_shamir(GF(3), 1, 2, 3)  # q < n+1: only 2 nonzero points in GF(3)
    with pytest.raises(SchemeError):
        scheme_shamir(GF(5), 0, 2, 3)  # s >= 1
    with pytest.raises(SchemeError):
        scheme_shamir(GF(5), 2, 2, 3)  # s < t


def test_scheme_shamir_checks_the_cell_cap_before_building_its_generator(monkeypatch):
    from oaramp import ramp

    monkeypatch.setattr(ramp, "shamir_matrix", lambda *args: pytest.fail("generator built"))
    with pytest.raises(CapExceeded, match=r"60000x125534 matrix over GF\(65536\) needs "
                                          r"65536\^60000\*125534 cells, cap is 10000000"):
        scheme_shamir(GF(2, 16), 1, 60000, 65535)


def test_scheme_shamir_agrees_with_matrix_construction():
    from oaramp.designs import linear_aoa, shamir_matrix

    f = GF(5)
    sch = scheme_shamir(f, 1, 2, 3)
    a = linear_aoa(shamir_matrix(f, 1, 2, 3), 1, 2, 3)
    assert aoa_from_scheme(sch) == a


# --- RampScheme construction -----------------------------------------------------


def test_scheme_invariants_enforced():
    rules = [((0, 0), (0,)), ((1, 1), (1,))]
    sch = RampScheme(1, 2, 2, 2, rules)
    assert sch.secrets == ((0,), (1,))
    with pytest.raises(SchemeError):
        RampScheme(1, 2, 2, 2, rules, weights=[1])
    with pytest.raises(SchemeError):
        RampScheme(1, 2, 2, 2, rules, weights=[1, 0])
    with pytest.raises(SchemeError):
        RampScheme(2, 2, 2, 2, rules)  # s < t
    with pytest.raises(SchemeError):
        RampScheme(1, 2, 2, 2, [((0, 0), (0,)), ((0, 0), (1,))])  # duplicate shares
    with pytest.raises(SchemeError):
        RampScheme(1, 2, 2, 2, [((0, 2), (0,))])  # share out of range
    with pytest.raises(SchemeError):
        RampScheme(1, 2, 2, 2, [((0, 0), (0, 1))])  # secret is not a 1-tuple


def test_scheme_rules_canonical_order():
    rules = [((1, 1), (1,)), ((0, 0), (0,)), ((0, 1), (1,)), ((1, 0), (0,))]
    sch = RampScheme(1, 2, 2, 2, rules)
    assert [r.shares for r in sch.rules] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# --- scheme_from_aoa / aoa_from_scheme -------------------------------------------


def test_scheme_from_aoa_example_1333():
    sch = example_1333_scheme()
    assert (sch.s, sch.t, sch.n, sch.v) == (1, 3, 3, 3)
    assert len(sch.rules) == 27
    assert len(sch.secrets) == 9
    for key in sch.secrets:
        assert len(sch.rules_for(key)) == 3  # v^s rules per secret
    # rule shape: shares (a,b,c) carry secret (a+b, a+c)
    for rule in sch.rules:
        a, b, c = rule.shares
        assert rule.secret == ((a + b) % 3, (a + c) % 3)


def test_scheme_from_threshold_aoa_has_v_secrets():
    a = aoa_merge(oa_from_generator(rs_generator(GF(3), 2), 2), 1)  # s = t-1
    sch = scheme_from_aoa(a)
    assert len(sch.secrets) == 3 == sch.v
    assert sch.is_ideal


def test_scheme_from_aoa_2443():
    from oaramp.designs import THM410, nonexistence_witness

    a = nonexistence_witness(THM410, 3, s=2).aoa
    sch = scheme_from_aoa(a)
    assert len(sch.secrets) == 9
    for key in sch.secrets:
        assert len(sch.rules_for(key)) == 9


def test_scheme_from_aoa_rejects_unverified():
    rows = [list(r) for r in demo_aoa_1333().rows]
    rows[0][3] = (rows[0][3] + 1) % 3
    from oaramp.designs import AugmentedOA

    with pytest.raises(SchemeError):
        scheme_from_aoa(AugmentedOA(1, 3, 3, 3, rows))


def test_transform_round_trips():
    for a in [demo_aoa_1333(),
              aoa_merge(oa_from_generator(rs_generator(GF(3), 2), 2), 1)]:
        sch = scheme_from_aoa(a)
        assert aoa_from_scheme(sch) == a
        assert scheme_from_aoa(aoa_from_scheme(sch)) == sch

    sch = scheme_shamir(GF(5), 2, 3, 4)
    assert scheme_from_aoa(aoa_from_scheme(sch)) == sch


def test_aoa_from_scheme_preconditions():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    short = RampScheme(1, 2, 3, 5, list(sch.rules)[:-1])
    with pytest.raises(SchemeError):
        aoa_from_scheme(short)  # 24 rules != v^t

    rules = [((a, b), (0,)) for a, b in itertools.product(range(2), repeat=2)]
    with pytest.raises(SchemeError):
        aoa_from_scheme(RampScheme(1, 2, 2, 2, rules))  # one secret, not ideal

    full = RampScheme(0, 2, 2, 2, [((a, b), (a, b))
                                   for a, b in itertools.product(range(2), repeat=2)])
    assert aoa_from_scheme(full)  # s=0 full table is fine

    # right counts but player 1's share alone already determines the secret
    mixed = RampScheme(1, 2, 2, 2, [((0, 0), (0,)), ((0, 1), (0,)),
                                    ((1, 0), (1,)), ((1, 1), (1,))])
    with pytest.raises(SchemeError):
        aoa_from_scheme(mixed)


# --- deal / reconstruct -----------------------------------------------------------


def test_deal_is_seed_deterministic():
    sch = example_1333_scheme()
    b1 = deal(sch, (0, 0), seed=123)
    b2 = deal(sch, (0, 0), seed=123)
    assert b1 == b2
    assert len(b1) == 3


def test_deal_respects_secret():
    sch = example_1333_scheme()
    for seed in range(10):
        b = deal(sch, (1, 2), seed=seed)
        a, bb, c = (b.assignments[i] for i in (1, 2, 3))
        assert ((a + bb) % 3, (a + c) % 3) == (1, 2)
    with pytest.raises(ValueError):
        deal(sch, (9, 9), seed=0)


def test_deal_varies_over_seeds_and_covers_rules():
    sch = example_1333_scheme()
    picked = {deal(sch, (0, 0), seed).items() for seed in range(100)}
    assert len(picked) == 3  # all of D_(0,0) gets selected eventually


def test_deal_weight_proportional_selection():
    rules = [((0, 0), (0,)), ((0, 1), (0,)), ((1, 0), (1,)), ((1, 1), (1,))]
    heavy = RampScheme(1, 2, 2, 2, rules, weights=[1, 10**9, 1, 1])
    hits = [deal(heavy, (0,), seed).assignments[2] for seed in range(20)]
    assert hits.count(1) == 20  # the 10^9-weight rule wins every draw


def test_deal_single_rule_per_secret():
    base = oa_from_generator(rs_generator(GF(3), 2), 2)
    sch = scheme_from_aoa(aoa_merge(base, 0))  # s = 0: one rule per secret
    for key in sch.secrets:
        only = sch.rules_for(key)[0]
        for seed in (0, 1, 99):
            assert deal(sch, key, seed).items() == tuple(
                (i + 1, x) for i, x in enumerate(only.shares))


def test_reconstruct_round_trip_exhaustive():
    sch = example_1333_scheme()
    for key in sch.secrets:
        for seed in range(10):
            bundle = deal(sch, key, seed)
            result = reconstruct(sch, bundle)
            assert result and result.secret == key


def test_reconstruct_from_any_t_shares_matches_rule_shape():
    sch = example_1333_scheme()
    for a, b, c in itertools.product(range(3), repeat=3):
        result = reconstruct(sch, ShareBundle({1: a, 2: b, 3: c}))
        assert result.secret == ((a + b) % 3, (a + c) % 3)


def test_reconstruct_monotone_in_share_supersets():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    for key in sch.secrets:
        bundle = deal(sch, key, seed=4)
        for size in range(sch.t, sch.n + 1):
            for players in itertools.combinations(bundle.players(), size):
                assert reconstruct(sch, bundle.restrict(players)).secret == key


def test_reconstruct_inconsistent_and_errors():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    # f(1)=0 and f(2)=0 force the zero polynomial, so f(3)=1 matches nothing
    result = reconstruct(sch, ShareBundle({1: 0, 2: 0, 3: 1}))
    assert result.status == "no_matching_rule" and not result
    with pytest.raises(ValueError):
        reconstruct(sch, ShareBundle({1: 0}))  # fewer than t shares
    with pytest.raises(ValueError):
        reconstruct(sch, ShareBundle({1: 0, 7: 0}))  # player out of range


def test_reconstruct_reports_ambiguity_as_integrity_failure():
    corrupt = RampScheme(1, 2, 3, 2, [((0, 0, 0), (0,)), ((0, 0, 1), (1,))])
    result = reconstruct(corrupt, ShareBundle({1: 0, 2: 0}))
    assert result.status == "ambiguous"
    assert result.candidates == ((0,), (1,))


# --- audit ------------------------------------------------------------------------


def test_audit_example_1333_scheme():
    sch = example_1333_scheme()
    report = audit_security(sch)
    assert report.ok and report.weak_ok and report.perfect_ok and report.bijection_ok
    assert not report.failures
    # the projection "player 1 holds share 0" admits each secret exactly once
    consistent = [r for r in sch.rules if r.shares[0] == 0]
    assert len(consistent) == 9
    assert sorted(r.secret for r in consistent) == list(sch.secrets)


def test_audit_shamir_schemes():
    for args in [(GF(5), 1, 2, 3), (GF(5), 2, 3, 4), (GF(7), 1, 3, 4)]:
        report = audit_security(scheme_shamir(*args))
        assert report.ok
        assert report.perfect_ok and report.bijection_ok


def test_audit_catches_corruption_with_located_failure():
    rows = [list(r) for r in demo_aoa_1333().rows]
    # swap the augmented tuples of (0,0,0|0,0) and (0,1,1|1,1): same first
    # share, different second share, so the player-2 view breaks
    i = rows.index([0, 0, 0, 0, 0])
    j = rows.index([0, 1, 1, 1, 1])
    rows[i][3:], rows[j][3:] = rows[j][3:], rows[i][3:]
    corrupt = RampScheme(1, 3, 3, 3, [(tuple(r[:3]), tuple(r[3:])) for r in rows])
    report = audit_security(corrupt)
    assert not report.ok and not report.weak_ok
    weak = [f for f in report.failures if f.check == "weak"]
    assert weak
    first = weak[0]
    assert first.players == (2,)
    assert first.projection == (0,)
    counts = dict(first.counts)
    assert counts[(0, 0)] == 0 and counts[(1, 1)] == 2


def test_audit_uniformity_of_counts_at_exact_s():
    sch = scheme_shamir(GF(5), 2, 3, 4)
    for players in itertools.combinations(range(4), sch.s):
        groups = {}
        for rule in sch.rules:
            proj = tuple(rule.shares[p] for p in players)
            groups.setdefault(proj, []).append(rule.secret)
        for proj, secrets in groups.items():
            per = {k: secrets.count(k) for k in set(secrets)}
            assert set(per.values()) == {1}  # one rule per secret per projection
            assert len(per) == len(sch.secrets)


def test_audit_weak_only_for_nonuniform_weights():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    weighted = RampScheme(1, 2, 3, 5, list(sch.rules),
                          weights=[1 + (i % 2) for i in range(len(sch.rules))])
    report = audit_security(weighted)
    assert report.weak_ok
    assert report.perfect_ok is None  # not audited under non-uniform weights


def test_audit_work_cap():
    sch = scheme_shamir(GF(7), 1, 3, 4)
    with pytest.raises(CapExceeded):
        audit_security(sch, max_work=10)


# --- bounds and strongness ----------------------------------------------------------


def test_ideal_bound_check():
    v = ideal_bound_check(1, 3, 3, 3, 9)
    assert v.ok and v.ideal and v.bound == 9
    threshold = ideal_bound_check(2, 3, 4, 5, 5)
    assert threshold.ok and threshold.ideal
    bad = ideal_bound_check(1, 3, 3, 3, 10)
    assert not bad.ok and not bad.ideal
    with pytest.raises(ValueError):
        ideal_bound_check(3, 3, 4, 5, 5)


def test_strongness_split_behaviour():
    # polynomial schemes split into full-strength arrays; the sum-coupled
    # example cannot, which is the whole point of it
    assert strongness(scheme_shamir(GF(5), 2, 3, 4)).ok
    result = strongness(example_1333_scheme())
    assert not result.ok
    assert result.dependency is not None


def test_threshold_shamir_rule_array_is_an_oa():
    from oaramp.designs import OrthogonalArray, verify_oa

    sch = scheme_shamir(GF(5), 2, 3, 4)  # s = t-1: a threshold scheme
    shares_only = OrthogonalArray(3, 4, 5, [r.shares for r in sch.rules])
    assert verify_oa(shares_only).ok

    split = strongness(sch)  # secret appended as a fifth column
    assert split.ok
    oa = split.array
    assert (oa.t, oa.k, oa.v) == (3, 5, 5)
    assert verify_oa(oa).ok


# --- bundles -------------------------------------------------------------------------


def test_bundle_parse_format_round_trip():
    b = ShareBundle({3: 2, 1: 0})
    assert format_bundle(b) == "1:0 3:2"
    assert parse_bundle("1:0 3:2") == b
    assert parse_bundle("3:2 1:0") == b
    assert b.restrict([3]).items() == ((3, 2),)
    with pytest.raises(ValueError):
        parse_bundle("1-0")
    with pytest.raises(ValueError):
        ShareBundle({0: 1})
    with pytest.raises(ValueError):
        ShareBundle([(1, 0), (1, 1)])
