"""Ramp schemes: construction, dealing, reconstruction, the security audit,
and the two transform directions between schemes and augmented arrays."""

import itertools
import sys
import threading
import tracemalloc

import pytest

from oaramp.designs import (
    aoa_merge,
    aoa_split,
    demo_aoa_1333,
    oa_from_generator,
    rs_generator,
    verify_aoa,
)
from oaramp.errors import CapExceeded, SchemeError
from oaramp.gf import GF
from oaramp.ramp import (
    RampScheme,
    ShareBundle,
    aoa_from_scheme,
    audit_security,
    deal,
    format_bundle,
    parse_bundle,
    reconstruct,
    scheme_from_aoa,
    scheme_shamir,
)


def poly_eval_mod(coeffs, x, q):
    """Independent plain-integer polynomial evaluation for prime q."""
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


def example_1333_scheme():
    return scheme_from_aoa(demo_aoa_1333())


def rules_for(sch, secret):
    return [rule for rule in sch.rules if rule[1] == secret]


def restrict(bundle, players):
    return ShareBundle([(p, x) for p, x in bundle.items() if p in players])


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
    assert set(sch.rules) == expected


def test_scheme_shamir_specific_rules():
    sch = scheme_shamir(GF(3), 1, 2, 2)
    assert ((0, 0), (0,)) in sch.rules  # the zero polynomial

    sch533 = scheme_shamir(GF(5), 1, 3, 3)
    # coefficients (1,2,1): share at the point 1 is 1+2+1 = 4
    shares = tuple(poly_eval_mod((1, 2, 1), x, 5) for x in (1, 2, 3))
    assert shares[0] == 4
    assert (shares, (1, 2)) in sch533.rules


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


def test_scheme_constructor_errors_say_what_is_wrong():
    for args, message in [
        ((1, 2, 2, 1, [((0, 0), (0,))]), "share alphabet must have >= 2 symbols, got 1"),
        ((1, 2, 2, 2, [((0, 0, 0), (0,))]),
         "rule ((0, 0, 0), (0,)) does not assign shares to all 2 players"),
        ((1, 2, 2, 2, []), "a scheme needs at least one rule"),
    ]:
        with pytest.raises(SchemeError) as exc:
            RampScheme(*args)
        assert str(exc.value) == message


def test_schemes_and_bundles_compare_unequal_to_other_types():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    assert sch.__eq__(sch.aoa) is NotImplemented and sch != sch.aoa
    bundle = ShareBundle({1: 0})
    assert bundle.__eq__({1: 0}) is NotImplemented and bundle != {1: 0}
    assert repr(sch) == "RampScheme(s=1, t=2, n=3, v=5, 25 rules, 5 secrets)"


def test_scheme_rules_canonical_order():
    rules = [((1, 1), (1,)), ((0, 0), (0,)), ((0, 1), (1,)), ((1, 0), (0,))]
    sch = RampScheme(1, 2, 2, 2, rules)
    assert [shares for shares, _ in sch.rules] == [(0, 0), (0, 1), (1, 0), (1, 1)]


# --- scheme_from_aoa / aoa_from_scheme -------------------------------------------


def test_scheme_from_aoa_example_1333():
    sch = example_1333_scheme()
    assert (sch.s, sch.t, sch.n, sch.v) == (1, 3, 3, 3)
    assert len(sch.rules) == 27
    assert len(sch.secrets) == 9
    for key in sch.secrets:
        assert len(rules_for(sch, key)) == 3  # v^s rules per secret
    # rule shape: shares (a,b,c) carry secret (a+b, a+c)
    for (a, b, c), secret in sch.rules:
        assert secret == ((a + b) % 3, (a + c) % 3)


def test_scheme_from_threshold_aoa_has_v_secrets():
    a = aoa_merge(oa_from_generator(rs_generator(GF(3), 2), 2), 1)  # s = t-1
    sch = scheme_from_aoa(a)
    assert len(sch.secrets) == 3 == sch.v
    assert sch.is_ideal


def test_scheme_from_aoa_2443():
    from oaramp.designs import thm410_witness

    a = thm410_witness(3, 2).aoa
    sch = scheme_from_aoa(a)
    assert len(sch.secrets) == 9
    for key in sch.secrets:
        assert len(rules_for(sch, key)) == 9


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
        a, bb, c = (dict(b.items())[i] for i in (1, 2, 3))
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
    hits = [dict(deal(heavy, (0,), seed).items())[2] for seed in range(20)]
    assert hits.count(1) == 20  # the 10^9-weight rule wins every draw


@pytest.mark.parametrize("weights", [[1, float("inf"), 1, 1], [float("nan"), 1, 1, 1],
                                     [1e308, 1e308, 1, 1]])
def test_deal_on_weights_that_sum_past_the_floats_raises_as_random_choices_does(weights):
    """A bucket whose weights hold inf or nan, or sum to inf, has no total to
    pick from: every deal of its secret raises the ValueError that
    ``random.choices`` raises, and the other secret's bucket still deals."""
    rules = [((0, 0), (0,)), ((0, 1), (0,)), ((1, 0), (1,)), ((1, 1), (1,))]
    sch = RampScheme(1, 2, 2, 2, rules, weights=weights)
    for seed in (0, 1):
        with pytest.raises(ValueError, match="^Total of weights must be finite$"):
            deal(sch, (0,), seed)
    assert deal(sch, (1,), 0).items()[0] == (1, 1)


@pytest.mark.parametrize("n,v", [(2, 2), (70, 2), (3, 2**40)])
def test_weights_follow_their_rules_into_canonical_order(n, v):
    """Rules given out of order, each with its own weight: the scheme keeps
    each weight with its rule.  At n=70 over GF(2) a rule's row spans two
    sort keys."""
    m = min(8, 2**n)
    shares = [tuple((i >> b) % 2 * (v - 1) for b in range(n)) for i in range(m)]
    rules = [(shares[i], (i % 2,)) for i in sorted(range(m), key=lambda i: (5 * i + 3) % m)]
    weights = [10 + i for i in range(len(rules))]
    sch = RampScheme(0, 1, n, v, rules, weights=weights)
    by_row = {r[0] + r[1]: w for r, w in zip(rules, weights)}
    assert list(sch.weights) == [by_row[row] for row in sch.aoa.rows]
    assert list(sch.weights) != weights


def test_deal_builds_the_bundle_the_constructor_builds():
    """deal hands out the rule table's shares without ShareBundle's checks:
    the bundle must equal the checked one, hash alike and hold Python ints."""
    sch = scheme_shamir(GF(5), 1, 3, 4)
    for secret in sch.secrets:
        for seed in (0, 1, 7, 2**40):
            b = deal(sch, secret, seed)
            checked = ShareBundle(dict(b.items()))
            assert b == checked and hash(b) == hash(checked) and repr(b) == repr(checked)
            assert [p for p, _ in b.items()] == [1, 2, 3, 4]
            assert all(type(x) is int for pair in b.items() for x in pair)


def test_deal_single_rule_per_secret():
    base = oa_from_generator(rs_generator(GF(3), 2), 2)
    sch = scheme_from_aoa(aoa_merge(base, 0))  # s = 0: one rule per secret
    for key in sch.secrets:
        only = rules_for(sch, key)[0][0]
        for seed in (0, 1, 99):
            assert deal(sch, key, seed).items() == tuple(
                (i + 1, x) for i, x in enumerate(only))


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
            for players in itertools.combinations(range(1, sch.n + 1), size):
                assert reconstruct(sch, restrict(bundle, players)).secret == key


def test_reconstruct_inconsistent_and_errors():
    sch = scheme_shamir(GF(5), 1, 2, 3)
    # f(1)=0 and f(2)=0 force the zero polynomial, so f(3)=1 matches nothing
    result = reconstruct(sch, ShareBundle({1: 0, 2: 0, 3: 1}))
    assert result.status == "no_matching_rule" and not result
    with pytest.raises(ValueError):
        reconstruct(sch, ShareBundle({1: 0}))  # fewer than t shares
    with pytest.raises(ValueError):
        reconstruct(sch, ShareBundle({1: 0, 7: 0}))  # player out of range
    with pytest.raises(ValueError):  # even after a share no rule holds
        reconstruct(sch, ShareBundle({1: 99, 7: 0}))


def test_reconstruct_reports_ambiguity_as_integrity_failure():
    corrupt = RampScheme(1, 2, 3, 2, [((0, 0, 0), (0,)), ((0, 0, 1), (1,))])
    result = reconstruct(corrupt, ShareBundle({1: 0, 2: 0}))
    assert result.status == "ambiguous"
    assert result.candidates == ((0,), (1,))


def test_the_share_index_adds_one_uint32_per_player_and_row_to_the_bucket_order():
    """The GF(11) s=2 t=4 n=8 scheme: its share ranks take 4 bits, so a
    window packs 8 players', and its index holds one uint32 window per player
    and row beside the int32 bucket order and the short per-player lists of
    values and offsets."""
    sch = scheme_shamir(GF(11), 2, 4, 8)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        order, values, start, window, b = sch._share_index
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n, rows = sch.n, len(sch.weights)
    assert (b, window.shape, window.itemsize, order.dtype.itemsize) == (4, (n, rows), 4, 4)
    assert held <= order.nbytes + 4 * n * rows + 2**14


def test_threads_building_the_lazy_tables_at_once_get_sequential_results():
    """Threads dealing and reconstructing on one fresh scheme build its share
    index and deal table together; each must see what one thread sees."""
    def weighted():
        sch = scheme_shamir(GF(7), 1, 3, 5)
        return RampScheme(1, 3, 5, 7, sch.rules, [1 + i % 3 for i in range(len(sch.rules))])

    def work(sch):
        out = []
        for seed, secret in enumerate(sch.secrets):
            shares = deal(sch, secret, seed)
            out.append((shares, reconstruct(sch, restrict(shares, [1, 3, 5]))))
        return out

    expected = work(weighted())
    sch, results = weighted(), [None] * 4

    def run(i):
        results[i] = work(sch)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert results == [expected] * 4


# --- audit ------------------------------------------------------------------------


def test_audit_example_1333_scheme():
    sch = example_1333_scheme()
    report = audit_security(sch)
    assert report.ok and report.weak_ok and report.perfect_ok and report.bijection_ok
    assert not report.failures
    # the projection "player 1 holds share 0" admits each secret exactly once
    consistent = [secret for shares, secret in sch.rules if shares[0] == 0]
    assert len(consistent) == 9
    assert sorted(consistent) == list(sch.secrets)


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
    assert first.detail == "secret (0, 0) has no consistent rule"


def test_audit_failures_describe_the_players_shares_and_check():
    # the secret is player 1's share: player 1 alone sees it
    leaky = RampScheme(1, 2, 2, 2, [((a, b), (a,)) for a in (0, 1) for b in (0, 1)])
    report = audit_security(leaky)
    assert bool(report) is False and bool(audit_security(example_1333_scheme())) is True
    assert [f.describe() for f in report.failures] == [
        "[weak] players {1} shares (0,): secret (1,) has no consistent rule",
        "[weak] players {1} shares (1,): secret (0,) has no consistent rule",
        "[bijection] players {1} shares (0,): secret (0,) projects onto (2,) in 2 different ways",
        "[bijection] players {1} shares (1,): secret (1,) projects onto (2,) in 2 different ways",
    ]


def test_a_scheme_that_fails_the_weak_check_fails_the_perfect_one():
    # perfect security implies weak: a view that misses a secret is uneven too
    leaky = RampScheme(1, 2, 2, 2, [((a, b), (a,)) for a in (0, 1) for b in (0, 1)])
    report = audit_security(leaky)
    assert (report.weak_ok, report.perfect_ok, report.bijection_ok) == (False, False, False)
    assert {f.check for f in report.failures} == {"weak", "bijection"}


def test_audit_uniformity_of_counts_at_exact_s():
    sch = scheme_shamir(GF(5), 2, 3, 4)
    for players in itertools.combinations(range(4), sch.s):
        groups = {}
        for shares, secret in sch.rules:
            proj = tuple(shares[p] for p in players)
            groups.setdefault(proj, []).append(secret)
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


# --- strongness: splitting a scheme's rule array -------------------------------------


def test_strongness_split_behaviour():
    # polynomial schemes split into full-strength arrays; the sum-coupled
    # example cannot, which is the whole point of it
    assert aoa_split(aoa_from_scheme(scheme_shamir(GF(5), 2, 3, 4))).ok
    result = aoa_split(aoa_from_scheme(example_1333_scheme()))
    assert not result.ok
    assert result.dependency is not None


def test_threshold_shamir_rule_array_is_an_oa():
    from oaramp.designs import OrthogonalArray, verify_oa

    sch = scheme_shamir(GF(5), 2, 3, 4)  # s = t-1: a threshold scheme
    shares_only = OrthogonalArray(3, 4, 5, [shares for shares, _ in sch.rules])
    assert verify_oa(shares_only).ok

    split = aoa_split(aoa_from_scheme(sch))  # secret appended as a fifth column
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
    with pytest.raises(ValueError):
        parse_bundle("1-0")
    with pytest.raises(ValueError):
        ShareBundle({0: 1})
    with pytest.raises(ValueError):
        ShareBundle([(1, 0), (1, 1)])
