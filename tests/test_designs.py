"""Array verifiers checked against naive counting oracles, plus every
construction, the merge/split transforms, and the text format."""

import itertools
import random

import numpy as np
import pytest

from oaramp import designs
from oaramp.designs import (
    AugmentedOA,
    OrthogonalArray,
    aoa_merge,
    aoa_split,
    demo_aoa_1333,
    dual_aoa,
    dump_array,
    linear_aoa,
    load_array,
    oa_from_generator,
    rs_generator,
    shamir_matrix,
    verify_aoa,
    verify_mds,
    verify_oa,
)
from oaramp.errors import CapExceeded, ConstructionError
from oaramp.gf import GF, field_for_order
from oaramp.linalg import Matrix, columns_independent, row_space


# --- independent oracles ------------------------------------------------------


def oracle_is_oa(rows, t, k, v):
    """Naive check: count every projected t-tuple with a dict, no shortcuts."""
    if len(rows) != v**t:
        return False
    for cols in itertools.combinations(range(k), t):
        seen = {}
        for row in rows:
            key = tuple(row[c] for c in cols)
            seen[key] = seen.get(key, 0) + 1
        for tup in itertools.product(range(v), repeat=t):
            if seen.get(tup, 0) != 1:
                return False
    return True


def oracle_failing_subsets(rows, t, k, v):
    bad = []
    for cols in itertools.combinations(range(k), t):
        seen = {}
        for row in rows:
            key = tuple(row[c] for c in cols)
            seen[key] = seen.get(key, 0) + 1
        if any(c != 1 for c in seen.values()) or len(seen) != v**t:
            bad.append(cols)
    return bad


def oracle_min_distance(rows):
    best = None
    for a, b in itertools.combinations(rows, 2):
        d = sum(x != y for x, y in zip(a, b))
        best = d if best is None else min(best, d)
    return best


OA_232_ROWS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
BAD_232_ROWS = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]


def parity_oa_342():
    gen = Matrix(GF(2), [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])
    return oa_from_generator(gen, 3)


# --- verify_oa ----------------------------------------------------------------


def test_verify_oa_positive_example():
    a = OrthogonalArray(2, 3, 2, OA_232_ROWS)
    assert verify_oa(a).ok
    assert oracle_is_oa(a.rows, 2, 3, 2)


def test_verify_oa_negative_example_with_witness():
    a = OrthogonalArray(2, 3, 2, BAD_232_ROWS)
    res = verify_oa(a)
    assert not res.ok
    assert not oracle_is_oa(a.rows, 2, 3, 2)
    # first failing subset in ascending order is (0,2); (1,2) fails as well
    assert oracle_failing_subsets(a.rows, 2, 3, 2) == [(0, 2), (1, 2)]
    assert res.witness.kind == "column_subset"
    assert res.witness.columns == (0, 2)
    assert res.witness.value == (1, 0) and res.witness.count == 0
    assert "columns 1,3" in res.witness.describe()


def test_verify_oa_row_count_is_structural_failure_not_exception():
    a = OrthogonalArray(2, 3, 2, OA_232_ROWS[:3])
    res = verify_oa(a)
    assert not res.ok
    assert res.witness.kind == "row_count"
    assert res.witness.count == 3 and res.witness.expected == 4


def test_verify_oa_rs_generated_array():
    a = oa_from_generator(rs_generator(GF(3), 2), 2)
    assert len(a.rows) == 9 and a.k == 4
    assert verify_oa(a).ok
    assert oracle_is_oa(a.rows, 2, 4, 3)


def test_verify_oa_agrees_with_oracle_on_mutations():
    rng = random.Random(42)
    base = oa_from_generator(rs_generator(GF(3), 2), 2)
    for _ in range(20):
        rows = [list(r) for r in base.rows]
        r = rng.randrange(len(rows))
        c = rng.randrange(base.k)
        rows[r][c] = (rows[r][c] + rng.randint(1, 2)) % 3
        mutated = OrthogonalArray(2, 4, 3, rows)
        assert verify_oa(mutated).ok == oracle_is_oa(mutated.rows, 2, 4, 3)


def test_verify_oa_caps():
    a = oa_from_generator(rs_generator(GF(3), 2), 2)
    with pytest.raises(CapExceeded):
        verify_oa(a, max_cells=10)
    with pytest.raises(CapExceeded):
        verify_oa(a, max_subsets=1)


def test_subset_caps_apply_before_any_independence_check(monkeypatch):
    def no_row_space(*args):  # the raised cell caps would let a huge one through
        raise AssertionError("row space reached")

    monkeypatch.setattr(designs, "row_space", no_row_space)
    # GF(512), t=2: C(513, 2) = 131,328 and C(512, 2) = 130,816 column pairs
    f = GF(2, 9)
    with pytest.raises(CapExceeded, match="131328 column subsets, cap is 100000"):
        oa_from_generator(rs_generator(f, 2), 2, max_cells=10**9)
    with pytest.raises(CapExceeded, match="130816 column subsets, cap is 100000"):
        linear_aoa(shamir_matrix(f, 1, 2, 512), 1, 2, 512, max_cells=10**9)
    # the augmented check's C(20, 10) = 184,756 subsets, though C(20, 19) = 20
    with pytest.raises(CapExceeded, match="184756 column subsets, cap is 100000"):
        linear_aoa(shamir_matrix(GF(23), 10, 19, 20), 10, 19, 20, max_cells=10**40)
    # the cell cap comes first, even for a generator with dependent columns
    with pytest.raises(CapExceeded, match="needs 8 cells, cap is 7"):
        oa_from_generator(Matrix(GF(2), [[1, 1], [0, 0]]), 2, max_cells=7)


def test_demos_check_the_cell_cap_before_building_a_generator(monkeypatch):
    def never(*args):
        raise AssertionError("generator built")

    monkeypatch.setattr(designs, "rs_generator", never)
    monkeypatch.setattr(designs, "shamir_matrix", never)
    with pytest.raises(CapExceeded, match=r"50000x109048 matrix over GF\(59049\) needs "
                                          r"59049\^50000\*109048 cells, cap is 10000000"):
        designs.nonexistence_witness(designs.THM48, 59049, t=50000)
    with pytest.raises(CapExceeded, match=r"65536x65537 matrix over GF\(65536\) needs "
                                          r"65536\^65536\*65537 cells, cap is 10000000"):
        designs.nonexistence_witness(designs.THM410, 65536, s=1)
    with pytest.raises(CapExceeded, match="3x11 matrix over GF\\(9\\) needs 8019 cells, cap is 8000"):
        designs.nonexistence_witness(designs.THM48, 9, t=3, max_cells=8000)


def test_dual_aoa_checks_both_row_spaces_before_enumerating_either(monkeypatch):
    basis = rs_generator(GF(3, 2), 6).columns(range(10))  # basis 6x10, generator 10x16
    monkeypatch.setattr(designs, "row_space", lambda *args: pytest.fail("row space reached"))
    # the basis's 9^6*10 cells are under the cap; the generator's are not
    with pytest.raises(CapExceeded, match="10x16 matrix over GF\\(9\\) needs 55788550416 cells"):
        dual_aoa(basis, 4, 10)
    # when both are over it, the basis is named, as when it was enumerated first
    with pytest.raises(CapExceeded, match="6x10 matrix over GF\\(9\\) needs 5314410 cells, cap is 10"):
        dual_aoa(basis, 4, 10, max_cells=10)


# --- verify_mds ---------------------------------------------------------------


def test_verify_mds_examples():
    good = OrthogonalArray(2, 3, 2, OA_232_ROWS)
    assert verify_mds(good)
    assert oracle_min_distance(good.rows) == 2 == good.k - good.t + 1

    close = OrthogonalArray(2, 3, 2, [(0, 0, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)])
    assert oracle_min_distance(close.rows) == 1
    assert not verify_mds(close)


def test_verify_mds_agrees_with_oracle():
    rng = random.Random(7)
    for _ in range(15):
        rows = {tuple(rng.randrange(3) for _ in range(4)) for _ in range(9)}
        a = OrthogonalArray(2, 4, 3, sorted(rows))
        assert verify_mds(a) == (oracle_min_distance(a.rows) >= 3)


def test_degenerate_strength_rejected_upstream():
    with pytest.raises(ValueError):
        OrthogonalArray(0, 3, 2, [(0, 0, 0)])


# --- verify_aoa ---------------------------------------------------------------


def sum_coupled_rows_1333():
    """Independent reconstruction of the 27 rows (a, b, c, a+b, a+c) over GF(3)."""
    rows = []
    for a, b, c in itertools.product(range(3), repeat=3):
        rows.append((a, b, c, (a + b) % 3, (a + c) % 3))
    return sorted(rows)


def test_demo_aoa_1333_exact_rows_and_verification():
    a = demo_aoa_1333()
    assert (a.s, a.t, a.k, a.v) == (1, 3, 3, 3)
    assert len(a.rows) == 27
    assert list(a.rows) == sum_coupled_rows_1333()
    assert verify_aoa(a).ok


def test_verify_aoa_detects_altered_augmented_symbol():
    a = demo_aoa_1333()
    rows = [list(r) for r in a.rows]
    rows[0][3] = (rows[0][3] + 1) % 3
    res = verify_aoa(AugmentedOA(1, 3, 3, 3, rows))
    assert not res.ok
    assert res.witness is not None


def test_verify_aoa_on_merge_of_oa342():
    a = aoa_merge(parity_oa_342(), 2)
    assert (a.s, a.t, a.k, a.v) == (2, 3, 3, 2)
    assert verify_aoa(a).ok


def test_verify_aoa_condition_ii_restatement():
    # fixing any s plain symbols, each augmented symbol occurs exactly once
    for a in [demo_aoa_1333(), aoa_merge(oa_from_generator(rs_generator(GF(3), 2), 2), 1)]:
        assert verify_aoa(a).ok
        for cols in itertools.combinations(range(a.k), a.s):
            for fixed in itertools.product(range(a.v), repeat=a.s):
                augs = [r[a.k:] for r in a.rows
                        if tuple(r[c] for c in cols) == fixed]
                assert len(augs) == len(set(augs)) == a.v**a.aug_width


def test_verify_aoa_s0_requires_augmented_bijection():
    base = oa_from_generator(rs_generator(GF(3), 2), 2)  # OA(2,4,3)
    a = aoa_merge(base, 0)
    assert (a.s, a.t, a.k) == (0, 2, 2)
    assert verify_aoa(a).ok
    rows = [list(r) for r in a.rows]
    rows[0][2:] = rows[1][2:]  # duplicate one augmented symbol
    res = verify_aoa(AugmentedOA(0, 2, 2, 3, rows))
    assert not res.ok and res.witness.kind == "augmented_subset"
    assert res.witness.columns == ()


# --- rs_generator and oa_from_generator ----------------------------------------


def test_rs_generator_known_matrices():
    assert rs_generator(GF(3), 2).entries.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    assert rs_generator(GF(2), 2).entries.tolist() == [[1, 1, 0], [0, 1, 1]]


def test_rs_generator_column_structure():
    f = GF(2, 2)
    m = rs_generator(f, 3)
    assert m.rows == 3 and m.cols == 5
    assert m.entries[:, 0].tolist() == [1, 0, 0]
    assert m.entries[:, 4].tolist() == [0, 0, 1]
    for i, a in enumerate(range(1, 4), start=1):
        assert m.entries[:, i].tolist() == [1, a, f.mul(a, a)]


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_rs_generator_all_t_subsets_independent(q):
    f = field_for_order(q)
    for t in range(2, min(q, 4) + 1):
        m = rs_generator(f, t)
        for cols in itertools.combinations(range(q + 1), t):
            assert columns_independent(m, cols)


def test_rs_generator_range_errors():
    with pytest.raises(ValueError):
        rs_generator(GF(3), 1)
    with pytest.raises(ValueError):
        rs_generator(GF(3), 4)


def test_oa_from_generator_identity_gives_full_factorial():
    a = oa_from_generator(Matrix.identity(GF(2), 2), 2)
    assert a.rows == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert verify_oa(a).ok


def test_oa_from_generator_rejects_dependent_columns():
    m = Matrix(GF(3), [[1, 1, 2], [2, 2, 1]])  # columns 0,1 proportional
    with pytest.raises(ConstructionError) as exc:
        oa_from_generator(m, 2)
    assert exc.value.witness == (0, 1)
    with pytest.raises(ValueError):
        oa_from_generator(Matrix.identity(GF(2), 3), 2)  # row count mismatch


# --- merge / split --------------------------------------------------------------


def merge_split_corpus():
    return [
        (oa_from_generator(rs_generator(GF(2), 2), 2), 1),    # OA(2,3,2)
        (parity_oa_342(), 2),                                 # OA(3,4,2)
        (oa_from_generator(rs_generator(GF(3), 2), 2), 0),    # OA(2,4,3)
        (oa_from_generator(rs_generator(GF(3), 2), 2), 1),
        (oa_from_generator(rs_generator(GF(2, 2), 3), 3), 2), # OA(3,5,4)
        (oa_from_generator(rs_generator(GF(5), 4), 4), 3),    # OA(4,6,5)
        (oa_from_generator(rs_generator(GF(7), 2), 2), 1),    # OA(2,8,7)
    ]


def test_every_verified_oa_respects_bush_bound():
    from oaramp.designs import bush_bound

    for oa, _ in merge_split_corpus():
        assert verify_oa(oa).ok
        assert oa.k <= bush_bound(oa.t, oa.v).max_k


def test_merge_split_round_trip_row_for_row():
    for oa, s in merge_split_corpus():
        merged = aoa_merge(oa, s)
        assert verify_aoa(merged).ok
        back = aoa_split(merged)
        assert back.ok
        assert back.array == oa


def test_merge_validations():
    oa = oa_from_generator(rs_generator(GF(3), 2), 2)
    with pytest.raises(ValueError):
        aoa_merge(oa, 2)  # s = t
    with pytest.raises(ValueError):
        aoa_merge(oa_from_generator(rs_generator(GF(2), 2), 2), 0)  # k would be 1 < t
    bad = OrthogonalArray(2, 4, 3, list(oa.rows[:-1]) + [oa.rows[0]])
    with pytest.raises(ValueError):
        aoa_merge(bad, 1)  # unverified input rejected


def test_split_failure_with_dependency_witness():
    result = aoa_split(demo_aoa_1333())
    assert not result.ok
    assert result.array.k == 5 and result.array.t == 3
    assert result.result.witness.columns == (0, 1, 3)
    dep = result.dependency
    assert dep is not None
    assert dep.target == 3
    assert dep.combination == ((0, 1), (1, 1))
    assert dep.describe() == "column 4 = column 1 + column 2 over GF(3)"


def test_split_of_one_column_merge_always_succeeds():
    # an augmented array with s = t-1 is the same thing as an OA(t, k+1, v)
    for oa, _ in merge_split_corpus():
        merged = aoa_merge(oa, oa.t - 1)
        result = aoa_split(merged)
        assert result.ok
        assert result.array == oa


def test_split_rejects_unverified_input():
    rows = [list(r) for r in demo_aoa_1333().rows]
    rows[0][3] = (rows[0][3] + 1) % 3
    with pytest.raises(ValueError):
        aoa_split(AugmentedOA(1, 3, 3, 3, rows))


# --- linear_aoa / shamir_matrix / dual_aoa --------------------------------------


def test_linear_aoa_from_published_style_matrix():
    f = GF(3)
    m = Matrix(f, [
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 1, 2],
        [0, 0, 0, 1, 0, 1],
    ])
    a = linear_aoa(m, 2, 4, 4)
    assert (a.s, a.t, a.k, a.v) == (2, 4, 4, 3)
    assert len(a.rows) == 81
    assert verify_aoa(a).ok


def test_linear_aoa_condition_violation_witnesses():
    f = GF(3)
    bad1 = Matrix(f, [[1, 2, 0], [2, 1, 0]])  # columns 0,1 proportional
    with pytest.raises(ConstructionError) as exc:
        linear_aoa(bad1, 1, 2, 2)
    assert exc.value.condition == "plain-strength"

    # plain columns fine, but col 0 equals the augmented column
    bad2 = Matrix(f, [[1, 0, 1], [0, 1, 0]])
    with pytest.raises(ConstructionError) as exc:
        linear_aoa(bad2, 1, 2, 2)
    assert exc.value.condition == "augmented-independence"
    assert exc.value.witness == (0, 2)


def test_shamir_matrix_known_small_case():
    m = shamir_matrix(GF(3), 1, 2, 2)
    assert m.entries.tolist() == [[1, 1, 1], [1, 2, 0]]
    a = linear_aoa(m, 1, 2, 2)
    assert (a.s, a.t, a.k, a.v) == (1, 2, 2, 3)
    assert verify_aoa(a).ok


def test_shamir_matrix_conditions_hold_generally():
    m = shamir_matrix(GF(5), 2, 4, 5)
    assert m.rows == 4 and m.cols == 7
    tail = (5, 6)
    for cols in itertools.combinations(range(5), 4):
        assert columns_independent(m, cols)
    for cols in itertools.combinations(range(5), 2):
        assert columns_independent(m, cols + tail)


def test_shamir_matrix_parameter_errors():
    with pytest.raises(ValueError):
        shamir_matrix(GF(3), 1, 2, 4)  # k > q
    with pytest.raises(ValueError):
        shamir_matrix(GF(3), 0, 2, 2)  # s >= 1 required
    with pytest.raises(ValueError):
        shamir_matrix(GF(5), 2, 2, 3)  # s < t required


def test_linear_aoa_joint_invariant_small_grid():
    # whenever both matrix conditions pass, the produced array verifies
    for q in [2, 3, 4, 5]:
        f = field_for_order(q)
        for t in range(2, min(q, 4) + 1):
            for s in range(1, t):
                for k in range(t, q + 1):
                    a = linear_aoa(shamir_matrix(f, s, t, k), s, t, k)
                    assert verify_aoa(a).ok, (q, s, t, k)
        # the dual route through (I_t | N^T), where a basis is available
        for t in range(3, min(q + 1, 4) + 1):
            for s in range(max(1, t - q), t - 1):
                basis = rs_generator(f, t - s).columns(range(t))
                assert verify_aoa(dual_aoa(basis, s, t)).ok, (q, s, t)


def test_dual_aoa_reproduces_published_matrix_shape():
    f = GF(3)
    basis = rs_generator(f, 2)
    assert basis.entries.tolist() == [[1, 1, 1, 0], [0, 1, 2, 1]]
    expected_m = Matrix(f, [
        [1, 0, 0, 0, 1, 0],
        [0, 1, 0, 0, 1, 1],
        [0, 0, 1, 0, 1, 2],
        [0, 0, 0, 1, 0, 1],
    ])
    assert Matrix.identity(f, 4).hstack(basis.transpose()) == expected_m
    a = dual_aoa(basis, 2, 4)
    assert a == linear_aoa(expected_m, 2, 4, 4)
    assert verify_aoa(a).ok


def test_dual_aoa_from_truncated_generator():
    f = GF(3)
    basis = rs_generator(f, 2).columns(range(4))  # 2x4, t = 4 = q+1 here
    a = dual_aoa(basis, 2, 4)
    assert verify_aoa(a).ok

    f5 = GF(5)
    short = rs_generator(f5, 2).columns(range(4))  # genuine truncation: t = 4 < q+1
    b = dual_aoa(short, 2, 4)
    assert (b.s, b.t, b.k, b.v) == (2, 4, 4, 5)
    assert verify_aoa(b).ok


def test_dual_aoa_rejects_non_oa_basis():
    f = GF(3)
    with pytest.raises(ConstructionError) as exc:
        dual_aoa(Matrix(f, [[1, 1, 1, 0], [2, 2, 2, 0]]), 2, 4)
    assert exc.value.condition == "dual-basis"


# --- array types and text format -------------------------------------------------


def test_array_constructors_validate():
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, 2, [(0, 0)])  # short row
    with pytest.raises(ValueError):
        OrthogonalArray(2, 3, 2, [(0, 0, 2)])  # symbol out of range
    with pytest.raises(ValueError):
        OrthogonalArray(3, 2, 2, [])  # t > k
    with pytest.raises(ValueError):
        AugmentedOA(2, 2, 3, 2, [])  # s = t
    with pytest.raises(ValueError):
        AugmentedOA(1, 3, 2, 3, [])  # t > k


def test_array_constructors_take_an_int64_grid_as_is():
    rows = [(1, 1, 0), (0, 0, 0), (0, 1, 1), (1, 0, 1)]
    grid = np.array(rows, dtype=np.int64)
    a = OrthogonalArray(2, 3, 2, grid)
    assert a == OrthogonalArray(2, 3, 2, rows)
    assert a.grid is not grid and not a.grid.flags.writeable
    assert grid.tolist() == [list(r) for r in rows]  # the input is not reordered
    assert AugmentedOA(1, 2, 2, 2, grid).rows == a.rows
    with pytest.raises(ValueError, match="rows have length 2, expected 3"):
        OrthogonalArray(2, 3, 2, grid[:, :2])
    with pytest.raises(ValueError, match="symbol 2 outside"):
        OrthogonalArray(2, 3, 2, grid + 1)


def test_rows_are_canonicalized():
    a = OrthogonalArray(2, 3, 2, [(1, 1, 0), (0, 0, 0), (0, 1, 1), (1, 0, 1)])
    assert a.rows == ((0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0))


def test_text_format_round_trips():
    oa = oa_from_generator(rs_generator(GF(3), 2), 2)
    text = dump_array(oa)
    assert text.splitlines()[0] == "OA 2 4 3"
    assert load_array(text) == oa

    a = demo_aoa_1333()
    text = dump_array(a)
    assert text.splitlines()[0] == "AOA 1 3 3 3"
    assert text.splitlines()[1] == "0 0 0 0,0"
    assert load_array(text) == a

    single = aoa_merge(oa, 1)  # t-s = 1: augmented field has no comma
    text = dump_array(single)
    assert text.splitlines()[1].split()[-1].count(",") == 0
    assert load_array(text) == single


def test_text_format_accepts_any_row_order():
    a = demo_aoa_1333()
    lines = dump_array(a).splitlines()
    shuffled = [lines[0]] + lines[:0:-1]
    assert load_array("\n".join(shuffled)) == a


def test_text_format_rejects_malformed_input():
    with pytest.raises(ValueError):
        load_array("")
    with pytest.raises(ValueError):
        load_array("ZZZ 1 2 3\n")
    with pytest.raises(ValueError):
        load_array("OA 2 3\n")
    with pytest.raises(ValueError):
        load_array("AOA 1 2 2 3\n0 0\n")  # missing augmented field
    with pytest.raises(ValueError):
        load_array("AOA 1 3 3 3\n0 0 0 0\n")  # augmented field not a 2-tuple
