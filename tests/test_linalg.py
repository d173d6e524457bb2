"""Matrix operations over GF(q), checked against brute-force oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp.designs import OrthogonalArray, verify_oa
from oaramp.errors import CapExceeded
from oaramp.gf import GF, field_for_order
from oaramp.linalg import (
    Matrix,
    columns_independent,
    kernel_vector,
    rank,
    row_space,
)


def brute_force_dependent(entries, idx, q):
    """Does any nonzero coefficient vector over GF(q), q prime, kill the columns?"""
    for coeffs in itertools.product(range(q), repeat=len(idx)):
        if not any(coeffs):
            continue
        if all(sum(c * row[j] for c, j in zip(coeffs, idx)) % q == 0 for row in entries):
            return True
    return False


def test_rank_examples():
    assert rank(Matrix.identity(GF(2), 3)) == 3
    assert rank(Matrix(GF(3), [[0, 0, 0, 0], [0, 0, 0, 0]])) == 0
    assert rank(Matrix(GF(3), [[1, 1, 1], [0, 1, 2]])) == 2
    assert rank(Matrix(GF(3), [[1, 2], [2, 1]])) == 1  # second row = 2 * first


def test_columns_independent_examples():
    from oaramp.designs import rs_generator

    m0 = rs_generator(GF(3), 2)
    for pair in itertools.combinations(range(4), 2):
        assert columns_independent(m0, pair)
    assert not columns_independent(Matrix(GF(3), [[1, 1], [2, 2]]), [0, 1])
    assert columns_independent(m0, [])
    with pytest.raises(IndexError):
        columns_independent(m0, [0, 4])
    with pytest.raises(ValueError):
        columns_independent(m0, [1, 1])


@pytest.mark.parametrize("q", [2, 3])
def test_columns_independent_matches_brute_force(q):
    import random

    rng = random.Random(77 * q)
    for _ in range(30):
        n_rows = rng.randint(1, 4)
        n_cols = rng.randint(1, 4)
        entries = [[rng.randrange(q) for _ in range(n_cols)] for _ in range(n_rows)]
        m = Matrix(GF(q), entries)
        for size in range(0, min(3, n_cols) + 1):
            for idx in itertools.combinations(range(n_cols), size):
                expected = not idx or not brute_force_dependent(entries, idx, q)
                assert columns_independent(m, idx) == expected, (entries, idx)


def tuples(grid):
    return [tuple(w) for w in grid.tolist()]


def test_row_space_enumeration_order_and_contents():
    m = Matrix(GF(2), [[1, 1], [0, 1]])
    words = row_space(m)
    # u runs 00, 01, 10, 11 with u[0] most significant; u @ m = (u0, u0 + u1)
    assert tuples(words) == [(0, 0), (0, 1), (1, 1), (1, 0)]
    assert sorted(tuples(words)) == [(0, 0), (0, 1), (1, 0), (1, 1)]  # the full space
    assert words.dtype == np.int64 and not words.flags.writeable

    rep = row_space(Matrix(GF(3), [[1, 1, 1]]))
    assert tuples(rep) == [(0, 0, 0), (1, 1, 1), (2, 2, 2)]


def test_row_space_of_generator_is_an_orthogonal_array():
    from oaramp.designs import rs_generator

    m0 = rs_generator(GF(2), 2)  # 2 x 3
    words = row_space(m0)
    assert len(words) == 4
    assert verify_oa(OrthogonalArray(2, 3, 2, words)).ok


def test_row_space_counts_duplicates_by_rank():
    import random

    rng = random.Random(5)
    for q in [2, 3, 4]:
        f = field_for_order(q)
        for _ in range(10):
            n_rows = rng.randint(1, 3)
            n_cols = rng.randint(1, 4)
            m = Matrix(f, [[rng.randrange(q) for _ in range(n_cols)]
                           for _ in range(n_rows)])
            words = row_space(m)
            assert len(words) == q**n_rows
            assert len(set(tuples(words))) == q ** rank(m)


def test_row_space_cap():
    with pytest.raises(CapExceeded):
        row_space(Matrix.identity(GF(5), 8), max_cells=10**4)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_rank_equals_rank_of_transpose(data):
    q = data.draw(st.sampled_from([2, 3, 4, 5]))
    n_rows = data.draw(st.integers(1, 8))
    n_cols = data.draw(st.integers(1, 8))
    entries = data.draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n_cols, max_size=n_cols),
        min_size=n_rows, max_size=n_rows))
    m = Matrix(field_for_order(q), entries)
    assert rank(m) == rank(m.transpose())
    assert rank(m) <= min(n_rows, n_cols)


def test_kernel_vector():
    f = GF(3)
    # columns: c0, c1, c0 + c1  ->  kernel contains (1, 1, -1) up to scaling
    grid = [[0, 1, 1], [1, 0, 1], [1, 1, 2], [2, 2, 1]]
    x = kernel_vector(f, grid)
    assert x is not None and any(x)
    for row in grid:
        assert sum(c * v for c, v in zip(row, x)) % 3 == 0
    assert kernel_vector(f, [[1, 0], [0, 1]]) is None


def test_matrix_construction_and_helpers():
    f = GF(2, 2)
    m = Matrix(f, [[0, 1, 2], [3, 2, 1]])
    assert m.entries[:, 1].tolist() == [1, 2]
    assert m.transpose().entries.tolist() == [[0, 3], [1, 2], [2, 1]]
    assert m.columns([2, 0]).entries.tolist() == [[2, 0], [1, 3]]
    stacked = m.hstack(Matrix.identity(f, 2))
    assert stacked.cols == 5 and stacked.entries[0].tolist() == [0, 1, 2, 1, 0]
    assert m == Matrix(f, np.array([[0, 1, 2], [3, 2, 1]]))
    assert m != Matrix(GF(5), [[0, 1, 2], [3, 2, 1]]) and m != stacked
    with pytest.raises(ValueError):
        Matrix(f, [[0, 1], [2]])
    with pytest.raises(ValueError):
        Matrix(f, [[0, 4]])
    with pytest.raises(ValueError):
        m.hstack(Matrix.identity(f, 3))


@pytest.mark.parametrize("entries", [
    [[0, 2**64]],  # does not fit 64 bits
    [[0, 1], [2]],  # ragged
    [],
    [[]],
    [[0, 1, 3]],  # out of range for GF(3)
    [[-1, 0]],
    [[1.5, 0]],  # not an integer
    [["1", "0"]],
])
def test_matrix_rejects_what_is_not_a_grid_over_its_field(entries):
    with pytest.raises(ValueError):
        Matrix(GF(3), entries)


def test_matrix_holds_one_read_only_int64_grid():
    source = np.array([[1, 2], [0, 1]])
    m = Matrix(GF(3), source)
    assert m.entries.dtype == np.int64 and not m.entries.flags.writeable
    assert type(m.rows) is int and type(m.cols) is int and (m.rows, m.cols) == (2, 2)
    source[0, 0] = 2  # the matrix keeps its own copy
    assert m.entries.tolist() == [[1, 2], [0, 1]]
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0
    for derived in (m.transpose(), m.columns([1]), m.hstack(m), Matrix.identity(GF(3), 2)):
        assert derived.entries.dtype == np.int64 and not derived.entries.flags.writeable
        assert type(derived.rows) is int and type(derived.cols) is int
