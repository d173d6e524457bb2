"""Differential tests: the batched elimination kernel against the scalar
one-matrix-at-a-time elimination in ``oracles``.

Stacks of rectangular matrices, empty ones and ones with zero rows and
columns included, must reduce to the oracle's rank and reduced form over the
27 fields of order at most 64, GF(81) and GF(2^16).  ``rank``,
``columns_independent`` and ``kernel_vector`` must equal the oracle's, and
the constructions must reject a generator with the oracle's first dependent
subset, in ``itertools.combinations`` order, and the same condition.
Primality and prime-power factoring are compared with trial division.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp import designs
from oaramp.designs import linear_aoa, oa_from_generator, rs_generator, shamir_matrix
from oaramp.errors import ConstructionError
from oaramp.gf import GF, factor_prime_power, field_for_order, is_prime
from oaramp.linalg import (
    Matrix,
    _reduce,
    columns_independent,
    first_dependent,
    kernel_vector,
    rank,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
NO_CAP = 10**12  # the row space is never built here
ORDERS = [q for q in range(2, 65) if oracles.factor_prime_power(q)] + [81, 2**16]


@functools.cache
def field(q):
    return field_for_order(q)


def test_the_orders_are_the_27_small_fields_and_two_large_ones():
    assert len(ORDERS) == 29 and ORDERS[-2:] == [81, 2**16]


@st.composite
def matrices(draw, min_rows=0, min_cols=0, max_rows=5, max_cols=6, orders=ORDERS):
    """A matrix over a drawn field as lists of encodings: entries biased to 0
    and 1, some rows and columns forced to zero, and some columns copies or
    sums of earlier ones, so that dependent columns are common."""
    q = draw(st.sampled_from(orders))
    f = field(q)
    n_rows = draw(st.integers(min_rows, max_rows))
    n_cols = draw(st.integers(min_cols, max_cols))
    entry = st.one_of(st.just(0), st.just(1), st.integers(0, q - 1))
    grid = [[draw(entry) for _ in range(n_cols)] for _ in range(n_rows)]
    for c in range(n_cols):
        how = draw(st.sampled_from(["keep", "keep", "zero", "copy", "sum"]))
        if how == "zero":
            for row in grid:
                row[c] = 0
        elif how != "keep" and c > 0:
            a, b = draw(st.integers(0, c - 1)), draw(st.integers(0, c - 1))
            coef = draw(st.integers(1, q - 1))
            for row in grid:
                x = oracles.field_mul(f, coef, row[a])
                row[c] = x if how == "copy" else oracles.field_add(f, x, row[b])
    for row in grid:
        if draw(st.integers(0, 5)) == 0:
            row[:] = [0] * n_cols
    return f, grid


@SETTINGS
@given(st.data())
def test_stack_reduces_like_the_scalar_elimination(data):
    f, first = data.draw(matrices())
    n_rows, n_cols = len(first), len(first[0]) if first else 0
    same = matrices(n_rows, n_cols, n_rows, n_cols, [f.q])
    grids = [first] + [data.draw(same)[1] for _ in range(data.draw(st.integers(0, 3)))]
    stack = np.array(grids, dtype=np.int64).reshape(len(grids), n_rows, n_cols)
    ranks, reduced = _reduce(f, stack)
    for i, grid in enumerate(grids):
        want, pivots = oracles._rref(f, [list(r) for r in grid])
        assert ranks[i] == len(pivots)
        assert reduced[i].tolist() == want
    assert stack.tolist() == grids  # the input stack is left as it was


@SETTINGS
@given(matrices(min_rows=1, min_cols=1), st.data())
def test_rank_independence_and_kernel_vector_match_the_oracle(fg, data):
    f, grid = fg
    m = Matrix(f, grid)
    assert rank(m) == oracles.rank(m)
    assert kernel_vector(f, grid) == oracles.kernel_vector(f, grid)
    idx = data.draw(st.lists(st.integers(0, m.cols - 1), unique=True, max_size=m.cols))
    assert columns_independent(m, idx) is oracles.columns_independent(m, idx)


class _Checked(Exception):
    """Raised in place of building the row space: every pre-check passed."""


def _construction_verdict(build):
    def row_space(*args):
        raise _Checked

    with mock.patch.object(designs, "row_space", row_space):
        try:
            build()
        except ConstructionError as e:
            return e.condition, e.witness, str(e)
        except _Checked:
            return None
    raise AssertionError("the construction neither failed nor built its row space")


def _oracle_verdict(m, checks):
    for condition, subsets in checks:
        cols = oracles.first_dependent(m, subsets)
        if cols is not None:
            return (condition, cols,
                    f"columns {tuple(c + 1 for c in cols)} of the generator are linearly "
                    f"dependent ({condition})")
    return None


@st.composite
def generators(draw):
    """A field, a t-row generator and s: a random matrix, or a Shamir generator
    with at most one column replaced, so that every verdict is common."""
    small = ORDERS[:-2]
    if draw(st.booleans()):
        f, grid = draw(matrices(1, 1, 4, 7, small).filter(lambda m: len(m[1]) <= len(m[1][0])))
        return f, grid, draw(st.integers(0, len(grid) - 1))
    f = field(draw(st.sampled_from([q for q in small if q >= 4])))
    t = draw(st.integers(2, 4))
    s = draw(st.integers(1, t - 1))
    k = draw(st.integers(t, min(f.q, 7)))
    grid = shamir_matrix(f, s, t, k).entries.tolist()
    c, d = draw(st.integers(0, k + t - s - 1)), draw(st.integers(0, k + t - s - 1))
    how = draw(st.sampled_from(["keep", "copy", "random"]))
    for row in grid:
        if how == "copy":
            row[c] = row[d]
        elif how == "random":
            row[c] = draw(st.integers(0, f.q - 1))
    return f, grid, s


@SETTINGS
@given(generators())
def test_first_dependent_subset_matches_the_oracle(fgs):
    f, grid, s = fgs
    m = Matrix(f, grid)
    t = m.rows
    want = _oracle_verdict(m, [("strength", itertools.combinations(range(m.cols), t))])
    assert _construction_verdict(lambda: oa_from_generator(m, t, NO_CAP)) == want

    k = m.cols - (t - s)
    if k >= t:
        tail = tuple(range(k, m.cols))
        want = _oracle_verdict(m, [
            ("plain-strength", itertools.combinations(range(k), t)),
            ("augmented-independence",
             (cols + tail for cols in itertools.combinations(range(k), s)))])
        assert _construction_verdict(lambda: linear_aoa(m, s, t, k, NO_CAP)) == want


@pytest.mark.parametrize("q", [128, 2**16])
def test_a_late_dependent_subset_is_found_across_blocks(q):
    # At most 200 RS columns, then a copy of the second-last: the only dependent
    # pair is the last of over 8,000 pairs, several blocks into the scan.
    m0 = rs_generator(field(q), 2)
    cols = list(range(min(m0.cols, 200)))
    m = m0.columns(cols + [cols[-2]])
    n = m.cols
    assert first_dependent(m, itertools.combinations(range(n), 2)) == (n - 3, n - 1)
    assert first_dependent(m, itertools.combinations(range(n - 1), 2)) is None


def test_independence_checks_make_no_per_subset_field_calls(monkeypatch):
    """The pre-checks of ``oa_from_generator`` on the GF(16), t=2 RS generator
    make as many scalar ``GF.mul``/``GF.inv`` calls for 3 subsets as for 136."""
    counts = {"mul": 0, "inv": 0}
    for name in counts:
        original = getattr(GF, name)

        def counted(*args, _fn=original, _name=name):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(GF, name, counted)
    f = field(16)
    m0 = rs_generator(f, 2)
    seen = []
    for k in (3, 9, 17):  # 3, 36 and 136 column pairs
        counts.update(mul=0, inv=0)
        oa_from_generator(m0.columns(range(k)), 2)
        seen.append(dict(counts))
    assert seen[0] == seen[1] == seen[2]


def test_primality_and_factoring_match_trial_division():
    for n in range(-2, 20000):
        assert is_prime(n) is oracles.is_prime(n), n
        assert factor_prime_power(n) == oracles.factor_prime_power(n), n
    for p in (65521, 65537, 1000003, 999999937):
        for j in (1, 2, 3):
            assert factor_prime_power(p**j) == (p, j)
            assert factor_prime_power(p**j * 2) is None


def test_primality_is_exact_up_to_the_bound_and_refused_beyond():
    # strong pseudoprime to every prime base up to 37: base 41 proves it composite
    assert not is_prime(318665857834031151167461)
    assert factor_prime_power(1000000000000000003) == (1000000000000000003, 1)
    assert factor_prime_power(2**100) == (2, 100)
    assert factor_prime_power(3 * 2**100) is None  # even: proven composite at any size
    for n in (3317044064679887385961981,  # strong pseudoprime to bases 2..41
              2**127 - 1):  # a prime beyond the exact range
        with pytest.raises(ValueError, match="cannot decide"):
            is_prime(n)
        with pytest.raises(ValueError, match="cannot decide"):
            factor_prime_power(n)
