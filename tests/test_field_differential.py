"""Differential tests: the table-backed field and the broadcast row space
against the polynomial and one-product-at-a-time versions in ``oracles``.

Every field operation is compared on all pairs of elements for q <= 64 and
on sampled pairs for GF(81), GF(243), GF(2^16) and GF(3^10); the tables are
checked to be the powers of the smallest primitive element, the one an orbit
search picks for every order up to 1024 and for 3^10 and 2^16; row-space
grids of 1-3-row matrices must equal the oracle's word for word, in order.
"""

import functools
import itertools

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oaramp.gf import GF, _orbit_of_one, factor_prime_power, field_for_order
from oaramp.linalg import Matrix, row_space

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)
SMALL = [q for q in range(2, 65) if factor_prime_power(q)]
LARGE = [81, 243, 2**16, 3**10]
ROW_SPACE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 81, 128]


@functools.cache
def field(q):
    return field_for_order(q)


def prime_factors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def is_generator(f, a):
    """Order q-1 by the oracle's arithmetic: no a^((q-1)/r) is 1, r a prime factor."""
    return all(oracles.field_pow(f, a, (f.q - 1) // r) != 1 for r in prime_factors(f.q - 1))


def check_pair(f, a, b):
    assert f.add(a, b) == oracles.field_add(f, a, b)
    assert f.mul(a, b) == oracles.field_mul(f, a, b)
    assert f.pow(a, b) == oracles.field_pow(f, a, b)
    if a:
        assert f.pow(a, -b) == oracles.field_pow(f, a, -b)


@pytest.mark.parametrize("q", SMALL)
def test_every_operation_on_all_pairs(q):
    f = field(q)
    for a, b in itertools.product(range(q), repeat=2):
        check_pair(f, a, b)
    for a in range(q):
        assert f.neg(a) == oracles.field_neg(f, a)
        if a:
            assert f.inv(a) == oracles.field_inv(f, a)
    els = np.arange(q, dtype=np.int64)
    table = [[oracles.field_add(f, a, b) for b in range(q)] for a in range(q)]
    assert f._add_arrays(els[:, None], els[None, :]).tolist() == table
    table = [[oracles.field_mul(f, a, b) for b in range(q)] for a in range(q)]
    assert f._mul_arrays(els[:, None], els[None, :]).tolist() == table


@SETTINGS
@given(st.sampled_from(LARGE), st.data())
def test_every_operation_on_sampled_pairs(q, data):
    f = field(q)
    a, b = (data.draw(st.integers(0, q - 1)) for _ in range(2))
    check_pair(f, a, b)
    assert f.neg(a) == oracles.field_neg(f, a)
    if a:
        assert f.inv(a) == oracles.field_inv(f, a)
    pair = np.array([a, b], dtype=np.int64)
    assert f._add_arrays(pair, pair[::-1]).tolist() == [oracles.field_add(f, a, b)] * 2
    assert f._mul_arrays(pair, pair[::-1]).tolist() == [oracles.field_mul(f, a, b)] * 2


@pytest.mark.parametrize("q", SMALL + LARGE)
def test_tables_are_powers_of_the_smallest_generator(q):
    f = field(q)
    log = f._log[1:q]
    assert sorted(log) == list(range(q - 1))  # a bijection onto [0, q-2]
    assert all(f._exp[f._log[a]] == a for a in range(1, q))
    g = f._exp[1]
    assert is_generator(f, g)
    assert not any(is_generator(f, a) for a in range(1, g))
    for n in range(q - 1) if q <= 64 else range(0, q - 1, (q - 1) // 50):
        assert f._exp[n] == oracles.field_pow(f, g, n)


@pytest.mark.parametrize("q", [q for q in range(2, 1025) if factor_prime_power(q)]
                         + [3**10, 2**16])
def test_primitive_element_is_the_one_an_orbit_search_picks(q):
    """The order test picks the same g as building every candidate's orbit of
    powers and taking the first with no early 1, so the tables are unchanged."""
    f = field(q)
    for g in range(f.p if f.j > 1 else 1, q):
        powers = _orbit_of_one(f._times(g), q - 1)
        if not (powers[1:] == 1).any():
            break
    assert f._exp[1] == g
    assert f._exp_array[:q - 1].tolist() == powers.tolist()


def test_exceptions_keep_their_contract():
    f = GF(3, 4)
    for op in (f.add, f.mul):
        with pytest.raises(ValueError, match="81 is not an element encoding in GF"):
            op(81, 1)
    for op in (f.neg, f.inv):
        with pytest.raises(ValueError, match="-1 is not an element encoding in GF"):
            op(-1)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)
    with pytest.raises(ZeroDivisionError):
        f.pow(0, -1)
    assert f.pow(0, 0) == 1 and f.pow(0, 5) == 0


@st.composite
def small_matrix(draw):
    q = draw(st.sampled_from(ROW_SPACE_ORDERS))
    most = max(r for r in (1, 2, 3) if r == 1 or q**r <= 5000)
    rows = draw(st.integers(1, most))
    cols = draw(st.integers(1, 4))
    entries = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=cols, max_size=cols),
                            min_size=rows, max_size=rows))
    return Matrix(field(q), entries)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(small_matrix())
def test_row_space_matches_oracle(m):
    grid = row_space(m)
    assert grid.dtype == np.int64 and not grid.flags.writeable
    assert grid.tolist() == [list(w) for w in oracles.row_space(m)]


@pytest.mark.parametrize("q,rows,cols", [(2, 3, 4), (9, 3, 4), (11, 4, 10), (16, 2, 17),
                                          (81, 1, 82), (128, 2, 3)])
def test_row_space_makes_no_scalar_adds(q, rows, cols, monkeypatch):
    f = field(q)
    m = Matrix(f, [[(3 * i + 5 * c + 1) % q for c in range(cols)] for i in range(rows)])
    counts = dict.fromkeys(("mul", "add"), 0)
    for name in counts:
        def counted(*args, _fn=getattr(GF, name), _name=name):
            counts[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(GF, name, counted)
    row_space(m)
    assert counts["mul"] <= q * rows * cols
    assert counts["add"] == 0
