"""Field arithmetic: exhaustive axioms at small orders, sampled beyond, and
independent polynomial-arithmetic oracles for the extension fields."""

import itertools
import random

import pytest

from oaramp.gf import GF, factor_prime_power, field_for_order, is_irreducible

SMALL_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
LARGER_PRIME_POWERS = [17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


# --- independent oracle: polynomial arithmetic written from scratch ---------


def poly_mul_mod(a, b, modpoly, p):
    """Schoolbook product of coefficient lists, then long division remainder."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            prod[i + k] = (prod[i + k] + x * y) % p
    deg = len(modpoly) - 1
    while len(prod) > deg:
        factor = prod[-1]
        for i in range(len(modpoly)):
            prod[len(prod) - len(modpoly) + i] = (
                prod[len(prod) - len(modpoly) + i] - factor * modpoly[i]) % p
        prod.pop()
    while len(prod) < deg:
        prod.append(0)
    return prod


def int_to_poly(v, p, j):
    out = []
    for _ in range(j):
        out.append(v % p)
        v //= p
    return out


def poly_to_int(c, p):
    v = 0
    for x in reversed(c):
        v = v * p + x
    return v


@pytest.mark.parametrize("p,j", [(2, 2), (2, 3), (3, 2)])
def test_extension_multiplication_matches_polynomial_oracle(p, j):
    f = GF(p, j)
    mod = list(f.reducing_poly)
    for a in range(f.q):
        for b in range(f.q):
            expect = poly_to_int(
                poly_mul_mod(int_to_poly(a, p, j), int_to_poly(b, p, j), mod, p), p)
            assert f.mul(a, b) == expect


def test_prime_fields_have_no_reducing_poly():
    assert GF(3).reducing_poly is None
    assert GF(13).reducing_poly is None


def test_gf4_reducing_poly_is_unique_irreducible_quadratic():
    # the oracle: trial-divide every monic quadratic over GF(2) by x and x+1
    irreducible = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        divisible = False
        for r in range(2):  # root test suffices for quadratics
            if (r * r + c1 * r + c0) % 2 == 0:
                divisible = True
        if not divisible:
            irreducible.append((c0, c1, 1))
    assert irreducible == [(1, 1, 1)]
    assert GF(2, 2).reducing_poly == (1, 1, 1)


def test_reducing_polys_are_irreducible_and_lexicographically_minimal():
    for q in [4, 8, 9, 16, 25, 27, 32, 49, 64]:
        p, j = factor_prime_power(q)
        f = GF(p, j)
        poly = f.reducing_poly
        assert len(poly) == j + 1 and poly[-1] == 1
        assert is_irreducible(poly, p)
        # nothing lexicographically earlier (constant term first) is irreducible
        for tail in itertools.product(range(p), repeat=j):
            cand = tail + (1,)
            if cand == poly:
                break
            assert not is_irreducible(cand, p)


# --- axioms ------------------------------------------------------------------


def _check_axioms(f: GF, triples):
    add, mul, neg = f.add, f.mul, f.neg
    for a in range(f.q):
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, neg(a)) == 0
        if a:
            assert mul(a, f.inv(a)) == 1
    for a in range(f.q):
        for b in range(f.q):
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS)
def test_axioms_exhaustive_small_fields(q):
    f = field_for_order(q)
    _check_axioms(f, itertools.product(range(q), repeat=3))


@pytest.mark.parametrize("q", LARGER_PRIME_POWERS)
def test_axioms_sampled_larger_fields(q):
    f = field_for_order(q)
    rng = random.Random(10_000 + q)
    triples = [(rng.randrange(q), rng.randrange(q), rng.randrange(q))
               for _ in range(10_000)]
    add, mul = f.add, f.mul
    for a, b, c in triples:
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in range(q):
        b = rng.randrange(q)
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
        assert add(a, f.neg(a)) == 0
        if a:
            assert mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("q", SMALL_PRIME_POWERS + LARGER_PRIME_POWERS)
def test_fermat_and_inverse_involution(q):
    f = field_for_order(q)
    for a in range(1, q):
        assert f.pow(a, q - 1) == 1
        assert f.inv(f.inv(a)) == a


# --- encoding ----------------------------------------------------------------


def test_encoding_round_trip():
    for q in [8, 9, 27]:
        f = field_for_order(q)
        for a in range(q):
            assert f.encode(f.coeffs(a)) == a
        assert f.coeffs(0) == (0,) * f.j
        assert f.coeffs(1) == (1,) + (0,) * (f.j - 1)


def test_known_values():
    assert GF(3).add(2, 2) == 1
    assert GF(2, 2).add(3, 3) == 0
    assert GF(5).neg(2) == 3
    assert GF(2, 2).mul(2, 2) == 3  # x * x = x + 1 mod x^2+x+1
    assert GF(5).inv(2) == 3
    assert GF(3).pow(2, 2) == 1
    assert GF(7).pow(3, -1) == GF(7).inv(3)


def test_validation_errors():
    with pytest.raises(ValueError):
        GF(4)  # not prime
    with pytest.raises(ValueError):
        GF(1)
    with pytest.raises(ValueError):
        GF(2, 0)
    with pytest.raises(ValueError):
        GF(2, 17)  # 2^17 over the order cap
    with pytest.raises(ZeroDivisionError):
        GF(5).inv(0)
    with pytest.raises(ValueError):
        GF(5).add(5, 0)


def test_factor_prime_power():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(49) == (7, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(6) is None
    assert factor_prime_power(12) is None
    assert factor_prime_power(1) is None
    with pytest.raises(ValueError):
        field_for_order(6)


def test_field_identity_semantics():
    assert GF(3, 2) == GF(3, 2)
    assert GF(3) != GF(3, 2)
    assert hash(GF(2, 3)) == hash(GF(2, 3))
