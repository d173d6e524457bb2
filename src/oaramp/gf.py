"""Exact arithmetic in the finite field GF(p^j).

Elements are encoded as integers in ``[0, q - 1]``: the element with
coefficient vector ``(c_0, ..., c_{j-1})`` over GF(p) has integer value
``sum(c_i * p**i)``.  The encoding is a bijection, 0 is the additive and 1
the multiplicative identity, and the induced total order on integers is the
canonical element order used everywhere downstream (row sorting, generator
columns, share point assignment).

For extension fields the reducing polynomial is the lexicographically
smallest monic irreducible of degree j, coefficients compared from the
constant term upward.  It need not be primitive, so each field then searches
the encodings in ascending order for the smallest primitive element g, and
builds, once at construction, exp/log tables over g and the Zech logarithms
log(1 + g^n), each of size O(q).  Scalar arithmetic is lookups in those
tables; ``_mul_arrays``/``_add_arrays``/``_inv_arrays``/``_neg_arrays`` apply
the same arithmetic to whole int64 arrays.  No table is built at import.
"""

from __future__ import annotations

import itertools

import numpy as np

ORDER_CAP = 2**16


# Miller-Rabin with the prime bases 2..41 decides primality exactly below this
# bound (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86 (2017)); bases 2..37 alone are exact only below 3.18e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin.  A composite verdict is always proven; a
    number the bases cannot prove composite is prime below ``_MR_EXACT_BELOW``,
    and above it is rejected with ValueError rather than guessed."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"cannot decide whether {n} is prime: the test is exact "
                         f"only below {_MR_EXACT_BELOW}")
    return True


def _iroot(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def factor_prime_power(q: int) -> tuple[int, int] | None:
    """Return (p, j) with q = p^j and p prime, or None if q is not a prime power."""
    if q < 2:
        return None
    for j in range(q.bit_length(), 1, -1):
        p = _iroot(q, j)
        if p**j == q and is_prime(p):
            return p, j
    return (q, 1) if is_prime(q) else None


# -- polynomial helpers over GF(p); coefficient tuples, constant term first --


def _poly_trim(coeffs: list[int]) -> tuple[int, ...]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _poly_mod(a: tuple[int, ...], m: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a modulo the monic polynomial m."""
    r = list(a)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim(r)


def _monic_polys(degree: int, p: int):
    """All monic polynomials of the given degree, low-order coefficients first."""
    for tail in itertools.product(range(p), repeat=degree):
        yield tail + (1,)


def is_irreducible(poly: tuple[int, ...], p: int) -> bool:
    """Trial division of a monic polynomial by every lower-degree monic polynomial."""
    degree = len(poly) - 1
    if degree < 1:
        return False
    if poly[0] == 0:  # divisible by x
        return degree == 1
    for d in range(1, degree // 2 + 1):
        for divisor in _monic_polys(d, p):
            if not _poly_mod(poly, divisor, p):
                return False
    return True


def _smallest_irreducible(p: int, j: int) -> tuple[int, ...]:
    for cand in _monic_polys(j, p):
        if is_irreducible(cand, p):
            return cand
    raise AssertionError(f"no irreducible polynomial of degree {j} over GF({p})")


def _poly_str(poly: tuple[int, ...]) -> str:
    terms = []
    for i in range(len(poly) - 1, -1, -1):
        c = poly[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            terms.append(x if c == 1 else f"{c}{x}")
    return "+".join(terms) if terms else "0"


def _orbit_of_one(times: np.ndarray, n: int) -> np.ndarray:
    """g^0, ..., g^(n-1), given the map ``times``: a -> a * g.  Composing the map
    a -> a * g^m with itself gives a -> a * g^2m, so the orbit doubles per step."""
    powers = np.ones(1, dtype=np.int64)
    while len(powers) < n:
        powers = np.concatenate([powers, times[powers]])
        times = times[times]
    return powers[:n]


class GF:
    """The finite field GF(p^j), operating on integer-encoded elements.

    The methods ``add``/``sub``/``neg``/``mul``/``inv``/``pow`` take and
    return integer encodings; there is no element type.
    """

    __slots__ = ("p", "j", "q", "reducing_poly", "_exp", "_log", "_zech",
                 "_exp_array", "_log_array")

    def __init__(self, p: int, j: int = 1):
        if p < 2:
            raise ValueError(f"{p} is not prime")
        if j < 1:
            raise ValueError(f"extension degree must be >= 1, got {j}")
        # before the primality test, which trial-divides up to sqrt(p)
        if p > ORDER_CAP or j >= ORDER_CAP.bit_length() or p**j > ORDER_CAP:
            raise ValueError(f"field order {p if j == 1 else f'{p}^{j}'} exceeds cap {ORDER_CAP}")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.j = j
        self.q = p**j
        self.reducing_poly: tuple[int, ...] | None = (
            _smallest_irreducible(p, j) if j > 1 else None
        )
        self._tabulate()

    def _tabulate(self) -> None:
        """exp/log tables over the smallest-encoding primitive element g, and the
        Zech logarithms log(1 + g^n), all of size O(q).

        ``log[0]`` is the sentinel 2(q-1), and ``exp`` holds two periods of the
        powers of g followed by zeros, so ``exp[log[a] + log[b]]`` is the product
        for every a and b, zero included, with no branch.
        """
        p, j, q = self.p, self.j, self.q
        # a constant of GF(p) has order dividing p-1 < q-1, so for j > 1 start at x
        for g in range(p if j > 1 else 1, q):
            powers = _orbit_of_one(self._times(g), q - 1)
            if not (powers[1:] == 1).any():
                break
        zero = 2 * (q - 1)
        exp = np.zeros(4 * q - 3, dtype=np.int64)
        exp[:zero] = np.tile(powers, 2)
        log = np.empty(q, dtype=np.int64)
        log[powers] = np.arange(q - 1)
        log[0] = zero
        self._exp_array, self._log_array = exp, log
        self._exp, self._log = exp.tolist(), log.tolist()
        self._zech = log[self._add_arrays(powers, 1)].tolist()

    def _times(self, g: int) -> np.ndarray:
        """a * g for every encoding a.  The map is GF(p)-linear, so it is built
        digit by digit: with the values on [0, p^i) known, those on
        [c * p^i, (c+1) * p^i) add c * x^i * g to them."""
        p = self.p
        coef = np.arange(p)[:, None]
        places = p ** np.arange(self.j)
        times = np.zeros(1, dtype=np.int64)
        row = list(self.coeffs(g))  # coefficients of x^i * g
        for _ in range(self.j):
            times = self._add_arrays((coef * row % p @ places)[:, None], times).ravel()
            top = row[-1]
            row = [0] + row[:-1]
            if self.j > 1:
                row = [(c - top * m) % p for c, m in zip(row, self.reducing_poly)]
        return times

    # -- encoding helpers --

    def coeffs(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (c_0, ..., c_{j-1}) of the element encoded by a."""
        out = []
        for _ in range(self.j):
            out.append(a % self.p)
            a //= self.p
        return tuple(out)

    def encode(self, coeffs: tuple[int, ...]) -> int:
        v = 0
        for c in reversed(coeffs):
            v = v * self.p + c
        return v

    def _check(self, a: int) -> int:
        if not 0 <= a < self.q:
            raise ValueError(f"{a} is not an element encoding in GF({self.q})")
        return a

    # -- arithmetic on integer encodings: table lookups --

    def add(self, a: int, b: int) -> int:
        """a + b = a * (1 + b/a), through the Zech logarithm of b/a."""
        self._check(a), self._check(b)
        if not a or not b:
            return a or b
        la = self._log[a]
        return self._exp[la + self._zech[(self._log[b] - la) % (self.q - 1)]]

    def neg(self, a: int) -> int:
        self._check(a)
        return self._exp[self._log[a] + self._log[self.p - 1]]

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        self._check(a), self._check(b)
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError(f"0 has no inverse in GF({self.q})")
        return self._exp[self.q - 1 - self._log[a]]

    def pow(self, a: int, e: int) -> int:
        """a^e, with 0^0 = 1; negative exponents go through the inverse."""
        self._check(a)
        if e < 0:
            a = self.inv(a)
            e = -e
        if a == 0:
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    # -- whole-array arithmetic on int64 arrays of encodings, for linalg --

    def _mul_arrays(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise products of two broadcastable arrays (or an array and a constant)."""
        return self._exp_array[self._log_array[a] + self._log_array[b]]

    def _inv_arrays(self, a: np.ndarray) -> np.ndarray:
        """Elementwise inverses of an array of nonzero encodings."""
        return self._exp_array[self.q - 1 - self._log_array[a]]

    def _neg_arrays(self, a: np.ndarray) -> np.ndarray:
        """Elementwise negatives: products with -1."""
        return self._mul_arrays(a, self.p - 1)

    def _add_arrays(self, a: np.ndarray, b: np.ndarray | int) -> np.ndarray:
        """Elementwise sums of two broadcastable arrays: XOR for p = 2, else base-p
        digit by digit, needing about twice the output's memory."""
        p = self.p
        if p == 2:
            return a ^ b
        total = (a + b) % p
        place = p
        for _ in range(1, self.j):
            digit = a // place + b // place
            digit %= p
            digit *= place
            total += digit
            place *= p
        return total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.p, self.j, self.reducing_poly) == (other.p, other.j, other.reducing_poly)

    def __hash__(self) -> int:
        return hash((self.p, self.j, self.reducing_poly))

    def __repr__(self) -> str:
        if self.j == 1:
            return f"GF({self.p})"
        return f"GF({self.q})=GF({self.p}^{self.j}, {_poly_str(self.reducing_poly)})"


def field_for_order(q: int) -> GF:
    """Construct the field of order q, rejecting non-prime-powers."""
    if q > ORDER_CAP:  # before factoring, which trial-divides up to sqrt(q)
        raise ValueError(f"field order {q} exceeds cap {ORDER_CAP}")
    pj = factor_prime_power(q)
    if pj is None:
        raise ValueError(f"{q} is not a prime power")
    return GF(*pj)
