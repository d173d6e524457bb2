"""Orthogonal arrays, augmented orthogonal arrays, verifiers, constructions, bounds.

An OA(t,k,v) is a v^t x k array over [0, v-1] in which every choice of t
columns contains each t-tuple exactly once.  An AOA(s,t,k,v) extends a
v^t x k OA of strength t with one augmented column whose symbols are
(t-s)-tuples over [0, v-1], such that any s plain columns together with the
augmented column contain each (s+1)-tuple exactly once.

Rows are kept in canonical order: ascending base-v encoding of the full row
(plain symbols, then augmented tuple), which makes array equality and file
diffs exact.  Verification is exhaustive by construction and guarded by hard
size caps; nonexistence is certified by bound arithmetic only, never search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded, ConstructionError
from .gf import GF, factor_prime_power, field_for_order
from .linalg import (
    DEFAULT_CELL_CAP,
    Matrix,
    _check_row_space_cap,
    first_dependent,
    kernel_vector,
    row_space,
)

DEFAULT_SUBSET_CAP = 10**5


# ---------------------------------------------------------------------------
# array types


class _Array:
    """One read-only int64 grid, one row per array row, in canonical order.
    Derived arrays (a merge, a split, a ramp scheme) share their source's grid."""

    __slots__ = ("grid",)

    @classmethod
    def _sharing(cls, grid: np.ndarray, *params: int):
        """An array over ``grid``, which the caller guarantees is canonical and
        valid for ``params`` (the constructor's leading arguments)."""
        a = cls.__new__(cls)
        a._fill(params, grid)
        return a

    def _fill(self, params: tuple[int, ...], grid: np.ndarray) -> None:
        for name, value in zip(self.__slots__, params):
            setattr(self, name, value)
        self.grid = grid

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows as tuples of Python ints, built from the grid on each access."""
        return tuple(map(tuple, self.grid.tolist()))

    @property
    def expected_rows(self) -> int:
        return self.v**self.t

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (all(getattr(self, f) == getattr(other, f) for f in self.__slots__)
                and np.array_equal(self.grid, other.grid))


class OrthogonalArray(_Array):
    """A candidate OA(t,k,v); structural soundness is what verify_oa decides.

    The constructor enforces shape (row length k, symbols in [0, v-1]) and
    canonical row order, but deliberately not the row count or the coverage
    property: those are verification verdicts, not type errors.
    """

    __slots__ = ("t", "k", "v")

    def __init__(self, t: int, k: int, v: int, rows: Iterable[Sequence[int]]):
        if not 1 <= t <= k:
            raise ValueError(f"strength must satisfy 1 <= t <= k, got t={t}, k={k}")
        self._fill((t, k, v), _canonical_grid(rows, k, v)[0])

    def __repr__(self) -> str:
        return f"OA({self.t},{self.k},{self.v}) [{len(self.grid)} rows]"


class AugmentedOA(_Array):
    """A candidate AOA(s,t,k,v), stored flat: k plain symbols then t-s augmented digits."""

    __slots__ = ("s", "t", "k", "v")

    def __init__(self, s: int, t: int, k: int, v: int, rows: Iterable[Sequence[int]]):
        if not 0 <= s < t:
            raise ValueError(f"thresholds must satisfy 0 <= s < t, got s={s}, t={t}")
        if t > k:
            raise ValueError(f"strength must satisfy t <= k, got t={t}, k={k}")
        self._fill((s, t, k, v), _canonical_grid(rows, k + (t - s), v)[0])

    @property
    def aug_width(self) -> int:
        return self.t - self.s

    def __repr__(self) -> str:
        return f"AOA({self.s},{self.t},{self.k},{self.v}) [{len(self.grid)} rows]"


def _canonical_grid(rows: Iterable[Sequence[int]] | np.ndarray, width: int,
                    v: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows as a read-only grid in canonical (lexicographic) order, and the
    permutation that sorted them: row i of the grid is input row order[i].
    A 2-d int64 array (a row space, say) is taken as it is, without a copy
    into Python tuples; the grid is always a new array."""
    if v < 2:
        raise ValueError(f"alphabet size must be >= 2, got {v}")
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.int64:
        grid = rows
        if grid.shape[1] != width:
            raise ValueError(f"rows have length {grid.shape[1]}, expected {width}")
    else:
        rows = [tuple(r) for r in rows]
        for r in rows:
            if len(r) != width:
                raise ValueError(f"row {r} has length {len(r)}, expected {width}")
        try:
            grid = np.array(rows, dtype=np.int64).reshape(len(rows), width)
        except OverflowError:
            raise ValueError(f"symbols must lie in [0, {min(v, 2**63) - 1}]") from None
    if grid.size and not 0 <= grid.min() <= grid.max() < v:
        raise ValueError(f"symbol {grid[(grid < 0) | (grid >= v)][0]} outside [0, {v - 1}]")
    order = np.lexsort(grid.T[::-1])
    grid = grid[order]
    grid.setflags(write=False)
    return grid, order


# ---------------------------------------------------------------------------
# verification


@dataclass(frozen=True)
class Witness:
    """First failure found by a verifier, in canonical scan order."""

    kind: str  # "row_count" | "column_subset" | "augmented_subset"
    columns: tuple[int, ...] = ()
    value: tuple[int, ...] = ()
    count: int = 0
    expected: int = 1

    def describe(self) -> str:
        cols = ",".join(str(c + 1) for c in self.columns)
        if self.kind == "row_count":
            return f"expected {self.expected} rows, found {self.count}"
        if self.kind == "column_subset":
            return (f"columns {cols} contain tuple {self.value} "
                    f"{self.count} times (expected once)")
        return (f"plain columns ({cols}) with the augmented column contain "
                f"{self.value} {self.count} times (expected once)")


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    witness: Witness | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_caps(cells: int, subset_counts: list[int], max_cells: int, max_subsets: int) -> None:
    if cells > max_cells:
        raise CapExceeded(f"verification needs {cells} cells, cap is {max_cells}")
    for n in subset_counts:
        if n > max_subsets:
            raise CapExceeded(f"verification needs {n} column subsets, cap is {max_subsets}")


def _tally(keys: np.ndarray, size: int) -> np.ndarray:
    """How often each integer in [0, size) occurs in ``keys``: the one place
    rows are counted, for the verifiers, the split, the audit and reconstruct."""
    return np.bincount(keys, minlength=size)


def _coverage(grid: np.ndarray, cols: Sequence[int], v: int) -> tuple[tuple[int, ...], int] | None:
    """The first tuple over ``cols`` not in exactly one row of ``grid``, with its
    row count, or None.  The smallest base-v key is the lexicographically
    smallest tuple, so this is the first offender in canonical scan order.
    Callers first check that there are v^len(cols) rows, which bounds the keys.
    """
    dims = (v,) * len(cols)
    counts = _tally(np.ravel_multi_index(grid[:, list(cols)].T, dims), v ** len(cols))
    bad = np.flatnonzero(counts != 1)
    if not bad.size:
        return None
    digits = np.unravel_index(bad[0], dims)
    return tuple(int(d) for d in digits), int(counts[bad[0]])


def _coverage_scan(a: OrthogonalArray | AugmentedOA, checks) -> VerifyResult:
    """The row count, then for each (size, tail, kind) check the coverage of
    every size-subset of the first k columns joined with the columns ``tail``,
    subsets in ascending order; the first failure is the witness."""
    if len(a.grid) != a.expected_rows:
        return VerifyResult(False, Witness(
            "row_count", count=len(a.grid), expected=a.expected_rows))
    for size, tail, kind in checks:
        for cols in itertools.combinations(range(a.k), size):
            found = _coverage(a.grid, cols + tail, a.v)
            if found:
                return VerifyResult(False, Witness(kind, cols, *found))
    return VerifyResult(True)


def verify_oa(a: OrthogonalArray,
              max_cells: int = DEFAULT_CELL_CAP,
              max_subsets: int = DEFAULT_SUBSET_CAP) -> VerifyResult:
    """Exhaustively check the strength-t coverage property.

    Every t-subset of columns (ascending order) must contain each t-tuple
    over [0, v-1] exactly once; the first failure, by subset order and then
    by tuple order, becomes the witness.
    """
    _check_caps(a.expected_rows * a.k, [math.comb(a.k, a.t)], max_cells, max_subsets)
    return _coverage_scan(a, [(a.t, (), "column_subset")])


def verify_mds(a: OrthogonalArray, max_cells: int = DEFAULT_CELL_CAP) -> bool:
    """Check that all pairwise Hamming distances between rows are >= k - t + 1.

    This is the code-view counterpart of verify_oa and is computed
    independently of it, by actual distance enumeration.
    """
    _check_caps(a.expected_rows * a.k, [], max_cells, DEFAULT_SUBSET_CAP)
    need = a.k - a.t + 1
    for i in range(len(a.grid) - 1):
        dist = (a.grid[i + 1:] != a.grid[i]).sum(axis=1)
        if int(dist.min()) < need:
            return False
    return True


def verify_aoa(a: AugmentedOA,
               max_cells: int = DEFAULT_CELL_CAP,
               max_subsets: int = DEFAULT_SUBSET_CAP) -> VerifyResult:
    """Exhaustively check both AOA conditions.

    (i) the k plain columns form an OA of strength t; (ii) every s-subset of
    plain columns, joined with the augmented column, contains each element of
    X^s x Y exactly once.  For s = 0, (ii) says the augmented column is a
    bijection onto Y.  Condition (ii) is strength-t coverage on the s plain
    columns plus the t-s augmented digit columns, so both use one check.
    """
    _check_caps(a.expected_rows * (a.k + 1),
                [math.comb(a.k, a.t), math.comb(a.k, a.s)],
                max_cells, max_subsets)
    aug = tuple(range(a.k, a.k + a.aug_width))
    return _coverage_scan(a, [(a.t, (), "column_subset"), (a.s, aug, "augmented_subset")])


def _require(res: VerifyResult, kind: str) -> None:
    if not res.ok:
        raise ValueError(f"input fails {kind} verification: {res.witness.describe()}")


# ---------------------------------------------------------------------------
# constructions


def rs_generator(field: GF, t: int) -> Matrix:
    """The t x (q+1) generator whose columns are e_1, the Vandermonde-style
    power columns (1, a, a^2, ..., a^(t-1)) for each nonzero a in ascending
    encoding order, and e_t.  Any t of its columns are linearly independent,
    so its row space is a linear OA(t, q+1, q) and an MDS code.
    """
    q = field.q
    if not 2 <= t <= q:
        raise ValueError(f"need 2 <= t <= q, got t={t}, q={q}")
    pw = field.pow
    rows = []
    for i in range(t):
        row = [1 if i == 0 else 0]
        row.extend(pw(a, i) for a in range(1, q))
        row.append(1 if i == t - 1 else 0)
        rows.append(row)
    return Matrix(field, rows)


def _check_subsets_independent(m: Matrix, subsets, condition: str) -> None:
    cols = first_dependent(m, subsets)
    if cols is not None:
        raise ConstructionError(
            f"columns {tuple(c + 1 for c in cols)} of the generator are linearly "
            f"dependent ({condition})",
            condition=condition, witness=tuple(cols))


def oa_from_generator(m: Matrix, t: int, max_cells: int = DEFAULT_CELL_CAP) -> OrthogonalArray:
    """Enumerate the row space of a t-row generator with t-wise independent columns.
    The caps are checked before the independence of any column subset."""
    if m.rows != t:
        raise ValueError(f"generator must have exactly t={t} rows, has {m.rows}")
    if m.cols < t:
        raise ValueError(f"generator needs at least t={t} columns, has {m.cols}")
    _check_row_space_cap(m.field.q, m.rows, m.cols, max_cells)
    _check_caps(0, [math.comb(m.cols, t)], max_cells, DEFAULT_SUBSET_CAP)
    _check_subsets_independent(m, itertools.combinations(range(m.cols), t), "strength")
    return OrthogonalArray(t, m.cols, m.field.q, row_space(m, max_cells))


def linear_aoa(m: Matrix, s: int, t: int, k: int,
               max_cells: int = DEFAULT_CELL_CAP) -> AugmentedOA:
    """Build an AOA(s,t,k,q) from a t x (k+t-s) matrix whose first k columns
    are t-wise independent and whose last t-s columns, joined with any s of
    the first k, are independent.  Both conditions are checked up front,
    after the caps.
    """
    if not 0 <= s < t <= k:
        raise ValueError(f"need 0 <= s < t <= k, got s={s}, t={t}, k={k}")
    if m.rows != t or m.cols != k + t - s:
        raise ValueError(
            f"matrix must be {t}x{k + t - s} for AOA({s},{t},{k},{m.field.q}), "
            f"is {m.rows}x{m.cols}")
    _check_row_space_cap(m.field.q, m.rows, m.cols, max_cells)
    _check_caps(0, [math.comb(k, t), math.comb(k, s)], max_cells, DEFAULT_SUBSET_CAP)
    tail = tuple(range(k, k + t - s))
    _check_subsets_independent(
        m, itertools.combinations(range(k), t), "plain-strength")
    _check_subsets_independent(
        m, (cols + tail for cols in itertools.combinations(range(k), s)),
        "augmented-independence")
    return AugmentedOA(s, t, k, m.field.q, row_space(m, max_cells))


def shamir_matrix(field: GF, s: int, t: int, k: int) -> Matrix:
    """The polynomial-evaluation AOA generator (M1 | M2).

    M1 is the power-column generator with its leading e_1 column and the last
    q-k Vandermonde columns removed; M2 is the (t-s) identity stacked on s
    zero rows, so the augmented tuple of each codeword is the first t-s
    polynomial coefficients.
    """
    q = field.q
    if not 1 <= s < t:
        raise ValueError(f"need 1 <= s < t, got s={s}, t={t}")
    if not t <= k <= q:
        raise ValueError(f"need t <= k <= q, got t={t}, k={k}, q={q}")
    m0 = rs_generator(field, t)
    m1 = m0.columns(range(1, k + 1))
    return m1.hstack(Matrix(field, np.eye(t, t - s, dtype=np.int64)))


def dual_aoa(n: Matrix, s: int, t: int, max_cells: int = DEFAULT_CELL_CAP) -> AugmentedOA:
    """Build an AOA(s,t,t,q) from a (t-s) x t basis N of a linear OA(t-s,t,q),
    via the generator (I_t | N^T)."""
    if not 0 <= s < t:
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    if n.rows != t - s or n.cols != t:
        raise ValueError(f"basis must be {t - s}x{t}, is {n.rows}x{n.cols}")
    # the basis's row space, then the generator's, before either is enumerated
    _check_row_space_cap(n.field.q, t - s, t, max_cells)
    _check_row_space_cap(n.field.q, t, 2 * t - s, max_cells)
    base = OrthogonalArray(t - s, t, n.field.q, row_space(n, max_cells))
    res = verify_oa(base, max_cells)
    if not res.ok:
        raise ConstructionError(
            f"row space of the basis is not an OA({t - s},{t},{n.field.q}): "
            f"{res.witness.describe()}",
            condition="dual-basis", witness=res.witness.columns)
    m = Matrix.identity(n.field, t).hstack(n.transpose())
    return linear_aoa(m, s, t, t, max_cells)


def aoa_merge(a: OrthogonalArray, s: int, max_cells: int = DEFAULT_CELL_CAP) -> AugmentedOA:
    """Merge the trailing t-s columns of a verified OA(t, k+t-s, v) into one
    augmented column of (t-s)-tuples, giving an AOA(s,t,k,v)."""
    t = a.t
    if not 0 <= s < t:
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    k = a.k - (t - s)
    if k < t:
        raise ValueError(
            f"merging {t - s} columns of a {a.k}-column array leaves k={k} < t={t}")
    _require(verify_oa(a, max_cells), "OA")
    return AugmentedOA._sharing(a.grid, s, t, k, a.v)


@dataclass(frozen=True)
class ColumnDependency:
    """A linear relation over GF(order) among columns of a split array:
    column ``target`` equals the stated combination of earlier columns."""

    target: int  # 0-based column index
    combination: tuple[tuple[int, int], ...]  # ((column, coefficient), ...)
    order: int

    def describe(self) -> str:
        if not self.combination:
            return f"column {self.target + 1} = 0 over GF({self.order})"
        terms = " + ".join(
            f"column {c + 1}" if coef == 1 else f"{coef}*column {c + 1}"
            for c, coef in self.combination)
        return f"column {self.target + 1} = {terms} over GF({self.order})"


@dataclass(frozen=True)
class SplitResult:
    """Outcome of expanding an AOA's augmented column into plain columns."""

    array: OrthogonalArray
    result: VerifyResult
    dependency: ColumnDependency | None = None

    @property
    def ok(self) -> bool:
        return self.result.ok

    def __bool__(self) -> bool:
        return self.ok


def _column_dependency(a: OrthogonalArray, cols: tuple[int, ...]) -> ColumnDependency | None:
    """Explain a failing column subset of a split array as a linear relation,
    when the alphabet is a prime power and the relation exists."""
    if factor_prime_power(a.v) is None:
        return None
    field = field_for_order(a.v)
    x = kernel_vector(field, np.unique(a.grid[:, cols], axis=0))
    if x is None:
        return None
    lead = max(i for i, xi in enumerate(x) if xi != 0)
    scale = field.inv(x[lead])
    combo = tuple(
        (cols[i], field.neg(field.mul(scale, x[i])))
        for i in range(lead) if x[i] != 0)
    return ColumnDependency(cols[lead], combo, a.v)


def aoa_split(a: AugmentedOA, max_cells: int = DEFAULT_CELL_CAP) -> SplitResult:
    """Expand the augmented tuples of a verified AOA into t-s plain columns
    and test the result at strength t.

    Failure is a legitimate outcome: the expanded array need not be an
    OA(t, k+t-s, v), and when it is not, the witness subset is searched for a
    linear dependency among its columns as an explanation.
    """
    _require(verify_aoa(a, max_cells), "AOA")
    wide = OrthogonalArray._sharing(a.grid, a.t, a.k + a.aug_width, a.v)
    res = verify_oa(wide, max_cells)
    dep = None
    if not res.ok and res.witness.kind == "column_subset":
        dep = _column_dependency(wide, res.witness.columns)
    return SplitResult(wide, res, dep)


def demo_aoa_1333(max_cells: int = DEFAULT_CELL_CAP) -> AugmentedOA:
    """The 27-row AOA(1,3,3,3) whose rows are (a, b, c, (a+b, a+c)) over GF(3).

    Its augmented column couples the plain symbols linearly, so splitting it
    can not produce an OA(3,5,3) -- and indeed none exists by the Bush bound.
    """
    f3 = GF(3)
    m = Matrix(f3, [
        [1, 0, 0, 1, 1],
        [0, 1, 0, 1, 0],
        [0, 0, 1, 0, 1],
    ])
    return linear_aoa(m, 1, 3, 3, max_cells)


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class BoundVerdict:
    max_k: int
    case_label: str
    status: str  # "proven" | "conjectured"


def bush_bound(t: int, v: int) -> BoundVerdict:
    """Classical upper bound on the column count of an OA(t,k,v).

    The three cases overlap at t = v, where both the parity case and the
    t >= v case apply; each applicable case is a valid bound, so the verdict
    is their minimum.
    """
    if t < 2:
        raise ValueError(f"strength must be >= 2, got {t}")
    if v < 2:
        raise ValueError(f"alphabet size must be >= 2, got {v}")
    cases = []
    if t == 2:
        cases.append((v + t - 1, "t=2"))
    if v % 2 == 0 and 3 <= t <= v:
        cases.append((v + t - 1, "v even, 3<=t<=v"))
    if v % 2 == 1 and 3 <= t <= v:
        cases.append((v + t - 2, "v odd, 3<=t<=v"))
    if t >= v:
        cases.append((t + 1, "t>=v"))
    max_k, label = min(cases, key=itemgetter(0))
    return BoundVerdict(max_k, label, "proven")


def mds_max(t: int, q: int) -> BoundVerdict:
    """M(t,q): the maximum length of a linear MDS code of dimension t over GF(q).

    The value follows the standard conjecture for 2 <= t < q (q+2 in the
    exceptional characteristic-2 cases, else q+1) and t+1 for t >= q; the
    status records whether the parameters fall in a proven regime
    (q prime, q <= 27, t <= 5, t >= q-3, or t <= p).
    """
    if t < 2:
        raise ValueError(f"dimension must be >= 2, got {t}")
    pj = factor_prime_power(q)
    if pj is None:
        raise ValueError(f"{q} is not a prime power")
    p, j = pj
    if t >= q:
        value, label = t + 1, "t>=q"
    elif p == 2 and t in (3, q - 1):
        value, label = q + 2, "q=2^h, t in {3,q-1}"
    else:
        value, label = q + 1, "2<=t<q"
    proven = (j == 1) or (q <= 27) or (t <= 5) or (t >= q - 3) or (t <= p)
    return BoundVerdict(value, label, "proven" if proven else "conjectured")


# ---------------------------------------------------------------------------
# nonexistence demonstrations

THM48 = "aoa_no_oa_thm48"
THM410 = "aoa_no_oa_thm410"


@dataclass(frozen=True)
class NonexistenceReport:
    """A constructed, exhaustively verified AOA together with the bound
    arithmetic showing that the corresponding OA cannot exist."""

    kind: str
    params: tuple[tuple[str, int], ...]
    aoa: AugmentedOA
    aoa_result: VerifyResult
    attempted_columns: int  # k + t - s of the OA a split would need
    bound: BoundVerdict

    @property
    def holds(self) -> bool:
        return self.aoa_result.ok and self.attempted_columns > self.bound.max_k

    def lines(self) -> list[str]:
        a = self.aoa
        verdict = "VALID" if self.aoa_result.ok else "INVALID"
        out = [
            f"AOA({a.s},{a.t},{a.k},{a.v}): {verdict} ({len(a.grid)} rows, exhaustive)",
            f"attempted OA columns k+t-s = {self.attempted_columns}",
            f"bush_bound(t={a.t}, v={a.v}) = {self.bound.max_k} "
            f"({self.bound.case_label}, {self.bound.status})",
        ]
        if self.holds:
            out.append(
                f"conclusion: AOA({a.s},{a.t},{a.k},{a.v}) exists but "
                f"OA({a.t},{self.attempted_columns},{a.v}) does not "
                f"({self.attempted_columns} > {self.bound.max_k})")
        else:
            out.append("conclusion: demonstration FAILED")
        return out


def nonexistence_witness(kind: str, q: int, t: int | None = None, s: int | None = None,
                         max_cells: int = DEFAULT_CELL_CAP) -> NonexistenceReport:
    """Construct and exhaustively verify an AOA whose parameters beat the
    Bush bound for the merged OA.

    ``aoa_no_oa_thm48``: for odd prime power q and 3 <= t <= q, an
    AOA(1,t,q,q) from the polynomial-evaluation generator; the OA would need
    q+t-1 columns.  ``aoa_no_oa_thm410``: for prime power q and
    1 <= s <= q-1, an AOA(s,q+1,q+1,q) from the dual construction; the OA
    would need 2(q+1)-s columns.
    """
    if kind == THM48:
        if t is None:
            raise ValueError("aoa_no_oa_thm48 requires t")
        pj = factor_prime_power(q)
        if pj is None or pj[0] == 2:
            raise ValueError(f"q must be an odd prime power, got {q}")
        if not 3 <= t <= q:
            raise ValueError(f"need 3 <= t <= q, got t={t}, q={q}")
        field = field_for_order(q)
        _check_row_space_cap(q, t, q + t - 1, max_cells)
        aoa = linear_aoa(shamir_matrix(field, 1, t, q), 1, t, q, max_cells)
        return NonexistenceReport(
            kind, (("q", q), ("t", t)), aoa, verify_aoa(aoa, max_cells),
            attempted_columns=q + t - 1, bound=bush_bound(t, q))

    if kind == THM410:
        if s is None:
            raise ValueError("aoa_no_oa_thm410 requires s")
        if factor_prime_power(q) is None:
            raise ValueError(f"q must be a prime power, got {q}")
        if not 1 <= s <= q - 1:
            raise ValueError(f"need 1 <= s <= q-1, got s={s}, q={q}")
        field = field_for_order(q)
        top = q + 1
        _check_row_space_cap(q, top - s, top, max_cells)  # the basis's, enumerated first
        basis = rs_generator(field, top - s)  # (t-s) x (q+1) with t = q+1
        aoa = dual_aoa(basis, s, top, max_cells)
        return NonexistenceReport(
            kind, (("q", q), ("s", s)), aoa, verify_aoa(aoa, max_cells),
            attempted_columns=2 * top - s, bound=bush_bound(top, q))

    raise ValueError(f"unknown nonexistence kind {kind!r}")


# ---------------------------------------------------------------------------
# text format


# Rows written per step by ``dump_array``: bounds its temporaries.
_DUMP_ROWS = 2048


def dump_array(a: OrthogonalArray | AugmentedOA) -> str:
    """One-record-per-line text form; rows are already canonical.

    Every cell is written as its symbol joined with the separator after it
    (a space, a comma inside the augmented tuple, or the line's newline),
    picked from one table of such strings by the symbol's rank among the
    distinct symbols and the column's separator.
    """
    if isinstance(a, OrthogonalArray):
        head, seps = f"OA {a.t} {a.k} {a.v}", " " * (a.k - 1) + "\n"
    else:
        head, seps = f"AOA {a.s} {a.t} {a.k} {a.v}", " " * a.k + "," * (a.aug_width - 1) + "\n"
    kinds = " ,\n"
    sep_index = np.array([kinds.index(c) for c in seps], dtype=np.int64)
    out = [head + "\n"]
    for start in range(0, len(a.grid), _DUMP_ROWS):
        block = a.grid[start:start + _DUMP_ROWS]
        symbols, inverse = np.unique(block, return_inverse=True)
        table = [f"{x}{sep}" for sep in kinds for x in symbols.tolist()]
        cells = inverse.reshape(block.shape) + sep_index * len(symbols)
        out.append("".join([table[i] for i in cells.ravel().tolist()]))
    return "".join(out)


def _symbol_grid(values: list[int], lengths: list[int], width: int) -> np.ndarray | list[list[int]]:
    """The symbols read row after row into ``values``, each row's count in
    ``lengths``: a 2-d int64 grid when every row has ``width`` and all fit 64
    bits, else lists of Python ints, which the array constructor rejects as it
    rejects any other bad rows."""
    if width > 0 and all(n == width for n in lengths):
        try:
            return np.array(values, dtype=np.int64).reshape(len(lengths), width)
        except OverflowError:
            pass
    values = iter(values)
    return [list(itertools.islice(values, n)) for n in lengths]


def load_array(text: str) -> OrthogonalArray | AugmentedOA:
    """Parse either array format; rows may be in any order and are canonicalized.
    Symbols are converted line by line into one list, then one grid."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty array text")
    head = lines[0].split()
    values: list[int] = []
    if head[0] == "OA":
        if len(head) != 4:
            raise ValueError(f"malformed OA header: {lines[0]!r}")
        t, k, v = (int(x) for x in head[1:])
        lengths = []
        for ln in lines[1:]:
            parts = ln.split()
            values += map(int, parts)
            lengths.append(len(parts))
        return OrthogonalArray(t, k, v, _symbol_grid(values, lengths, k))
    if head[0] == "AOA":
        if len(head) != 5:
            raise ValueError(f"malformed AOA header: {lines[0]!r}")
        s, t, k, v = (int(x) for x in head[1:])
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != k + 1:
                raise ValueError(f"row {ln!r} does not have {k} symbols plus an augmented field")
            field = parts.pop()
            aug = [int(x) for x in field.split(",")]
            if len(aug) != t - s:
                raise ValueError(f"augmented field {field!r} is not a {t - s}-tuple")
            values += map(int, parts)
            values += aug
        width = k + t - s
        return AugmentedOA(s, t, k, v, _symbol_grid(values, [width] * (len(lines) - 1), width))
    raise ValueError(f"unknown array header {head[0]!r}")
