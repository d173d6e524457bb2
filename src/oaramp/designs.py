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
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

import numpy as np

from . import caps
from .errors import ConstructionError
from .gf import GF, ORDER_CAP, _check_order_cap, factor_prime_power, field_for_order
from .linalg import Matrix, first_dependent, kernel_vector, row_space


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
        a._set(params)
        a.grid = grid
        return a

    @classmethod
    def _adopting(cls, grid: np.ndarray, *params: int):
        """The array the constructor would build from ``params`` and ``grid``,
        a new int64 grid that the caller hands over: kept, not copied, when
        it is already canonical."""
        a = cls.__new__(cls)
        a._fill(params, grid, adopt=True)
        return a

    def _set(self, params: tuple[int, ...]) -> None:
        for name, value in zip(self.__slots__, params):
            setattr(self, name, value)

    def _fill(self, params: tuple[int, ...], rows, adopt: bool = False) -> None:
        self._set(params)
        self.grid = _canonical_grid(rows, self._width(), self.v, adopt)[0]

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
        self._fill((t, k, v), rows)

    def _width(self) -> int:
        if not 1 <= self.t <= self.k:
            raise ValueError(f"strength must satisfy 1 <= t <= k, got t={self.t}, k={self.k}")
        return self.k

    def __repr__(self) -> str:
        return f"OA({self.t},{self.k},{self.v}) [{len(self.grid)} rows]"


class AugmentedOA(_Array):
    """A candidate AOA(s,t,k,v), stored flat: k plain symbols then t-s augmented digits."""

    __slots__ = ("s", "t", "k", "v")

    def __init__(self, s: int, t: int, k: int, v: int, rows: Iterable[Sequence[int]]):
        self._fill((s, t, k, v), rows)

    def _width(self) -> int:
        if not 0 <= self.s < self.t:
            raise ValueError(f"thresholds must satisfy 0 <= s < t, got s={self.s}, t={self.t}")
        if self.t > self.k:
            raise ValueError(f"strength must satisfy t <= k, got t={self.t}, k={self.k}")
        return self.k + self.aug_width

    @property
    def aug_width(self) -> int:
        return self.t - self.s

    def __repr__(self) -> str:
        return f"AOA({self.s},{self.t},{self.k},{self.v}) [{len(self.grid)} rows]"


def _canonical_grid(rows: Iterable[Sequence[int]] | np.ndarray, width: int,
                    v: int, adopt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The rows as a read-only grid in canonical (lexicographic) order, and the
    permutation that sorted them: row i of the grid is input row order[i].
    A 2-d int64 array (a row space, say) is taken as it is, without a copy
    into Python tuples; the grid is a new array unless the array is already
    canonical and ``adopt`` says that the caller hands it over.

    Rows are keyed in base v by column blocks, c columns to a key with c
    the largest such that v^c <= 2^63 (one column for larger v).  They are
    already canonical when their leading block's keys strictly ascend, and
    need no sort.  Else a stable sort on those keys orders them, if it
    leaves no ties; and if it does, one stable ``np.lexsort`` over every
    block's keys.  Either gives the order and ``order`` of a lexsort over
    every column.  Fewer than two rows are already in order, and are not
    keyed: the key loop's cost grows with the width, which a header alone
    can make huge."""
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
        adopt = True
    if grid.size and not 0 <= grid.min() <= grid.max() < v:
        raise ValueError(f"symbol {grid[(grid < 0) | (grid >= v)][0]} outside [0, {v - 1}]")
    order = np.arange(len(grid))
    if len(grid) > 1:
        c = next(c for c in itertools.count(1) if v ** (c + 1) > 2**63)
        lead = _key(grid.T, range(min(c, width)), v)
        if not (lead[1:] > lead[:-1]).all():
            order = np.argsort(lead, kind="stable")
            ties = lead[order]
            if not (ties[1:] > ties[:-1]).all():
                order = np.lexsort([_key(grid.T, range(start, min(start + c, width)), v)
                                    for start in reversed(range(c, width, c))] + [lead])
            del lead, ties  # not held through the gather, which holds the grid twice
            grid, adopt = grid[order], True
    if not adopt:
        grid = grid.copy()
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


def _tally(keys: np.ndarray, size: int) -> np.ndarray:
    """How often each integer in [0, size) occurs in ``keys``: the one place
    rows are counted, for the verifiers' witnesses, the split, the audit and
    the scheme's bucket offsets.  Keys are dense table indices, never hashed."""
    return np.bincount(keys, minlength=size)


# The largest table, in cells, that ``_ids`` keys and the audit's counting
# helpers index densely; above it they fall back to np.unique.
_DENSE_CELLS = 2**24


def _key(columns: np.ndarray, cols, v: int) -> np.ndarray:
    """The base-v keys, first column most significant, of the rows' projections
    onto one subset ``cols`` or onto each row of a 2-d ``cols``, in the dtype
    of ``columns`` (one grid column per row).  No multiply precedes the first
    column, so one column keys over any v; the caller keeps v^width in range."""
    cols = np.asarray(cols, dtype=np.intp)
    key = np.zeros(cols.shape[:-1] + columns.shape[1:], dtype=columns.dtype)
    # one subset's columns by Python ints (views), a block's by index arrays
    for j, c in enumerate(cols.tolist() if cols.ndim == 1 else cols.T):
        if j:
            key *= v
        key += columns[c]
    return key


def _id_bound(v: int, width: int, rows: int) -> int:
    """``_ids``' bound on ids of projections onto ``width`` columns: the keys'
    v^width when that is at most the rows and ``_DENSE_CELLS``, else the rows."""
    return v**width if v**width <= min(rows, _DENSE_CELLS) else rows


def _ids(columns: np.ndarray, subsets: Sequence[Sequence[int]], v: int) -> np.ndarray:
    """A (subsets, rows) array of each row's projection onto each subset (of one
    width) as an id below ``_id_bound`` that ascends with the projection: its
    base-v key, or its rank among the subset's, from one ``np.unique``."""
    cols = np.array(subsets, dtype=np.intp).reshape(len(subsets), -1)
    rows = columns.shape[1]
    if v ** cols.shape[1] <= min(rows, _DENSE_CELLS):  # _id_bound's keyed case
        return _key(columns, cols, v)
    tuples = np.dstack([np.repeat(np.arange(len(cols))[:, None], rows, 1),
                        *(columns[c] for c in cols.T)])
    distinct, rank = np.unique(tuples.reshape(-1, tuples.shape[2]), axis=0, return_inverse=True)
    start = np.searchsorted(distinct[:, 0], np.arange(len(cols)))  # each subset's first rank
    return rank.reshape(len(cols), rows) - start[:, None]


def _ranks(grid: np.ndarray, cols: Sequence[int], v: int) -> tuple[np.ndarray, np.ndarray]:
    """What ``np.unique(grid[:, cols], axis=0, return_inverse=True)`` returns, read
    off a table of one row per ``_ids`` id and that table's running count."""
    cols = list(cols)
    ids = _ids(grid.T, [cols], v)[0]
    row = np.full(_id_bound(v, len(cols), len(grid)), -1)
    row[ids] = np.arange(len(grid))
    held = row >= 0
    return grid[row[held]][:, cols], (np.cumsum(held) - 1)[ids]


# Key visits (rows x subsets scanned) from which ``_verify`` tries the certificate:
# below it, building GF(v) and testing linearity cost more than the scan.
_CERTIFY_VISITS = 2**15


def _verify(a: OrthogonalArray | AugmentedOA, checks, mixed: int = 0) -> VerifyResult:
    """The row count, then each check (n, m, tail, kind) of ``checks``: any m
    of the first n columns and the last ``tail`` (m + tail = t) hold each
    tuple once.  With ``mixed`` = d, subsets holding none or all of the last
    d of the n are known to pass and not scanned.  On a linear code, t
    columns hold each tuple once exactly when no nonzero codeword is zero on
    them all: when each one zero on the tail weighs n-m+1 or more on the
    first n (MacWilliams and Sloane, ch. 11).  ``_certified`` tries that rule
    from ``_CERTIFY_VISITS`` key visits on; ``_first_repeat`` scans the rest."""
    (rows, width), scans, subsets = a.grid.shape, [], 0
    if rows != a.expected_rows:
        return VerifyResult(False, Witness("row_count", count=rows, expected=a.expected_rows))
    for n, m, tail, kind in checks:
        cols = itertools.combinations(range(n), m)
        subsets += math.comb(n, m)
        if mixed:
            cols = (c for c in cols if c[-1] >= n - mixed > c[m - mixed])
            subsets -= math.comb(n - mixed, m) + math.comb(n - mixed, m - mixed)
        scans.append((cols, tuple(range(width - tail, width)), kind))
    if not subsets or rows * subsets >= _CERTIFY_VISITS and _certified(a, checks):
        return VerifyResult(True)
    witness = _first_repeat(a, scans)
    return VerifyResult(witness is None, witness)


def _certified(a: OrthogonalArray | AugmentedOA, checks) -> bool:
    """Whether the v^t-row grid is a linear code over GF(v), v a prime power
    within the field order cap, whose rows u >= 1 pass ``_verify``'s rule.
    In canonical order a linear code lists u B as row u, for its reduced
    echelon basis B and u read in base v (B's pivot columns carry u's
    digits), so the grid is one exactly when rows c v^e + r are rows r plus
    c times row v^e, for e < t, 0 < c < v and r < v^e: compared v^e rows at
    a time.  A duplicate row leaves some row u >= 1 zero, of weight 0."""
    v, grid = a.v, a.grid
    if v > ORDER_CAP or factor_prime_power(v) is None:
        return False
    field, width = field_for_order(v), grid.shape[1]
    for step in (v**e for e in range(a.t)):
        per = max(1, 2**14 // (step * width))  # multiples c of row v^e per block
        for c in range(1, v, per):
            mult = np.arange(c, min(c + per, v))[:, None, None]
            block = field._add_arrays(grid[:step], field._mul_arrays(mult, grid[step]))
            if not np.array_equal(grid[c * step:(c + len(mult)) * step], block.reshape(-1, width)):
                return False
    nonzero = grid[1:] != 0
    return all((np.count_nonzero(nonzero[:, :n], axis=1)[~nonzero[:, width - tail:].any(axis=1)]
                > n - m).all() for n, m, tail, _ in checks)


def _first_repeat(a: OrthogonalArray | AugmentedOA, checks) -> Witness | None:
    """The witness of the first (cols, tail, kind) of ``checks``, each one's
    subsets in the order given, whose columns cols + tail hold a tuple in two
    of ``a``'s v^t rows; or None.  Keys lie below v^t and are marked in one
    reused buffer: a tuple repeats exactly when fewer are marked than there
    are rows.  A subset's key is its last column after the key of its leading
    columns and the tail, built once per run of subsets sharing them.  Only a
    failing subset's keys are counted, their last digit moved back before the
    tail's, so its first count other than one is the smallest offending tuple
    over cols + tail, the first offender in canonical scan order."""
    size = a.expected_rows
    columns = a.grid.T.astype(np.int32 if size < 2**31 else np.int64, order="C")
    key = np.empty(len(a.grid), dtype=np.intp)  # numpy indexes fastest by intp
    hit = np.empty(size, dtype=bool)
    for subsets, tail, kind in checks:
        lead = None
        for cols in subsets:
            if cols[:-1] != lead:
                lead = cols[:-1]
                partial = _key(columns, lead + tail, a.v) * (a.v if cols else 1)
            np.add(partial, columns[cols[-1]] if cols else 0, out=key)
            hit.fill(False)
            hit[key] = True
            if np.count_nonzero(hit) < len(key):
                counts = np.moveaxis(_tally(key, size).reshape((a.v,) * a.t), -1, len(cols) - 1)
                bad = np.unravel_index(int(np.argmax(counts != 1)), counts.shape)
                return Witness(kind, cols, tuple(map(int, bad)), int(counts[bad]))
    return None


def verify_oa(a: OrthogonalArray, max_cells: int = caps.CELLS) -> VerifyResult:
    """Exhaustively check the strength-t coverage property, ``_verify``'s
    check (k, t, 0): every t-subset of columns (ascending order) contains
    each t-tuple over [0, v-1] exactly once, so a linear code passes when its
    least nonzero weight is k-t+1 or more.  The first failure, by subset
    order and then by tuple order, becomes the witness."""
    caps.check_verify(a.v, a.t, a.k, a.k, [a.t], max_cells)
    return _verify(a, [(a.k, a.t, 0, "column_subset")])


def verify_mds(a: OrthogonalArray) -> bool:
    """Check that ``a`` is an MDS code: v^t rows, any two at Hamming distance
    k - t + 1 or more (the Singleton bound's most).  Two rows closer than
    that agree on some t columns, so this is ``verify_oa``'s question, and
    on a linear code its one rule: least nonzero weight k-t+1 or more."""
    return verify_oa(a).ok


def verify_aoa(a: AugmentedOA, max_cells: int = caps.CELLS) -> VerifyResult:
    """Exhaustively check both AOA conditions.

    (i) the k plain columns form an OA of strength t; (ii) every s-subset of
    plain columns, joined with the augmented column, contains each element of
    X^s x Y exactly once.  For s = 0, (ii) says the augmented column is a
    bijection onto Y.  They are ``_verify``'s checks (k, t, 0) and
    (k, s, t-s): on a linear code, (ii) says each nonzero codeword with zero
    augmented digits weighs k-s+1 or more on the plain columns."""
    caps.check_verify(a.v, a.t, a.k + 1, a.k, [a.t, a.s], max_cells)
    return _verify(a, [(a.k, a.t, 0, "column_subset"),
                       (a.k, a.s, a.aug_width, "augmented_subset")])


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


def _dependent(cols: tuple[int, ...], condition: str) -> ConstructionError:
    return ConstructionError(
        f"columns {tuple(c + 1 for c in cols)} of the generator are linearly "
        f"dependent ({condition})", condition=condition, witness=tuple(cols))


def oa_from_generator(m: Matrix, t: int, max_cells: int = caps.CELLS) -> OrthogonalArray:
    """Enumerate the row space of a t-row generator with t-wise independent columns.
    The caps are checked before the independence of any column subset."""
    if m.rows != t:
        raise ValueError(f"generator must have exactly t={t} rows, has {m.rows}")
    if m.cols < t:
        raise ValueError(f"generator needs at least t={t} columns, has {m.cols}")
    caps.check_row_space(m.field.q, m.rows, m.cols, max_cells)
    caps.check_subsets(m.cols, [t])
    cols = first_dependent(m, itertools.combinations(range(m.cols), t))
    if cols is not None:
        raise _dependent(cols, "strength")
    return OrthogonalArray._adopting(row_space(m, max_cells), t, m.cols, m.field.q)


def linear_aoa(m: Matrix, s: int, t: int, k: int,
               max_cells: int = caps.CELLS) -> AugmentedOA:
    """Build an AOA(s,t,k,q) from a t x (k+t-s) matrix whose first k columns
    are t-wise independent and whose last t-s columns, joined with any s of
    the first k, are independent.  Both conditions are checked up front,
    after the caps, by one batched elimination over the plain t-subsets and
    then each s-subset joined with the last t-s columns; the first dependent
    subset names the condition it breaks.
    """
    if not 0 <= s < t <= k:
        raise ValueError(f"need 0 <= s < t <= k, got s={s}, t={t}, k={k}")
    if m.rows != t or m.cols != k + t - s:
        raise ValueError(
            f"matrix must be {t}x{k + t - s} for AOA({s},{t},{k},{m.field.q}), "
            f"is {m.rows}x{m.cols}")
    caps.check_row_space(m.field.q, m.rows, m.cols, max_cells)
    caps.check_subsets(k, [t, s])
    tail = tuple(range(k, k + t - s))
    cols = first_dependent(m, itertools.chain(
        itertools.combinations(range(k), t),
        (cols + tail for cols in itertools.combinations(range(k), s))))
    if cols is not None:
        raise _dependent(cols, "augmented-independence" if cols[-1] >= k else "plain-strength")
    return AugmentedOA._adopting(row_space(m, max_cells), s, t, k, m.field.q)


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


def dual_aoa(n: Matrix, s: int, t: int, max_cells: int = caps.CELLS) -> AugmentedOA:
    """Build an AOA(s,t,t,q) from a (t-s) x t basis N of a linear OA(t-s,t,q),
    via the generator (I_t | N^T).  N's row space is that OA exactly when every
    t-s columns of N are independent, which linear_aoa's augmented check tests:
    columns S of I_t with N^T are dependent exactly when N's columns outside S
    are.  As S ascends, those descend: the witness is N's last dependent subset."""
    if not 0 <= s < t:
        raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
    if n.rows != t - s or n.cols != t:
        raise ValueError(f"basis must be {t - s}x{t}, is {n.rows}x{n.cols}")
    m = Matrix.identity(n.field, t).hstack(n.transpose())
    try:
        return linear_aoa(m, s, t, t, max_cells)
    except ConstructionError as exc:  # I_t alone has full rank: the augmented check failed
        cols = tuple(c for c in range(t) if c not in exc.witness)
        raise ConstructionError(
            f"columns {tuple(c + 1 for c in cols)} of the basis are linearly "
            f"dependent (dual-basis)", condition="dual-basis", witness=cols) from None


def aoa_merge(a: OrthogonalArray, s: int, max_cells: int = caps.CELLS) -> AugmentedOA:
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
    x = kernel_vector(field, _ranks(a.grid, cols, a.v)[0])
    if x is None:
        return None
    lead = max(i for i, xi in enumerate(x) if xi != 0)
    scale = field.inv(x[lead])
    combo = tuple(
        (cols[i], field.neg(field.mul(scale, x[i])))
        for i in range(lead) if x[i] != 0)
    return ColumnDependency(cols[lead], combo, a.v)


def aoa_split(a: AugmentedOA, max_cells: int = caps.CELLS) -> SplitResult:
    """Expand the augmented tuples of a verified AOA into t-s plain columns
    and test the result at strength t, ``_verify``'s check (k+t-s, t, 0).

    Failure is a legitimate outcome: the expanded array need not be an
    OA(t, k+t-s, v), and when it is not, the witness subset is searched for a
    linear dependency among its columns as an explanation.

    AOA conditions (i) and (ii) cover the expanded t-subsets with no augmented
    digit column and with all t-s of them, so only the rest are scanned, in
    ``verify_oa``'s order: none when s = t-1."""
    _require(verify_aoa(a, max_cells), "AOA")
    wide = OrthogonalArray._sharing(a.grid, a.t, a.k + a.aug_width, a.v)
    caps.check_verify(wide.v, wide.t, wide.k, wide.k, [wide.t], max_cells)
    res = _verify(wide, [(wide.k, a.t, 0, "column_subset")], mixed=a.aug_width)
    dep = None if res.ok else _column_dependency(wide, res.witness.columns)
    return SplitResult(wide, res, dep)


def demo_aoa_1333(max_cells: int = caps.CELLS) -> AugmentedOA:
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

@dataclass(frozen=True)
class NonexistenceReport:
    """A constructed, exhaustively verified AOA together with the bound
    arithmetic showing that the corresponding OA cannot exist."""

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


def thm48_witness(q: int, t: int, max_cells: int = caps.CELLS) -> NonexistenceReport:
    """Theorem 4.8: for odd prime power q and 3 <= t <= q, an AOA(1,t,q,q)
    from the polynomial-evaluation generator, constructed and exhaustively
    verified, whose merged OA would need q+t-1 columns, past the Bush bound."""
    _check_order_cap(q)
    pj = factor_prime_power(q)
    if pj is None or pj[0] == 2:
        raise ValueError(f"q must be an odd prime power, got {q}")
    if not 3 <= t <= q:
        raise ValueError(f"need 3 <= t <= q, got t={t}, q={q}")
    p, j = pj
    caps.check_row_space(q, t, q + t - 1, max_cells)
    aoa = linear_aoa(shamir_matrix(GF(p, j), 1, t, q), 1, t, q, max_cells)
    return NonexistenceReport(
        aoa, verify_aoa(aoa, max_cells),
        attempted_columns=q + t - 1, bound=bush_bound(t, q))


def thm410_witness(q: int, s: int, max_cells: int = caps.CELLS) -> NonexistenceReport:
    """Theorem 4.10: for prime power q and 1 <= s <= q-1, an AOA(s,q+1,q+1,q)
    from the dual construction, constructed and exhaustively verified, whose
    merged OA would need 2(q+1)-s columns, past the Bush bound."""
    _check_order_cap(q)
    pj = factor_prime_power(q)
    if pj is None:
        raise ValueError(f"q must be a prime power, got {q}")
    if not 1 <= s <= q - 1:
        raise ValueError(f"need 1 <= s <= q-1, got s={s}, q={q}")
    p, j = pj
    top = q + 1
    caps.check_row_space(q, top - s, top, max_cells)  # the basis's, for its message
    caps.check_row_space(q, top, 2 * top - s, max_cells)
    basis = rs_generator(GF(p, j), top - s)  # (t-s) x (q+1) with t = q+1
    aoa = dual_aoa(basis, s, top, max_cells)
    return NonexistenceReport(
        aoa, verify_aoa(aoa, max_cells),
        attempted_columns=2 * top - s, bound=bush_bound(top, q))


# ---------------------------------------------------------------------------
# text format


# Rows written per step by ``dump_array``: bounds its temporaries.
_DUMP_ROWS = 2048


def _separators(k: int, aug_width: int) -> str:
    """The separator written after each symbol of a row: spaces between the k
    plain symbols, commas inside an augmented tuple of ``aug_width`` digits
    (none for an OA), and the line's newline after the last symbol."""
    if not aug_width:
        return " " * (k - 1) + "\n"
    return " " * k + "," * (aug_width - 1) + "\n"


def dump_array(a: OrthogonalArray | AugmentedOA) -> str:
    """One-record-per-line text form; rows are already canonical.

    Every cell is written as its symbol joined with the separator after it
    (a space, a comma inside the augmented tuple, or the line's newline),
    picked from one table of such strings by the symbol and the column's
    separator.  While the alphabet is no larger than a block of cells, that
    table is built once over all v symbols and indexed by the symbols
    themselves; a larger alphabet (symbols up to 10^18) gets one table per
    block over its distinct symbols, indexed by their ranks.
    """
    if isinstance(a, OrthogonalArray):
        head, seps = f"OA {a.t} {a.k} {a.v}", _separators(a.k, 0)
    else:
        head, seps = f"AOA {a.s} {a.t} {a.k} {a.v}", _separators(a.k, a.aug_width)
    kinds = " ,\n"
    sep_index = np.array([kinds.index(c) for c in seps], dtype=np.int64)
    dense = a.v <= _DUMP_ROWS * len(seps)
    if dense:
        size, table = a.v, [f"{x}{sep}" for sep in kinds for x in range(a.v)]
    out = [head + "\n"]
    for start in range(0, len(a.grid), _DUMP_ROWS):
        block = a.grid[start:start + _DUMP_ROWS]
        symbols = block
        if not dense:
            distinct, symbols = np.unique(block, return_inverse=True)
            size, table = len(distinct), [f"{x}{sep}" for sep in kinds for x in distinct.tolist()]
        cells = symbols.reshape(block.shape) + sep_index * size
        out.append("".join([table[i] for i in cells.ravel().tolist()]))
    return "".join(out)


# Longest symbol the whole-array pass takes: 18 digits always fit int64.
_MAX_DIGITS = 18
# Cells read per step by ``load_array``, at most: bounds its temporaries.
_LOAD_CELLS = 2**13


def _read_chunk(body: str, k: int, aug_width: int) -> np.ndarray | None:
    """The rows of whole lines ``body`` as an int64 grid if they are laid
    out exactly as ``dump_array`` writes rows of k plain symbols and an
    ``aug_width``-tuple (the final newline may be missing), every symbol 1
    to 18 digits; else None.  ``body`` is ASCII.

    Every non-digit byte ends a symbol, and these bytes, one row of the
    separator pattern per text row, are compared with the pattern in one
    step.  Each symbol's value is then gathered one digit place at a time,
    counting back from the separator that ends it.
    """
    width = k + aug_width
    data = np.frombuffer((body if body.endswith("\n") else body + "\n").encode(),
                         dtype=np.uint8)
    digits = data - 48  # uint8: every byte but a digit wraps past 9
    at = np.flatnonzero(digits > 9)  # the separator after each symbol
    if len(at) % width:  # so a header's width is built into a pattern
        return None      # only when the text has that many separators
    pattern = np.frombuffer(_separators(k, aug_width).encode(), dtype=np.uint8)
    if not (data[at].reshape(-1, width) == pattern).all():
        return None
    spans = np.diff(at, prepend=-1)  # each symbol's digits and its separator
    longest = int(spans.max()) - 1
    if spans.min() < 2 or longest > _MAX_DIGITS:
        return None
    spans = spans.astype(np.uint8)  # at most 19 now; a smaller copy to compare
    at -= 1  # from here on, each symbol's digit in the place being read
    values = digits[at].astype(np.int64)
    for back in range(2, longest + 1):
        at -= 1
        place = np.take(digits, at, mode="clip")
        place *= spans > back  # a shorter symbol has no digit here
        values += place * np.int64(10 ** (back - 1))
    return values.reshape(-1, width)


def _read_lines(body: str, k: int, aug_width: int | None) -> list[list[int]]:
    """The rows of whole lines ``body``, one ``int()`` per token, blank lines
    skipped: an OA's (``aug_width`` None) of any length, an AOA's checked
    line by line as k symbols and an ``aug_width``-tuple."""
    if aug_width is None:
        return [row for row in (list(map(int, ln.split())) for ln in body.splitlines()) if row]
    rows = []
    for ln in body.splitlines():
        parts = ln.split()
        if not parts:
            continue
        if len(parts) != k + 1:
            raise ValueError(f"row {ln.strip()!r} does not have {k} symbols plus an augmented field")
        field = parts.pop()
        aug = list(map(int, field.split(",")))
        if len(aug) != aug_width:
            raise ValueError(f"augmented field {field!r} is not a {aug_width}-tuple")
        rows.append(list(map(int, parts)) + aug)
    return rows


def _line_end(find, start: int, stop: int) -> int:
    """Just past the "\\n" that ``find`` (a text's find or rfind) meets in
    [start, stop), or its "\\r" where there is no "\\n"; 0 if neither."""
    return find("\n", start, stop) + 1 or find("\r", start, stop) + 1


def load_array(text: str | Iterable[str]) -> OrthogonalArray | AugmentedOA:
    """Parse either array format, from a string or the string pieces an
    iterable yields; rows may be in any order and are canonicalized.

    The header is the first non-blank line.  The whole lines of each piece,
    after the line carried over from the pieces before it, are cut into
    chunks: windows of 2 * ``_LOAD_CELLS`` characters (a cell takes two at
    least) cut back to their last line end, or one longer line.  Each cut is
    at a "\\n", or a "\\r" in text with none (a "\\r\\n" cut so leaves a blank
    line).  A chunk in ``dump_array``'s layout, symbols of at most 18
    digits, is read by ``_read_chunk``, any other by ``_read_lines``, which
    gives the same rows or error, into one int64 grid: sized by the newlines
    left in the piece the first rows come in, and doubled when more come.
    Canonical rows are not sorted.

    Errors come in the line loop's order: a malformed line first, then the
    constructor's checks on the header, the first row of the wrong length,
    a symbol past int64 and one out of range.  Rows after a chunk that the
    constructor rejects are still read, for their errors, but not kept.  No
    error is raised before the pieces are used up.
    """
    pieces = iter([text] if isinstance(text, str) else text)
    carried, head, grid, row, ragged, overflow = [], None, None, 0, None, None
    try:
        for piece in itertools.chain(pieces, [None]):  # None ends the last line
            if piece is not None:
                carried.append(piece)
                if "\n" not in piece and "\r" not in piece:
                    continue
            text = "".join(carried)  # the piece itself when no line is carried over
            stop = len(text) if piece is None else _line_end(text.rfind, 0, len(text))
            carried, start = [text[stop:]], 0
            if head is None:
                # from the first non-space character to the next line end of str.splitlines
                head = re.compile(r"\S[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*").search(text, 0, stop)
                if head is None:
                    continue
                line = head.group().rstrip()
                kind, *numbers = line.split()
                if kind not in ("OA", "AOA"):
                    raise ValueError(f"unknown array header {kind!r}")
                if len(numbers) != (3 if kind == "OA" else 4):
                    raise ValueError(f"malformed {kind} header: {line!r}")
                params = [int(x) for x in numbers]
                k = params[-2]
                if kind == "OA":  # whole: a row layout that ``_read_chunk`` can build
                    cls, aug_width, whole = OrthogonalArray, None, k >= 1
                else:
                    cls, aug_width = AugmentedOA, params[1] - params[0]
                    whole = k >= 0 and aug_width >= 1
                width = k + (aug_width or 0)
                start = head.end() + (2 if text.startswith("\r\n", head.end()) else 1)
            while start < stop:
                end = stop
                if end - start > 2 * _LOAD_CELLS:
                    end = _line_end(text.rfind, start, start + 2 * _LOAD_CELLS)
                    if not end:  # a line longer than the window
                        end = _line_end(text.find, start + 2 * _LOAD_CELLS, stop) or stop
                chunk = text[start:end]
                values = _read_chunk(chunk, k, width - k) if whole and chunk.isascii() else None
                if values is None:
                    rows = _read_lines(chunk, k, aug_width)
                    if any(len(r) != width for r in rows):
                        ragged = ragged or rows
                    elif not (ragged or overflow):
                        try:
                            values = np.array(rows, dtype=np.int64)
                        except OverflowError:
                            overflow = rows
                if values is not None and len(values) and not (ragged or overflow):
                    if grid is None or row + len(values) > len(grid):
                        size = 2 * len(grid) if grid is not None else min(
                            text.count("\n", start) + 1, (len(text) - start + 1) // (2 * width))
                        grown = np.empty((max(size, row + len(values)), width), np.int64)
                        if grid is not None:
                            grown[:row] = grid[:row]
                        grid = grown
                    grid[row:row + len(values)] = values
                    row += len(values)
                start = end
        if head is None:
            raise ValueError("empty array text")
    except ValueError:
        for _ in pieces:  # read to the end, for a cap refusal that a later piece may meet
            pass
        raise
    if ragged or overflow or grid is None:  # the constructor raises on rejected rows
        return cls(*params, ragged or overflow or [])
    return cls._adopting(grid[:row], *params)
