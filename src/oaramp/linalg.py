"""Dense matrices over GF(q): rank, column-subset independence, row-space enumeration.

Entries are stored as integer element encodings (see ``gf``).  All pivoting
scans top-to-bottom for the first nonzero entry, so every result is
deterministic; exact field arithmetic has no stability concerns.  Rank,
independence and kernel vectors all come from one elimination kernel that
reduces a whole stack of matrices at once with the field's array arithmetic.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import CapExceeded
from .gf import GF, FieldElement, field_for_order

DEFAULT_CELL_CAP = 10**7


class Matrix:
    """An immutable rows x cols grid over a single GF instance."""

    __slots__ = ("field", "entries", "rows", "cols")

    def __init__(self, field: GF, entries: Iterable[Iterable[int | FieldElement]]):
        grid = []
        for row in entries:
            vals = []
            for e in row:
                if isinstance(e, FieldElement):
                    if e.field != field:
                        raise ValueError("entry from a different field")
                    e = e.value
                vals.append(field._check(e))
            grid.append(tuple(vals))
        if not grid or not grid[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(grid[0])
        if any(len(r) != width for r in grid):
            raise ValueError("ragged rows")
        self.field = field
        self.entries = tuple(grid)
        self.rows = len(grid)
        self.cols = width

    @staticmethod
    def identity(field: GF, n: int) -> "Matrix":
        return Matrix(field, [[1 if i == k else 0 for k in range(n)] for i in range(n)])

    def column(self, c: int) -> tuple[int, ...]:
        return tuple(row[c] for row in self.entries)

    def columns(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(self.field, [[row[c] for c in idx] for row in self.entries])

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or other.rows != self.rows:
            raise ValueError("incompatible matrices for hstack")
        return Matrix(self.field, [a + b for a, b in zip(self.entries, other.entries)])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, list(zip(*self.entries)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.field, self.entries))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, r)) for r in self.entries)
        return f"Matrix(GF({self.field.q}), [{body}])"


# Subsets reduced together by one call of the elimination kernel: bounds the
# stack's memory, and a scan stops at the first block holding a dependent subset.
_BLOCK = 4096


def _reduce(field: GF, stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each matrix's rank, and its reduced row echelon form, for an (N, r, c)
    int64 stack of matrices over ``field``, reduced together.

    Column by column, every matrix with a nonzero entry at or below its
    current rank takes the first such row as pivot, swaps it up, scales it to 1
    and clears the column in every other row: the steps of Gaussian elimination
    on one matrix, done for the whole stack by array arithmetic.
    """
    a = np.array(stack, dtype=np.int64)  # a copy: rows are rewritten in place
    n, n_rows, n_cols = a.shape
    rank = np.zeros(n, dtype=np.int64)
    row_ids = np.arange(n_rows)
    for c in range(n_cols):
        candidates = (a[:, :, c] != 0) & (row_ids >= rank[:, None])
        sel = np.flatnonzero(candidates.any(axis=1))
        if not sel.size:
            continue
        top, found = rank[sel], candidates[sel].argmax(axis=1)
        pivot = a[sel, found]
        a[sel, found] = a[sel, top]
        pivot = field._mul_arrays(pivot, field._inv_arrays(pivot[:, c])[:, None])
        a[sel, top] = pivot
        factors = field._neg_arrays(a[sel, :, c])
        factors[np.arange(len(sel)), top] = 0
        a[sel] = field._add_arrays(
            a[sel], field._mul_arrays(factors[:, :, None], pivot[:, None, :]))
        rank[sel] += 1
    return rank, a


def rank(m: Matrix) -> int:
    """Rank by Gaussian elimination over the matrix's field."""
    ranks, _ = _reduce(m.field, np.array(m.entries, dtype=np.int64)[None])
    return int(ranks[0])


def first_dependent(m: Matrix, subsets: Iterable[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The first of ``subsets`` (tuples of column indices, all of one length)
    whose columns are linearly dependent, or None.  The subsets are reduced in
    blocks of a fixed size, one batched elimination per block."""
    entries = np.array(m.entries, dtype=np.int64)
    subsets = iter(subsets)
    while block := list(itertools.islice(subsets, _BLOCK)):
        cols = np.array(block, dtype=np.int64)
        ranks, _ = _reduce(m.field, entries[:, cols].transpose(1, 0, 2))
        bad = np.flatnonzero(ranks < cols.shape[1])
        if bad.size:
            return block[bad[0]]
    return None


def columns_independent(m: Matrix, idx: Sequence[int]) -> bool:
    """True iff the selected columns are linearly independent (vacuously for [])."""
    seen = set()
    for c in idx:
        if not 0 <= c < m.cols:
            raise IndexError(f"column index {c} out of range for {m.cols} columns")
        if c in seen:
            raise ValueError(f"duplicate column index {c}")
        seen.add(c)
    return first_dependent(m, [tuple(idx)]) is None


def kernel_vector(field: GF, grid: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """A nonzero x with grid @ x = 0, or None if the columns are independent.

    The free variable chosen is the first non-pivot column, set to 1; this
    makes the returned dependency canonical.
    """
    ranks, reduced = _reduce(field, np.array(grid, dtype=np.int64)[None])
    rref = reduced[0, :ranks[0]]
    n_cols = rref.shape[1]
    pivots = (rref != 0).argmax(axis=1).tolist()  # each row's leading 1
    if len(pivots) == n_cols:
        return None
    free = next(c for c in range(n_cols) if c not in pivots)
    x = np.zeros(n_cols, dtype=np.int64)
    x[free] = 1
    # row r reads: x[pivots[r]] + rref[r][free] * x[free] + ... = 0
    x[pivots] = field._neg_arrays(rref[:, free])
    return tuple(x.tolist())


def _check_row_space_cap(m: Matrix, max_cells: int) -> None:
    total = m.field.q**m.rows * m.cols
    if total > max_cells:
        raise CapExceeded(
            f"row space of {m.rows}x{m.cols} matrix over GF({m.field.q}) needs {total} cells, "
            f"cap is {max_cells}"
        )


def row_space(m: Matrix, max_cells: int = DEFAULT_CELL_CAP) -> np.ndarray:
    """All q^rows products u @ m, for u in ascending base-q order (u[0] most
    significant), as a read-only (q^rows, cols) int64 grid.

    Duplicates appear exactly when rank(m) < m.rows.  The grid grows one
    generator row at a time: each of its rows is added to every multiple of
    the next generator row, in one broadcast over the field's array arithmetic.
    """
    _check_row_space_cap(m, max_cells)
    field, q = m.field, m.field.q
    coefs = np.arange(q, dtype=np.int64)[:, None]
    grid = np.zeros((1, m.cols), dtype=np.int64)
    for mrow in m.entries:
        multiples = field._mul_arrays(coefs, np.array(mrow, dtype=np.int64))  # row c: c * mrow
        grid = field._add_arrays(grid[:, None, :], multiples[None, :, :]).reshape(-1, m.cols)
    grid.setflags(write=False)
    return grid


def matrix_to_text(m: Matrix) -> str:
    """Serialize as a ``MAT rows cols q`` header plus one line per row."""
    lines = [f"MAT {m.rows} {m.cols} {m.field.q}"]
    lines.extend(" ".join(map(str, row)) for row in m.entries)
    return "\n".join(lines) + "\n"


def matrix_from_text(text: str) -> Matrix:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines or not lines[0].startswith("MAT"):
        raise ValueError("missing MAT header")
    parts = lines[0].split()
    if len(parts) != 4:
        raise ValueError(f"malformed MAT header: {lines[0]!r}")
    n_rows, n_cols, q = (int(x) for x in parts[1:])
    field = field_for_order(q)
    body = [[int(x) for x in ln.split()] for ln in lines[1:]]
    if len(body) != n_rows or any(len(r) != n_cols for r in body):
        raise ValueError("matrix body does not match header dimensions")
    return Matrix(field, body)
