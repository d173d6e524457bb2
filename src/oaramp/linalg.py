"""Dense matrices over GF(q): column-subset independence, kernel vectors,
row-space enumeration.

A matrix holds one read-only int64 grid of element encodings (see ``gf``),
as the arrays of ``designs`` do.  All pivoting scans top-to-bottom for the
first nonzero entry, so every result is deterministic; exact field
arithmetic has no stability concerns.  Independence and kernel vectors both
come from one elimination kernel, ``_reduce``, that reduces a whole stack of
matrices at once with the field's array arithmetic and returns their ranks.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from . import caps
from .gf import GF


class Matrix:
    """An immutable rows x cols matrix over a single GF instance: ``entries``
    is one read-only int64 grid of element encodings."""

    __slots__ = ("field", "entries", "rows", "cols")

    def __init__(self, field: GF, entries: Sequence[Sequence[int]] | np.ndarray):
        try:
            grid = np.array(entries)
        except ValueError:
            raise ValueError("matrix rows must be sequences of one length") from None
        if grid.ndim != 2 or not grid.size:
            raise ValueError("matrix must have at least one row and one column")
        # not "iu": floats, strings, and integers past 64 bits (an object array)
        if grid.dtype.kind not in "iu" or not 0 <= grid.min() <= grid.max() < field.q:
            raise ValueError(f"matrix entries must be integers in [0, {field.q - 1}]")
        grid = grid.astype(np.int64, copy=False)
        grid.setflags(write=False)
        self.field = field
        self.entries = grid
        self.rows, self.cols = grid.shape  # Python ints: q**rows must not wrap

    @staticmethod
    def identity(field: GF, n: int) -> "Matrix":
        return Matrix(field, np.eye(n, dtype=np.int64))

    def columns(self, idx: Sequence[int]) -> "Matrix":
        return Matrix(self.field, self.entries[:, list(idx)])

    def hstack(self, other: "Matrix") -> "Matrix":
        if other.field != self.field or other.rows != self.rows:
            raise ValueError("incompatible matrices for hstack")
        return Matrix(self.field, np.hstack([self.entries, other.entries]))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.entries.T)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.field == other.field and np.array_equal(self.entries, other.entries)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(map(str, r)) for r in self.entries.tolist())
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


def first_dependent(m: Matrix, subsets: Iterable[tuple[int, ...]]) -> tuple[int, ...] | None:
    """The first of ``subsets`` (tuples of column indices, all of one length)
    whose columns are linearly dependent, or None.  The subsets are reduced in
    blocks of a fixed size, one batched elimination per block."""
    subsets = iter(subsets)
    while block := list(itertools.islice(subsets, _BLOCK)):
        cols = np.array(block, dtype=np.int64)
        ranks, _ = _reduce(m.field, m.entries[:, cols].transpose(1, 0, 2))
        bad = np.flatnonzero(ranks < cols.shape[1])
        if bad.size:
            return block[bad[0]]
    return None


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


def row_space(m: Matrix, max_cells: int = caps.CELLS) -> np.ndarray:
    """All q^rows products u @ m, for u in ascending base-q order (u[0] most
    significant), as a read-only (q^rows, cols) int64 grid.

    Duplicates appear exactly when m's rank is below m.rows.  The grid grows one
    generator row at a time: each of its rows is added to every multiple of
    the next generator row, in one broadcast over the field's array arithmetic.
    """
    caps.check_row_space(m.field.q, m.rows, m.cols, max_cells)
    field, q = m.field, m.field.q
    coefs = np.arange(q, dtype=np.int64)[:, None]
    grid = np.zeros((1, m.cols), dtype=np.int64)
    for mrow in m.entries:
        multiples = field._mul_arrays(coefs, mrow)  # row c: c * mrow
        grid = field._add_arrays(grid[:, None, :], multiples[None, :, :]).reshape(-1, m.cols)
    grid.setflags(write=False)
    return grid
