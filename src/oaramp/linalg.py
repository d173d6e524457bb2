"""Dense matrices over GF(q): rank, column-subset independence, row-space enumeration.

Entries are stored as integer element encodings (see ``gf``).  All pivoting
scans top-to-bottom for the first nonzero entry, so every result is
deterministic; exact field arithmetic has no stability concerns.
"""

from __future__ import annotations

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


def _rref(field: GF, grid: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """In-place reduced row echelon form; returns (grid, pivot column list)."""
    n_rows = len(grid)
    n_cols = len(grid[0]) if grid else 0
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        pivot_row = next((i for i in range(r, n_rows) if grid[i][c] != 0), None)
        if pivot_row is None:
            continue
        grid[r], grid[pivot_row] = grid[pivot_row], grid[r]
        inv = field.inv(grid[r][c])
        if inv != 1:
            grid[r] = [field.mul(inv, x) for x in grid[r]]
        for i in range(n_rows):
            if i != r and grid[i][c] != 0:
                f = grid[i][c]
                grid[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(grid[i], grid[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return grid, pivots


def rank(m: Matrix) -> int:
    """Rank by Gaussian elimination over the matrix's field."""
    _, pivots = _rref(m.field, [list(r) for r in m.entries])
    return len(pivots)


def columns_independent(m: Matrix, idx: Sequence[int]) -> bool:
    """True iff the selected columns are linearly independent (vacuously for [])."""
    seen = set()
    for c in idx:
        if not 0 <= c < m.cols:
            raise IndexError(f"column index {c} out of range for {m.cols} columns")
        if c in seen:
            raise ValueError(f"duplicate column index {c}")
        seen.add(c)
    if not idx:
        return True
    if len(idx) > m.rows:
        return False
    return rank(m.columns(idx)) == len(idx)


def kernel_vector(field: GF, grid: Sequence[Sequence[int]]) -> tuple[int, ...] | None:
    """A nonzero x with grid @ x = 0, or None if the columns are independent.

    The free variable chosen is the first non-pivot column, set to 1; this
    makes the returned dependency canonical.
    """
    n_cols = len(grid[0])
    rref, pivots = _rref(field, [list(r) for r in grid])
    if len(pivots) == n_cols:
        return None
    free = next(c for c in range(n_cols) if c not in pivots)
    x = [0] * n_cols
    x[free] = 1
    for r, pc in enumerate(pivots):
        # row r reads: x[pc] + rref[r][free] * x[free] + ... = 0
        x[pc] = field.neg(rref[r][free])
    return tuple(x)


def row_space(m: Matrix, max_cells: int = DEFAULT_CELL_CAP) -> np.ndarray:
    """All q^rows products u @ m, for u in ascending base-q order (u[0] most
    significant), as a read-only (q^rows, cols) int64 grid.

    Duplicates appear exactly when rank(m) < m.rows.  The grid grows one
    generator row at a time: each of its rows is added to every multiple of
    the next generator row, in one broadcast over the field's array arithmetic.
    """
    q = m.field.q
    total = q**m.rows * m.cols
    if total > max_cells:
        raise CapExceeded(
            f"row space of {m.rows}x{m.cols} matrix over GF({q}) needs {total} cells, "
            f"cap is {max_cells}"
        )
    field = m.field
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
