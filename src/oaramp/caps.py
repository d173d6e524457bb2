"""The three size caps, on cells, column subsets and rule visits, that keep
every exhaustive verdict bounded: each one's default, the count of the work
it bounds, and the one refusal, raised before that work starts.  Counts are
written in full, but from 20 digits on a cell or rule-visit count is its formula.
The cell cap also bounds an array's text while it is read.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import CapExceeded

CELLS = 10**7  # of a row space, or of an array under verification
SUBSETS = 10**5  # column subsets that one verification scans
RULE_VISITS = 10**7  # of one security audit
# Characters of array text read per cell of the cap: a symbol of 19 digits,
# the most a 64-bit grid holds, and its separator.
TEXT_CHARS = 20

_EXACT_BELOW = 10**20


def _refuse(count: int, cap: int, need: str, formula: str | None = None) -> None:
    """Raise ``CapExceeded`` if ``count`` passes ``cap``, writing the count,
    or from 20 digits on ``formula`` when there is one, into ``need``."""
    if count > cap:
        shown = formula if formula is not None and count >= _EXACT_BELOW else count
        raise CapExceeded(f"{need % shown}, cap is {cap}")


def _refuse_cells(q: int, rows: int, cols: int, cap: int, need: str) -> None:
    """Refuse q^rows * cols cells past ``cap``.  The power is multiplied out
    only until it passes max(cap, 10^20), so a huge exponent costs a few steps."""
    total, limit = cols, max(cap, _EXACT_BELOW)
    for _ in range(rows):
        if total > limit:
            break
        total *= q
    _refuse(total, cap, need, f"{q}^{rows}*{cols}")


def check_row_space(q: int, rows: int, cols: int, max_cells: int) -> None:
    """Refuse the q^rows x cols row space of a rows x cols matrix over GF(q)."""
    _refuse_cells(q, rows, cols, max_cells,
                  f"row space of {rows}x{cols} matrix over GF({q}) needs %s cells")


def check_verify(v: int, t: int, width: int, k: int, sizes: Sequence[int],
                 max_cells: int) -> None:
    """Refuse a verification of a v^t x width grid, then, once that fits, of
    its C(k, size) column subsets for each of ``sizes``."""
    _refuse_cells(v, t, width, max_cells, "verification needs %s cells")
    check_subsets(k, sizes)


class CappedText:
    """Array text read in ``pieces`` and passed on, refused once past the
    cap: its body, from ``start`` characters into the first piece, may hold
    ``max_cells`` cells, runs of characters above space other than commas,
    and ``TEXT_CHARS`` characters per cell of that cap.  n characters hold
    (n + 1) // 2 cells at most, so pieces are kept, uncounted, until the body
    holds 2 * ``max_cells`` characters; from then on each piece is counted,
    and checked, before it is passed on.  Its length is the characters read."""

    def __init__(self, pieces: Iterable[str], start: int, max_cells: int):
        self.pieces, self.start, self.max_cells, self.chars = pieces, start, max_cells, 0

    def __len__(self) -> int:
        return self.chars

    def __iter__(self) -> Iterator[str]:
        held, cells, inside, start, cap = [], 0, False, self.start, self.max_cells
        for piece in self.pieces:
            held.append(piece)
            self.chars += len(piece)
            if self.chars - self.start >= 2 * cap:
                for part in held:
                    data = np.frombuffer(part[start:].encode(), dtype=np.uint8)
                    symbol = np.concatenate(([inside], (data > 32) & (data != 44)))
                    cells += int(np.count_nonzero(symbol[1:] > symbol[:-1]))
                    inside, start = bool(symbol[-1]), 0
                if cells > cap:
                    raise CapExceeded(f"array text holds more than {cap} cells, cap is {cap}")
                if self.chars - self.start > TEXT_CHARS * cap:
                    raise CapExceeded(f"array text holds more than {TEXT_CHARS * cap} "
                                      f"characters, cap is {TEXT_CHARS} per cell of the "
                                      f"cell cap {cap}")
                while held:
                    yield held.pop(0)
        while held:
            yield held.pop(0)


def check_subsets(k: int, sizes: Sequence[int]) -> None:
    for size in sizes:
        _refuse(math.comb(k, size), SUBSETS, "verification needs %s column subsets")


def check_audit(rules: int, n: int, s: int, t: int, ideal: bool, max_visits: int) -> int:
    """The player subsets an audit visits, each over all ``rules`` rules: the
    C(n, i) of each size i <= s and, for an ideal scheme, each s-subset with
    each of the C(n-s, t-s) (t-s)-subsets disjoint from it.  C(n, i) is
    summed term by term, and only until the visits pass max(cap, 10^20)."""
    subsets, term, limit = 0, 1, max(max_visits, _EXACT_BELOW)
    for i in range(s + 1):
        if i:
            term = term * (n - i + 1) // i  # C(n, i)
        subsets += term
        if rules * subsets > limit:
            break
    else:  # C(n, s) is small, and an ideal scheme has 2^(t-s) rules or more
        if ideal:
            subsets += term * math.comb(n - s, t - s)
    bijection = f"+C({n},{s})*C({n - s},{t - s})" if ideal else ""
    _refuse(rules * subsets, max_visits, "audit needs ~%s rule visits",
            f"{rules}*(C({n},0)+...+C({n},{s}){bijection})")
    return subsets
