"""The three size caps, on cells, column subsets and rule visits, that keep
every exhaustive verdict bounded: each one's default, the count of the work
it bounds, and the one refusal, raised before that work starts.  Counts are
written in full, but from 20 digits on a cell or rule-visit count is its formula.
The cell cap also bounds an array's text while it is read.
"""

from __future__ import annotations

import math
from typing import Sequence

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


def check_text(cells: int, chars: int, max_cells: int) -> None:
    """Refuse array text, as read so far, of more than ``max_cells`` cells or
    more than ``TEXT_CHARS`` characters per cell of that cap."""
    if cells > max_cells:
        raise CapExceeded(f"array text holds more than {max_cells} cells, cap is {max_cells}")
    if chars > TEXT_CHARS * max_cells:
        raise CapExceeded(f"array text holds more than {TEXT_CHARS * max_cells} characters, "
                          f"cap is {TEXT_CHARS} per cell of the cell cap {max_cells}")


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
