"""Ramp secret-sharing schemes as augmented orthogonal arrays plus rule weights.

A scheme with thresholds 0 <= s < t <= n over a v-symbol share alphabet is a
set of distinct rules, each assigning one share in [0, v-1] to every player
and tagged with its secret, a (t-s)-tuple over [0, v-1].  Any t shares must
determine the secret; any s shares must reveal nothing about it.  Dealing
picks a rule for the requested secret with probability proportional to the
rule weights; uniform weights give every secret v^s rules and realize the
perfect-security distribution with a uniform prior on secrets.

Players are numbered 1..n in share bundles; rule share vectors are 0-indexed
internally.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from . import caps, designs
from .designs import (
    AugmentedOA,
    _canonical_grid,
    _id_bound,
    _ids,
    _ranks,
    _tally,
    linear_aoa,
    shamir_matrix,
    verify_aoa,
)
from .errors import SchemeError
from .gf import GF


class ShareBundle:
    """Shares held by a subset of players, keyed by 1-based player index."""

    __slots__ = ("_pairs",)

    def __init__(self, assignments: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = assignments.items() if isinstance(assignments, Mapping) else assignments
        pairs = []
        seen = set()
        for player, share in items:
            if player < 1:
                raise ValueError(f"player index {player} must be >= 1")
            if player in seen:
                raise ValueError(f"duplicate player index {player}")
            seen.add(player)
            pairs.append((int(player), int(share)))
        pairs.sort()
        self._pairs = tuple(pairs)

    @classmethod
    def _of_players(cls, shares: Sequence[int]) -> "ShareBundle":
        """The bundle in which player j + 1 holds ``shares[j]``, Python ints
        the caller has already checked."""
        b = cls.__new__(cls)
        b._pairs = tuple(zip(range(1, len(shares) + 1), shares))
        return b

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def __len__(self) -> int:
        return len(self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ShareBundle):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self) -> int:
        return hash(self._pairs)

    def __repr__(self) -> str:
        return f"ShareBundle({format_bundle(self)!r})"


def format_bundle(b: ShareBundle) -> str:
    """Space-separated ``player:share`` pairs, ascending player order."""
    return " ".join(f"{p}:{x}" for p, x in b.items())


def parse_bundle(text: str) -> ShareBundle:
    pairs = []
    for token in text.split():
        left, sep, right = token.partition(":")
        if not sep:
            raise ValueError(f"malformed share token {token!r}, expected player:share")
        pairs.append((int(left), int(right)))
    return ShareBundle(pairs)


class RampScheme:
    """An immutable distribution-rule table with per-rule selection weights.

    The rules are the rows of ``aoa`` (k = n players) in canonical order:
    ascending share vector, then secret.  ``weights[i]`` belongs to row i.
    The constructor takes the rules as (shares, secret) pairs.
    """

    def __init__(self, s: int, t: int, n: int, v: int,
                 rules: Iterable[tuple[Sequence[int], Sequence[int]]],
                 weights: Sequence[float] | None = None):
        if not 0 <= s < t <= n:
            raise SchemeError(f"need 0 <= s < t <= n, got s={s}, t={t}, n={n}")
        if v < 2:
            raise SchemeError(f"share alphabet must have >= 2 symbols, got {v}")
        rows = []
        for shares, secret in rules:
            shares, secret = tuple(shares), tuple(secret)
            if len(shares) != n:
                raise SchemeError(
                    f"rule {shares, secret} does not assign shares to all {n} players")
            if len(secret) != t - s:
                raise SchemeError(
                    f"secret {secret} is not a ({t - s})-tuple over [0, {v - 1}]")
            rows.append(shares + secret)
        if not rows:
            raise SchemeError("a scheme needs at least one rule")
        if weights is None:
            weights = [1] * len(rows)
        else:
            weights = list(weights)
            if len(weights) != len(rows):
                raise SchemeError("one weight per rule required")
            if any(w <= 0 for w in weights):
                raise SchemeError("every rule weight must be positive")
        try:
            grid, order = _canonical_grid(rows, n + t - s, v)
        except ValueError as exc:
            raise SchemeError(f"rule table: {exc}") from None
        if (grid[1:, :n] == grid[:-1, :n]).all(axis=1).any():
            raise SchemeError("distribution rules must be distinct share vectors")
        self._adopt(AugmentedOA._sharing(grid, s, t, n, v),
                    [weights[i] for i in order.tolist()])

    def _adopt(self, aoa: AugmentedOA, weights: Sequence[float]) -> None:
        self.s, self.t, self.n, self.v = aoa.s, aoa.t, aoa.k, aoa.v
        self.aoa = aoa
        self.weights: tuple[float, ...] = tuple(weights)
        # _sid[i] is row i's index into the sorted tuple of distinct secrets
        secrets, self._sid = _ranks(aoa.grid, range(aoa.k, aoa.grid.shape[1]), aoa.v)
        self.secrets: tuple[tuple[int, ...], ...] = tuple(map(tuple, secrets.tolist()))
        # the rows of secret i are _by_secret[_start[i]:_start[i + 1]], ascending
        self._by_secret, self._start = _buckets(self._sid, len(secrets))
        self._cum_weights: dict[int, list[float]] = {}  # filled by deal, per secret

    @functools.cached_property
    def _share_index(self) -> tuple[np.ndarray, list[list[int]], list[list[int]], np.ndarray, int]:
        """Derived data for ``reconstruct``, built on its first call: for each
        player p (0-based), the distinct shares ``values[p]`` in ascending
        order and ``order[p]``, the rows in stable order of p's share.  The
        rows where p holds ``values[p][i]`` are
        ``order[p][start[p][i]:start[p][i + 1]]``.  ``window[p][j]`` packs the
        ranks i of players p to p + 32 // b - 1 in row ``order[p][j]``, b bits
        each from bit 0 up, b those of the largest rank."""
        order, values, start, ranks = [], [], [], []
        for p in range(self.n):
            shares, rank = _ranks(self.aoa.grid, [p], self.v)
            rows, offsets = _buckets(rank, len(shares))
            order.append(rows)
            values.append(shares[:, 0].tolist())
            start.append(offsets)
            ranks.append(rank.astype(np.min_scalar_type(len(shares) - 1)))
        b = max(1, (max(map(len, values)) - 1).bit_length())
        window = np.empty((self.n, len(self.aoa.grid)), dtype=np.uint32)
        packed = np.uint32(0)
        for p in reversed(range(self.n)):  # players p + 32 // b and on shift out
            packed = packed << b & (1 << 32 // b * b) - 1 | ranks[p]
            packed.take(order[p], out=window[p])
        return np.stack(order), values, start, window, b

    @property
    def rules(self) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
        """The rules as (shares, secret) pairs of Python ints, in canonical
        order, built from the grid on each access."""
        n = self.n
        return tuple((tuple(r[:n]), tuple(r[n:])) for r in self.aoa.grid.tolist())

    @property
    def is_ideal(self) -> bool:
        return len(self.secrets) == self.v ** (self.t - self.s)

    @property
    def has_uniform_weights(self) -> bool:
        return len(set(self.weights)) == 1

    def _secret_id(self, secret: Sequence[int]) -> int:
        key = tuple(secret)
        i = bisect.bisect_left(self.secrets, key)
        if i == len(self.secrets) or self.secrets[i] != key:
            raise ValueError(f"unknown secret {key}")
        return i

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RampScheme):
            return NotImplemented
        return self.aoa == other.aoa and self.weights == other.weights

    def __repr__(self) -> str:
        return (f"RampScheme(s={self.s}, t={self.t}, n={self.n}, v={self.v}, "
                f"{len(self.weights)} rules, {len(self.secrets)} secrets)")


def _buckets(key: np.ndarray, size: int) -> tuple[np.ndarray, list[int]]:
    """The positions of ``key`` grouped by key, each group ascending, and the
    size + 1 offsets of the groups: the positions holding key i are
    ``order[start[i]:start[i + 1]]``.  Keys are in [0, size); the positions
    are int32 while they fit.  Keys narrowed to the least unsigned type that
    holds them sort by radix when that type has 8 or 16 bits."""
    order = np.argsort(key.astype(np.min_scalar_type(max(size - 1, 0))), kind="stable")
    if len(key) < 2**31:
        order = order.astype(np.int32)
    return order, np.concatenate(([0], np.cumsum(_tally(key, size)))).tolist()


# ---------------------------------------------------------------------------
# constructions and transforms


def scheme_from_aoa(a: AugmentedOA, max_cells: int = caps.CELLS) -> RampScheme:
    """One uniform-weight rule per row: shares from the plain columns, secret
    from the augmented tuple.

    The input must verify; each secret then owns exactly v^s rules, so the
    induced secret distribution is uniform and every rule has probability
    Pr[secret]/v^s, which is exactly the assignment that makes the scheme
    perfect rather than merely weak.
    """
    res = verify_aoa(a, max_cells)
    if not res.ok:
        raise SchemeError(f"array fails verification: {res.witness.describe()}")
    sch = RampScheme.__new__(RampScheme)
    sch._adopt(a, [1] * len(a.grid))
    return sch


def aoa_from_scheme(sch: RampScheme) -> AugmentedOA:
    """The scheme's rule array (rows: shares, then secret tuple), once verified.

    Requires an ideal scheme with the full complement of v^t rules; the
    verified result is the combinatorial equivalent of the scheme.
    """
    expected = sch.v**sch.t
    if len(sch.weights) != expected:
        raise SchemeError(f"expected {expected} rules, scheme has {len(sch.weights)}")
    if not sch.is_ideal:
        raise SchemeError(
            f"scheme is not ideal: {len(sch.secrets)} secrets, "
            f"need {sch.v ** (sch.t - sch.s)}")
    res = verify_aoa(sch.aoa)
    if not res.ok:
        raise SchemeError(
            f"rule table is not a valid ramp scheme: {res.witness.describe()}")
    return sch.aoa


def scheme_shamir(field: GF, s: int, t: int, n: int) -> RampScheme:
    """Polynomial-evaluation ramp scheme over GF(q), q >= n+1.

    One rule per coefficient vector a in GF(q)^t: player j's share is the
    polynomial sum(a_i * x_j^i) evaluated at the j-th nonzero field element
    (ascending encoding order), and the secret is (a_0, ..., a_{t-s-1}).
    With s = t-1 this is the classical threshold scheme: the secret is the
    constant term.  The rules are the rows of the row space of
    ``shamir_matrix(field, s, t, n)``.
    """
    q = field.q
    if not 1 <= s < t <= n:
        raise SchemeError(f"need 1 <= s < t <= n, got s={s}, t={t}, n={n}")
    if q < n + 1:
        raise SchemeError(f"need q >= n+1 distinct evaluation points, got q={q}, n={n}")
    caps.check_row_space(q, t, n + t - s, caps.CELLS)
    return scheme_from_aoa(linear_aoa(shamir_matrix(field, s, t, n), s, t, n))


# ---------------------------------------------------------------------------
# dealing and reconstruction


def deal(sch: RampScheme, secret: Sequence[int], seed: int) -> ShareBundle:
    """Pick a rule for the secret, weight-proportionally, and hand out all n shares.

    Selection uses ``random.Random(seed)`` (Mersenne Twister), so the same
    seed always picks the same rule; reproducibility is the point here, not
    entropy quality.  It reads the secret's bucket of rows and their running
    weight sums, kept from the secret's first deal, and bisects them just as
    ``random.choices`` would, so each seed picks the same rule, and a total
    past the floats raises the same ValueError.
    """
    i = sch._secret_id(secret)
    lo, hi = sch._start[i], sch._start[i + 1]
    rng = random.Random(seed)
    pick = 0
    if hi - lo > 1:
        cum = sch._cum_weights.get(i)
        if cum is None:
            rows = sch._by_secret[lo:hi].tolist()
            cum = list(itertools.accumulate(sch.weights[r] for r in rows))
            if not math.isfinite(cum[-1] + 0.0):
                raise ValueError("Total of weights must be finite")
            sch._cum_weights[i] = cum
        pick = bisect.bisect(cum, rng.random() * (cum[-1] + 0.0), 0, hi - lo - 1)
    shares = sch.aoa.grid[sch._by_secret[lo + pick], :sch.n].tolist()
    return ShareBundle._of_players(shares)


@dataclass(frozen=True)
class ReconstructionResult:
    status: str  # "ok" | "no_matching_rule" | "ambiguous"
    secret: tuple[int, ...] | None = None
    candidates: tuple[tuple[int, ...], ...] = ()

    def __bool__(self) -> bool:
        return self.status == "ok"


def reconstruct(sch: RampScheme, shares: ShareBundle) -> ReconstructionResult:
    """Select the rules consistent with the bundle and read off the secret.

    At least t shares are required.  No consistent rule means the bundle is
    inconsistent with the scheme; more than one consistent secret cannot
    happen for a valid scheme and is therefore reported as an integrity
    failure rather than a user error.

    It reads the smallest of the bundle's share buckets (the rows where one
    player holds its share), keeps the rows that match the bundle's ranks in
    the bucket's window and then its other shares, and reads their secrets.
    """
    if len(shares) < sch.t:
        raise ValueError(f"need at least t={sch.t} shares, got {len(shares)}")
    pairs = shares.items()
    for p, _ in pairs:
        if p > sch.n:
            raise ValueError(f"player index {p} exceeds n={sch.n}")
    order, values, start, window, b = sch._share_index
    buckets = []  # (size, player, first offset, share rank) of each share's bucket
    for p, x in pairs:
        known = values[p - 1]
        i = bisect.bisect_left(known, x)
        if i == len(known) or known[i] != x:
            return ReconstructionResult("no_matching_rule")
        lo, hi = start[p - 1][i], start[p - 1][i + 1]
        buckets.append((hi - lo, p, lo, i))
    size, first, lo, _ = min(buckets)
    mask = want = 0  # over the bundle's players in the smallest bucket's window
    for _, p, _, i in buckets:
        if 0 <= p - first < 32 // b:
            mask |= (1 << b) - 1 << b * (p - first)
            want |= i << b * (p - first)
    rows = order[first - 1, lo:lo + size][(window[first - 1, lo:lo + size] & mask) == want]
    for p, x in pairs:
        if not 0 <= p - first < 32 // b:  # a player outside that window
            rows = rows[sch.aoa.grid[rows, p - 1] == x]
    found = sorted(set(sch._sid.take(rows).tolist()))
    if not found:
        return ReconstructionResult("no_matching_rule")
    if len(found) > 1:
        return ReconstructionResult(
            "ambiguous", candidates=tuple(sch.secrets[i] for i in found))
    return ReconstructionResult("ok", secret=sch.secrets[found[0]])


# ---------------------------------------------------------------------------
# security audit


@dataclass(frozen=True)
class AuditFailure:
    """One failed check: the players, the shares they see, and what fails there."""

    check: str  # "weak" | "perfect" | "bijection"
    players: tuple[int, ...]  # 1-based
    projection: tuple[int, ...]
    detail: str

    def describe(self) -> str:
        who = "{" + ",".join(map(str, self.players)) + "}"
        return f"[{self.check}] players {who} shares {self.projection}: {self.detail}"


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    weak_ok: bool
    perfect_ok: bool | None  # None when weights are non-uniform or scheme non-ideal
    bijection_ok: bool | None  # None when scheme non-ideal
    subsets_checked: int
    groups_checked: int
    failures: tuple[AuditFailure, ...]

    def __bool__(self) -> bool:
        return self.ok


_BLOCK_CELLS = 2**16  # of one audit block: its subsets' rows and count tables


def _blocks(items: Iterable, cells: int) -> Iterator[list]:
    """``items`` in order, max(1, _BLOCK_CELLS // cells) to a list."""
    items = iter(items)
    while block := list(itertools.islice(items, max(1, _BLOCK_CELLS // cells))):
        yield block


def _groups(group: np.ndarray, value: np.ndarray, groups: int, m: int) -> tuple[np.ndarray, ...]:
    """For rows in ``group`` holding ``value`` in [0, m): the groups that hold
    a row, ascending; how many of the m values each holds; and whether those
    m, absent ones included, are held unequally often.  The rows are counted
    in a dense (m x groups) table, each group reduced down contiguous rows,
    or above its limit by ``np.unique``."""
    if groups * m <= designs._DENSE_CELLS:
        count = _tally((value * groups + group).ravel(), groups * m).reshape(m, groups)
        held = np.count_nonzero(count, axis=0)
        present = np.flatnonzero(held)
        return present, held[present], (count.min(axis=0) != count.max(axis=0))[present]
    distinct, count = np.unique((group * m + value).ravel(), return_counts=True)
    present, start, held = np.unique(distinct // m, return_index=True, return_counts=True)
    return present, held, (held < m) | (np.minimum.reduceat(count, start)
                                        != np.maximum.reduceat(count, start))


def audit_security(sch: RampScheme, max_work: int = caps.RULE_VISITS) -> AuditReport:
    """Exhaustive information-theoretic audit of the scheme's rule table.

    For every player subset of size <= s and every achievable share
    projection, looks at the rules consistent with it.  Weak security needs
    every secret among them (a failure names the first secret missing);
    perfect security (checked only for ideal uniform-weight schemes, i.e.
    under the uniform secret prior) needs every secret to have equally many
    of them, so a weak failure fails it too.  For ideal schemes it also
    checks, for each size-s subset, each projection, and each disjoint
    (t-s)-subset, that secrets map one-to-one onto the projections of the
    consistent rules there (#secrets of them, none reached from two) -- the
    fact that makes reconstruction well defined.  Subsets of one size, and
    pairs, are counted in blocks of ``_BLOCK_CELLS``; only failing groups are
    read one at a time.
    """
    n, s, t, v = sch.n, sch.s, sch.t, sch.v
    subsets = caps.check_audit(len(sch.weights), n, s, t, sch.is_ideal, max_work)

    grid, sid, n_secrets = sch.aoa.grid, sch._sid, len(sch.secrets)
    rows, columns = len(grid), np.ascontiguousarray(grid[:, :n].T)
    check_perfect = sch.is_ideal and sch.has_uniform_weights
    failures: list[AuditFailure] = []
    groups = 0

    for size in range(s + 1):
        m = _id_bound(v, size, rows)
        for block in _blocks(itertools.combinations(range(n), size), rows + m * n_secrets):
            proj = _ids(columns, block, v)
            group = np.arange(len(block))[:, None] * m + proj
            present, held, uneven = _groups(group, sid, len(block) * m, n_secrets)
            groups += len(present)
            for i in np.flatnonzero(uneven if check_perfect else held < n_secrets).tolist():
                b, g = divmod(int(present[i]), m)
                at = np.flatnonzero(proj[b] == g)
                if held[i] < n_secrets:
                    missing = sch.secrets[int(_tally(sid[at], n_secrets).argmin())]
                    check, detail = "weak", f"secret {missing} has no consistent rule"
                else:
                    check, detail = "perfect", "consistent-rule weights differ between secrets"
                failures.append(AuditFailure(check, tuple(p + 1 for p in block[b]),
                                             tuple(grid[at[0], list(block[b])].tolist()), detail))

    if sch.is_ideal:
        m0, m1 = _id_bound(v, s, rows), _id_bound(v, t - s, rows)
        pairs = ((p0, p1) for p0 in itertools.combinations(range(n), s)
                 for p1 in itertools.combinations([p for p in range(n) if p not in p0], t - s))
        for block in _blocks(pairs, rows + m0 * max(n_secrets, m1)):
            p0s, p1s = zip(*block)
            group = np.arange(len(block))[:, None] * m0 + _ids(columns, p0s, v)
            proj1 = _ids(columns, p1s, v)
            present, images, _ = _groups(group, proj1, len(block) * m0, m1)
            key = group * n_secrets + sid
            if len(block) * m0 * n_secrets > designs._DENSE_CELLS:
                key = np.unique(key, return_inverse=True)[1].reshape(key.shape)
            first = np.empty(int(key.max()) + 1, dtype=np.int64)
            first[key] = proj1  # one of each (group, secret)'s projections
            split = np.zeros(len(block) * m0, dtype=bool)
            split[group[first[key] != proj1]] = True
            groups += len(present)
            for i in np.flatnonzero((images != n_secrets) | split[present]).tolist():
                b = int(present[i]) // m0
                at = np.flatnonzero(group[b] == present[i])
                other = tuple(p + 1 for p in p1s[b])
                detail = f"secret-to-projection map onto {other} is not one-to-one"
                if split[present[i]]:  # name the least secret with two projections here
                    taken = np.unique(sid[at] * m1 + proj1[b, at])  # (secret, projection)
                    secret, ways = np.unique(taken // m1, return_counts=True)
                    j = int(np.argmax(ways > 1))
                    detail = (f"secret {sch.secrets[secret[j]]} projects onto {other} "
                              f"in {ways[j]} different ways")
                failures.append(AuditFailure("bijection", tuple(p + 1 for p in p0s[b]),
                                             tuple(grid[at[0], list(p0s[b])].tolist()), detail))

    failed = {f.check for f in failures}
    return AuditReport(not failures, "weak" not in failed,
                       failed.isdisjoint({"weak", "perfect"}) if check_perfect else None,
                       "bijection" not in failed if sch.is_ideal else None,
                       subsets_checked=subsets, groups_checked=groups, failures=tuple(failures))
