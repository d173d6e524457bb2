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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .designs import (
    AugmentedOA,
    SplitResult,
    _canonical_grid,
    _tally,
    aoa_split,
    linear_aoa,
    shamir_matrix,
    verify_aoa,
)
from .errors import CapExceeded, SchemeError
from .gf import GF
from .linalg import DEFAULT_CELL_CAP, _check_row_space_cap

DEFAULT_AUDIT_WORK_CAP = 10**7


@dataclass(frozen=True)
class Rule:
    """One distribution rule: a full share vector tagged with its secret."""

    shares: tuple[int, ...]
    secret: tuple[int, ...]


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

    @property
    def assignments(self) -> dict[int, int]:
        return dict(self._pairs)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self._pairs

    def players(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self._pairs)

    def restrict(self, players: Iterable[int]) -> "ShareBundle":
        keep = set(players)
        return ShareBundle([(p, x) for p, x in self._pairs if p in keep])

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
    """

    def __init__(self, s: int, t: int, n: int, v: int,
                 rules: Iterable[Rule | tuple[Sequence[int], Sequence[int]]],
                 weights: Sequence[float] | None = None):
        if not 0 <= s < t <= n:
            raise SchemeError(f"need 0 <= s < t <= n, got s={s}, t={t}, n={n}")
        if v < 2:
            raise SchemeError(f"share alphabet must have >= 2 symbols, got {v}")
        rows = []
        for r in rules:
            if not isinstance(r, Rule):
                r = Rule(tuple(r[0]), tuple(r[1]))
            if len(r.shares) != n:
                raise SchemeError(f"rule {r} does not assign shares to all {n} players")
            if len(r.secret) != t - s:
                raise SchemeError(
                    f"secret {r.secret} is not a ({t - s})-tuple over [0, {v - 1}]")
            rows.append(r.shares + r.secret)
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
        secrets, self._sid = np.unique(aoa.grid[:, aoa.k:], axis=0, return_inverse=True)
        self.secrets: tuple[tuple[int, ...], ...] = tuple(map(tuple, secrets.tolist()))
        # the rows of secret i are _by_secret[_start[i]:_start[i + 1]], ascending
        self._by_secret = np.argsort(self._sid, kind="stable")
        self._start = np.concatenate(([0], np.cumsum(_tally(self._sid, len(secrets))))).tolist()

    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules(self.aoa.grid)

    @property
    def is_ideal(self) -> bool:
        return len(self.secrets) == self.v ** (self.t - self.s)

    @property
    def has_uniform_weights(self) -> bool:
        return len(set(self.weights)) == 1

    def rules_for(self, secret: tuple[int, ...]) -> tuple[Rule, ...]:
        return self._rules(self.aoa.grid[self._rows_of(secret)])

    def _rows_of(self, secret: Sequence[int]) -> list[int]:
        key = tuple(secret)
        i = bisect.bisect_left(self.secrets, key)
        if i == len(self.secrets) or self.secrets[i] != key:
            raise ValueError(f"unknown secret {key}")
        return self._by_secret[self._start[i]:self._start[i + 1]].tolist()

    def _rules(self, grid: np.ndarray) -> tuple[Rule, ...]:
        n = self.n
        return tuple(Rule(tuple(r[:n]), tuple(r[n:])) for r in grid.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RampScheme):
            return NotImplemented
        return self.aoa == other.aoa and self.weights == other.weights

    def __repr__(self) -> str:
        return (f"RampScheme(s={self.s}, t={self.t}, n={self.n}, v={self.v}, "
                f"{len(self.weights)} rules, {len(self.secrets)} secrets)")


def _distinct(group: np.ndarray, value: np.ndarray) -> np.ndarray:
    """For each group id 0..max(group), how many distinct values it holds."""
    m = int(value.max()) + 1
    return _tally(np.unique(group * m + value) // m, int(group.max()) + 1)


# ---------------------------------------------------------------------------
# constructions and transforms


def scheme_from_aoa(a: AugmentedOA, max_cells: int = DEFAULT_CELL_CAP) -> RampScheme:
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


def aoa_from_scheme(sch: RampScheme, max_cells: int = DEFAULT_CELL_CAP) -> AugmentedOA:
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
    res = verify_aoa(sch.aoa, max_cells)
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
    _check_row_space_cap(q, t, n + t - s, DEFAULT_CELL_CAP)
    return scheme_from_aoa(linear_aoa(shamir_matrix(field, s, t, n), s, t, n))


# ---------------------------------------------------------------------------
# dealing and reconstruction


def deal(sch: RampScheme, secret: Sequence[int], seed: int) -> ShareBundle:
    """Pick a rule for the secret, weight-proportionally, and hand out all n shares.

    Selection uses ``random.Random(seed)`` (Mersenne Twister), so the same
    seed always picks the same rule; reproducibility is the point here, not
    entropy quality.
    """
    indices = sch._rows_of(secret)
    rng = random.Random(seed)
    if len(indices) == 1:
        chosen = indices[0]
    else:
        weights = [sch.weights[i] for i in indices]
        chosen = rng.choices(indices, weights=weights, k=1)[0]
    shares = sch.aoa.grid[chosen, :sch.n].tolist()
    return ShareBundle({j + 1: x for j, x in enumerate(shares)})


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
    """
    if len(shares) < sch.t:
        raise ValueError(f"need at least t={sch.t} shares, got {len(shares)}")
    match = np.ones(len(sch.weights), dtype=bool)
    for p, x in shares.items():
        if p > sch.n:
            raise ValueError(f"player index {p} exceeds n={sch.n}")
        match &= sch.aoa.grid[:, p - 1] == x
    found = np.flatnonzero(_tally(sch._sid[match], len(sch.secrets))).tolist()
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
    check: str  # "weak" | "perfect" | "bijection"
    players: tuple[int, ...]  # 1-based
    projection: tuple[int, ...]
    detail: str
    counts: tuple[tuple[tuple[int, ...], float], ...] = ()

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


def audit_security(sch: RampScheme,
                   max_work: int = DEFAULT_AUDIT_WORK_CAP) -> AuditReport:
    """Exhaustive information-theoretic audit of the scheme's rule table.

    For every player subset of size <= s and every achievable share
    projection, counts consistent rules per secret (failures report their
    summed weights).  Weak security needs every secret represented; perfect
    security (checked for ideal uniform-weight schemes, i.e. under the
    uniform secret prior) needs equal counts.  For ideal schemes it also
    checks, for each size-s subset, each projection, and each disjoint
    (t-s)-subset, that secrets map one-to-one onto the projections of the
    consistent rules there -- the fact that makes reconstruction well defined.
    """
    n, s, t = sch.n, sch.s, sch.t
    base_subsets = sum(math.comb(n, i) for i in range(s + 1))
    bijection_subsets = math.comb(n, s) * math.comb(n - s, t - s) if sch.is_ideal else 0
    work = len(sch.weights) * (base_subsets + bijection_subsets)
    if work > max_work:
        raise CapExceeded(f"audit needs ~{work} rule visits, cap is {max_work}")

    grid, sid, n_secrets = sch.aoa.grid, sch._sid, len(sch.secrets)
    ranks = functools.cache(  # a column subset's distinct projections, each row's rank
        lambda cols: np.unique(grid[:, list(cols)], axis=0, return_inverse=True))
    check_perfect = sch.is_ideal and sch.has_uniform_weights
    failures: list[AuditFailure] = []
    weak_ok = True
    perfect_ok: bool | None = True if check_perfect else None
    groups = 0

    for size in range(s + 1):
        for subset in itertools.combinations(range(n), size):
            players = tuple(p + 1 for p in subset)
            projs, proj = ranks(subset)
            pair = np.unique(proj * n_secrets + sid, return_inverse=True)[1]
            hits = _tally(pair, len(grid))[pair]  # rules sharing each row's (proj, secret)
            weak = _distinct(proj, sid) < n_secrets
            uneven = _distinct(proj, hits) > 1
            groups += len(projs)
            for g in np.flatnonzero(weak | (check_perfect & uneven)).tolist():
                projection = tuple(projs[g].tolist())
                totals = [0] * n_secrets  # summed in canonical row order
                for i in np.flatnonzero(proj == g).tolist():
                    totals[sid[i]] += sch.weights[i]
                counts = tuple(zip(sch.secrets, totals))
                if weak[g]:
                    weak_ok = False
                    check = "weak"
                    detail = f"secret {sch.secrets[totals.index(0)]} has no consistent rule"
                else:
                    perfect_ok = False
                    check, detail = "perfect", "consistent-rule weights differ between secrets"
                failures.append(AuditFailure(check, players, projection, detail, counts))

    bijection_ok: bool | None = None
    if sch.is_ideal:
        bijection_ok = True
        for subset in itertools.combinations(range(n), s):
            players = tuple(p + 1 for p in subset)
            proj0s, proj0 = ranks(subset)
            key = np.unique(proj0 * n_secrets + sid, return_inverse=True)[1]
            seen = _distinct(proj0, sid)
            rest = [p for p in range(n) if p not in subset]
            for p1 in itertools.combinations(rest, t - s):
                other = tuple(p + 1 for p in p1)
                proj1 = ranks(p1)[1]
                ways = _distinct(key, proj1)[key]  # proj1 images of each row's (proj0, secret)
                split = ways > 1
                bad = (seen != n_secrets) | (_distinct(proj0, proj1) != n_secrets)
                bad[proj0[split]] = True
                groups += len(proj0s)
                for g in np.flatnonzero(bad).tolist():
                    bijection_ok = False
                    rows = np.flatnonzero((proj0 == g) & split)
                    if rows.size:
                        r = rows[np.argmin(sid[rows])]
                        detail = (f"secret {sch.secrets[sid[r]]} projects onto {other} "
                                  f"in {ways[r]} different ways")
                    else:
                        detail = f"secret-to-projection map onto {other} is not one-to-one"
                    projection = tuple(proj0s[g].tolist())
                    failures.append(AuditFailure("bijection", players, projection, detail))

    ok = weak_ok and (perfect_ok is not False) and (bijection_ok is not False)
    return AuditReport(ok, weak_ok, perfect_ok, bijection_ok,
                       subsets_checked=base_subsets + bijection_subsets,
                       groups_checked=groups, failures=tuple(failures))


# ---------------------------------------------------------------------------
# bounds and strongness


@dataclass(frozen=True)
class IdealBoundVerdict:
    ok: bool
    ideal: bool
    bound: int
    secret_count: int

    def __bool__(self) -> bool:
        return self.ok


def ideal_bound_check(s: int, t: int, n: int, v: int, secret_count: int) -> IdealBoundVerdict:
    """Check a secret count against the v^(t-s) ceiling; equality means ideal."""
    if not 0 <= s < t <= n:
        raise ValueError(f"need 0 <= s < t <= n, got s={s}, t={t}, n={n}")
    if v < 2:
        raise ValueError(f"share alphabet must have >= 2 symbols, got {v}")
    bound = v ** (t - s)
    return IdealBoundVerdict(secret_count <= bound, secret_count == bound,
                             bound, secret_count)


def strongness(sch: RampScheme, max_cells: int = DEFAULT_CELL_CAP) -> SplitResult:
    """Test whether the scheme is strong, in the operational sense used here:
    its rule array, with the secret tuple expanded into plain columns, must
    be a full strength-t orthogonal array.  Only the canonical tuple encoding
    of secrets is considered."""
    return aoa_split(aoa_from_scheme(sch, max_cells), max_cells)
