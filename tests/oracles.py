"""Reference implementations of every counting path and of the field
arithmetic, kept as differential oracles for the grid- and table-based code
in ``oaramp``.

Each function is the earlier pure-Python version, unchanged in logic: dict
and ``Counter`` counting over row tuples, the ``itertools.product`` scan for
the first offending tuple, the two grouping loops of the security audit,
the reconstruction scan over every rule and the rule pick of dealing.  They read arrays only through
``.rows`` and schemes only through ``.rules``, ``.weights`` and
``.secrets``, and return the library's own result types, so a test can
require equal results field by field.  The field operations multiply
coefficient polynomials and reduce them by the field's reducing polynomial,
add base-p digit by digit, and use only ``p``, ``j``, ``q``, ``coeffs``,
``encode`` and ``reducing_poly`` of a ``GF``; ``row_space`` is the
one-product-at-a-time enumeration over them.  ``_rref`` is the scalar
Gaussian elimination, one matrix and one ``GF`` call at a time, behind the
oracle ``rank``, ``columns_independent``, ``kernel_vector`` and
``first_dependent``; ``is_prime`` and ``factor_prime_power`` trial-divide.
``dump_array`` joins the strings of each row's symbols; ``load_array`` calls
``int()`` per token and hands the constructor lists of rows.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter, defaultdict
from operator import itemgetter

from oaramp.designs import (
    DEFAULT_SUBSET_CAP,
    AugmentedOA,
    ColumnDependency,
    OrthogonalArray,
    SplitResult,
    VerifyResult,
    Witness,
    _check_caps,
)
from oaramp.errors import CapExceeded
from oaramp.gf import _poly_mod, field_for_order
from oaramp.linalg import DEFAULT_CELL_CAP, Matrix
from oaramp.ramp import (
    DEFAULT_AUDIT_WORK_CAP,
    AuditFailure,
    AuditReport,
    RampScheme,
    ReconstructionResult,
    ShareBundle,
)


# --- field arithmetic and the row space ------------------------------------------


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for k, bk in enumerate(b):
                out[i + k] = (out[i + k] + ai * bk) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def field_add(f, a: int, b: int) -> int:
    if f.j == 1:
        return (a + b) % f.p
    p = f.p
    out = 0
    mult = 1
    while a or b:
        out += ((a + b) % p) * mult
        a //= p
        b //= p
        mult *= p
    return out


def field_neg(f, a: int) -> int:
    if f.j == 1:
        return (-a) % f.p
    p = f.p
    out = 0
    mult = 1
    while a:
        out += ((p - a % p) % p) * mult
        a //= p
        mult *= p
    return out


def field_mul(f, a: int, b: int) -> int:
    if f.j == 1:
        return (a * b) % f.p
    prod = _poly_mul(f.coeffs(a), f.coeffs(b), f.p)
    red = _poly_mod(prod, f.reducing_poly, f.p)
    return f.encode(red + (0,) * (f.j - len(red)))


def field_pow(f, a: int, e: int) -> int:
    """Square-and-multiply; negative exponents go through the inverse."""
    if e < 0:
        a = field_inv(f, a)
        e = -e
    result = 1
    base = a
    while e:
        if e & 1:
            result = field_mul(f, result, base)
        base = field_mul(f, base, base)
        e >>= 1
    return result


def field_inv(f, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError(f"0 has no inverse in GF({f.q})")
    if f.j == 1:
        return pow(a, -1, f.p)
    return field_pow(f, a, f.q - 2)


def row_space(m: Matrix) -> list[tuple[int, ...]]:
    """All q^rows products u @ m, for u in ascending base-q order (u[0] most significant)."""
    f, entries = m.field, m.entries.tolist()
    out = []
    for u in itertools.product(range(f.q), repeat=m.rows):
        word = [0] * m.cols
        for coef, mrow in zip(u, entries):
            if coef == 0:
                continue
            if coef == 1:
                word = [field_add(f, w, x) for w, x in zip(word, mrow)]
            else:
                word = [field_add(f, w, field_mul(f, coef, x)) for w, x in zip(word, mrow)]
        out.append(tuple(word))
    return out


# --- elimination, primality ----------------------------------------------------------


def _rref(field, grid: list[list[int]]) -> tuple[list[list[int]], list[int]]:
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
    _, pivots = _rref(m.field, m.entries.tolist())
    return len(pivots)


def columns_independent(m: Matrix, idx) -> bool:
    if not idx:
        return True
    if len(idx) > m.rows:
        return False
    return rank(m.columns(idx)) == len(idx)


def first_dependent(m: Matrix, subsets) -> tuple[int, ...] | None:
    """The first dependent subset, testing one subset at a time."""
    for cols in subsets:
        if not columns_independent(m, cols):
            return tuple(cols)
    return None


def kernel_vector(field, grid) -> tuple[int, ...] | None:
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


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factor_prime_power(q: int) -> tuple[int, int] | None:
    if q < 2:
        return None
    p = 2
    while p * p <= q:
        if q % p == 0:
            j = 0
            m = q
            while m % p == 0:
                m //= p
                j += 1
            return (p, j) if m == 1 else None
        p += 1
    return (q, 1)  # q itself is prime


# --- verification, split, reconstruction, audit, dealing ---------------------------


def _first_offender(counts: Counter, v: int, width: int) -> tuple[tuple[int, ...], int]:
    """Lexicographically smallest tuple whose multiplicity differs from 1."""
    for tup in itertools.product(range(v), repeat=width):
        c = counts.get(tup, 0)
        if c != 1:
            return tup, c
    raise AssertionError("no offender found in a failing subset")


def _projection_counts(rows, cols: tuple[int, ...]) -> Counter:
    getter = itemgetter(*cols)
    if len(cols) == 1:
        return Counter((x,) for x in map(getter, rows))
    return Counter(map(getter, rows))


def verify_oa(a: OrthogonalArray,
              max_cells: int = DEFAULT_CELL_CAP,
              max_subsets: int = DEFAULT_SUBSET_CAP) -> VerifyResult:
    _check_caps(a.expected_rows * a.k, [math.comb(a.k, a.t)], max_cells, max_subsets)
    rows = a.rows
    if len(rows) != a.expected_rows:
        return VerifyResult(False, Witness(
            "row_count", count=len(rows), expected=a.expected_rows))
    for cols in itertools.combinations(range(a.k), a.t):
        counts = _projection_counts(rows, cols)
        if len(counts) != a.expected_rows:
            tup, c = _first_offender(counts, a.v, a.t)
            return VerifyResult(False, Witness("column_subset", cols, tup, c))
    return VerifyResult(True)


def verify_aoa(a: AugmentedOA,
               max_cells: int = DEFAULT_CELL_CAP,
               max_subsets: int = DEFAULT_SUBSET_CAP) -> VerifyResult:
    _check_caps(a.expected_rows * (a.k + 1),
                [math.comb(a.k, a.t), math.comb(a.k, a.s)],
                max_cells, max_subsets)
    rows = a.rows
    if len(rows) != a.expected_rows:
        return VerifyResult(False, Witness(
            "row_count", count=len(rows), expected=a.expected_rows))

    plain = OrthogonalArray(a.t, a.k, a.v, [r[: a.k] for r in rows])
    res = verify_oa(plain, max_cells, max_subsets)
    if not res.ok:
        return res

    width = a.s + a.aug_width  # == t
    for cols in itertools.combinations(range(a.k), a.s):
        counts = Counter(tuple(r[c] for c in cols) + r[a.k:] for r in rows)
        if len(counts) != a.v**width:
            tup, c = _first_offender(counts, a.v, width)
            return VerifyResult(False, Witness("augmented_subset", cols, tup, c))
    return VerifyResult(True)


def _column_dependency(a: OrthogonalArray, cols: tuple[int, ...]) -> ColumnDependency | None:
    if factor_prime_power(a.v) is None:
        return None
    field = field_for_order(a.v)
    grid = sorted({tuple(r[c] for c in cols) for r in a.rows})
    x = kernel_vector(field, grid)
    if x is None:
        return None
    lead = max(i for i, xi in enumerate(x) if xi != 0)
    scale = field.inv(x[lead])
    combo = tuple(
        (cols[i], field.neg(field.mul(scale, x[i])))
        for i in range(lead) if x[i] != 0)
    return ColumnDependency(cols[lead], combo, a.v)


def aoa_split(a: AugmentedOA, max_cells: int = DEFAULT_CELL_CAP) -> SplitResult:
    res = verify_aoa(a, max_cells)
    if not res.ok:
        raise ValueError(f"input fails AOA verification: {res.witness.describe()}")
    wide = OrthogonalArray(a.t, a.k + a.aug_width, a.v, a.rows)
    res = verify_oa(wide, max_cells)
    dep = None
    if not res.ok and res.witness.kind == "column_subset":
        dep = _column_dependency(wide, res.witness.columns)
    return SplitResult(wide, res, dep)


def reconstruct(sch: RampScheme, shares: ShareBundle) -> ReconstructionResult:
    if len(shares) < sch.t:
        raise ValueError(f"need at least t={sch.t} shares, got {len(shares)}")
    pairs = shares.items()
    for p, _ in pairs:
        if p > sch.n:
            raise ValueError(f"player index {p} exceeds n={sch.n}")
    found: set[tuple[int, ...]] = set()
    for rule in sch.rules:
        if all(rule.shares[p - 1] == x for p, x in pairs):
            found.add(rule.secret)
    if not found:
        return ReconstructionResult("no_matching_rule")
    if len(found) > 1:
        return ReconstructionResult("ambiguous", candidates=tuple(sorted(found)))
    return ReconstructionResult("ok", secret=next(iter(found)))


def audit_security(sch: RampScheme,
                   max_work: int = DEFAULT_AUDIT_WORK_CAP) -> AuditReport:
    n, s, t = sch.n, sch.s, sch.t
    rules = sch.rules
    n_rules = len(rules)
    base_subsets = sum(math.comb(n, i) for i in range(s + 1))
    bijection_subsets = math.comb(n, s) * math.comb(n - s, t - s) if sch.is_ideal else 0
    work = n_rules * (base_subsets + bijection_subsets)
    if work > max_work:
        raise CapExceeded(f"audit needs ~{work} rule visits, cap is {max_work}")

    check_perfect = sch.is_ideal and sch.has_uniform_weights
    failures: list[AuditFailure] = []
    weak_ok = True
    perfect_ok: bool | None = True if check_perfect else None
    groups = 0

    for size in range(s + 1):
        for subset in itertools.combinations(range(n), size):
            players = tuple(p + 1 for p in subset)
            by_proj: dict[tuple[int, ...], dict[tuple[int, ...], float]] = defaultdict(dict)
            for rule, w in zip(rules, sch.weights):
                proj = tuple(rule.shares[p] for p in subset)
                per_secret = by_proj[proj]
                per_secret[rule.secret] = per_secret.get(rule.secret, 0) + w
            for proj in sorted(by_proj):
                groups += 1
                per_secret = by_proj[proj]
                counts = tuple((k, per_secret.get(k, 0)) for k in sch.secrets)
                missing = [k for k, w in counts if w == 0]
                if missing:
                    weak_ok = False
                    failures.append(AuditFailure(
                        "weak", players, proj,
                        f"secret {missing[0]} has no consistent rule", counts))
                elif check_perfect and len({w for _, w in counts}) != 1:
                    perfect_ok = False
                    failures.append(AuditFailure(
                        "perfect", players, proj,
                        "consistent-rule weights differ between secrets", counts))

    bijection_ok: bool | None = None
    if sch.is_ideal:
        bijection_ok = True
        others = set(range(n))
        for subset in itertools.combinations(range(n), s):
            players = tuple(p + 1 for p in subset)
            rest = sorted(others - set(subset))
            for p1 in itertools.combinations(rest, t - s):
                view: dict[tuple[int, ...], dict[tuple[int, ...], set]] = defaultdict(
                    lambda: defaultdict(set))
                for rule in rules:
                    proj0 = tuple(rule.shares[p] for p in subset)
                    proj1 = tuple(rule.shares[p] for p in p1)
                    view[proj0][rule.secret].add(proj1)
                for proj0 in sorted(view):
                    groups += 1
                    images = view[proj0]
                    bad = next((k for k in sorted(images) if len(images[k]) != 1), None)
                    if bad is not None:
                        bijection_ok = False
                        failures.append(AuditFailure(
                            "bijection", players, proj0,
                            f"secret {bad} projects onto {tuple(p + 1 for p in p1)} "
                            f"in {len(images[bad])} different ways"))
                        continue
                    flat = sorted(next(iter(v)) for v in images.values())
                    if len(set(flat)) != len(flat) or len(flat) != len(sch.secrets):
                        bijection_ok = False
                        failures.append(AuditFailure(
                            "bijection", players, proj0,
                            f"secret-to-projection map onto {tuple(p + 1 for p in p1)} "
                            f"is not one-to-one"))

    ok = weak_ok and (perfect_ok is not False) and (bijection_ok is not False)
    return AuditReport(ok, weak_ok, perfect_ok, bijection_ok,
                       subsets_checked=base_subsets + bijection_subsets,
                       groups_checked=groups, failures=tuple(failures))


def deal(sch: RampScheme, secret, seed: int) -> ShareBundle:
    key = tuple(secret)
    rules = sch.rules
    indices = [i for i, r in enumerate(rules) if r.secret == key]
    if not indices:
        raise ValueError(f"unknown secret {key}")
    rng = random.Random(seed)
    if len(indices) == 1:
        chosen = indices[0]
    else:
        weights = [sch.weights[i] for i in indices]
        chosen = rng.choices(indices, weights=weights, k=1)[0]
    return ShareBundle({j + 1: x for j, x in enumerate(rules[chosen].shares)})


# --- text format ------------------------------------------------------------------


def dump_array(a) -> str:
    """One line per row of ``.rows``, symbols joined with str."""
    if isinstance(a, OrthogonalArray):
        lines = [f"OA {a.t} {a.k} {a.v}"]
        lines.extend(" ".join(map(str, r)) for r in a.rows)
    else:
        lines = [f"AOA {a.s} {a.t} {a.k} {a.v}"]
        for r in a.rows:
            plain = " ".join(map(str, r[: a.k]))
            aug = ",".join(map(str, r[a.k:]))
            lines.append(f"{plain} {aug}")
    return "\n".join(lines) + "\n"


def load_array(text: str):
    """Parse either array format, one int() per token, into lists of rows."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("empty array text")
    head = lines[0].split()
    if head[0] == "OA":
        if len(head) != 4:
            raise ValueError(f"malformed OA header: {lines[0]!r}")
        t, k, v = (int(x) for x in head[1:])
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
        return OrthogonalArray(t, k, v, rows)
    if head[0] == "AOA":
        if len(head) != 5:
            raise ValueError(f"malformed AOA header: {lines[0]!r}")
        s, t, k, v = (int(x) for x in head[1:])
        rows = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != k + 1:
                raise ValueError(f"row {ln!r} does not have {k} symbols plus an augmented field")
            aug = [int(x) for x in parts[-1].split(",")]
            if len(aug) != t - s:
                raise ValueError(f"augmented field {parts[-1]!r} is not a {t - s}-tuple")
            rows.append([int(x) for x in parts[:-1]] + aug)
        return AugmentedOA(s, t, k, v, rows)
    raise ValueError(f"unknown array header {head[0]!r}")
