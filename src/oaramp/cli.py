"""Composable command-line front end.

Arrays travel through stdin/stdout in the one-record-per-line text format of
``designs``, so commands compose with shell pipes; there is no state
directory.  Exit status: 0 success or verified, 1 verified-false or bound
violation (witness on stdout), 2 usage or parameter error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import TextIO

from . import designs, ramp
from .errors import CapExceeded, ConstructionError, SchemeError
from .gf import GF, field_for_order
from .linalg import DEFAULT_CELL_CAP, _check_row_space_cap


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused by every later one."""
    parser = argparse.ArgumentParser(
        prog="oaramp",
        description="Construct, verify, and interconvert orthogonal arrays, "
                    "augmented orthogonal arrays, and ramp secret-sharing schemes.")
    parser.add_argument("--max-cells", type=int, default=None,
                        help="lower the exhaustive-verification cell cap (downward only)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--q", type=int, help="field order (prime power)")
        p.add_argument("--p", type=int, help="field characteristic (with --j)")
        p.add_argument("--j", type=int, default=1, help="extension degree (default 1)")

    construct = sub.add_parser("construct", help="emit an array on stdout")
    csub = construct.add_subparsers(dest="verb", required=True)
    c_oars = csub.add_parser("oa-rs", help="strength-t array on q+1 columns from the "
                                           "polynomial-evaluation generator")
    add_field_flags(c_oars)
    c_oars.add_argument("--t", type=int, required=True)
    c_shamir = csub.add_parser("aoa-shamir", help="augmented array from the "
                                                  "polynomial-evaluation generator")
    add_field_flags(c_shamir)
    c_shamir.add_argument("--s", type=int, required=True)
    c_shamir.add_argument("--t", type=int, required=True)
    group = c_shamir.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="plain columns")
    group.add_argument("--n", type=int, dest="k",
                       help="player count (alias for --k: one column per player)")
    c_dual = csub.add_parser("aoa-dual", help="augmented array from the (I | N^T) "
                                              "dual construction")
    add_field_flags(c_dual)
    c_dual.add_argument("--s", type=int, required=True)
    c_dual.add_argument("--t", type=int, required=True)
    c_merge = csub.add_parser("aoa-merge", help="merge trailing columns of the OA on "
                                                "stdin into an augmented column")
    c_merge.add_argument("--s", type=int, required=True)

    sub.add_parser("verify", help="verify the OA or AOA on stdin (auto-detected)")
    sub.add_parser("split", help="expand the augmented column of the AOA on stdin "
                                 "and verify the result at strength t")

    bounds = sub.add_parser("bounds", help="bound oracles")
    bsub = bounds.add_subparsers(dest="verb", required=True)
    b_bush = bsub.add_parser("bush", help="max columns of an OA(t,k,v)")
    b_bush.add_argument("--t", type=int, required=True)
    b_bush.add_argument("--v", type=int, required=True)
    b_mds = bsub.add_parser("mds-max", help="max length of a linear MDS code")
    b_mds.add_argument("--t", type=int, required=True)
    b_mds.add_argument("--q", type=int, required=True)

    rp = sub.add_parser("ramp", help="deal, reconstruct, audit (scheme = AOA on stdin)")
    rsub = rp.add_subparsers(dest="verb", required=True)
    r_deal = rsub.add_parser("deal", help="deal shares for a secret")
    r_deal.add_argument("--secret", required=True,
                        help="comma-separated secret tuple, e.g. 0,2")
    r_deal.add_argument("--seed", type=int, default=0)
    r_rec = rsub.add_parser("reconstruct", help="reconstruct a secret from shares")
    r_rec.add_argument("--shares", required=True,
                       help="space-separated player:share pairs, e.g. '1:0 3:2'")
    rsub.add_parser("audit", help="run the exhaustive security audit")

    demo = sub.add_parser("demo", help="reproducible demonstrations")
    dsub = demo.add_subparsers(dest="verb", required=True)
    d_48 = dsub.add_parser("thm48", help="AOA(1,t,q,q) whose merged OA beats the Bush bound")
    d_48.add_argument("--q", type=int, required=True)
    d_48.add_argument("--t", type=int, required=True)
    d_410 = dsub.add_parser("thm410", help="AOA(s,q+1,q+1,q) whose merged OA beats the Bush bound")
    d_410.add_argument("--q", type=int, required=True)
    d_410.add_argument("--s", type=int, required=True)
    dsub.add_parser("example-4-3", help="emit the 27-row AOA(1,3,3,3) with "
                                        "sum-coupled augmented column")
    return parser


def _field_from_args(args) -> GF:
    if args.q is not None:
        return field_for_order(args.q)
    if args.p is not None:
        return GF(args.p, args.j)
    raise ValueError("a field is required: give --q, or --p with optional --j")


def _cap(args) -> int:
    if args.max_cells is None:
        return DEFAULT_CELL_CAP
    if args.max_cells <= 0:
        raise ValueError("--max-cells must be positive")
    return min(args.max_cells, DEFAULT_CELL_CAP)


def _parse_secret(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"malformed secret {text!r}, expected comma-separated integers")


def _load_stdin_array(stdin: TextIO):
    text = stdin.read()
    if not text.strip():
        raise ValueError("expected an array on standard input")
    return designs.load_array(text)


def _scheme_from_stdin(stdin: TextIO, cap: int) -> ramp.RampScheme:
    a = _load_stdin_array(stdin)
    if not isinstance(a, designs.AugmentedOA):
        raise ValueError("ramp commands expect an AOA-format scheme on standard input")
    return ramp.scheme_from_aoa(a, cap)


def _describe(a) -> str:
    if isinstance(a, designs.OrthogonalArray):
        return f"OA({a.t},{a.k},{a.v})"
    return f"AOA({a.s},{a.t},{a.k},{a.v})"


def _cmd_construct(args, stdin: TextIO, out: TextIO) -> int:
    """The cell cap is checked on the shape of the generator's row space before
    the generator is built; parameters outside a builder's range are left for
    the builder to report."""
    cap = _cap(args)
    if args.verb == "oa-rs":
        field = _field_from_args(args)
        q, t = field.q, args.t
        if 2 <= t <= q:
            _check_row_space_cap(q, t, q + 1, cap)
        oa = designs.oa_from_generator(designs.rs_generator(field, t), t, cap)
        out.write(designs.dump_array(oa))
        return 0
    if args.verb == "aoa-shamir":
        field = _field_from_args(args)
        s, t, k = args.s, args.t, args.k
        if 1 <= s < t <= k <= field.q:
            _check_row_space_cap(field.q, t, k + t - s, cap)
        m = designs.shamir_matrix(field, s, t, k)
        out.write(designs.dump_array(designs.linear_aoa(m, s, t, k, cap)))
        return 0
    if args.verb == "aoa-dual":
        field = _field_from_args(args)
        s, t = args.s, args.t
        if not 0 <= s < t:
            raise ValueError(f"need 0 <= s < t, got s={s}, t={t}")
        if t > field.q + 1:
            raise ValueError(f"need t <= q+1 for the default basis, got t={t}, q={field.q}")
        if 2 <= t - s <= field.q:  # the basis's row space, enumerated first
            _check_row_space_cap(field.q, t - s, t, cap)
        basis = designs.rs_generator(field, t - s).columns(range(t))
        out.write(designs.dump_array(designs.dual_aoa(basis, s, t, cap)))
        return 0
    # aoa-merge
    a = _load_stdin_array(stdin)
    if not isinstance(a, designs.OrthogonalArray):
        raise ValueError("aoa-merge expects an OA on standard input")
    out.write(designs.dump_array(designs.aoa_merge(a, args.s, cap)))
    return 0


def _cmd_verify(args, stdin: TextIO, out: TextIO) -> int:
    cap = _cap(args)
    a = _load_stdin_array(stdin)
    if isinstance(a, designs.OrthogonalArray):
        res = designs.verify_oa(a, cap)
    else:
        res = designs.verify_aoa(a, cap)
    if res.ok:
        out.write(f"{_describe(a)}: VALID ({len(a.grid)} rows, exhaustive)\n")
        return 0
    out.write(f"{_describe(a)}: INVALID\n")
    out.write(f"witness: {res.witness.describe()}\n")
    return 1


def _cmd_split(args, stdin: TextIO, out: TextIO) -> int:
    cap = _cap(args)
    a = _load_stdin_array(stdin)
    if not isinstance(a, designs.AugmentedOA):
        raise ValueError("split expects an AOA on standard input")
    result = designs.aoa_split(a, cap)
    if result.ok:
        out.write(designs.dump_array(result.array))
        return 0
    wide = result.array
    out.write(f"SPLIT INVALID: expanding {_describe(a)} is not an "
              f"OA({wide.t},{wide.k},{wide.v})\n")
    out.write(f"witness: {result.result.witness.describe()}\n")
    if result.dependency is not None:
        out.write(f"dependency: {result.dependency.describe()}\n")
    return 1


def _cmd_bounds(args, out: TextIO) -> int:
    if args.verb == "bush":
        verdict = designs.bush_bound(args.t, args.v)
    else:
        verdict = designs.mds_max(args.t, args.q)
    out.write(f"max_k {verdict.max_k}\n")
    out.write(f"case: {verdict.case_label} ({verdict.status})\n")
    return 0


def _cmd_ramp(args, stdin: TextIO, out: TextIO) -> int:
    cap = _cap(args)
    sch = _scheme_from_stdin(stdin, cap)
    if args.verb == "deal":
        bundle = ramp.deal(sch, _parse_secret(args.secret), args.seed)
        out.write(ramp.format_bundle(bundle) + "\n")
        return 0
    if args.verb == "reconstruct":
        result = ramp.reconstruct(sch, ramp.parse_bundle(args.shares))
        if result:
            out.write("secret " + ",".join(map(str, result.secret)) + "\n")
            return 0
        if result.status == "no_matching_rule":
            out.write("inconsistent: no rule matches the given shares\n")
        else:
            cands = "; ".join(",".join(map(str, c)) for c in result.candidates)
            out.write(f"integrity failure: shares are consistent with secrets {cands}\n")
        return 1
    # audit
    report = ramp.audit_security(sch, cap)
    out.write(f"audit: {'PASS' if report.ok else 'FAIL'}\n")
    def word(flag):
        return "n/a" if flag is None else ("ok" if flag else "FAIL")
    out.write(f"weak: {word(report.weak_ok)}  perfect: {word(report.perfect_ok)}  "
              f"bijection: {word(report.bijection_ok)}\n")
    out.write(f"subsets checked: {report.subsets_checked}, "
              f"projection groups: {report.groups_checked}\n")
    for f in report.failures[:20]:
        out.write(f"failure: {f.describe()}\n")
    return 0 if report.ok else 1


def _cmd_demo(args, out: TextIO) -> int:
    cap = _cap(args)
    if args.verb == "example-4-3":
        out.write(designs.dump_array(designs.demo_aoa_1333(cap)))
        return 0
    if args.verb == "thm48":
        report = designs.nonexistence_witness(designs.THM48, args.q, t=args.t,
                                              max_cells=cap)
    else:
        report = designs.nonexistence_witness(designs.THM410, args.q, s=args.s,
                                              max_cells=cap)
    for line in report.lines():
        out.write(line + "\n")
    return 0 if report.holds else 1


def main(argv: list[str] | None = None,
         stdin: TextIO | None = None,
         stdout: TextIO | None = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:  # argparse uses 2 for usage errors already
        return int(e.code or 0)
    try:
        if args.command == "construct":
            return _cmd_construct(args, stdin, stdout)
        if args.command == "verify":
            return _cmd_verify(args, stdin, stdout)
        if args.command == "split":
            return _cmd_split(args, stdin, stdout)
        if args.command == "bounds":
            return _cmd_bounds(args, stdout)
        if args.command == "ramp":
            return _cmd_ramp(args, stdin, stdout)
        if args.command == "demo":
            return _cmd_demo(args, stdout)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ValueError, SchemeError, ConstructionError, CapExceeded,
            ZeroDivisionError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
