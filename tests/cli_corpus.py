"""The CLI conformance corpus: what each recorded ``oaramp`` run printed.

Each entry of ``cli_corpus.json`` is one run of ``cli.main`` in process: its
argv, its stdin, and the exit status, stdout and stderr it gave when the
corpus was recorded.  Stdin is inline text, or a recipe: a pipe of commands,
the first run on empty stdin, whose last output is then changed in a few
seeded cells (``mutate``), or shuffled, maybe given another header, and
given one of the text differential's defects (``malform``), or given such
defects at its first or last spots, in order (``place``); then given a
string repeated some number of times at its end (``repeat``), or spaces
before it, so that the first piece the command line reads from stdin ends
inside a given string (``straddle``).  Stdout is kept
as text, or as its SHA-256 when it is longer than ``INLINE``.  The runs cover the ``witness:`` and
``dependency:`` lines of ``verify`` and ``split``, every ``demo`` report and
error, the ``--max-cells`` refusals, the other ``construct`` refusals,
malformed and oversized stdin, every ``bounds`` case and refusal, and
``ramp deal`` and ``reconstruct`` runs.

``tests/test_cli_corpus.py`` replays every entry.  The corpus is rewritten
only on purpose, by ``PYTHONPATH=src python tests/cli_corpus.py`` from the
repository root; every entry that changes is then listed in CHANGES.md with
its reason.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import sys
from operator import itemgetter
from pathlib import Path

from oaramp import cli
from test_text_differential import DEFECTS, with_defect

CORPUS = Path(__file__).resolve().with_name("cli_corpus.json")
INLINE = 2000  # longest stdout kept as text


def mutate(text: str, seed: int, cells: int, augmented: bool = False) -> str:
    """``text``, an array, with ``cells`` distinct symbols each raised by a
    seeded 1..v-1 mod v; with ``augmented``, only symbols of an AOA's
    augmented tuples."""
    head, *rows = text.splitlines()
    v = int(head.split()[-1])
    rows = [re.split(r"([ ,])", row) for row in rows]  # symbols at even places
    width = len(rows[0]) // 2 + 1
    first = int(head.split()[3]) if augmented else 0  # k plain symbols come first
    places = [(i, 2 * j) for i in range(len(rows)) for j in range(first, width)]
    rng = random.Random(seed)
    for i, j in rng.sample(places, cells):
        rows[i][j] = str((int(rows[i][j]) + rng.randrange(1, v)) % v)
    return "\n".join([head, *("".join(r) for r in rows)]) + "\n"


def malform(text: str, defect: str, seed: int, head: str | None = None) -> str:
    """``text``, an array, with its rows in a seeded order, its header
    replaced by ``head`` if given, and then ``defect`` placed at seeded spots."""
    rng = random.Random(seed)
    first, *rows = text.splitlines()
    rng.shuffle(rows)
    return with_defect("\n".join([head or first, *rows]) + "\n", defect, rng.choice)


def run(argv: list[str], text: str = "") -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of ``cli.main`` on ``argv`` and stdin ``text``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv, stdin=io.StringIO(text), stdout=out)
    return code, out.getvalue(), err.getvalue()


def stdin_of(entry: dict) -> str:
    stdin = entry["stdin"]
    if isinstance(stdin, str):
        return stdin
    text = ""
    for argv in stdin["pipe"]:
        code, text, _ = run(argv, text)
        assert code == 0, f"recipe step {argv} exited {code}"
    if "mutate" in stdin:
        text = mutate(text, **stdin["mutate"])
    if "malform" in stdin:
        text = malform(text, **stdin["malform"])
    for defect, where in stdin.get("place", ()):
        text = with_defect(text, defect, itemgetter({"first": 0, "last": -1}[where]))
    if "repeat" in stdin:
        part, times = stdin["repeat"]
        text += part * times
    if "straddle" in stdin:
        text = straddle(text, *stdin["straddle"])
    return text


def straddle(text: str, part: str, cut: int) -> str:
    """``text`` after as many spaces as move its last ``part`` that starts at
    most ``cut`` characters before the end of stdin's first piece to start
    exactly ``cut`` characters before it: the first piece ends in ``part``."""
    at = text.rindex(part, 0, cli._PIECE - cut + len(part))
    return " " * (cli._PIECE - cut - at) + text


def outcome(entry: dict) -> dict:
    """The recorded fields of one run of ``entry``."""
    code, out, err = run(entry["argv"], stdin_of(entry))
    got = {"exit": code, "stderr": err}
    if len(out) <= INLINE:
        got["stdout"] = out
    else:
        got["stdout_sha256"] = hashlib.sha256(out.encode()).hexdigest()
    return got


# --- the recipes -------------------------------------------------------------------

OA_RS = [("3", "2"), ("4", "3"), ("5", "2"), ("5", "3"), ("7", "2"), ("8", "3")]
AOAS = [
    ["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "3", "--k", "4"],
    ["construct", "aoa-shamir", "--q", "7", "--s", "2", "--t", "4", "--k", "6"],
    ["construct", "aoa-shamir", "--q", "4", "--s", "1", "--t", "2", "--k", "4"],
    ["construct", "aoa-dual", "--q", "3", "--s", "2", "--t", "4"],
    ["construct", "aoa-dual", "--q", "5", "--s", "0", "--t", "3"],
    ["demo", "example-4-3"],
]
MERGED = [("5", "2", "0"), ("4", "3", "1"), ("3", "2", "1"), ("5", "3", "2")]
# The stdin fuzz's sources (tests/test_cli.py), and headers it can draw
STDIN_SOURCES = [["construct", "oa-rs", "--q", "3", "--t", "2"],
                 ["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "2", "--n", "4"],
                 ["demo", "example-4-3"]]
STDIN_HEADS = ["OA 2 4 9", "AOA 1 2 4 2", "OA 0 0 0", "AOA 4 2 1 0", "AOA 1 3 3 9",
               "OA 9 9 9", f"OA 2 2 {2**62}", f"AOA 0 {2**62} 4 3"]
STDIN_COMMANDS = [["verify"], ["split"], ["ramp", "audit"]]
# Bodies of two or three stdin pieces (2^16 characters each), and of one piece
MULTI_PIECE = {"verify": (["construct", "oa-rs", "--q", "13", "--t", "3"], "12"),
               "split": (["construct", "aoa-shamir", "--q", "16", "--s", "1", "--t", "3",
                          "--k", "6"], "15")}
# Bodies of several reader chunks (2^13 cells each), and defects placed late in them
LONG_SOURCES = [["construct", "oa-rs", "--q", "11", "--t", "3"],
                ["construct", "aoa-shamir", "--q", "7", "--s", "2", "--t", "4", "--k", "6"]]
LATE_DEFECTS = [[["tab", "last"]], [["blank at end", "last"]], [["crlf", "last"]],
                [["plus", "last"]], [["word", "last"]]]


def _oa_rs(q: str, t: str) -> list[str]:
    return ["construct", "oa-rs", "--q", q, "--t", t]


def _aoa_pipes() -> list[list[list[str]]]:
    return ([[argv] for argv in AOAS]
            + [[_oa_rs(q, t), ["construct", "aoa-merge", "--s", s]] for q, t, s in MERGED])


def _mutations(pipe, seeds, augmented=False):
    for cells in (1, 2, 3, 4):
        for seed in seeds:
            mut = {"seed": seed, "cells": cells}
            if augmented:
                mut["augmented"] = True
            yield {"pipe": pipe, "mutate": mut}


def _dual_with_swapped_symbols() -> str:
    """The dual AOA(1,4,4,4) with symbols 2 and 3 of plain column 2 swapped:
    still an AOA, and its split fails with no linear relation to report."""
    _, text, _ = run(["construct", "aoa-dual", "--q", "4", "--s", "1", "--t", "4"])
    head, *rows = text.splitlines()
    swapped = []
    for row in rows:
        symbols = row.split(" ")
        symbols[1] = {"2": "3", "3": "2"}.get(symbols[1], symbols[1])
        swapped.append(" ".join(symbols))
    return "\n".join([head, *swapped]) + "\n"


def cases() -> list[dict]:
    """Every entry's argv and stdin, in corpus order."""
    out = []

    def add(argv, stdin=""):
        out.append({"argv": argv, "stdin": stdin})

    # verify: valid arrays, seeded corruptions, row counts
    for q, t in OA_RS:
        add(["verify"], {"pipe": [_oa_rs(q, t)]})
        for stdin in _mutations([_oa_rs(q, t)], (0, 1, 2)):
            add(["verify"], stdin)
    for pipe in _aoa_pipes():
        add(["verify"], {"pipe": pipe})
        for stdin in _mutations(pipe, (0, 1)):
            add(["verify"], stdin)
        for stdin in _mutations(pipe, (0, 1, 2), augmented=True):
            add(["verify"], stdin)
    add(["verify"], "OA 2 3 2\n0 0 0\n")
    add(["verify"], "AOA 1 2 2 2\n0 0 0\n0 1 1\n1 0 1\n")
    # split: passing, failing with and without a dependency, refusing a non-AOA
    for pipe in _aoa_pipes():
        add(["split"], {"pipe": pipe})
        for stdin in _mutations(pipe, (0,)):
            add(["split"], stdin)
        for stdin in _mutations(pipe, (0,), augmented=True):
            add(["split"], stdin)
    add(["split"], _dual_with_swapped_symbols())
    add(["split"], "\n".join(["AOA 0 2 2 6"] + [f"{a} {b} {b},{a}" for a in range(6)
                                                for b in range(6)]) + "\n")
    add(["split"], "OA 2 3 2\n0 0 0\n")
    # malformed stdin: each defect of the text differential, and other headers
    for source in STDIN_SOURCES:
        for defect in DEFECTS:
            for seed in (0, 1):
                for argv in STDIN_COMMANDS:
                    add(argv, {"pipe": [source], "malform": {"defect": defect, "seed": seed}})
        for head in STDIN_HEADS:
            for defect in ("no final newline", "word"):
                for argv in STDIN_COMMANDS:
                    add(argv, {"pipe": [source],
                               "malform": {"defect": defect, "seed": 0, "head": head}})
    # rows on the header's line, split from it by "\r" alone
    for argv in STDIN_COMMANDS:
        add(argv, "OA 1 1 2\r0\r1\r")
        add(argv, "AOA 0 1 1 2\r0 0\r1 1\n")
    # bodies past the cell cap or the character budget, in both layouts
    for cap, text in [("100", "OA 2 3 2\n" + "0 1 1\n" * 40),
                      ("100", "OA 2 3 2\n" + "0  1 1\n" * 40),
                      ("100", "OA 2 3 2\n" + "0 1 1\n" * 33 + "0 1 x\n"),
                      ("100", "OA 9 9 9\n" + "0 1 1\n" * 33 + "0 1 x\n"),
                      ("100", "AOA 1 2 2 2\n" + "0 1 1\n" * 40),
                      ("5", "OA 1 1 2\n" + "\n" * 200),
                      ("5", "OA 1 1 2\n0\n" + " " * 200 + "1\n")]:
        add(["--max-cells", cap, "verify"], text)
    add(["--max-cells", "20", "split"], {"pipe": [_oa_rs("3", "2")]})
    add(["--max-cells", "20", "ramp", "audit"], {"pipe": [_oa_rs("3", "2")]})
    # demo: every report and every error
    for q, t in [(3, 3), (5, 3), (5, 4), (5, 5), (7, 3), (9, 3), (9, 5), (25, 3), (27, 4)]:
        add(["demo", "thm48", "--q", str(q), "--t", str(t)])
    for q, t in [(4, 3), (2, 3), (15, 3), (1, 3), (0, 3), (-3, 3), (5, 2), (5, 6), (3, 4),
                 (65536, 3), (65537, 3), (131071, 3), (59049, 50000), (10**30, 3),
                 (10**18 + 3, 3), (2**89 - 1, 3)]:
        add(["demo", "thm48", "--q", str(q), "--t", str(t)])
    for q, s in [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 2), (7, 6), (8, 7)]:
        add(["demo", "thm410", "--q", str(q), "--s", str(s)])
    for q, s in [(6, 1), (1, 1), (0, 1), (3, 0), (3, 3), (3, -1), (2, 2), (65536, 1),
                 (65537, 1), (10**30, 1), (11, 1), (10**18 + 3, 1), (2**89 - 1, 1)]:
        add(["demo", "thm410", "--q", str(q), "--s", str(s)])
    add(["demo", "example-4-3"])
    # --max-cells: refusals, the positive check, and caps that still admit the run
    for cap in ("0", "-5", "10", "26", "27", "8000", "999999999999"):
        add(["--max-cells", cap, "demo", "example-4-3"])
        add(["--max-cells", cap, "demo", "thm48", "--q", "9", "--t", "3"])
        add(["--max-cells", cap, "demo", "thm410", "--q", "3", "--s", "2"])
        add(["--max-cells", cap, "verify"], {"pipe": [_oa_rs("5", "2")]})
        add(["--max-cells", cap, "split"], {"pipe": [["demo", "example-4-3"]]})
        add(["--max-cells", cap, "construct", "oa-rs", "--q", "5", "--t", "3"])
        add(["--max-cells", cap, "construct", "aoa-shamir", "--q", "5", "--s", "1",
             "--t", "3", "--k", "4"])
        add(["--max-cells", cap, "construct", "aoa-dual", "--q", "3", "--s", "2", "--t", "4"])
        add(["--max-cells", cap, "construct", "aoa-merge", "--s", "1"],
            {"pipe": [_oa_rs("3", "2")]})
        add(["--max-cells", cap, "ramp", "audit"], {"pipe": [["demo", "example-4-3"]]})
        add(["--max-cells", cap, "ramp", "deal", "--secret", "1,2", "--seed", "3"],
            {"pipe": [["demo", "example-4-3"]]})
    for cap in ("64", "80", "1000", "4000"):
        add(["--max-cells", cap, "verify"], {"pipe": [_oa_rs("3", "2")]})
        add(["--max-cells", cap, "split"], {"pipe": AOAS[:1]})
        add(["--max-cells", cap, "demo", "thm410", "--q", "2", "--s", "1"])
        add(["--max-cells", cap, "demo", "thm48", "--q", "3", "--t", "3"])
    add(["--max-cells", "5000", "ramp", "audit"],
        {"pipe": [["construct", "aoa-shamir", "--q", "8", "--s", "2", "--t", "3", "--k", "4"]]})
    # bounds: each case of the Bush bound, proven and conjectured MDS lengths, refusals
    for t, v in [(2, 5), (2, 2), (3, 4), (3, 5), (4, 4), (5, 3), (6, 2), (1, 3), (3, 1)]:
        add(["bounds", "bush", "--t", str(t), "--v", str(v)])
    for t, q in [(2, 7), (3, 8), (31, 32), (6, 49), (5, 5), (6, 32), (8, 49), (1, 5),
                 (3, 6), (3, 1)]:
        add(["bounds", "mds-max", "--t", str(t), "--q", str(q)])
    # ramp deal and reconstruct: bundles, a secret, an inconsistent bundle, refusals
    shamir = [["construct", "aoa-shamir", "--q", "5", "--s", "1", "--t", "3", "--k", "4"]]
    example = [["demo", "example-4-3"]]
    for pipe, secret, seed in [(example, "0,0", "3"), (example, "1,2", "3"), (example, "1,2", "5"),
                               (example, "2,2", "0"), (shamir, "1,4", "0"), (shamir, "0,0", "7"),
                               (example, "3,0", "3"), (example, "x", "3")]:
        add(["ramp", "deal", "--secret", secret, "--seed", seed], {"pipe": pipe})
    for pipe, shares in [(example, "1:0 2:1 3:2"), (shamir, "1:0 2:1 4:2"),
                         (shamir, "1:0 2:1 3:2 4:0"), (example, "1:0 2:1")]:
        add(["ramp", "reconstruct", "--shares", shares], {"pipe": pipe})
    # construct refusals outside --max-cells: the field flags, then each builder's ranges
    builders = [["oa-rs", "--t", "2"], ["aoa-shamir", "--s", "1", "--t", "2", "--k", "3"],
                ["aoa-dual", "--s", "1", "--t", "3"]]
    for field in (["--q", "6"], ["--q", "10"], ["--q", "1"], ["--q", "0"], ["--q", "65537"],
                  ["--q", "131072"], ["--q", str(10**30)], ["--p", "257", "--j", "2"],
                  ["--p", "2", "--j", "17"], ["--p", "65537"], ["--p", "4"], ["--p", "1"],
                  ["--p", "2", "--j", "0"], ["--p", "3", "--j", "-1"], []):
        for builder in builders:
            add(["construct", builder[0], *field, *builder[1:]])
    for flags in (["oa-rs", "--q", "5", "--t", t] for t in ("1", "0", "-2", "6")):
        add(["construct", *flags])
    for s, t, k in [("0", "2", "3"), ("2", "2", "3"), ("-1", "2", "3"), ("1", "4", "3"),
                    ("1", "2", "6"), ("1", "2", "1")]:
        add(["construct", "aoa-shamir", "--q", "5", "--s", s, "--t", t, "--k", k])
    for q, s, t in [("5", "-1", "3"), ("5", "3", "3"), ("5", "4", "3"), ("5", "1", "7"),
                    ("5", "2", "3"), ("3", "0", "4")]:
        add(["construct", "aoa-dual", "--q", q, "--s", s, "--t", t])
    for s, pipe in [("1", example), ("2", [_oa_rs("3", "2")]), ("-1", [_oa_rs("3", "2")]),
                    ("0", [_oa_rs("3", "3")]), ("1", [_oa_rs("5", "3")])]:
        add(["construct", "aoa-merge", "--s", s], {"pipe": pipe})
    for q in ("4", "8"):  # OA(3,9,8) is past the certificate's key-visit limit
        for stdin in _mutations([_oa_rs(q, "3")], (0,)):
            add(["construct", "aoa-merge", "--s", "1"], stdin)
    # long bodies with a defect late in them: only the last chunk leaves the export layout
    for source in LONG_SOURCES:
        for place in LATE_DEFECTS:
            for argv in (["verify"], ["split"]):
                add(argv, {"pipe": [source], "place": place})
    for argv in (["verify"], ["split"]):  # a ragged first row, then a word in the last
        add(argv, {"pipe": LONG_SOURCES[:1], "place": [["missing", "first"], ["word", "last"]]})
    # bodies of several stdin pieces: a CRLF pair and a symbol across the first
    # piece's end, defects in the last piece, and whitespace alone
    for verb, (source, symbol) in MULTI_PIECE.items():
        add([verb], {"pipe": [source], "place": [["crlf", "first"]], "straddle": ["\r\n", 1]})
        add([verb], {"pipe": [source], "straddle": [f" {symbol} ", 2]})
        for defect in ("word", "trailing space"):
            add([verb], {"pipe": [source], "place": [[defect, "last"]]})
        add([verb], {"pipe": [], "repeat": [" \t\r\n", 40000]})
    return out


def main() -> int:
    entries = [{**case, **outcome(case)} for case in cases()]
    lines = ",\n".join(json.dumps(entry) for entry in entries)  # one entry per line
    CORPUS.write_text(f"[\n{lines}\n]\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
