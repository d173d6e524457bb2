"""Every executable line and every branch arm of ``src/oaramp`` runs under
the Tier-1 suite.

Run from anywhere with ``python tests/line_coverage.py``; extra arguments go
to pytest.  The suite runs in this process under ``sys.settrace`` (and
``threading.settrace`` for the threads some tests start), tracing only code
from ``src/oaramp``.  A function's executable lines are read from its code
object, and those of the functions, lambdas and comprehensions nested in it,
with ``co_lines()``, leaving out the ``def`` line; module and class bodies,
which run at import, are not counted.

Each statement-level ``if``, ``elif`` and ``while`` in a function has two
arms, ``true`` and ``false``, and each ``for`` has ``entered`` and
``exhausted``; a constant test such as ``while True:`` has no false arm.
An arm ran when the first line a frame runs after the statement's header
lies in the first statement of its body (true, entered) or anywhere else,
the frame's return included (false, exhausted).  A ``for`` left by
``break`` was entered but not exhausted.

The script prints every line and arm that never ran and is not in
``ALLOWED``, and exits 1 if there is one, or if the suite itself fails.
``ALLOWED`` maps (file name, stripped source text, arm) to a one-line
reason, the arm ``line`` for a line, so an entry survives edits that move
its line; ``tests/test_public_surface.py`` checks that each entry still names
a line, or a branch arm, of ``src/oaramp``.  The file has no ``test_``
prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import inspect
import os
import sys
import threading
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oaramp"

ALLOWED: dict[tuple[str, str, str], str] = {
    ("ramp.py", "if len(key) < 2**31:", "false"):
        "no scheme that fits in memory has 2^31 rules",
}


class Branch(NamedTuple):
    """A statement-level ``if``, ``while`` or ``for``: the lines of its
    header, the lines of its body's first statement, and its arms."""

    header: range
    body: range
    taken: str
    skipped: str | None  # None for a constant test


def executable_lines(path: Path) -> set[int]:
    """The lines of every function code object compiled from ``path``,
    without each one's first (``def``) line."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_NEWLOCALS:  # a function, not a module or class body
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def branches(path: Path) -> dict[int, Branch]:
    """Every ``if``, ``elif``, ``while`` and ``for`` statement of ``path``, by
    its first line; those outside functions never match a traced frame."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.If, ast.While)):
            end, taken, skipped = node.test.end_lineno, "true", "false"
            if isinstance(node.test, ast.Constant) and node.test.value:
                skipped = None
        elif isinstance(node, ast.For):
            end, taken, skipped = node.iter.end_lineno, "entered", "exhausted"
        else:
            continue
        first = node.body[0]
        out[node.lineno] = Branch(range(node.lineno, end + 1),
                                  range(first.lineno, first.end_lineno + 1), taken, skipped)
    return out


class Tracer:
    """Records the lines and the (line, arm) pairs that run in ``PACKAGE``;
    a frame stops being traced once every line and arm of its code object
    has run."""

    def __init__(self, wanted: dict[str, set[int]], arms: dict[str, dict[int, Branch]]):
        self.wanted = wanted
        self.arms = arms
        self.ran: dict[str, set] = {path: set() for path in wanted}
        self._left: dict[object, set | None] = {}  # per code object
        self._branches: dict[object, dict[int, Branch]] = {}

    def _items_left(self, code) -> set | None:
        try:
            return self._left[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            left = None
            if path in self.wanted:
                lines = {line for _, _, line in code.co_lines() if line is not None}
                lines.discard(code.co_firstlineno)
                left = lines & self.wanted[path]
                # statements sit in named functions, not in lambdas or comprehensions
                own = {} if code.co_name.startswith("<") else {
                    line: b for line, b in self.arms[path].items() if line in lines}
                for line, b in own.items():
                    left.update((line, arm) for arm in (b.taken, b.skipped) if arm)
                self._branches[code] = own
            self._left[code] = left
            return left

    def __call__(self, frame, event, arg):
        code = frame.f_code
        left = self._items_left(code)
        if not left:  # not ours, or every line and arm has run
            return None
        own, ran = self._branches[code], self.ran[os.path.realpath(code.co_filename)]
        pending = None  # (line, branch) whose header ran last, until its arm is known

        def record(item) -> None:
            if item in left:
                left.discard(item)
                ran.add(item)

        def local(frame, event, arg):
            nonlocal pending
            if event == "line":
                line = frame.f_lineno
                if pending is not None and line not in pending[1].header:
                    at, b = pending
                    record((at, b.taken if line in b.body else b.skipped))
                    pending = None
                record(line)
                if line in own:
                    pending = (line, own[line])
            elif event == "return" and pending is not None:
                record((pending[0], pending[1].skipped))
                pending = None
            elif event == "exception" and not issubclass(arg[0], StopIteration):
                pending = None  # raised by the header: neither arm ran
            return local if left else None

        return local


def missing(wanted: dict[str, set[int]], arms: dict[str, dict[int, Branch]],
            ran: dict[str, set]) -> list[str]:
    """``file:line: text`` for each wanted line, and ``file:line: text [arm]``
    for each arm, that never ran, unless allowed."""
    out = []
    for path in sorted(wanted):
        source = Path(path).read_text(encoding="utf-8").splitlines()
        name = Path(path).name
        items = [(line, "line") for line in wanted[path] - ran[path]]
        items += [(line, arm) for line, b in arms[path].items() for arm in (b.taken, b.skipped)
                  if arm and (line, arm) not in ran[path] and line in wanted[path]]
        for line, arm in sorted(items):
            text = source[line - 1].strip()
            if (name, text, arm) not in ALLOWED:
                out.append(f"{name}:{line}: {text}" + ("" if arm == "line" else f" [{arm}]"))
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    paths = sorted(PACKAGE.glob("*.py"))
    wanted = {os.path.realpath(p): executable_lines(p) for p in paths}
    arms = {os.path.realpath(p): branches(p) for p in paths}
    tracer = Tracer(wanted, arms)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    never = missing(wanted, arms, tracer.ran)
    lines = sum(map(len, wanted.values()))
    arm_count = sum(len([a for a in (b.taken, b.skipped) if a])
                    for path in arms for line, b in arms[path].items() if line in wanted[path])
    for entry in never:
        print(entry)
    print(f"{len(never)} of {lines} executable lines and {arm_count} branch arms in "
          f"src/oaramp never ran ({len(ALLOWED)} allowed)")
    if status != 0:
        print(f"the suite failed (pytest exit status {int(status)})")
    return 1 if never or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
