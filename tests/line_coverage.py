"""Every executable line of ``src/oaramp`` runs under the Tier-1 suite.

Run from anywhere with ``python tests/line_coverage.py``; extra arguments go
to pytest.  The suite runs in this process under ``sys.settrace`` (and
``threading.settrace`` for the threads some tests start), tracing only code
from ``src/oaramp``.  A function's executable lines are read from its code
object, and those of the functions, lambdas and comprehensions nested in it,
with ``co_lines()``, leaving out the ``def`` line; module and class bodies,
which run at import, are not counted.  The script prints every such line
that never ran and is not in ``ALLOWED``, and exits 1 if there is one, or if
the suite itself fails.

``ALLOWED`` maps (file name, stripped source text) to a one-line reason, so
an entry survives edits that move its line; ``tests/test_public_surface.py``
checks that each entry still names a line of ``src/oaramp``.  The file has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import inspect
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oaramp"

ALLOWED: dict[tuple[str, str], str] = {}


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


class Tracer:
    """Records the (file, line) pairs that run in ``PACKAGE``; a frame stops
    being traced once every line of its code object has run."""

    def __init__(self, wanted: dict[str, set[int]]):
        self.wanted = wanted
        self.ran: dict[str, set[int]] = {path: set() for path in wanted}
        self._left: dict[object, set[int] | None] = {}  # per code object

    def _lines_left(self, code) -> set[int] | None:
        try:
            return self._left[code]
        except KeyError:
            path = os.path.realpath(code.co_filename)
            left = None
            if path in self.wanted:
                left = {line for _, _, line in code.co_lines()
                        if line is not None and line in self.wanted[path]}
                left.discard(code.co_firstlineno)
            self._left[code] = left
            return left

    def __call__(self, frame, event, arg):
        left = self._lines_left(frame.f_code)
        if not left:  # not ours, or every line has run
            return None
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            code = frame.f_code
            left = self._left[code]
            if frame.f_lineno in left:
                left.discard(frame.f_lineno)
                self.ran[os.path.realpath(code.co_filename)].add(frame.f_lineno)
                if not left:
                    return None
        return self._line


def missing_lines(wanted: dict[str, set[int]], ran: dict[str, set[int]]) -> list[str]:
    """``file:line: text`` for each wanted line that never ran, unless allowed."""
    out = []
    for path in sorted(wanted):
        source = Path(path).read_text(encoding="utf-8").splitlines()
        name = Path(path).name
        for line in sorted(wanted[path] - ran[path]):
            text = source[line - 1].strip()
            if (name, text) not in ALLOWED:
                out.append(f"{name}:{line}: {text}")
    return out


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    wanted = {os.path.realpath(p): executable_lines(p) for p in sorted(PACKAGE.glob("*.py"))}
    tracer = Tracer(wanted)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                              "--rootdir", str(ROOT), str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missing = missing_lines(wanted, tracer.ran)
    total = sum(map(len, wanted.values()))
    for entry in missing:
        print(entry)
    print(f"{len(missing)} of {total} executable lines in src/oaramp never ran "
          f"({len(ALLOWED)} allowed)")
    if status != 0:
        print(f"the suite failed (pytest exit status {int(status)})")
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
