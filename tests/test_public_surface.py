"""Every public name has a caller outside its own definition.

A name in ``oaramp.__all__`` counts as used when an identifier of that name
is read in a ``src/oaramp`` module other than ``__init__`` (outside the
top-level definition that binds it), in the README's library tour, or in the
acceptance suite.  Identifiers are read from the syntax tree, so words in
comments, strings and imports do not count.
"""

import ast
import re
from pathlib import Path

import oaramp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oaramp"


def _reads(source: str) -> set[str]:
    """The names and attribute names a module reads, each outside the
    top-level function or class of the same name."""
    names = set()
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            else:
                continue
            if name != owner:
                names.add(name)
    return names


def test_every_public_name_resolves_and_has_a_caller():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    sources += re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    used = set().union(*map(_reads, sources))
    for name in oaramp.__all__:
        getattr(oaramp, name)
    assert sorted(set(oaramp.__all__) - used) == []
