"""Every public name, parameter and result field has a caller outside its
own definition.

A name in ``oaramp.__all__`` counts as used when an identifier of that name
is read in a ``src/oaramp`` module other than ``__init__`` (outside the
top-level definition that binds it), in the README's library tour, or in the
acceptance suite.  Identifiers are read from the syntax tree, so words in
comments, strings and imports do not count.  In the same sources, every
parameter of a public function must be passed by some call to a function of
that name, and every field of a result dataclass in ``designs`` or ``ramp``
must be read as an attribute.

Both are checks by name.  A field read under a name that another type also
has is taken as read: ``NonexistenceReport`` once had a ``kind`` field that
nothing read, masked by the reads of ``Witness.kind``.
"""

import ast
import dataclasses
import inspect
import re
from pathlib import Path

import oaramp
from oaramp import designs, ramp

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "oaramp"


def _sources() -> list[str]:
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
               if p.name != "__init__.py"]
    sources += re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(encoding="utf-8"), re.S)
    sources.append((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    return sources


def _nodes(source: str):
    """Each call, name read and attribute read of a module, with the name it
    calls or reads, outside the top-level function or class of that name."""
    for top in ast.parse(source).body:
        owner = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
            elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                name = node.id if isinstance(node, ast.Name) else node.attr
            else:
                continue
            if name != owner:
                yield node, name


def _reads(source: str) -> set[str]:
    return {name for node, name in _nodes(source) if not isinstance(node, ast.Call)}


def _attribute_reads(source: str) -> set[str]:
    return {name for node, name in _nodes(source) if isinstance(node, ast.Attribute)}


def _passed(source: str) -> set[tuple[str, object]]:
    """(function name, position) and (function name, keyword) for every
    argument a call passes; a ``*`` or ``**`` argument, which may pass any
    parameter, as (name, "*") or (name, "**")."""
    out = set()
    for node, name in _nodes(source):
        if not isinstance(node, ast.Call):
            continue
        for i, arg in enumerate(node.args):
            out.add((name, "*" if isinstance(arg, ast.Starred) else i))
        for kw in node.keywords:
            out.add((name, "**" if kw.arg is None else kw.arg))
    return out


def test_every_public_name_resolves_and_has_a_caller():
    used = set().union(*map(_reads, _sources()))
    for name in oaramp.__all__:
        getattr(oaramp, name)
    assert sorted(set(oaramp.__all__) - used) == []


def test_every_parameter_of_a_public_function_is_passed():
    passed = set().union(*map(_passed, _sources()))
    unpassed = []
    for name in oaramp.__all__:
        fn = getattr(oaramp, name)
        if isinstance(fn, type) or not callable(fn):
            continue
        for i, param in enumerate(inspect.signature(fn).parameters):
            if not {(name, i), (name, param), (name, "*"), (name, "**")} & passed:
                unpassed.append(f"{name}.{param}")
    assert unpassed == []


def test_every_field_of_a_result_dataclass_is_read():
    read = set().union(*map(_attribute_reads, _sources()))
    unread = [f"{cls.__name__}.{field.name}"
              for module in (designs, ramp)
              for cls in vars(module).values()
              if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
              for field in dataclasses.fields(cls)
              if field.name not in read]
    assert unread == []


def test_every_line_coverage_allowance_names_a_line_of_the_package():
    """``tests/line_coverage.py`` forgives a line, or a branch arm, by its file,
    stripped text and arm; an entry whose line or arm is gone must go too."""
    from line_coverage import ALLOWED, branches

    def named(name, text, arm):
        path = PACKAGE / name
        if not path.is_file():
            return False
        source = path.read_text(encoding="utf-8").splitlines()
        if arm == "line":
            return text in {line.strip() for line in source}
        return any(source[line - 1].strip() == text and arm in (b.taken, b.skipped)
                   for line, b in branches(path).items())

    assert [key for key in ALLOWED if not named(*key)] == []
    assert all(reason.strip() and "\n" not in reason for reason in ALLOWED.values())
