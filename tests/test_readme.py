"""The README's library tour, run as written, so the documented API cannot drift."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_tour_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out == "column 4 = column 1 + column 2 over GF(3)\n"
