"""The README's code examples run against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(title):
    text = README.read_text()
    section = text.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one python block under '## {title}'"
    return blocks[0]


def test_library_use_example_runs(capsys):
    exec(compile(_section_code("Library use"), str(README), "exec"), {})
    assert capsys.readouterr().out
