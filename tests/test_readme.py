"""The README's code examples and CLI walk-through run against the package as it is."""

import re
import shlex
from pathlib import Path

from cycsid.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading, lang="python"):
    """The one ```lang block under a README heading such as '## CLI', up to
    the next heading of the same or a higher level."""
    level = len(heading.split()[0])
    text = README.read_text().split(f"\n{heading}\n", 1)[1]
    section = re.split(rf"\n#{{1,{level}}} ", text, maxsplit=1)[0]
    blocks = re.findall(rf"```{lang}\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1, f"expected one {lang} block under '{heading}'"
    return blocks[0]


def test_library_use_example_runs(capsys):
    exec(compile(_section_code("## Library use"), str(README), "exec"), {})
    assert capsys.readouterr().out


def test_cli_walkthrough_runs(tmp_path, monkeypatch, capsys):
    (tmp_path / "cfg.json").write_text(_section_code("### Config format", "json"))
    monkeypatch.chdir(tmp_path)
    for line in _section_code("## CLI", "bash").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cycsid"
        assert main(argv[1:]) == 0, line
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "model.json", "report.json", "signals.csv", "simulate_report.json",
        "verify_report.json"]
    capsys.readouterr()
