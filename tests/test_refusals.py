"""Every pinned CLI refusal of tests/refusals.py, run in-process."""

import pytest

from cycsid.cli import main
from refusals import ROWS, check

from conftest import write_walkthrough


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    return write_walkthrough(tmp_path_factory.mktemp("walkthrough"))


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_refusal(row, walkthrough, tmp_path, monkeypatch, capsys):
    # warnings are errors here, so a command that warns fails its row
    monkeypatch.chdir(tmp_path)

    def cycsid(argv, cwd):
        code = main(argv)
        return (code, *capsys.readouterr())

    check(row, walkthrough, cycsid, tmp_path)
