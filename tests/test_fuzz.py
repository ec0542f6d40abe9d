"""A seeded fuzz over README's walk-through files and the data and check flags.

Each case mutates one of cfg.json, run/signals.csv and run/model.json and
runs a command that reads it, or runs a command on the walk-through's files
with one flag it takes, through cycsid.cli.main in-process.  A JSON
mutation sets one or two values, leaf or subtree, to one from POOL, or
deletes them; a CSV mutation edits a field, drops or repeats a row, drops a
column, flips an obs bit or renames a header; either file may instead be
truncated.  A flag's value is one from POOL, written as a string.  The
oracle: an argparse usage error, which only a flag can cause, exits 2 and
ends in a `cycsid <command>: error: ...` line.  Any other case exits 0, 2,
3 or 4, and its stderr is one line with the prefix errors.KINDS gives that
code, or empty on exit 0 or 4 (a verdict whose checks fail); no warning is
raised (warnings are errors here).  A file its loader refuses is refused as
its kind, config or data, with a message that names it; a signals or model
file is never a config error, and every data refusal of a mutated signals
or model file names that file.  The fast slice runs with the suite; a
larger draw is marked slow:

    python -m pytest tests/test_fuzz.py -m slow
"""

import json
import random
import shlex

import pytest

from cycsid.cli import main
from cycsid.errors import EXIT_DATA, KINDS, REFUSALS
from cycsid.fileio import load_model, load_signals
from cycsid.pipeline import load_config
from refusals import FILES, IDENTIFY, ON_FILE, SIMULATE, VERIFY, copy_files

from conftest import write_walkthrough

POOL = [0, 1, -1, 2, 0.5, -2.5, 1e-300, 1e30, -1e30, 1e308, -1e308, "", "x", "1", None,
        True, False, [], [1.0], [[0.0]], {}]
CSV_POOL = ["", "x", "nan", "inf", "-inf", "0", "1", "-1", "2.5", "1e308", "-1e308", "1e-320"]
HEADERS = ["k", "u_1", "u_2", "y_3", "obs_0", "x", ""]
#: the commands that read each file, and the loader and refusal kind of each file
COMMANDS = {"config": [SIMULATE, IDENTIFY, ON_FILE, VERIFY], "signals": [ON_FILE],
            "model": [VERIFY]}
LOADERS = {"config": (load_config, "config"), "signals": (load_signals, "data"),
           "model": (load_model, "data")}
#: the data and check flags, and the commands that take each
FLAGS = {**{flag: [SIMULATE, IDENTIFY, ON_FILE] for flag in ("--n", "--seed", "--noise")},
         **{flag: [IDENTIFY, ON_FILE, VERIFY] for flag in ("--tol-structure", "--tol-tf")}}
PREFIX = {code: prefix for code, prefix in KINDS.values()}


def mutate_json(text, rng):
    """text's JSON document with one or two random nodes, found by a walk
    from the root that stops early one time in four, set from POOL or
    deleted."""
    doc = json.loads(text)
    for _ in range(rng.choice((1, 2))):
        node, key = doc, None
        while isinstance(node, (dict, list)) and node and (key is None or rng.random() > 0.25):
            parent, key = node, rng.choice(list(node) if isinstance(node, dict)
                                           else range(len(node)))
            node = parent[key]
        if key is None:
            continue
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(rng.choice(POOL)))
    return json.dumps(doc)


def mutate_csv(text, rng):
    """text's CSV rows with one random edit."""
    rows = [line.split(",") for line in text.splitlines()]
    k = rng.randrange(1, len(rows))
    how = rng.choice(("field", "drop-row", "repeat-row", "drop-column", "obs", "header"))
    if how == "field":
        rows[k][rng.randrange(len(rows[k]))] = rng.choice(CSV_POOL)
    elif how == "drop-row":
        del rows[k]
    elif how == "repeat-row":
        rows.insert(k, list(rows[k]))
    elif how == "drop-column":
        column = rng.randrange(len(rows[0]))
        rows = [row[:column] + row[column + 1:] for row in rows]
    elif how == "obs":
        column = rng.choice([i for i, name in enumerate(rows[0]) if name.startswith("obs_")])
        rows[k][column] = "1" if rows[k][column] == "0" else "0"
    else:
        rows[0][rng.randrange(len(rows[0]))] = rng.choice(HEADERS)
    return "".join(",".join(row) + "\n" for row in rows)


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    # a shorter record than README's keeps a run that passes cheap
    return write_walkthrough(tmp_path_factory.mktemp("walkthrough"), N=400)


def run_case(seed, base, work, monkeypatch, capsys):
    rng = random.Random(seed)
    target = rng.choice(sorted(FILES) + ["flag"])
    work = copy_files(base, work)
    if target == "flag":
        flag = rng.choice(sorted(FLAGS))
        extra = [flag, str(rng.choice(POOL))]
        command = rng.choice(FLAGS[flag])
        edited = ""
    else:
        path = work / FILES[target]
        text = path.read_text()
        if rng.random() < 0.1:
            text = text[:rng.randrange(len(text))]
        else:
            text = (mutate_csv if target == "signals" else mutate_json)(text, rng)
        path.write_text(text)
        extra, command = [], rng.choice(COMMANDS[target])
        edited = f" after editing {FILES[target]}"
    monkeypatch.chdir(work)
    argv = [arg.format(**FILES) for arg in command.split()] + extra
    code = main(argv)
    err = capsys.readouterr().err
    where = f"seed {seed}: cycsid {shlex.join(argv)}{edited}"
    if err.startswith("usage: "):
        # argparse refuses a flag value with its usage and one error line
        assert target == "flag" and code == 2, (where, err)
        assert err.splitlines()[-1].startswith(f"cycsid {argv[0]}: error: "), (where, err)
        return
    assert code in (0, 2, 3, 4), where
    # a run whose checks fail prints its verdict on stdout and exits 4
    assert (code in PREFIX and err.startswith(f"{PREFIX[code]}: ") and err.count("\n") == 1 if err
            else code in (0, 4)), (where, err)
    if target == "flag":
        return
    load, kind = LOADERS[target]
    try:
        load(FILES[target])
    except REFUSALS:
        code_of_kind, prefix = KINDS[kind]
        assert code == code_of_kind and err.startswith(f"{prefix}: {FILES[target]}: "), (
            where, err)
    else:
        assert code != 2 or target == "config", (where, err)
    if target != "config" and code == EXIT_DATA:
        assert err.startswith(f"{PREFIX[EXIT_DATA]}: {FILES[target]}: "), (where, err)


@pytest.mark.parametrize("seed", range(200))
def test_fuzz(seed, walkthrough, tmp_path, monkeypatch, capsys):
    run_case(seed, walkthrough, tmp_path, monkeypatch, capsys)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(200, 2200))
def test_fuzz_long(seed, walkthrough, tmp_path, monkeypatch, capsys):
    run_case(seed, walkthrough, tmp_path, monkeypatch, capsys)
