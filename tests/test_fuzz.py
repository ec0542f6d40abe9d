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
or model file names that file.  A case that exits 0 or 4 holds only values
that README documents as valid: each config key a mutation or a flag
touches, and every number of a mutated model file, must lie in its domain
in DOMAINS.  The fast slice runs with the suite; a larger draw is marked
slow:

    python -m pytest tests/test_fuzz.py -m slow
"""

import json
import math
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


def _number(v):
    """A JSON number: not a string, and not a boolean."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _finite(v):
    return _number(v) and math.isfinite(v)


def _integer(v):
    """A JSON number of integral value; README reads 200.0 as 200."""
    return _finite(v) and v == int(v)


def _rows(doc, matrix):
    """The row count of the config plant's matrix, None when it has none."""
    plant = doc.get("plant")
    rows = plant.get(matrix) if isinstance(plant, dict) else None
    return len(rows) if isinstance(rows, list) else None


def _sampling(doc):
    """README "Sampling offsets": one positive integer rate per plant output,
    and offsets, all zero when unset, one integer in [0, rate) per rate."""
    rates = doc.get("rates")
    if not (isinstance(rates, list) and rates and all(_integer(r) and r >= 1 for r in rates)):
        return False
    offsets = doc.get("offsets", [0] * len(rates))
    return (_rows(doc, "C") in (None, len(rates))
            and isinstance(offsets, list) and len(offsets) == len(rates)
            and all(_integer(o) and 0 <= o < r for o, r in zip(offsets, rates)))


def _input(doc):
    """README "Config format": {"file": <path>} alone, or any of kind (only
    "uniform"), a finite amplitude and a seed that is a nonnegative integer
    or null."""
    given = doc.get("input", {})
    if not isinstance(given, dict):
        return False
    if set(given) == {"file"}:
        return isinstance(given["file"], str)
    seed = given.get("seed")
    return (set(given) <= {"kind", "amplitude", "seed"}
            and given.get("kind", "uniform") == "uniform"
            and _finite(given.get("amplitude", 1.0))
            and (seed is None or _integer(seed) and seed >= 0))


def _tolerances(doc):
    """null, or any of markov, structure and tf, each positive and finite;
    an unset one keeps 1e-6."""
    tol = doc.get("tolerances", {})
    return tol is None or (isinstance(tol, dict) and set(tol) <= {"markov", "structure", "tf"}
                           and all(_finite(v) and v > 0 for v in tol.values()))


def _x0(doc):
    """Unset or null (zero), or one finite entry per plant state."""
    x0 = doc.get("x0")
    return x0 is None or (isinstance(x0, list) and all(_finite(v) for v in x0)
                          and _rows(doc, "A") in (None, len(x0)))


#: README's domain of each config key, judged on the whole config document,
#: which may leave an optional key unset
DOMAINS = {
    "N": lambda doc: _integer(doc.get("N", 3000)) and doc.get("N", 3000) >= 1,
    "noise": lambda doc: _finite(doc.get("noise", 0.0)) and doc.get("noise", 0.0) >= 0,
    "rates": _sampling,
    "offsets": _sampling,
    "input": _input,
    "tolerances": _tolerances,
    "x0": _x0,
}
#: the config key path each flag sets, and the type argparse reads its value as
FLAG_KEYS = {"--n": (("N",), int), "--seed": (("input", "seed"), int),
             "--noise": (("noise",), float),
             "--tol-structure": (("tolerances", "structure"), float),
             "--tol-tf": (("tolerances", "tf"), float)}


def model_in_domain(doc, path=()):
    """README's model file numbers: every one finite, but for Infinity in
    phases.sv_gap, which marks a phase without a gap."""
    if isinstance(doc, dict):
        return all(model_in_domain(v, path + (k,)) for k, v in doc.items())
    if isinstance(doc, list):
        return all(model_in_domain(v, path) for v in doc)
    return (not _number(doc) or math.isfinite(doc)
            or doc == math.inf and path == ("phases", "sv_gap"))


def outside_domain(target, doc, touched):
    """The keys of a config document, or "model", whose values after a
    case's edit lie outside README's domain; touched holds the config keys
    the edit set or deleted."""
    if target == "model":
        return [] if model_in_domain(doc) else ["model"]
    return sorted(key for key in touched if key in DOMAINS and not DOMAINS[key](doc))


def mutate_json(text, rng):
    """(text's JSON document with one or two random nodes, found by a walk
    from the root that stops early one time in four, set from POOL or
    deleted; the top-level keys under which it set or deleted one)."""
    doc, touched = json.loads(text), set()
    for _ in range(rng.choice((1, 2))):
        node, key, top = doc, None, None
        while isinstance(node, (dict, list)) and node and (key is None or rng.random() > 0.25):
            parent, key = node, rng.choice(list(node) if isinstance(node, dict)
                                           else range(len(node)))
            node, top = parent[key], key if top is None else top
        if key is None:
            continue
        touched.add(top)
        if rng.random() < 0.2:
            del parent[key]
        else:
            parent[key] = json.loads(json.dumps(rng.choice(POOL)))
    return json.dumps(doc), touched


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
    touched = None  # the config keys a JSON edit set or deleted
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
        elif target == "signals":
            text = mutate_csv(text, rng)
        else:
            text, touched = mutate_json(text, rng)
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
    if code in (0, 4):
        # a verdict only for values README documents as valid
        if target == "flag":
            (*parents, leaf), read = FLAG_KEYS[flag]
            doc = node = json.loads((work / FILES["config"]).read_text())
            for key in parents:
                node = node.setdefault(key, {})
            node[leaf] = read(extra[1])
            bad = outside_domain("config", doc, {(*parents, leaf)[0]})
        else:
            bad = [] if touched is None else outside_domain(target, json.loads(text), touched)
        assert not bad, (where, code, bad)
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
