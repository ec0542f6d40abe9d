"""The CLI's pinned refusals, one row each.

A row is a command line over README's walk-through files, after at most one
edit of one of them: the "Config format" example as cfg.json, and the
run/signals.csv and run/model.json that the walk-through's simulate and
identify lines write.  The command must exit with the row's code, print the
row's stderr line and, unless the row says otherwise, nothing on stdout,
and leave none of the row's outputs behind.  Run every command in a fresh
copy of the files; {config}, {signals} and {model} in a row stand for their
paths there.

tests/test_refusals.py runs every row through cycsid.cli.main in-process,
and CI through the installed `cycsid`, with `check`.  This module needs
only the standard library, so it imports without pytest or the package.
"""

import json
import shlex
import shutil
import subprocess
from dataclasses import dataclass
from pathlib import Path

#: the walk-through's files, relative to the directory a command runs in
FILES = {"config": "cfg.json", "signals": "run/signals.csv", "model": "run/model.json"}


@dataclass(frozen=True)
class Row:
    id: str
    argv: str  # after `cycsid`
    code: int
    err: str  # stderr's one line; "" for no stderr at all
    edit: tuple = ()  # (a key of FILES, the change that _edit makes)
    usage: bool = False  # argparse's usage text comes before err
    stdout: str | None = ""  # None: not checked
    absent: tuple = ("out",)  # paths that must not exist after the command


SIMULATE = "simulate --config {config} --out out"
IDENTIFY = "identify --config {config} --out out"
ON_FILE = IDENTIFY + " --signals {signals}"
VERIFY = "verify --model {model} --config {config} --out out"
DEMO = "demo-paper --out out"

PAPER = {"A": [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.4]], "B": [[1.0], [0.0], [0.0]],
         "C": [[1.0, 0.5, 0.3], [0.1, 0.3, 0.7]], "D": [[0.0], [0.0]]}
#: the paper plant with a second input, and a second-order plant
RESIZED_PAPER_PLANTS = {
    "m2": {**PAPER, "B": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], "D": [[0.0, 0.0], [0.0, 0.0]]},
    "n2": {"A": [[0.0, 0.8], [1.0, 0.5]], "B": [[1.0], [0.0]], "C": [[1.0, 0.5], [0.1, 0.3]],
           "D": [[0.0], [0.0]]},
}
ONE_OUTPUT = {"A": [[0.5]], "B": [[1.0]], "C": [[1.0]], "D": [[0.0]]}
BINARY = b"k,u_1,y_1,y_2,obs_1,obs_2\r\n0,1\xff,0,0,1,1\r\n"
DECODE = "'utf-8' codec can't decode byte 0xff in position 30: invalid start byte"
MISSING = "[Errno 2] No such file or directory: '{}'"
NOT_JSON = "Expecting property name enclosed in double quotes (line 1, column 2)"
TABLE = ("the sampling table of period 10000100000, shape (10000100000, 2), would take "
         "149 GiB, over the 2 GiB memory budget")
#: a flag value the config constructor refuses, and its message
BAD_FLAGS = {
    "tol-tf": ("--tol-tf -1", "tolerances must be positive"),
    "tol-tf-inf": ("--tol-tf inf", "tolerances.tf must be finite, got inf"),
    "n": ("--n 0", "N must be positive"),
    "noise": ("--noise -0.5", "noise must be nonnegative"),
    "noise-inf": ("--noise inf", "noise must be finite, got inf"),
    "seed": ("--seed -3", "input.seed must be a nonnegative integer or null, got -3"),
}


def _silent(text):
    """A signals CSV text with every output field 0."""
    header, *rows = (line.split(",") for line in text.splitlines())
    ys = {i for i, name in enumerate(header) if name.startswith("y_")}
    rows = [["0" if i in ys else f for i, f in enumerate(fields)] for fields in rows]
    return "".join(",".join(fields) + "\n" for fields in [header, *rows])


ROWS = [
    # a config file that cannot be read, or holds a bad key or plant: exit 2
    Row("config-missing", IDENTIFY, 2, "config error: " + MISSING.format("{config}"),
        ("config", None)),
    Row("config-missing-verify", VERIFY, 2, "config error: " + MISSING.format("{config}"),
        ("config", None)),
    Row("config-not-json", SIMULATE, 2, f"config error: {{config}}: {NOT_JSON}",
        ("config", "{not json")),
    Row("config-not-json-verify", VERIFY, 2, f"config error: {{config}}: {NOT_JSON}",
        ("config", "{not json")),
    Row("config-brace", IDENTIFY, 2, f"config error: {{config}}: {NOT_JSON}", ("config", "{")),
    Row("config-not-utf8", IDENTIFY, 2, f"config error: {{config}}: {DECODE}", ("config", BINARY)),
    Row("config-unknown-key", IDENTIFY, 2,
        "config error: {config}: unknown config keys ['tolerence']; expected ['N', 'input', "
        "'noise', 'offsets', 'out_dir', 'plant', 'rates', 'tolerances', 'x0']",
        ("config", {"tolerence": 1e-6})),
    *(Row(f"plant-not-square-{command}", argv, 2,
          "config error: {config}: A must be square, got (1, 2)",
          ("config", {"plant": {**ONE_OUTPUT, "A": [[0.5, 0.1]]}, "rates": [1]}))
      for command, argv in (("simulate", SIMULATE), ("identify", IDENTIFY))),
    Row("plant-unknown-key", IDENTIFY, 2,
        "config error: {config}: unknown plant keys ['E']; expected ['A', 'B', 'C', 'D']",
        ("config", {"plant.E": [[0.0]]})),
    # the plant's state or its reference checks overflow, with no warning
    *(Row(f"plant-huge-{command}", argv, 2,
          "config error: the plant overflows its reference checks (overflow encountered in "
          "matmul)", ("config", {"plant.C.1.1": 1e308}))
      for command, argv in (("verify", VERIFY), ("identify-on-file", ON_FILE))),
    *(Row(f"plant-unstable-{command}", argv, 2,
          "config error: the plant's A (spectral radius 1.5) overflows the simulation over "
          "N = 3000 samples",
          ("config", {"plant": {**ONE_OUTPUT, "A": [[1.5]]}, "rates": [1], "offsets": [0]}))
      for command, argv in (("simulate", SIMULATE), ("identify", IDENTIFY))),
    # an array over the memory budget is refused before it is made
    Row("period-too-long", SIMULATE, 2, f"config error: {{config}}: {TABLE}",
        ("config", {"rates": [100000, 100001]})),
    Row("operand-over-budget", IDENTIFY, 2,
        "config error: the B/D/x0 regressor, shape (360000, 4590), would take 12.3 GiB, over "
        "the 2 GiB memory budget", ("config", {"rates": [5, 6], "N": 6000})),
    # a flag value the config refuses, or a flag the subcommand does not take
    *(Row(f"flag-{name}-{command}", f"{argv} {flag}", 2, f"config error: {message}")
      for name, (flag, message) in BAD_FLAGS.items()
      for command, argv in (("simulate", SIMULATE), ("identify", IDENTIFY), ("demo", DEMO))
      if not (command == "simulate" and flag.startswith("--tol"))),
    *(Row(f"flag-{name}-simulate", f"{SIMULATE} {flag}", 2,
          f"cycsid: error: unrecognized arguments: {flag}", usage=True)
      for name, (flag, _) in BAD_FLAGS.items() if flag.startswith("--tol")),
    Row("seed-on-a-config-signals-file", IDENTIFY + " --seed 5", 2,
        "config error: --seed does not apply to a signals file, which holds its own input and "
        "length", ("config", {"input": {"file": FILES["signals"]}})),
    # a signals file that cannot be read, or does not fit the config: exit 3
    Row("signals-missing", ON_FILE, 3, "data error: " + MISSING.format("{signals}"),
        ("signals", None)),
    Row("signals-not-utf8", ON_FILE, 3, f"data error: {{signals}}: {DECODE}",
        ("signals", BINARY)),
    Row("signals-without-obs", ON_FILE, 3,
        "data error: {signals}: header must be k,u_1,y_1,y_2,obs_1,obs_2",
        ("signals", "k,u_1,y_1,y_2\n0,1,2,3\n")),
    Row("signals-nan-field", ON_FILE, 3,
        "data error: {signals}: field 'nan' is not a finite number (line 5, column 3)",
        ("signals", {"4.2": "nan"})),  # counted from 0
    Row("signals-of-another-plant-size", ON_FILE, 3,
        "data error: signals are (1 in, 2 out) but the plant is (1 in, 1 out)",
        ("config", {"plant": ONE_OUTPUT, "rates": [1], "offsets": [0]})),
    # no advice on a depth the user never set
    Row("signals-without-output-samples", ON_FILE, 3,
        "data error: no output sample of the 3000-sample record is nonzero: the data carry no "
        "output",
        ("signals", _silent)),
    Row("too-few-samples", IDENTIFY, 3,
        "data error: need at least 342 samples for block_rows=9, got 50", ("config", {"N": 50})),
    Row("too-few-samples-flag", IDENTIFY + " --n 50", 3,
        "data error: need at least 342 samples for block_rows=9, got 50"),
    # a model file that cannot be read, or is not a model of the config's plant: exit 3
    Row("model-missing", VERIFY, 3, "data error: " + MISSING.format("{model}"), ("model", None)),
    Row("model-not-utf8", VERIFY, 3, f"data error: {{model}}: {DECODE}", ("model", BINARY)),
    # a NaN would be written back into verify_report.json, which is then not JSON
    Row("model-nan", VERIFY, 3, "data error: {model}: phases.sv_gap contains NaN",
        ("model", {"phases.sv_gap.0": float("nan")})),
    Row("model-period-too-long", VERIFY, 3, f"data error: {{model}}: {TABLE}",
        ("model", {"rates": [100000, 100001]})),
    *(Row(f"model-of-plant-{size}", VERIFY, 3,
          f"data error: model (n, m) = (3, 1) != config plant (n, m) = ({len(plant['A'])}, "
          f"{len(plant['B'][0])})", ("config", {"plant": plant}))
      for size, plant in RESIZED_PAPER_PLANTS.items()),
    # entries so large that the model's Markov parameters overflow
    *(Row(f"model-huge-{key}", VERIFY, 3,
          "data error: {model}: the model overflows its Markov parameters or transform "
          "(overflow encountered in matmul)", ("model", {f"{key}.{i}.{i}": value}))
      for key, i, value in (("A", 15, 1e30), ("B", 0, 1e308))),
    # an assumption of the method fails: exit 4, and report.json records the refusal
    Row("unobservable-plant", IDENTIFY, 4,
        "verification failure: no sampling phase gives an observable masked output pair",
        ("config", {"plant": {"A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0], [1.0]],
                              "C": [[0.0, 0.0]], "D": [[0.0]]},
                    "rates": [2], "offsets": [0], "N": 600}), absent=("out/model.json",)),
    # a refused study is printed on stdout and recorded in demo_report.json
    Row("demo-heavy-noise", DEMO + " --n 1500 --noise 0.05", 4, "", stdout=None, absent=()),
]


def _edit(path, change):
    """Make one change to the file at path: None deletes it, text or bytes
    replace it, a function of its text rewrites it, and a dict sets the
    values its keys name, dotted as in "phases.sv_gap.0" in a JSON file and
    as row.column, counted from 0, in a CSV file."""
    if change is None:
        path.unlink()
    elif isinstance(change, bytes):
        path.write_bytes(change)
    elif isinstance(change, str):
        path.write_text(change)
    elif callable(change):
        path.write_text(change(path.read_text()))
    else:
        text, csv = path.read_text(), path.suffix == ".csv"
        doc = [line.split(",") for line in text.splitlines()] if csv else json.loads(text)
        for key, value in change.items():
            *outer, last = (int(k) if k.isdigit() else k for k in key.split("."))
            node = doc
            for k in outer:
                node = node[k]
            node[last] = value
        path.write_text("".join(",".join(row) + "\n" for row in doc) if csv else json.dumps(doc))


def copy_files(base, work):
    """Copy the walk-through files in the directory base to work, returned as a Path."""
    work = Path(work)
    for name in FILES.values():
        (work / name).parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(Path(base) / name, work / name)
    return work


def check(row, base, cycsid, work):
    """Run row in work, an empty directory, over copies of the walk-through
    files in base, through cycsid(argv, cwd) -> (exit code, stdout, stderr).
    Raises AssertionError, naming the row, when the run is not the row's."""
    work = copy_files(base, work)
    if row.edit:
        _edit(work / FILES[row.edit[0]], row.edit[1])
    code, out, err = cycsid([arg.format(**FILES) for arg in shlex.split(row.argv)], work)
    want = row.err.format(**FILES) + "\n" if row.err else ""
    matched = err.startswith("usage: cycsid") and err.endswith(want) if row.usage else err == want
    quiet = row.stdout is None or out == row.stdout
    left = [path for path in row.absent if (work / path).exists()]
    if (code, matched, quiet, left) != (row.code, True, True, []):
        raise AssertionError(f"{row.id}: exit {code}, stdout {out!r}, stderr {err!r}, left {left}")


def installed(argv, cwd):
    """The installed `cycsid` run on argv in cwd: (exit code, stdout, stderr)."""
    run = subprocess.run(["cycsid", *argv], cwd=cwd, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr
