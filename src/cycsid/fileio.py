"""Signal CSV and model/report/config JSON persistence.

Floats are written with 17 significant digits so that load(save(x)) is
bit-exact for finite doubles.  JSON parse failures surface as ParseError
with line/column; missing or inconsistent fields as SchemaError.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ParseError, SchemaError
from .multirate import MultirateSpec, build_masks
from .numerics import convert, integer, of_type, optional
from .statespace import SignalLog
from .subspace import IdentifiedModel

FLOAT_FMT = "{:.17g}"


def write_json(obj, path):
    """Write obj as indented JSON, making the parent directory when it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def read_json(path):
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", line=e.lineno, column=e.colno) from e


def matrix_to_lists(a):
    return [[float(x) for x in row] for row in np.atleast_2d(a)]


def require(mapping, field, path):
    """mapping[field]; a mapping that is not an object, or lacks field, is a SchemaError."""
    if not isinstance(mapping, dict):
        raise SchemaError(f"{path}: expected an object holding '{field}', "
                          f"got {type(mapping).__name__}")
    if field not in mapping:
        raise SchemaError(f"{path}: missing required field '{field}'")
    return mapping[field]


# ---------------------------------------------------------------- signals ---

def signals_header(m, l):
    """The signals CSV header k,u_1..u_m,y_1..y_l,obs_1..obs_l."""
    return (["k"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(l)]
            + [f"obs_{i+1}" for i in range(l)])


def save_signals(log, path):
    """CSV with the signals_header, one row per step, making the parent
    directory when it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(signals_header(log.u.shape[1], log.y.shape[1]))
        for k in range(log.N):
            row = ([str(k)]
                   + [FLOAT_FMT.format(v) for v in log.u[k]]
                   + [FLOAT_FMT.format(v) for v in log.y[k]]
                   + [str(int(v)) for v in log.obs[k]])
            w.writerow(row)


def load_signals(path):
    """Read a signals CSV back into a SignalLog (x0 is not stored: zeros)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file", line=1) from None
        # the u_ and y_ counts fix the one header the file may have
        names = [h.strip() for h in header]
        m = sum(1 for h in names if h.startswith("u_"))
        l = sum(1 for h in names if h.startswith("y_"))
        if m < 1 or l < 1:
            raise SchemaError(f"{path}: need at least one u_ and one y_ column")
        expect = signals_header(m, l)
        if names != expect:
            raise SchemaError(f"{path}: header must be {','.join(expect)}")
        us, ys, obs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(f"{path}: expected {len(names)} fields, got {len(row)}",
                                 line=lineno)
            if row[0].strip() != str(len(us)):
                raise ParseError(f"{path}: k must count 0, 1, 2, ... over the data rows: "
                                 f"expected {len(us)}, found '{row[0]}'", line=lineno, column=1)
            bad = next((i for i, v in enumerate(row) if not _is_finite(v)), None)
            if bad is not None:
                raise ParseError(f"{path}: field '{row[bad]}' is not a finite number",
                                 line=lineno, column=bad + 1)
            vals = [float(v) for v in row[1:]]
            us.append(vals[:m])
            ys.append(vals[m:m + l])
            obs.append(vals[m + l:])
    if not us:
        raise ParseError(f"{path}: no data rows", line=2)
    return SignalLog(u=np.array(us), y=np.array(ys),
                     x0=np.zeros(0), obs=np.array(obs))


def _is_finite(s):
    try:
        return math.isfinite(float(s))
    except ValueError:
        return False


# ----------------------------------------------------------------- models ---

@dataclass
class ModelFile:
    model: IdentifiedModel
    spec: MultirateSpec  # sampling the model was identified under
    provenance: dict


def save_model(model, path, spec, provenance=None):
    """Persist an IdentifiedModel with the rates and offsets of the
    MultirateSpec it was identified under and the data's seed and N (null
    when not given): the MODEL_KEYS, each written once."""
    write_json({
        "kind": "identified",
        "n": model.n, "m": model.m, "l": model.l, "M": model.M,
        "rates": list(spec.rates), "offsets": list(spec.offsets),
        "A": matrix_to_lists(model.A), "B": matrix_to_lists(model.B),
        "C": matrix_to_lists(model.C), "D": matrix_to_lists(model.D),
        "x0": [float(v) for v in model.x0],
        "block_rows": model.depth_evidence(),
        "phases": model.phase_evidence(),
        "provenance": {key: (provenance or {}).get(key) for key in RECORD_KEYS["provenance"]},
    }, path)


#: the keys a model file holds, and those of its depth, per-phase and provenance records
MODEL_KEYS = ("kind", "n", "m", "l", "M", "rates", "offsets", "A", "B", "C", "D", "x0",
              "block_rows", "phases", "provenance")
RECORD_KEYS = {"block_rows": ("used", "pattern", "shift_margin"),
               "phases": ("rank_margin", "sv_gap", "a_offpattern"),
               "provenance": ("seed", "N")}


def _exactly(doc, name, keys):
    """doc as an object holding exactly keys; anything else is a ValueError
    that names the key.  name is the record's key, or "model" for the file."""
    doc = convert(name, doc, of_type(dict), "an object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name} keys {unknown}; expected {sorted(keys)}")
    missing = [key if name == "model" else f"{name}.{key}" for key in keys if key not in doc]
    if missing:
        raise ValueError(f"missing required field '{missing[0]}'")
    return doc


def _numbers(value):
    """A list of numbers as floats; Infinity stands for a phase without a gap."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [float(v) for v in value]


def load_model(path):
    """Load a model file written by save_model: every one of MODEL_KEYS and
    of the RECORD_KEYS, and no other.  A missing, unknown or malformed field
    is a SchemaError that names it."""
    try:
        doc = _exactly(read_json(path), "model", MODEL_KEYS)
        if doc["kind"] != "identified":
            raise ValueError(f"unknown model kind '{doc['kind']}'")
        n, m, l, M = (convert(key, doc[key], integer, "an integer") for key in ("n", "m", "l", "M"))
        if min(n, m, l, M) < 1:
            raise ValueError("dimensions must be positive")
        # a bad rate or offset is a ValueError that names it; null offsets are
        # not the config default of zero offsets, but a malformed field
        spec = build_masks(doc["rates"], convert("offsets", doc["offsets"], of_type(list),
                                                 "a list of integers"))
        if (spec.l, spec.M) != (l, M):
            raise ValueError(f"declared l={l}, M={M} but rates {list(spec.rates)} give "
                             f"l={spec.l}, M={spec.M}")
        A, B, C, D, x0 = (convert(key, doc[key], lambda v: np.array(v, dtype=np.float64),
                                  "a list of numbers" if key == "x0" else "a matrix of numbers")
                          for key in ("A", "B", "C", "D", "x0"))
        depth, phases, provenance = (_exactly(doc[key], key, keys)
                                     for key, keys in RECORD_KEYS.items())
        used, pattern = (convert(f"block_rows.{key}", depth[key], integer, "an integer")
                         for key in ("used", "pattern"))
        rank_margins, gaps = (convert(f"phases.{key}", phases[key], _numbers, "a list of numbers")
                              for key in ("rank_margin", "sv_gap"))
        margin, a_off = (convert(f"{name}.{key}", record[key], float, "a number")
                         for name, record, key in (("block_rows", depth, "shift_margin"),
                                                   ("phases", phases, "a_offpattern")))
        provenance = {key: convert(f"provenance.{key}", value, optional(integer),
                                   "an integer or null") for key, value in provenance.items()}
        # IdentifiedModel checks every shape against the declared (n, m, l, M)
        model = IdentifiedModel(A=A, B=B, C=C, D=D, n=n, m=m, l=l, M=M, x0=x0,
                                block_rows=used, pattern_block_rows=pattern,
                                shift_margin=margin, phase_rank_margins=rank_margins,
                                phase_gaps=gaps, a_offpattern=a_off)
    except (ValueError, DimensionMismatchError) as e:
        raise SchemaError(f"{path}: {e}") from e
    return ModelFile(model, spec, provenance)
