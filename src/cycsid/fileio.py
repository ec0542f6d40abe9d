"""Signal CSV and model/report/config JSON persistence.

Floats are written with 17 significant digits so that load(save(x)) is
bit-exact for finite doubles.  Files are read as UTF-8, with or without a
leading byte-order mark.  A file that cannot be opened or is not UTF-8
text, and JSON parse failures, surface as ParseError naming the file (JSON
ones with line/column); missing or inconsistent fields as SchemaError.
"""

import csv
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatchError, ParseError, SchemaError
from .multirate import MultirateSpec, build_masks
from .numerics import convert, exactly, integer, number, numbers, of_type, optional
from .statespace import SignalLog
from .subspace import IdentifiedModel


def write_json(obj, path):
    """Write obj as indented JSON, making the parent directory when it is
    missing; an object JSON has no type for, such as a RunReport, is written
    as its to_dict()."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(json.dumps(obj, indent=2, default=lambda o: o.to_dict()) + "\n")


@contextmanager
def _reading(path, newline=None):
    """path opened as UTF-8 text, a leading byte-order mark dropped; a file
    that cannot be opened or decoded is a ParseError naming it (an OSError's
    message already does)."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except OSError as e:
        raise ParseError(str(e)) from e
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: {e}") from e


def read_json(path):
    with _reading(path) as fh:
        text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: {e.msg}", line=e.lineno, column=e.colno) from e


# ---------------------------------------------------------------- signals ---

def signals_header(m, l):
    """The signals CSV header k,u_1..u_m,y_1..y_l,obs_1..obs_l."""
    return (["k"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(l)]
            + [f"obs_{i+1}" for i in range(l)])


def save_signals(log, path):
    """CSV with the signals_header and one row per step: k, then u and y with
    17 significant digits, then obs as 0/1, each line ended by CRLF.  The
    parent directory is made when it is missing."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    m, l = log.u.shape[1], log.y.shape[1]
    with open(path, "w", newline="") as fh:
        np.savetxt(fh, np.column_stack([np.arange(log.N), log.u, log.y, log.obs]),
                   fmt=["%d"] + ["%.17g"] * (m + l) + ["%d"] * l, delimiter=",",
                   newline="\r\n", header=",".join(signals_header(m, l)), comments="")


def load_signals(path):
    """Read a signals CSV back into a SignalLog; blank lines are skipped."""
    with _reading(path, newline="") as fh:
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
            try:  # each field is parsed once; a refused row is searched again for its column
                vals = [float(v) for v in row[1:]]
                finite = all(map(math.isfinite, vals))
            except ValueError:
                finite = False
            if not finite:
                bad = next(i for i, v in enumerate(row) if not _is_finite(v))
                raise ParseError(f"{path}: field '{row[bad]}' is not a finite number",
                                 line=lineno, column=bad + 1)
            us.append(vals[:m])
            ys.append(vals[m:m + l])
            obs.append(vals[m + l:])
    if not us:
        raise ParseError(f"{path}: no data rows", line=2)
    return SignalLog(u=np.array(us), y=np.array(ys), obs=np.array(obs))


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
    when not given): the MODEL_KEYS, each written once, with the per-phase
    sizes n, m and l, the model's own sizes over M."""
    write_json({
        "kind": "identified",
        "n": model.n // model.M, "m": model.m // model.M, "l": model.l // model.M,
        "M": model.M,
        "rates": list(spec.rates), "offsets": list(spec.offsets),
        "A": model.A.tolist(), "B": model.B.tolist(), "C": model.C.tolist(),
        "D": model.D.tolist(), "x0": model.x0.tolist(),
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


def _numbers(value):
    """A list of numbers as floats."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [number(v) for v in value]


def load_model(path):
    """Load a model file written by save_model: every one of MODEL_KEYS and
    of the RECORD_KEYS, and no other.  A missing, unknown or malformed field
    is a SchemaError that names it; so is a NaN anywhere, and an infinite
    entry anywhere but sv_gap, where Infinity marks a phase without a gap."""
    try:
        doc = exactly(read_json(path), "model", MODEL_KEYS, MODEL_KEYS)
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
        A, B, C, D = (convert(key, doc[key], numbers, "a matrix of numbers") for key in "ABCD")
        x0 = convert("x0", doc["x0"], _numbers, "a list of numbers")
        depth, phases, provenance = (exactly(doc[key], key, keys, keys)
                                     for key, keys in RECORD_KEYS.items())
        used, pattern = (convert(f"block_rows.{key}", depth[key], integer, "an integer")
                         for key in ("used", "pattern"))
        rank_margins, gaps = (convert(f"phases.{key}", phases[key], _numbers, "a list of numbers")
                              for key in ("rank_margin", "sv_gap"))
        margin, a_off = (convert(f"{name}.{key}", record[key], number, "a number")
                         for name, record, key in (("block_rows", depth, "shift_margin"),
                                                   ("phases", phases, "a_offpattern")))
        for key, value in (("block_rows.shift_margin", margin),
                           ("phases.rank_margin", rank_margins), ("phases.a_offpattern", a_off)):
            if not np.all(np.isfinite(value)):
                raise ValueError(f"{key} contains non-finite entries")
        # Infinity in sv_gap marks a phase without a gap
        if np.isnan(gaps).any():
            raise ValueError("phases.sv_gap contains NaN")
        provenance = {key: convert(f"provenance.{key}", value, optional(integer),
                                   "an integer or null") for key, value in provenance.items()}
        # IdentifiedModel refuses a non-finite entry in A, B, C, D or x0, a
        # matrix that does not fit the others, and a phase list not M long
        model = IdentifiedModel(A=A, B=B, C=C, D=D, M=M, x0=x0,
                                block_rows=used, pattern_block_rows=pattern,
                                shift_margin=margin, phase_rank_margins=rank_margins,
                                phase_gaps=gaps, a_offpattern=a_off)
        if (model.n, model.m, model.l) != (M * n, M * m, M * l):
            raise ValueError(f"the model's matrices make (n, m, l) = ({model.n // M}, "
                             f"{model.m // M}, {model.l // M}) per phase but the file "
                             f"declares ({n}, {m}, {l})")
    except (ValueError, DimensionMismatchError) as e:
        raise SchemaError(f"{path}: {e}") from e
    return ModelFile(model, spec, provenance)
