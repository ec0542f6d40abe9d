"""Signal CSV and model/report/config JSON persistence.

Floats are written with 17 significant digits so that load(save(x)) is
bit-exact for finite doubles.  JSON parse failures surface as ParseError
with line/column; missing or inconsistent fields as SchemaError.
"""

import csv
import json
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
    if field not in mapping:
        raise SchemaError(f"{path}: missing required field '{field}'")
    return mapping[field]


# ---------------------------------------------------------------- signals ---

def save_signals(log, path):
    """CSV with header k,u_1..u_m,y_1..y_l,obs_1..obs_l, one row per step."""
    m = log.u.shape[1]
    l = log.y.shape[1]
    header = (["k"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(l)]
              + [f"obs_{i+1}" for i in range(l)])
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
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
        names = [h.strip() for h in header]
        if not names or names[0] != "k":
            raise SchemaError(f"{path}: first column must be 'k'")
        m = sum(1 for h in names if h.startswith("u_"))
        l = sum(1 for h in names if h.startswith("y_"))
        n_obs = sum(1 for h in names if h.startswith("obs_"))
        if m < 1 or l < 1:
            raise SchemaError(f"{path}: need at least one u_ and one y_ column")
        if n_obs != l:
            raise SchemaError(f"{path}: expected {l} obs_ columns, found {n_obs}")
        expect = (["k"] + [f"u_{i+1}" for i in range(m)] + [f"y_{i+1}" for i in range(l)]
                  + [f"obs_{i+1}" for i in range(l)])
        if names != expect:
            raise SchemaError(f"{path}: header must be {','.join(expect)}")
        us, ys, obs = [], [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise ParseError(f"{path}: expected {len(names)} fields, got {len(row)}",
                                 line=lineno)
            try:
                vals = [float(v) for v in row[1:]]
            except ValueError as e:
                bad = next(i for i, v in enumerate(row) if not _is_float(v))
                raise ParseError(f"{path}: non-numeric field '{row[bad]}'",
                                 line=lineno, column=bad + 1) from e
            us.append(vals[:m])
            ys.append(vals[m:m + l])
            obs.append(vals[m + l:])
    if not us:
        raise ParseError(f"{path}: no data rows", line=2)
    return SignalLog(u=np.array(us), y=np.array(ys),
                     x0=np.zeros(0), obs=np.array(obs))


def _is_float(s):
    try:
        float(s)
        return True
    except ValueError:
        return False


# ----------------------------------------------------------------- models ---

@dataclass
class ModelFile:
    model: IdentifiedModel
    spec: MultirateSpec  # sampling the model was identified under
    provenance: dict


def save_model(model, path, spec, provenance=None):
    """Persist an IdentifiedModel with dims, the rates and offsets of its
    MultirateSpec, and provenance."""
    write_json({
        "kind": "identified",
        "n": model.n, "m": model.m, "l": model.l, "M": model.M,
        "order": model.order,
        "rates": list(spec.rates), "offsets": list(spec.offsets),
        "A": matrix_to_lists(model.A), "B": matrix_to_lists(model.B),
        "C": matrix_to_lists(model.C), "D": matrix_to_lists(model.D),
        "block_rows": model.depth_evidence(),
        "sv_gap": model.order_gap, "order_exposed": model.order_exposed,
        "phases": model.phase_evidence(),
        "provenance": provenance or {},
    }, path)


#: the keys a model file may hold, and those of its depth and per-phase records
MODEL_KEYS = {"kind", "n", "m", "l", "M", "order", "rates", "offsets", "A", "B", "C", "D",
              "block_rows", "sv_gap", "order_exposed", "phases", "provenance"}
DEPTH_KEYS = {"used", "pattern", "shift_margin"}
PHASE_KEYS = {"rank_margin", "sv_gap", "a_offpattern"}


def _record(doc, key, known):
    """doc[key] as an object of known keys, {} when absent; anything else is a
    ValueError that names the key."""
    rec = doc.get(key, {})
    if not isinstance(rec, dict):
        raise ValueError(f"'{key}' must hold {', '.join(sorted(known))}")
    unknown = sorted(set(rec) - known)
    if unknown:
        raise ValueError(f"unknown {key} keys {unknown}; expected {sorted(known)}")
    return rec


def _numbers(value):
    """A list of numbers as floats; Infinity stands for a phase without a gap."""
    if not isinstance(value, list):
        raise TypeError(value)
    return [float(v) for v in value]


def load_model(path):
    """Load an identified model file; validates dims against the declared
    rates.  A missing or malformed field is a SchemaError that names it."""
    doc = read_json(path)
    kind = require(doc, "kind", path)
    if kind == "cyclic":
        raise SchemaError(f"{path}: cyclic model files are no longer read; verify the "
                          "model.json written beside it, whose cyclic form verify rebuilds")
    if kind != "identified":
        raise SchemaError(f"{path}: unknown model kind '{kind}'")
    unknown = sorted(set(doc) - MODEL_KEYS)
    if unknown:
        raise SchemaError(f"{path}: unknown model keys {unknown}; expected {sorted(MODEL_KEYS)}")
    try:
        n, m, l, M = (convert(key, require(doc, key, path), integer, "an integer")
                      for key in ("n", "m", "l", "M"))
        if min(n, m, l, M) < 1:
            raise ValueError("dimensions must be positive")
        # files written before offsets were kept read as zero offsets; a bad
        # rate or offset is a ValueError that names it
        spec = build_masks(require(doc, "rates", path), doc.get("offsets"))
        if spec.l != l:
            raise ValueError(f"{l} outputs declared but {spec.l} rates")
        if spec.M != M:
            raise ValueError(f"declared M={M} but lcm(rates)={spec.M}")
        A, B, C, D = (convert(key, require(doc, key, path),
                              lambda v: np.array(v, dtype=np.float64), "a matrix of numbers")
                      for key in ("A", "B", "C", "D"))
        order = convert("order", doc.get("order", M * n), integer, "an integer")
        if A.shape != (M * n, M * n) or order != M * n:
            raise ValueError(f"A is {A.shape} but M*n = {M * n} from the declared rates")
        for key, X, shape in (("B", B, (M * n, M * m)), ("C", C, (M * l, M * n)),
                              ("D", D, (M * l, M * m))):
            if X.shape != shape:
                raise ValueError(f"{key} is {X.shape} but the declared (n, m, l, M) "
                                 f"make it {shape}")
        # files written before the depth, SV-gap or per-phase records were
        # kept load them as 0 or None
        depth = _record(doc, "block_rows", DEPTH_KEYS)
        used, pattern = (convert(f"block_rows.{key}", depth.get(key, 0), integer, "an integer")
                         for key in ("used", "pattern"))
        margin, gap = (convert(key, value, optional(float), "a number or null")
                       for key, value in (("block_rows.shift_margin", depth.get("shift_margin")),
                                          ("sv_gap", doc.get("sv_gap"))))
        exposed = convert("order_exposed", doc.get("order_exposed"), optional(of_type(bool)),
                          "true, false or null")
        phases = _record(doc, "phases", PHASE_KEYS)
        rank_margins, gaps = (convert(f"phases.{key}", phases.get(key), optional(_numbers),
                                      "a list of numbers or null")
                              for key in ("rank_margin", "sv_gap"))
        for key, values in (("rank_margin", rank_margins), ("sv_gap", gaps)):
            if values is not None and len(values) != M:
                raise ValueError(f"phases.{key} has {len(values)} entries but M = {M}")
        a_off = convert("phases.a_offpattern", phases.get("a_offpattern"), optional(float),
                        "a number or null")
        provenance = convert("provenance", doc.get("provenance", {}), of_type(dict),
                             "an object")
        for key in ("seed", "N"):
            convert(f"provenance.{key}", provenance.get(key), optional(integer),
                    "an integer or null")
        model = IdentifiedModel(A=A, B=B, C=C, D=D, order=order, n=n, m=m, l=l, M=M,
                                x0=np.zeros(order), singular_values=np.zeros(0),
                                order_gap=gap, order_exposed=exposed,
                                block_rows=used, pattern_block_rows=pattern,
                                shift_margin=margin, phase_rank_margins=rank_margins,
                                phase_gaps=gaps, a_offpattern=a_off)
    except (ValueError, DimensionMismatchError) as e:
        raise SchemaError(f"{path}: {e}") from e
    return ModelFile(model, spec, provenance)
