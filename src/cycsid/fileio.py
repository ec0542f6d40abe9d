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

from .cyclic import StructureChecks
from .errors import ParseError, SchemaError
from .statespace import SignalLog
from .subspace import IdentifiedModel
from .transform import CYCLIC_FORM_CHECKS, CyclicModel

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
    kind: str  # "identified" or "cyclic"
    model: object
    rates: tuple
    provenance: dict


def save_model(model, path, rates, provenance=None):
    """Persist an IdentifiedModel or CyclicModel with dims and provenance."""
    provenance = provenance or {}
    if isinstance(model, IdentifiedModel):
        doc = {
            "kind": "identified",
            "n": model.n, "m": model.m, "l": model.l, "M": model.M,
            "order": model.order,
            "rates": list(int(r) for r in rates),
            "A": matrix_to_lists(model.A), "B": matrix_to_lists(model.B),
            "C": matrix_to_lists(model.C), "D": matrix_to_lists(model.D),
            "block_rows": model.depth_evidence(),
            "provenance": provenance,
        }
    elif isinstance(model, CyclicModel):
        doc = {
            "kind": "cyclic",
            "n": model.n, "m": model.m, "l": model.l, "M": model.M,
            "rates": list(int(r) for r in rates),
            "A_phases": [matrix_to_lists(X) for X in model.A_phases],
            "B_phases": [matrix_to_lists(X) for X in model.B_phases],
            "C_phases": [matrix_to_lists(X) for X in model.C_phases],
            "D_phases": [matrix_to_lists(X) for X in model.D_phases],
            "T": matrix_to_lists(model.T) if model.T is not None else None,
            "structure": model.structure.to_dict(),
            "provenance": provenance,
        }
    else:
        raise TypeError(f"cannot save model of type {type(model).__name__}")
    write_json(doc, path)


def load_model(path):
    """Load a model file; validates dims against the declared rates."""
    doc = read_json(path)
    kind = require(doc, "kind", path)
    n = int(require(doc, "n", path))
    m = int(require(doc, "m", path))
    l = int(require(doc, "l", path))
    M = int(require(doc, "M", path))
    if min(n, m, l, M) < 1:
        raise SchemaError(f"{path}: dimensions must be positive")
    rates = tuple(int(r) for r in require(doc, "rates", path))
    if len(rates) != l:
        raise SchemaError(f"{path}: {l} outputs declared but {len(rates)} rates")
    if math.lcm(*rates) != M:
        raise SchemaError(f"{path}: declared M={M} but lcm(rates)={math.lcm(*rates)}")
    provenance = doc.get("provenance", {})
    if kind == "identified":
        A = np.array(require(doc, "A", path), dtype=np.float64)
        B = np.array(require(doc, "B", path), dtype=np.float64)
        C = np.array(require(doc, "C", path), dtype=np.float64)
        D = np.array(require(doc, "D", path), dtype=np.float64)
        order = int(doc.get("order", M * n))
        if A.shape != (M * n, M * n) or order != M * n:
            raise SchemaError(
                f"{path}: A is {A.shape} but M*n = {M * n} from the declared rates"
            )
        # files written before the depth record was kept load without it
        depth = doc.get("block_rows", {})
        if not isinstance(depth, dict):
            raise SchemaError(f"{path}: 'block_rows' must hold used, pattern, shift_margin")
        model = IdentifiedModel(A=A, B=B, C=C, D=D, order=order, n=n, m=m, l=l, M=M,
                                x0=np.zeros(order), singular_values=np.zeros(0),
                                block_rows=int(depth.get("used", 0)),
                                pattern_block_rows=int(depth.get("pattern", 0)),
                                shift_margin=depth.get("shift_margin"))
    elif kind == "cyclic":
        shapes = {"A_phases": (n, n), "B_phases": (n, m),
                  "C_phases": (l, n), "D_phases": (l, m)}
        phases = {}
        for key, shape in shapes.items():
            raw = require(doc, key, path)
            if len(raw) != M:
                raise SchemaError(f"{path}: {key} must hold {M} blocks, found {len(raw)}")
            blocks = [np.array(x, dtype=np.float64) for x in raw]
            if any(b.shape != shape for b in blocks):
                raise SchemaError(f"{path}: {key} blocks must be {shape[0]}x{shape[1]}")
            phases[key] = blocks
        T = doc.get("T")
        T = np.array(T, dtype=np.float64) if T is not None else None
        if T is not None and T.shape != (M * n, M * n):
            raise SchemaError(f"{path}: T is {T.shape} but M*n = {M * n} from the declared rates")
        structure = require(doc, "structure", path)
        if not isinstance(structure, dict) or set(structure) != set(CYCLIC_FORM_CHECKS):
            raise SchemaError(f"{path}: 'structure' must hold {', '.join(CYCLIC_FORM_CHECKS)}")
        try:
            structure = StructureChecks.from_dict(structure)
        except TypeError as e:
            raise SchemaError(f"{path}: malformed 'structure' report: {e}") from e
        model = CyclicModel(A_phases=phases["A_phases"], B_phases=phases["B_phases"],
                            C_phases=phases["C_phases"], D_phases=phases["D_phases"],
                            T=T, structure=structure, n=n, m=m, l=l, M=M)
    else:
        raise SchemaError(f"{path}: unknown model kind '{kind}'")
    return ModelFile(kind=kind, model=model, rates=rates, provenance=provenance)
