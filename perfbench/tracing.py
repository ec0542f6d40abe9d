"""Per-layer spans placed from outside the program.

`Tracer.install()` replaces the public names one identification calls with
timing wrappers and `uninstall()` puts the originals back; nothing in
`cycsid` is edited.  `cycsid.pipeline` imports its collaborators by name, so
the bindings in `cycsid.pipeline` are the ones wrapped.  Inside
`subspace_identify` the block-Hankel function, the regressor kernel, the
rank check and the `numpy.linalg` calls it makes (`qr`, `svd`, `lstsq`) are
wrapped and attributed by their parent span.  Spans stay in memory until `dump()`.

Work counts are computed from the shapes of the arrays that cross the
wrapped boundaries (and from `IdentifiedModel.block_rows`), so they repeat
exactly and shrink when a later version hands smaller arrays across them.
"""

import inspect
import json
import time
from collections import defaultdict

import numpy as np

import cycsid.pipeline
import cycsid.subspace
import cycsid.transform

ROOT = "pipeline.run_identification"
IDENTIFY = "subspace.identify"
REFERENCE = "pipeline.reference"
#: layers that report the self time of the run and of `subspace_identify`
SELF_LAYER = {ROOT: "pipeline.self", IDENTIFY: "subspace.identify_self"}

#: (module, binding, span name, reference-only).  Reference-only spans do
#: validation work that needs the true plant; they are tagged so that a later
#: identify/validate split shows where the time went.
BINDINGS = [
    (cycsid.pipeline, "simulate_multirate", "multirate.simulate", False),
    (cycsid.pipeline, "cycle_signal", "cyclic.cycle", False),
    (cycsid.pipeline, "subspace_identify", IDENTIFY, False),
    (cycsid.subspace, "build_block_hankel", "subspace.hankel", False),
    (cycsid.subspace, "io_regressor", "kernels.io_regressor", False),
    (cycsid.subspace, "rank_with_tol", "numerics.rank", False),
    (cycsid.pipeline, "verify_markov_structure", "cyclic.markov_structure", False),
    (cycsid.pipeline, "build_transform", "transform.build", False),
    (cycsid.pipeline, "apply_transform", "transform.apply", False),
    (cycsid.transform, "invert", "numerics.invert", False),
    (cycsid.pipeline, "verify_cyclic_form", "transform.verify", False),
    (cycsid.pipeline, "extract_components", "transform.extract", False),
    (cycsid.pipeline, "aggregate_diagnostics", "transform.aggregate", False),
    (cycsid.pipeline, "markov", "statespace.markov", True),
    (cycsid.pipeline, "markov_match", "subspace.markov_match", True),
    (cycsid.pipeline, "model_transfer_check", "transform.tf_check", True),
] + [
    (cycsid.pipeline, fn, f"{REFERENCE}/{fn}", True)
    for fn in ("check_observability_assumption", "cyclic_reformulate", "cycled_ranks",
               "build_X_check", "build_Y_check", "is_cyclic_matrix", "is_block_diagonal",
               "rank_with_tol")
]

#: RunReport.timings stage -> spans (direct children of the run) covering it.
STAGES = {
    "data": ("multirate.simulate", "cyclic.cycle",
             f"{REFERENCE}/check_observability_assumption"),
    "reference": tuple(f"{REFERENCE}/{fn}" for fn in (
        "cyclic_reformulate", "cycled_ranks", "build_X_check", "build_Y_check",
        "is_cyclic_matrix", "is_block_diagonal")),
    "identify": (IDENTIFY,),
    "markov": ("statespace.markov", "subspace.markov_match", "cyclic.markov_structure"),
    "transform": ("transform.build", "transform.apply", "transform.verify",
                  "transform.extract", "transform.aggregate"),
    "verify": ("transform.tf_check",),
    "total": (ROOT,),
}


class Span:
    """One timed call; `ident` is its index in `Tracer.spans`."""

    __slots__ = ("run", "ident", "parent", "name", "reference", "start", "end",
                 "lstsq_calls")

    def __init__(self, run, ident, parent, name, reference):
        self.run = run
        self.ident = ident
        self.parent = parent
        self.name = name
        self.reference = reference
        self.lstsq_calls = 0


def _markov_structure_blocks(fn, args, kwargs):
    """Off-pattern blocks the shift-adjusted Markov check inspects: (D+1)^2
    pattern checks (diagonal for i+j <= D, cyclic for j >= 1), each over the
    M^2 - M blocks outside the pattern."""
    a = inspect.signature(fn).bind(*args, **kwargs).arguments
    depth = a.get("maxdepth")
    if depth is None:
        depth = len(a["H"]) - 1
    M = a["M"]
    return (depth + 1) ** 2 * M * (M - 1)


class Tracer:
    """Records spans of traced identifications; one `run` id per identification."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.runs = 0
        self._stack = []
        self._saved = []

    # -- span recording ------------------------------------------------------
    def _timed(self, name, reference, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(self.runs, len(self.spans), parent.ident if parent else None, name,
                    reference or (parent is not None and parent.reference))
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrapper(self, name, reference, fn):
        def traced(*args, **kwargs):
            if name == "cyclic.markov_structure":
                self.counts["cyclic.markov_structure_blocks"] += \
                    _markov_structure_blocks(fn, args, kwargs)
            out = self._timed(name, reference, fn, args, kwargs)
            if name == "kernels.io_regressor":
                self.counts["kernels.io_regressor_bytes"] += out.nbytes
            elif name == IDENTIFY:
                self.counts["subspace.block_rows"] += out.block_rows
            return out
        return traced

    def _linalg_wrapper(self, op, fn):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            if parent is None or parent.name != IDENTIFY:
                return fn(*args, **kwargs)
            if op == "qr":
                name = "subspace.lq"
                self.counts["subspace.lq_bytes"] += np.asarray(args[0]).nbytes
            elif op == "svd":
                name = "subspace.svd"
            else:
                # the first least squares is the shift-invariance A/C fit, the
                # rest fit B, D and x0 from the input-output equation
                parent.lstsq_calls += 1
                if parent.lstsq_calls == 1:
                    name = "subspace.ac_fit"
                else:
                    name = "subspace.bdx0_fit"
                    rows, cols = np.shape(args[0])
                    self.counts["subspace.bdx0_fit_rows"] += rows
                    self.counts["subspace.bdx0_fit_cols"] += cols
            return self._timed(name, False, fn, args, kwargs)
        return traced

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self):
        for owner, attr, name, reference in BINDINGS:
            self._patch(owner, attr, self._wrapper(name, reference, getattr(owner, attr)))
        for op in ("qr", "svd", "lstsq"):
            self._patch(np.linalg, op, self._linalg_wrapper(op, getattr(np.linalg, op)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def identify(self, cfg):
        """`cycsid.run_identification(cfg)` under a root span."""
        self.runs += 1
        return self._timed(ROOT, False, cycsid.pipeline.run_identification, (cfg,), {})

    # -- aggregation -----------------------------------------------------------
    def self_times(self):
        """Self time per span: its duration minus its children's durations."""
        child = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return [s.end - s.start - child[s.ident] for s in self.spans]

    def layer_seconds(self):
        """Self seconds per layer, summed over all traced runs.  The
        reference-stage bindings share the layer `pipeline.reference`."""
        out = defaultdict(float)
        for s, t in zip(self.spans, self.self_times()):
            out[SELF_LAYER.get(s.name) or s.name.split("/")[0]] += t
        return out

    def reference_seconds(self):
        """Inclusive seconds of reference-only work, summed over traced runs."""
        return sum(s.end - s.start for s in self.spans if s.reference
                   and not (s.parent is not None and self.spans[s.parent].reference))

    def stage_seconds(self):
        """Trace time per RunReport.timings stage, summed over traced runs."""
        roots = {s.ident for s in self.spans if s.name == ROOT}
        out = dict.fromkeys(STAGES, 0.0)
        for s in self.spans:
            for stage, names in STAGES.items():
                if s.name in names and (s.name == ROOT or s.parent in roots):
                    out[stage] += s.end - s.start
        return out

    def dump(self, path):
        """Write every span (times relative to the first one) as JSON."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            json.dump([{"run": s.run, "id": s.ident, "parent": s.parent, "name": s.name,
                        "reference": s.reference, "start": s.start - t0,
                        "end": s.end - t0} for s in self.spans], f)
