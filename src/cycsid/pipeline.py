"""End-to-end identification runs: configuration, orchestration, reporting,
and the built-in benchmark studies.

A run collects (or loads) masked input/output data, cycles the signals and
identifies a model of order M*n, then hands it to `validate`, the one judge
of an identified model: it builds the coordinate transform from the model's
reachability data, applies it and checks the cyclic form once, extracts the
per-phase components and checks the recovered plant against the reference.
Every intermediate rank and margin is kept on the report because the
method's justification is a chain of rank/structure facts.
"""

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .cyclic import (
    cycle_signal,
    cyclic_reformulate,
    cycled_ranks,
    is_block_diagonal,
    is_cyclic_matrix,
    verify_markov_structure,
)
from .errors import (
    DATA_ERRORS,
    EXIT_OK,
    EXIT_STRUCTURE,
    KINDS,
    REFUSALS,
    AssumptionFailedError,
    DimensionMismatchError,
    DivergentModelError,
    DivergentPlantError,
    ParseError,
    SchemaError,
    StructureViolationError,
    kind,
)
from .fileio import load_signals, read_json
from .multirate import build_masks, check_observability_assumption, simulate_multirate
from .numerics import (
    blas_threads,
    check_budget,
    convert,
    exactly,
    finite,
    integer,
    number,
    numbers,
    of_type,
    optional,
    rank_with_tol,
)
from .statespace import StateSpace, make_state_space, markov, transfer_functions
from .subspace import markov_match, subspace_identify
from .transform import (
    aggregate_diagnostics,
    apply_transform,
    build_transform,
    build_X_check,
    build_Y_check,
    extract_components,
    model_transfer_check,
    verify_cyclic_form,
)

DEFAULT_TOLERANCES = {"markov": 1e-6, "structure": 1e-6, "tf": 1e-6}
DEFAULT_INPUT = {"kind": "uniform", "amplitude": 1.0, "seed": 12345}
#: identified Markov parameters H(0..12) are compared against the true system's
MARKOV_MATCH_DEPTH = 12


@dataclass
class ExperimentConfig:
    """Everything one identification run needs, serializable to JSON.

    The only home of config defaults, conversions and checks: config files,
    command-line overrides (via dataclasses.replace) and the built-in
    studies all build through this constructor, which raises ValueError on
    a bad value.  cfg.spec is the MultirateSpec of its rates and offsets.
    """

    plant: StateSpace
    rates: tuple
    input: dict = field(default_factory=dict)
    N: int = 3000
    tolerances: dict = field(default_factory=dict)
    noise: float = 0.0
    offsets: tuple | None = None
    x0: np.ndarray | None = None
    out_dir: str | None = None

    def __post_init__(self):
        # every conversion that fails is a ValueError naming its key
        self.input = convert("input", self.input, of_type(dict), "an object")
        self.out_dir = convert("out_dir", self.out_dir, optional(of_type(str)),
                               "a string or null")
        self.N = convert("N", self.N, integer, "an integer")
        self.noise = convert("noise", self.noise, number, "a number")
        if self.N <= 0:
            raise ValueError("N must be positive")
        if not self.noise >= 0:  # NaN too
            raise ValueError("noise must be nonnegative")
        if not np.isfinite(self.noise):
            raise ValueError(f"noise must be finite, got {self.noise}")
        if self.noise > 0 and set(self.input) == {"file"}:
            raise ValueError("noise applies to simulated data, not to a signals file")
        if set(self.input) != {"file"}:
            unknown = sorted(set(self.input) - set(DEFAULT_INPUT))
            if unknown:
                raise ValueError(f"unknown input keys {unknown}; expected 'file' alone, "
                                 "or any of 'kind', 'amplitude', 'seed'")
            self.input = {**DEFAULT_INPUT, **self.input}
            self.input["amplitude"] = convert("input.amplitude", self.input["amplitude"],
                                              number, "a number")
            if not np.isfinite(self.input["amplitude"]):
                raise ValueError(f"input.amplitude must be finite, got {self.input['amplitude']}")
            self.input["seed"] = convert("input.seed", self.input["seed"], optional(_seed),
                                         "a nonnegative integer or null")
            if self.input["kind"] != "uniform":
                raise ValueError(f"unsupported input kind '{self.input['kind']}'")
        if self.x0 is not None:
            if set(self.input) == {"file"}:
                raise ValueError("x0 applies to simulated data, not to a signals file")
            self.x0 = convert("x0", self.x0, lambda v: numbers(v).reshape(-1),
                              "a list of numbers")
            if self.x0.shape != (self.plant.n,):
                raise ValueError(f"x0 must have length {self.plant.n} (the plant order), "
                                 f"got {self.x0.size}")
            if not np.all(np.isfinite(self.x0)):
                raise ValueError("x0 must be finite")
        # the sampling pattern; a bad rate or offset is a ValueError naming it
        self.spec = build_masks(self.rates, self.offsets)
        self.rates, self.offsets = self.spec.rates, self.spec.offsets
        self.spec.check_outputs(self.plant)
        if set(self.input) != {"file"}:
            # u, the states, y and obs of the simulation, and the cycled u and y
            p = self.plant
            check_budget(f"simulated record of N = {self.N} samples",
                         (self.N, p.m + p.n + 2 * p.l + self.spec.M * (p.m + p.l)))
        given = convert("tolerances", self.tolerances, optional(of_type(dict)),
                        "an object or null") or {}
        tol = {**DEFAULT_TOLERANCES, **exactly(given, "tolerances", DEFAULT_TOLERANCES, ())}
        tol = {k: convert(f"tolerances.{k}", v, number, "a number") for k, v in tol.items()}
        if not all(v > 0 for v in tol.values()):  # NaN too
            raise ValueError("tolerances must be positive")
        for k, v in tol.items():
            if v == np.inf:  # a gate that nothing fails, and no JSON number
                raise ValueError(f"tolerances.{k} must be finite, got {v}")
        self.tolerances = tol


def _seed(value):
    """A seed is a nonnegative integer."""
    seed = integer(value)
    if seed < 0:
        raise ValueError(value)
    return seed


def load_config(path):
    """Build an ExperimentConfig from a JSON file whose keys are its fields.

    Every fault of the file is a config error, a ValueError that names the
    file: one that cannot be read, is not UTF-8 or not JSON, a missing,
    unknown or malformed key, and a malformed plant.
    """
    try:
        doc = exactly(read_json(path), "config", [f.name for f in fields(ExperimentConfig)],
                      ("plant", "rates"))
        plant_doc = exactly(doc["plant"], "plant", "ABCD", "ABCD")
        plant = make_state_space(*(convert(f"plant.{key}", plant_doc[key], numbers,
                                           "a matrix of numbers") for key in "ABCD"))
        return ExperimentConfig(**{**doc, "plant": plant})
    except ParseError as e:  # its message names the file
        raise ValueError(str(e)) from e
    except (ValueError, DimensionMismatchError) as e:
        raise ValueError(f"{path}: {e}") from e


@dataclass
class RunReport:
    """Loss-free record of one run: every rank, margin, and timing."""

    seed: int | None
    N: int
    rates: tuple
    M: int
    order: int
    conventions_tried: list
    observable_phases: list
    ranks: dict
    sv_gap: float
    block_rows: dict
    order_exposed: bool
    markov: dict
    markov_structure: dict
    true_structure: dict
    cyclic_form: dict
    aggregates: dict
    component_spread: dict
    tf_distances: list
    tf_passed: bool
    components: dict
    timings: dict
    #: per-phase rank margins, gaps and A's zeroed off-pattern size (phase_evidence)
    phases: dict

    def __post_init__(self):
        self.rates = tuple(self.rates)

    def failures(self):
        """Names of the checks this run failed, empty when it passed: each of
        the controllability, observability and transform ranks that misses
        the model order, then markov, markov_structure, cyclic_form and tf."""
        failed = [f"rank.{k}" for k in ("controllability", "observability", "transform")
                  if self.ranks[k] != self.ranks["expected"]]
        passed = {"markov": self.markov["passed"],
                  "markov_structure": self.markov_structure["passed"],
                  "cyclic_form": all(v["passed"] for v in self.cyclic_form.values()),
                  "tf": self.tf_passed}
        return failed + [name for name, ok in passed.items() if not ok]

    @property
    def exit_code(self):
        """The CLI exit code of the judged run: EXIT_STRUCTURE when a check failed."""
        return EXIT_STRUCTURE if self.failures() else EXIT_OK

    def to_dict(self):
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["rates"] = list(self.rates)
        return d

    @classmethod
    def from_dict(cls, d):
        """The report to_dict gave d; a missing or unknown key is a TypeError."""
        return cls(**d)


def generate_input(cfg):
    """Seeded uniform input samples for a run whose input is not a signals file."""
    rng = np.random.default_rng(cfg.input["seed"])
    return cfg.input["amplitude"] * rng.uniform(-1.0, 1.0, size=(cfg.N, cfg.plant.m))


def collect_data(cfg):
    """The SignalLog of one run: cfg's signals file, checked against cfg's
    plant size and sampling pattern, or else cfg's plant simulated under
    cfg.spec with cfg's seeded input and output noise."""
    if "file" in cfg.input:
        log = load_signals(cfg.input["file"])
        if log.u.shape[1] != cfg.plant.m or log.y.shape[1] != cfg.plant.l:
            raise SchemaError(
                f"{cfg.input['file']}: signals are ({log.u.shape[1]} in, {log.y.shape[1]} out) "
                f"but the plant is ({cfg.plant.m} in, {cfg.plant.l} out)")
        # a recording made under another sampling pattern is other data
        pattern = cfg.spec.pattern(log.N)
        bad = np.argwhere((log.obs != pattern) | ((log.obs == 0) & (log.y != 0)))
        if bad.size:
            k, i = bad[0]
            raise SchemaError(
                f"{cfg.input['file']}: step {k}, output {i + 1} has obs {log.obs[k, i]:g} and "
                f"y {log.y[k, i]:g}, but rates {list(cfg.spec.rates)}, offsets "
                f"{list(cfg.spec.offsets)} {'sample' if pattern[k, i] else 'skip'} it")
        return log
    u = generate_input(cfg)
    log = simulate_multirate(cfg.plant, cfg.spec, u, cfg.x0)
    if cfg.noise > 0.0:
        seed = cfg.input["seed"]
        noise_rng = np.random.default_rng(None if seed is None else seed + 1)
        log.y = log.y + cfg.noise * noise_rng.uniform(-1.0, 1.0, log.y.shape) * log.obs
    return log


def choose_transform(idm, tol):
    """Build the transform from idm's reachability data, apply it and check
    the cyclic form once, with the period read from idm.

    Returns (model, attempt): the CyclicModel, whose T is the transform, and
    build_transform's attempt record, to which a regular T adds applied,
    structure_passed and the cyclic-form margin max_offpattern.  Raises
    StructureViolationError, with that record as its attempt, when T is
    singular or the transformed model is not cyclic at tol.
    """
    T, attempt = build_transform(idm)
    if attempt["regular"]:
        transformed = apply_transform(idm, T)
        form = verify_cyclic_form(transformed, idm.M, tol)
        attempt.update(applied=True, structure_passed=form.passed,
                       max_offpattern=form.max_offpattern)
        if form.passed:
            return extract_components(transformed, idm.M, form, T=T), attempt
    raise StructureViolationError(
        f"the transform gives no regular matrix with cyclic structure: {attempt}",
        attempt=attempt)


def refusal(e):
    """The record a refused run leaves in place of a RunReport: the message,
    the kind (errors.kind) and the refused transform's attempt record, None
    when e holds none."""
    return {"error": str(e), "kind": kind(e), "attempt": getattr(e, "attempt", None)}


@contextmanager
def naming(path, errors):
    """Re-raise a refusal among errors inside as a SchemaError, a data
    refusal, that names path, the file that holds what is refused; with
    path None the refusal passes unchanged."""
    try:
        yield
    except errors as e:
        if path is None:
            raise
        raise SchemaError(f"{path}: {e}") from e


def observable_phases(cfg):
    """The phases whose masked output pair observes cfg's plant, sorted;
    raises AssumptionFailedError when there is none, and DivergentPlantError
    when the plant's matrices overflow the check."""
    with finite(DivergentPlantError, "the plant overflows its reference checks"):
        phases = sorted(check_observability_assumption(cfg.plant, cfg.spec))
    if not phases:
        raise AssumptionFailedError("no sampling phase gives an observable masked output pair")
    return phases


@blas_threads()
def run_identification(cfg):
    """Identify a model from cfg's data and validate it: (CyclicModel, RunReport).
    A data refusal of a signals file's record names the file."""
    t_all = time.perf_counter()
    t0 = time.perf_counter()
    log = collect_data(cfg)
    phases = observable_phases(cfg)
    uc = cycle_signal(log.u, cfg.spec.M)
    yc = cycle_signal(log.y, cfg.spec.M)
    t_data = time.perf_counter() - t0

    t0 = time.perf_counter()
    with naming(cfg.input.get("file"), DATA_ERRORS):
        idm = subspace_identify(uc, yc, cfg.plant.n)
    t_identify = time.perf_counter() - t0

    model, report = validate(idm, cfg, {"seed": cfg.input.get("seed"), "N": log.N,
                                        "observable_phases": phases})
    report.timings = {"data": t_data, "identify": t_identify, **report.timings,
                      "total": time.perf_counter() - t_all}
    return model, report


@blas_threads()
def validate(idm, cfg, provenance):
    """Judge idm against cfg's plant, sampling and tolerances: (CyclicModel,
    RunReport), timed from the reference stage to verify.  provenance holds
    the data's seed and N (None when not recorded) and observable_phases.
    Raises SchemaError, naming both sizes, when idm's period M or its
    per-phase l, n or m is not cfg's: such a model came from other data.
    Raises StructureViolationError when choose_transform refuses idm, and
    DivergentPlantError or DivergentModelError when the plant's or idm's
    matrices overflow the checks on them.
    """
    timings = {}
    plant, spec, tol = cfg.plant, cfg.spec, cfg.tolerances
    M = spec.M
    order = M * plant.n
    n, m, l = (size // idm.M for size in (idm.n, idm.m, idm.l))
    if (idm.M, l) != (M, plant.l):
        raise SchemaError(f"model (M, l) = ({idm.M}, {l}) != config (M, l) = ({M}, {plant.l})")
    if (n, m) != (plant.n, plant.m):
        raise SchemaError(f"model (n, m) = ({n}, {m}) != config plant "
                          f"(n, m) = ({plant.n}, {plant.m})")

    # True-system reference facts.
    t0 = time.perf_counter()
    with finite(DivergentPlantError, "the plant overflows its reference checks"):
        cs = cyclic_reformulate(plant, spec)
        rank_c, rank_o = cycled_ranks(cs)
        Xc = build_X_check(cs, M)
        Yc = build_Y_check(cs, M)
        rank_x, rank_y = rank_with_tol(Xc), rank_with_tol(Yc)
        true_structure = {
            "XB_cyclic": asdict(is_cyclic_matrix(Xc @ cs.B, M, 1e-12)),
            "CY_block_diagonal": asdict(is_block_diagonal(cs.C @ Yc, M, 1e-12)),
        }
        timings["reference"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        maxdepth = 2 * order
        H_true = markov(cs, MARKOV_MATCH_DEPTH + 1)
    with finite(DivergentModelError, "the model overflows its Markov parameters or transform"):
        H_id = markov(idm, max(MARKOV_MATCH_DEPTH, maxdepth) + 1)
        mk_passed, mk_worst, mk_idx = markov_match(H_true, H_id, MARKOV_MATCH_DEPTH, tol["markov"])
        markov_form = verify_markov_structure(H_id, M, tol["structure"], maxdepth=maxdepth)
        timings["markov"] = time.perf_counter() - t0

        t0 = time.perf_counter()
        model, attempt = choose_transform(idm, tol["structure"])
    model.source = idm
    aggr = aggregate_diagnostics(idm, model.T, tol["structure"])
    timings["transform"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    tf_passed, dists = model_transfer_check(model, plant, spec, tol["tf"])
    devA, devB = model.component_spread()
    timings["verify"] = time.perf_counter() - t0

    report = RunReport(
        seed=provenance.get("seed"),
        N=provenance.get("N"),
        rates=cfg.rates,
        M=M,
        order=order,
        conventions_tried=[attempt],
        observable_phases=provenance["observable_phases"],
        ranks={
            "controllability": rank_c,
            "observability": rank_o,
            "obs_aggregate": rank_x,
            "ctrl_aggregate": rank_y,
            "transform": attempt["rank"],
            "selector_aggregate": aggr["selector_aggregate_rank"],
            "expected": order,
        },
        sv_gap=idm.order_gap,
        block_rows=idm.depth_evidence(),
        order_exposed=idm.order_exposed,
        markov={"worst_error": mk_worst, "worst_index": mk_idx,
                "passed": mk_passed, "depth": MARKOV_MATCH_DEPTH, "tol": tol["markov"]},
        markov_structure={"passed": markov_form.passed,
                          "max_offpattern": markov_form.max_offpattern,
                          "maxdepth": maxdepth, "tol": tol["structure"]},
        true_structure=true_structure,
        cyclic_form=model.structure.to_dict(),
        aggregates={k: asdict(aggr[k]) for k in ("selector_aggregate_blockdiag",
                                                 "aggregate_dynamics_cyclic")},
        component_spread={"A": devA, "B": devB},
        tf_distances=[[float(d) for d in row] for row in dists],
        tf_passed=tf_passed,
        components={
            "A_phases": [X.tolist() for X in model.A_phases],
            "B_phases": [X.tolist() for X in model.B_phases],
            "C_phases": [X.tolist() for X in model.C_phases],
            "D_phases": [X.tolist() for X in model.D_phases],
        },
        timings=timings,
        phases=idm.phase_evidence(),
    )
    return model, report


# ------------------------------------------------------------ built-ins ----

def benchmark_plant():
    """Third-order two-output plant used by the built-in studies."""
    return make_state_space(
        [[0.0, 0.0, 0.8], [1.0, 0.0, 0.5], [0.0, 1.0, -0.4]],
        [[1.0], [0.0], [0.0]],
        [[1.0, 0.5, 0.3], [0.1, 0.3, 0.7]],
        [[0.0], [0.0]],
    )


def builtin_config(rates):
    """The benchmark plant sampled at rates, with every other field defaulted."""
    return ExperimentConfig(plant=benchmark_plant(), rates=rates)


#: (label, rates) of the built-in studies that `cycsid demo-paper` runs
DEMO_STUDIES = (("mixed rates (1,3)", (1, 3)), ("dual rate (2,3)", (2, 3)))


def poly_str(coeffs, var="z"):
    """Human-readable polynomial, descending degree, zero terms skipped."""
    deg = len(coeffs) - 1
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        p = deg - k
        mag = abs(c)
        if p == 0:
            term = f"{mag:.6g}"
        else:
            coef = "" if mag == 1 else f"{mag:.6g}"
            term = f"{coef}{var}" + (f"^{p}" if p > 1 else "")
        sign = "-" if c < 0 else ("+" if parts else "")
        parts.append(sign + term)
    return "".join(parts) if parts else "0"


def _fmt_matrix(X, indent="    "):
    # rounded to the printed digits, and + 0.0 turns -0.0 into 0.0, so
    # round-off prints as 0.000000 whatever its sign
    X = np.round(np.atleast_2d(X), 6) + 0.0
    rows = ["[" + "  ".join(f"{v: .6f}" for v in row) + "]" for row in X]
    return "\n".join(indent + r for r in rows)


def demo_paper(studies, printer=print):
    """Run (label, ExperimentConfig) studies and print a verification report
    that compares each recovered transfer function with its config's plant.

    Returns (status, reports): status is the worst CLI exit code over the
    studies, 0 when every check meets its threshold; reports maps each label
    to its RunReport, or to its refusal record when the study was refused.
    """
    status = EXIT_OK
    reports = {}
    for label, cfg in studies:
        printer(f"=== {label} ===")
        try:
            model, report = run_identification(cfg)
        except REFUSALS as e:
            reports[label] = refusal(e)
            code, prefix = KINDS[kind(e)]
            # a structure refusal's message names the check it failed
            why = e if code == EXIT_STRUCTURE else f"{prefix}: {e}"
            printer(f"study result: FAIL ({why})")
            printer("")
            status = max(status, code)
            continue
        reports[label] = report
        r = report.ranks
        printer(f"period M = {report.M}, model order = {report.order}")
        printer(f"ranks: controllability {r['controllability']}, observability "
                f"{r['observability']}, transform {r['transform']} (expected {r['expected']})")
        failed = report.failures()
        printer(f"identified/true Markov match: worst {report.markov['worst_error']:.3g} "
                f"at lag {report.markov['worst_index']} (depth {report.markov['depth']}) -> "
                f"{'FAIL' if 'markov' in failed else 'PASS'}")
        printer(f"shift-adjusted Markov structure: max off-pattern "
                f"{report.markov_structure['max_offpattern']:.3g} -> "
                f"{'FAIL' if 'markov_structure' in failed else 'PASS'}")
        printer(f"cyclic form after transform: max off-pattern "
                f"{max(v['max_offpattern'] for v in report.cyclic_form.values()):.3g} -> "
                f"{'FAIL' if 'cyclic_form' in failed else 'PASS'}")
        printer(f"component spread: A {report.component_spread['A']:.3g}, "
                f"B {report.component_spread['B']:.3g}")
        printer("extracted phase-0 dynamics:")
        printer(_fmt_matrix(model.A_phases[0]))
        ref_tfs = transfer_functions(cfg.plant)
        got_tfs = transfer_functions(model.recovered_plant(cfg.spec))
        for i in range(cfg.plant.l):
            ref = ref_tfs[i][0]
            printer(f"reference TF{i + 1}: ({poly_str(ref.num)}) / ({poly_str(ref.den)})")
            printer(f"recovered TF{i + 1}: ({poly_str(np.round(got_tfs[i][0].num, 10))}) "
                    f"/ ({poly_str(np.round(got_tfs[i][0].den, 10))})")
            printer(f"coefficient distance: {report.tf_distances[i][0]:.3g} -> "
                    f"{'PASS' if report.tf_distances[i][0] <= cfg.tolerances['tf'] else 'FAIL'}")
        printer(f"study result: {'FAIL (' + ', '.join(failed) + ')' if failed else 'PASS'}")
        printer("")
        status = max(status, report.exit_code)
    return status, reports
