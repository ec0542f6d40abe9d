"""One fresh benchmark process; `run.py` starts it and reads its last stdout line.

    python3 perfbench/worker.py --mode MODE --workload NAME --seed N --seconds T

Modes:
  setup  time `import cycsid` and exit.
  run    time the import and the first (cold) identification, then identify
         the workload's cases in a closed loop (one call after another) for
         at least T seconds, untraced.
  trace  as run up to the cold call, then alternate untraced and traced
         units (one call, or one pass for whole-pass workloads) for at
         least T seconds, and aggregate the spans per layer.

Every identification is checked (workloads.check); a call that raises or
fails a check is counted, never fatal.
"""

import argparse
import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: warm samples a run takes even when one identification outlasts T
MIN_WARM = 2
#: a loop stops at the next unit boundary after this many times T, whatever
#: its minimums
HARD_CAP = 6
#: repetitions of the host-speed probe each fresh process times at its end
PROBE_REPS = 3


class Tally:
    """Identifications attempted, failed (with the first reasons) and worst TF error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.tf_err_max = 0.0

    def add(self, failed, err=None):
        self.attempted += 1
        if failed:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(failed)
        if err is not None:
            self.tf_err_max = max(self.tf_err_max, err)

    def as_dict(self):
        return {"attempted": self.attempted, "failed": self.failed,
                "reasons": self.reasons, "tf_err_max": self.tf_err_max}


def identify(case, call, tally):
    """(seconds, report or None) for one checked identification."""
    import workloads

    t0 = time.perf_counter()
    try:
        model, report = call(case.cfg)
    except Exception as e:  # counted as a failed identification
        tally.add([f"raised {type(e).__name__}: {e}"])
        return time.perf_counter() - t0, None
    dt = time.perf_counter() - t0
    try:
        failed, err = workloads.check(case, model, report)
    except Exception as e:  # a result the check cannot read is wrong too
        failed, err = [f"check raised {type(e).__name__}: {e}"], None
    tally.add(failed, err)
    return dt, (None if failed else report)


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, else the environment's setting."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS")


def host_probe_s():
    """Seconds per repetition of a fixed computation that does not use cycsid:
    a Python loop of small matrix products and one QR, the two kinds of work
    an identification does.  Its time follows the host's speed, which drifts
    by tens of percent over minutes on a shared machine."""
    import numpy as np

    rng = np.random.default_rng(0)
    X = rng.standard_normal((3000, 300))
    A = 0.1 * rng.standard_normal((18, 18))
    C = rng.standard_normal((12, 18))
    out = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        P = np.eye(18)
        for _ in range(1500):
            C @ P
            P = A @ P
        np.linalg.qr(X, mode="r")
        out.append(time.perf_counter() - t0)
    return out


def environment():
    """What a result depends on besides the code: compare only like with like."""
    import numpy as np

    import cycsid.kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "has_numba": cycsid.kernels.HAS_NUMBA,
    }


def warm_run(wl, cases, seconds, tally):
    """Closed loop of untraced identifications for at least `seconds`."""
    import cycsid

    durations, samples = [], 0
    t0 = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t0
        at_boundary = not (wl.whole_passes and i % len(cases))
        if at_boundary and (elapsed > HARD_CAP * seconds
                            or (elapsed >= seconds and len(durations) >= MIN_WARM)):
            break
        case = cases[i % len(cases)]
        dt, report = identify(case, cycsid.run_identification, tally)
        if report is not None:
            durations.append(dt)
            samples += case.cfg.N
        i += 1
    return {"durations": durations, "samples": samples}


def traced_run(wl, cases, seconds, tally, spans_path):
    """Alternate untraced and traced units; per-layer sums over the traced ones."""
    import cycsid
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    timings = {}
    conventions = [0, 0]
    t0 = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds and k >= 2 and k % 2 == 0:
            break
        unit = cases if wl.whole_passes else [cases[(k // 2) % len(cases)]]
        on = k % 2 == 1
        if on:
            tracer.install()
        try:
            for case in unit:
                dt, report = identify(case, tracer.identify if on else cycsid.run_identification,
                                      tally)
                if report is None:
                    continue
                if not on:
                    untraced.append(dt)
                    continue
                traced.append(dt)
                for stage, t in report.timings.items():
                    timings[stage] = timings.get(stage, 0.0) + t
                conventions[0] += len(report.conventions_tried)
                conventions[1] += sum(1 for c in report.conventions_tried
                                      if c.get("structure_passed"))
        finally:
            tracer.uninstall()
        k += 1
    tracer.dump(spans_path)
    return {
        "untraced": untraced,
        "traced": traced,
        "runs": tracer.runs,
        "layers": dict(tracer.layer_seconds()),
        "reference_only_s": tracer.reference_seconds(),
        "stages_trace": tracer.stage_seconds(),
        "stages_report": timings,
        "counts": dict(tracer.counts),
        "conventions": conventions,
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans", help="where trace mode writes its spans (JSON)")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    import cycsid
    setup_s = time.perf_counter() - t0

    if not Path(cycsid.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"cycsid was imported from {cycsid.__file__}, not from {SRC}")
    out = {"setup_s": setup_s}
    if args.mode != "setup":
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        cases = wl.make(args.seed)
        tally = Tally()
        out["cold_s"], _ = identify(cases[0], cycsid.run_identification, tally)
        if args.mode == "run":
            out.update(warm_run(wl, cases, args.seconds, tally))
        else:
            out.update(traced_run(wl, cases, args.seconds, tally, args.spans))
        out["tally"] = tally.as_dict()
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out["env"] = environment()
    out["host_probe_s"] = host_probe_s()
    print(json.dumps(out))


if __name__ == "__main__":
    main()
