"""Benchmark of `cycsid.run_identification` across period M.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds T --trace 0|1

Run from the root of a source checkout: the program is imported from
`src/`.  With `--trace 0` the run is untraced and reports the end-to-end
metrics; with `--trace 1` one process alternates untraced and traced
identifications and reports the per-layer metrics, the tracing overhead and a
cross-check of the trace against `RunReport.timings`.  Every identification
is checked for correctness.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; everything above it is for
people.  `--workload all` runs every workload in turn and prefixes each
metric in that line with its workload's name.  Each run also writes its full
record (environment stamp included) and, when traced, its spans to
`perfbench/out/`.

All timed work runs in fresh worker processes started one after another, each
with as many BLAS threads as this process may use cores.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: fresh processes that only time `import cycsid`, on top of the workers
SETUP_PROBES = 5
#: a run must end well inside the 180 s each invocation is allowed
DEADLINE_S = 170

END_TO_END = {
    "run_s_p50": "s",
    "run_s_tail": "s",
    "samples_per_s": "samples/s",
    "setup_s": "s",
    "cold_run_s": "s",
    "peak_rss_mb": "MB",
}
#: printed with the metrics but not emitted as bounded metrics: tf_err_max
#: sits at round-off on noise-free workloads and fail_frac is 0 on a correct
#: program, so neither has a median a relative bound can apply to (fail_frac is
#: the JSON's failed / attempted); host_probe_s, the time of a fixed kernel
#: that does not use cycsid, tells a slow host from a slow change.
UNBOUNDED = {"tf_err_max": "1", "fail_frac": "1", "host_probe_s": "s"}

#: per-layer self times, in seconds per traced identification
LAYER_TIMES = (
    "kernels.io_regressor", "subspace.bdx0_fit", "subspace.hankel", "subspace.lq",
    "subspace.svd", "subspace.ac_fit", "numerics.rank", "subspace.identify_self",
    "cyclic.markov_structure", "multirate.simulate", "cyclic.cycle",
    "pipeline.reference", "statespace.markov", "subspace.markov_match",
    "transform.tf_check", "transform.build", "transform.apply", "numerics.invert",
    "transform.verify", "transform.aggregate", "transform.extract", "pipeline.self",
)
#: computed work counts per traced identification, from shapes at the boundaries
LAYER_COUNTS = {
    "kernels.io_regressor_bytes": "bytes",
    "subspace.lq_bytes": "bytes",
    "subspace.bdx0_fit_rows": "count",
    "subspace.bdx0_fit_cols": "count",
    "subspace.block_rows": "count",
    "cyclic.markov_structure_blocks": "count",
}
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    "pipeline.reference_only_s": "s",
    "pipeline.trace_overhead_s": "s",
    "pipeline.timings_gap_s": "s",
    **LAYER_COUNTS,
    "transform.conventions_tried": "count",
    "transform.conventions_accepted": "count",
    "transform.accept_ratio": "1",
    "transform.tf_err_max": "1",
}


class WorkerFailed(RuntimeError):
    pass


def worker_env():
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def start_worker(mode, args, deadline, extra=()):
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(cmd, env=worker_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as e:
        raise WorkerFailed(f"{mode} worker passed the run's deadline") from e
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten samples
    above it; below 21 samples that percentile would sit under the median, so
    the median is reported (as p50)."""
    s = sorted(samples)
    n = len(s)
    if n < 21:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def combine(tallies):
    out = {"attempted": 0, "failed": 0, "reasons": [], "tf_err_max": 0.0}
    for t in tallies:
        out["attempted"] += t["attempted"]
        out["failed"] += t["failed"]
        out["reasons"] += t["reasons"]
        out["tf_err_max"] = max(out["tf_err_max"], t["tf_err_max"])
    return out


def end_to_end(args, k, deadline):
    """Metrics of an untraced run split over k fresh workers."""
    # A shared host's speed drifts over seconds to minutes, so the run is split
    # over several fresh workers, each timing its import, its cold call and its
    # share of the warm loop, with setup probes in between.
    share = argparse.Namespace(**{**vars(args), "seconds": args.seconds / k})
    probes, workers = [], []
    for i in range(max(k, SETUP_PROBES)):
        if i < SETUP_PROBES:
            probes.append(start_worker("setup", args, deadline))
        if i < k:
            workers.append(start_worker("run", share, deadline))
    warm = [d for w in workers for d in w["durations"]]
    if not warm:
        raise WorkerFailed("no identification succeeded")
    samples = sum(w["samples"] for w in workers)
    value, pct = tail(warm)
    metrics = {
        "run_s_p50": statistics.median(warm),
        "run_s_tail": value,
        "samples_per_s": samples / sum(warm),
        "setup_s": statistics.median(p["setup_s"] for p in probes + workers),
        "cold_run_s": statistics.median(w["cold_s"] for w in workers),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
    }
    tally = combine(w["tally"] for w in workers)
    metrics["host_probe_s"] = statistics.median(
        x for p in probes + workers for x in p["host_probe_s"])
    metrics["tf_err_max"] = tally["tf_err_max"]
    metrics["fail_frac"] = tally["failed"] / tally["attempted"]
    notes = {
        "run_s_p50": f"median of {len(warm)} warm calls, {k} worker process(es)",
        "run_s_tail": f"p{pct:.1f} of {len(warm)} warm calls",
        "samples_per_s": f"{samples} input samples over {sum(warm):.2f} s of warm calls",
        "setup_s": f"median of {len(probes) + k} fresh processes",
        "cold_run_s": f"median of {k} fresh process(es)",
        "peak_rss_mb": f"median ru_maxrss of {k} untraced worker process(es)",
    }
    record = {"probes": probes, "workers": workers, "tail_percentile": pct}
    return metrics, notes, tally, workers[0]["env"], record


def per_layer(args, deadline):
    """Metrics of one worker alternating untraced and traced identifications."""
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    r = start_worker("trace", args, deadline, extra=("--spans", str(spans)))
    runs = r["runs"]
    if not (r["traced"] and r["untraced"]):
        raise WorkerFailed("no identification succeeded")
    metrics = {f"{name}_s": r["layers"].get(name, 0.0) / runs for name in LAYER_TIMES}
    metrics["pipeline.reference_only_s"] = r["reference_only_s"] / runs
    metrics["pipeline.trace_overhead_s"] = (statistics.median(r["traced"])
                                            - statistics.median(r["untraced"]))
    gaps = {stage: (r["stages_report"].get(stage, 0.0) - t) / runs
            for stage, t in r["stages_trace"].items()}
    metrics["pipeline.timings_gap_s"] = sum(abs(g) for stage, g in gaps.items()
                                            if stage != "total")
    for name in LAYER_COUNTS:
        metrics[name] = r["counts"].get(name, 0.0) / runs
    tried, accepted = r["conventions"]
    metrics["transform.conventions_tried"] = tried / runs
    metrics["transform.conventions_accepted"] = accepted / runs
    metrics["transform.accept_ratio"] = accepted / tried if tried else 0.0
    tally = r["tally"]
    metrics["transform.tf_err_max"] = tally["tf_err_max"]
    metrics["host_probe_s"] = statistics.median(r["host_probe_s"])
    notes = {name: "computed" for name in LAYER_COUNTS}
    notes["pipeline.trace_overhead_s"] = (
        f"median of {len(r['traced'])} traced minus median of {len(r['untraced'])} "
        "untraced calls")
    notes["pipeline.timings_gap_s"] = "RunReport stage time not covered by spans: " + ", ".join(
        f"{stage} {g:+.2e}" for stage, g in gaps.items())
    record = {"trace": r, "spans": str(spans.relative_to(ROOT))}
    return metrics, notes, tally, r["env"], record


def run_workload(args, wl):
    """Run one workload, print its metrics and record them; return its result."""
    deadline = time.monotonic() + DEADLINE_S
    if args.trace:
        metrics, notes, tally, env, record = per_layer(args, deadline)
        units = PER_LAYER
    else:
        metrics, notes, tally, env, record = end_to_end(args, wl.processes, deadline)
        units = END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        unit = {**units, **UNBOUNDED}[name]
        print(f"  {name:34s} {value:<14.6g} {unit:10s} {notes.get(name, '')}")
    print(f"identifications: {tally['attempted']} attempted, {tally['failed']} failed")
    for reason in tally["reasons"]:
        print(f"  failed: {reason}")

    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"args": vars(args), "env": env, "metrics": metrics,
                   "notes": notes, "tally": tally, "record": record}, f, indent=1)
    return {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "cycsid" / "__init__.py").is_file():
        sys.exit(f"no cycsid sources under {SRC}; run from a source checkout")
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload != "all" and args.workload not in workloads.WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}")
    OUT.mkdir(exist_ok=True)

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(argparse.Namespace(**{**vars(args), "workload": name}),
                                      workloads.WORKLOADS[name])
                   for name in names}
    except WorkerFailed as e:
        sys.exit(f"benchmark failed: {e}")
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{metric}": v for name, r in results.items()
                        for metric, v in r["metrics"].items()},
        }
    print(json.dumps(result))

if __name__ == "__main__":
    main()
