"""Command-line interface.

Subcommands: simulate (config -> signals CSV), identify (signals + config ->
model + report), verify (model + reference -> structure/TF report), and
demo-paper (built-in studies).  Exit codes: 0 success, 2 config error,
3 data error, 4 assumption or structure failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .errors import (
    DATA_ERRORS,
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_STRUCTURE,
    STRUCTURE_ERRORS,
    CycsidError,
    ParseError,
    SchemaError,
    StructureViolationError,
)
from .fileio import load_model, save_model, save_signals, write_json
from .transform import model_transfer_check

EXIT_OK = 0


def build_parser():
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None,
                     help="output directory (default: config out_dir, else current)")
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--seed", type=int, default=None, help="override the input seed")
    data.add_argument("--n", type=int, default=None, help="override the sample count N")
    data.add_argument("--noise", type=float, default=None,
                      help="uniform output noise amplitude on observed entries")
    check = argparse.ArgumentParser(add_help=False)
    check.add_argument("--tol-structure", type=float, default=None)
    check.add_argument("--tol-tf", type=float, default=None)

    parser = argparse.ArgumentParser(
        prog="cycsid",
        description="Multirate system identification via cyclic reformulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[out, data],
                           help="simulate a configured multirate run to CSV")
    p_sim.add_argument("--config", required=True)

    p_id = sub.add_parser("identify", parents=[out, data, check],
                          help="identify and transform a model from data")
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--signals", default=None,
                      help="signals CSV (replaces the config input and noise)")

    p_ver = sub.add_parser("verify", parents=[out, check],
                           help="check a saved model against a reference plant")
    p_ver.add_argument("--model", required=True)
    p_ver.add_argument("--config", required=True, help="config holding the reference plant")

    sub.add_parser("demo-paper", parents=[out, data, check],
                   help="run the built-in benchmark studies")
    return parser


def _override(cfg, args):
    """cfg with the command-line overrides applied.  The config constructor
    checks the result, so a bad flag value raises ValueError."""
    flags = {k: v for k, v in vars(args).items() if v is not None}
    changes = {}
    if "seed" in flags:
        inp = {**cfg.input, "seed": flags["seed"]}
        inp.pop("file", None)
        changes["input"] = inp
    if "signals" in flags:
        for flag in ("seed", "n"):
            if flag in flags:
                raise ValueError(f"--{flag} does not apply to a signals file, "
                                 "which holds its own input and length")
        # the recorded signals already carry whatever noise and initial state
        # they were made with
        changes["input"] = {"file": flags["signals"]}
        changes["noise"] = 0.0
        changes["x0"] = None
    if "n" in flags:
        changes["N"] = flags["n"]
    if "noise" in flags:
        changes["noise"] = flags["noise"]
    tol = {k: flags[f"tol_{k}"] for k in ("structure", "tf") if f"tol_{k}" in flags}
    if tol:
        changes["tolerances"] = {**cfg.tolerances, **tol}
    return dataclasses.replace(cfg, **changes)


def _load_config(args):
    try:
        cfg = pipeline.load_config(args.config)
    except (ParseError, SchemaError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from e
    return _override(cfg, args)


def _outdir(args, cfg=None):
    out = Path(args.out if args.out is not None
               else (cfg.out_dir if cfg is not None and cfg.out_dir else "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_simulate(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    spec, log = pipeline.collect_data(cfg)
    sig_path = out / "signals.csv"
    save_signals(log, sig_path)
    meta = {
        "N": log.N, "rates": list(cfg.rates), "M": spec.M,
        "seed": cfg.input.get("seed"), "noise": cfg.noise,
        "signals": str(sig_path),
    }
    write_json(meta, out / "simulate_report.json")
    print(f"wrote {sig_path} ({log.N} steps, rates {list(cfg.rates)}, M={spec.M})")
    return EXIT_OK


def cmd_identify(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    model, report = pipeline.run_identification(cfg)
    provenance = {"seed": report.seed, "N": report.N, "convention": report.convention}
    save_model(model.source, out / "model.json", cfg.spec, provenance)
    write_json(report.to_dict(), out / "report.json")
    worst_tf = max(max(row) for row in report.tf_distances)
    failed = report.failures()
    print(f"order {report.order} model identified (convention {report.convention}); "
          f"worst TF distance {worst_tf:.3g}; "
          f"checks {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")
    depth = report.block_rows
    how = ("pattern" if depth["used"] == depth["pattern"]
           else f"fallback from pattern {depth['pattern']}")
    margin = depth["shift_margin"]
    print(f"block rows {depth['used']} ({how}); shift margin {margin:.2g} "
          f"{'>' if margin > report.sv_gap else '<='} gap {report.sv_gap:.2g}")
    print(f"wrote {out / 'model.json'}, {out / 'report.json'}")
    return EXIT_STRUCTURE if failed else EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    try:
        mf = load_model(args.model)
    except (ParseError, SchemaError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    spec = cfg.spec
    plant = cfg.plant
    # a model of another sampling pattern or plant size came from other data
    if mf.spec != spec:
        print(f"data error: model rates {list(mf.spec.rates)}, offsets {list(mf.spec.offsets)}"
              f" != config rates {list(spec.rates)}, offsets {list(spec.offsets)}",
              file=sys.stderr)
        return EXIT_DATA
    if (mf.model.n, mf.model.m) != (plant.n, plant.m):
        print(f"data error: model (n, m) = ({mf.model.n}, {mf.model.m}) != config plant "
              f"(n, m) = ({plant.n}, {plant.m})", file=sys.stderr)
        return EXIT_DATA
    tol_structure = cfg.tolerances["structure"]
    tol_tf = cfg.tolerances["tf"]

    try:
        cm, _, _ = pipeline.choose_transform(mf.model, tol_structure)
    except StructureViolationError as e:
        print("structure FAIL: the transform yields no cyclic form", file=sys.stderr)
        write_json({"structure_passed": False, "attempt": e.attempt},
                   out / "verify_report.json")
        return EXIT_STRUCTURE
    # choose_transform returns only a model whose cyclic form passed at tol_structure
    margin = cm.structure.max_offpattern
    tf_ok, dists = model_transfer_check(cm, plant, spec, tol_tf)
    doc = {
        "structure_passed": True,
        "max_offpattern": margin,
        "tf_passed": tf_ok,
        "tf_distances": [[float(d) for d in row] for row in dists],
        "tol_structure": tol_structure,
        "tol_tf": tol_tf,
    }
    write_json(doc, out / "verify_report.json")
    print(f"structure PASS (max off-pattern {margin:.3g}); "
          f"transfer {'PASS' if tf_ok else 'FAIL'} "
          f"(worst distance {float(np.max(dists)):.3g})")
    return EXIT_OK if tf_ok else EXIT_STRUCTURE


def cmd_demo(args):
    studies = [(label, _override(pipeline.builtin_config(rates), args))
               for label, rates in pipeline.DEMO_STUDIES]
    out = _outdir(args)
    status, reports = pipeline.demo_paper(studies)
    write_json({label: rep.to_dict() if hasattr(rep, "to_dict") else rep
                for label, rep in reports.items()},
               out / "demo_report.json")
    return status


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, which matches the config-error code
        return e.code if e.code is not None else EXIT_CONFIG
    handlers = {
        "simulate": cmd_simulate,
        "identify": cmd_identify,
        "verify": cmd_verify,
        "demo-paper": cmd_demo,
    }
    try:
        return handlers[args.command](args)
    except SystemExit as e:
        return e.code
    except DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except STRUCTURE_ERRORS as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return EXIT_STRUCTURE
    except (ValueError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CycsidError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
