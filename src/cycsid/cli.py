"""Command-line interface.

Subcommands: simulate (config -> signals CSV), identify (signals + config ->
model + report), verify (model + reference -> structure/TF report), and
demo-paper (built-in studies).  Exit codes: 0 success, 2 config error,
3 data error, 4 assumption or structure failure.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from . import pipeline
from .errors import (
    AssumptionFailedError,
    CycsidError,
    ExcitationDeficientError,
    InsufficientDataError,
    ParseError,
    RankConditionError,
    RankDeficientAError,
    SchemaError,
    SingularMatrixError,
    StructureViolationError,
)
from .fileio import load_model, save_model, save_signals, write_json
from .multirate import build_masks
from .subspace import IdentifiedModel
from .transform import model_transfer_check

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_STRUCTURE = 4

_DATA_ERRORS = (InsufficientDataError, ExcitationDeficientError, ParseError, SchemaError)
_STRUCTURE_ERRORS = (AssumptionFailedError, StructureViolationError,
                     RankConditionError, RankDeficientAError, SingularMatrixError)


def _add_common(p):
    p.add_argument("--out", default=None,
                   help="output directory (default: config out_dir, else current)")
    p.add_argument("--seed", type=int, default=None, help="override the input seed")
    p.add_argument("--n", type=int, default=None, help="override the sample count N")
    p.add_argument("--noise", type=float, default=None,
                   help="uniform output noise amplitude on observed entries")
    p.add_argument("--convention", choices=("general", "example", "auto"), default=None,
                   help="transform selector convention")
    p.add_argument("--tol-structure", type=float, default=None)
    p.add_argument("--tol-tf", type=float, default=None)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cycsid",
        description="Multirate system identification via cyclic reformulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate a configured multirate run to CSV")
    p_sim.add_argument("--config", required=True)
    _add_common(p_sim)

    p_id = sub.add_parser("identify", help="identify and transform a model from data")
    p_id.add_argument("--config", required=True)
    p_id.add_argument("--signals", default=None,
                      help="signals CSV (overrides the config input)")
    _add_common(p_id)

    p_ver = sub.add_parser("verify", help="check a saved model against a reference plant")
    p_ver.add_argument("--model", required=True)
    p_ver.add_argument("--config", required=True, help="config holding the reference plant")
    _add_common(p_ver)

    p_demo = sub.add_parser("demo-paper", help="run the built-in benchmark studies")
    _add_common(p_demo)
    return parser


def _load_config(args):
    try:
        cfg = pipeline.load_config(args.config)
    except (ParseError, SchemaError, OSError) as e:
        print(f"config error: {e}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG) from e
    if args.seed is not None:
        cfg.input = dict(cfg.input)
        cfg.input.pop("file", None)
        cfg.input["seed"] = args.seed
        cfg.input.setdefault("kind", "uniform")
        cfg.input.setdefault("amplitude", 1.0)
    if args.n is not None:
        cfg.N = args.n
    if args.noise is not None:
        cfg.noise = args.noise
    if args.convention is not None:
        cfg.convention = args.convention
    if args.tol_structure is not None:
        cfg.tolerances["structure"] = args.tol_structure
    if args.tol_tf is not None:
        cfg.tolerances["tf"] = args.tol_tf
    return cfg


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
    if args.signals is not None:
        cfg.input = {"file": args.signals}
    out = _outdir(args, cfg)
    model, report = pipeline.run_identification(cfg)
    provenance = {"seed": report.seed, "N": report.N, "convention": report.convention}
    save_model(model.source, out / "model.json", cfg.rates, provenance)
    save_model(model, out / "cyclic_model.json", cfg.rates, provenance)
    write_json(report.to_dict(), out / "report.json")
    worst_tf = max(max(row) for row in report.tf_distances)
    print(f"order {report.order} model identified (convention {report.convention}); "
          f"worst TF distance {worst_tf:.3g}; "
          f"structure {'PASS' if all(v['passed'] for v in report.cyclic_form.values()) else 'FAIL'}")
    print(f"wrote {out / 'model.json'}, {out / 'cyclic_model.json'}, {out / 'report.json'}")
    if not (report.tf_passed and all(v["passed"] for v in report.cyclic_form.values())):
        return EXIT_STRUCTURE
    return EXIT_OK


def cmd_verify(args):
    cfg = _load_config(args)
    out = _outdir(args, cfg)
    try:
        mf = load_model(args.model)
    except (ParseError, SchemaError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    if tuple(mf.rates) != tuple(cfg.rates):
        print(f"data error: model rates {list(mf.rates)} != config rates {list(cfg.rates)}",
              file=sys.stderr)
        return EXIT_DATA
    tol_structure = cfg.tolerances["structure"]
    tol_tf = cfg.tolerances["tf"]
    plant = cfg.plant
    spec = build_masks(cfg.rates, cfg.offsets)
    n, m, l, M = plant.n, plant.m, plant.l, spec.M

    if isinstance(mf.model, IdentifiedModel):
        conv = args.convention or mf.provenance.get("convention") or "auto"
        try:
            cm, _, _ = pipeline.choose_transform(mf.model, n, m, l, M, conv, tol_structure)
        except StructureViolationError:
            print("structure FAIL: no convention yields cyclic form", file=sys.stderr)
            write_json({"structure_passed": False}, out / "verify_report.json")
            return EXIT_STRUCTURE
    else:
        cm = mf.model

    # the margin measured when the components were read off (a cyclic model
    # file stores it); re-checking cm.assemble() would always read zero
    form = cm.structure
    tf_ok, dists = model_transfer_check(cm, plant, tol_tf)
    doc = {
        "structure_passed": form.passed,
        "max_offpattern": form.max_offpattern,
        "tf_passed": tf_ok,
        "tf_distances": [[float(d) for d in row] for row in dists],
        "tol_structure": tol_structure,
        "tol_tf": tol_tf,
    }
    write_json(doc, out / "verify_report.json")
    print(f"structure {'PASS' if form.passed else 'FAIL'} "
          f"(max off-pattern {form.max_offpattern:.3g}); "
          f"transfer {'PASS' if tf_ok else 'FAIL'} "
          f"(worst distance {float(np.max(dists)):.3g})")
    return EXIT_OK if (form.passed and tf_ok) else EXIT_STRUCTURE


def cmd_demo(args):
    out = _outdir(args)
    status, reports = pipeline.demo_paper(
        seed=args.seed if args.seed is not None else pipeline.DEFAULT_SEED,
        N=args.n if args.n is not None else pipeline.DEFAULT_N,
        noise=args.noise if args.noise is not None else 0.0,
        convention=args.convention or "auto",
        tol_structure=args.tol_structure,
        tol_tf=args.tol_tf,
    )
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
    except _DATA_ERRORS as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except _STRUCTURE_ERRORS as e:
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
