"""Command-line interface.

Subcommands: simulate (config -> signals CSV), identify (signals + config ->
model + report), verify (saved model + config -> the same report), and
demo-paper (built-in studies).  Exit codes: 0 success, 2 config error,
3 data error, 4 assumption or structure failure.
"""

import argparse
import dataclasses
import sys
from pathlib import Path

from . import pipeline
from .errors import EXIT_CONFIG, EXIT_OK, KINDS, REFUSALS, DivergentModelError, SchemaError, kind
from .fileio import load_model, save_model, save_signals, write_json


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
    checks the result, so a bad flag value raises ValueError; so does
    --seed or --n on a signals file, named by --signals or by the config."""
    flags = {k: v for k, v in vars(args).items() if v is not None}
    changes = {}
    for flag in ("seed", "n"):
        if flag in flags and ("signals" in flags or "file" in cfg.input):
            raise ValueError(f"--{flag} does not apply to a signals file, "
                             "which holds its own input and length")
    if "seed" in flags:
        changes["input"] = {**cfg.input, "seed": flags["seed"]}
    if "signals" in flags:
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


def _outdir(args, cfg=None):
    """The output directory; the writers make it with the first file they write."""
    return Path(args.out if args.out is not None
                else (cfg.out_dir if cfg is not None and cfg.out_dir else "."))


def cmd_simulate(args):
    cfg = _override(pipeline.load_config(args.config), args)
    out = _outdir(args, cfg)
    log = pipeline.collect_data(cfg)
    sig_path = out / "signals.csv"
    save_signals(log, sig_path)
    meta = {
        "N": log.N, "rates": list(cfg.rates), "M": cfg.spec.M,
        "seed": cfg.input.get("seed"), "noise": cfg.noise,
        "signals": str(sig_path),
    }
    write_json(meta, out / "simulate_report.json")
    print(f"wrote {sig_path} ({log.N} steps, rates {list(cfg.rates)}, M={cfg.spec.M})")
    return EXIT_OK


def _verdict(report):
    """The verdict fragment identify and verify print: worst TF distance and failed checks."""
    failed = report.failures()
    return (f"worst TF distance {max(max(row) for row in report.tf_distances):.3g}; "
            f"checks {'FAIL: ' + ', '.join(failed) if failed else 'PASS'}")


def _judged(run, path):
    """run()'s (model, report), with the report written to path.  A refusal
    is raised again; a structure refusal first leaves its record at path,
    while a data or config refusal writes nothing."""
    try:
        model, report = run()
    except REFUSALS as e:
        if kind(e) == "structure":
            write_json(pipeline.refusal(e), path)
        raise
    write_json(report, path)
    return model, report


def cmd_identify(args):
    cfg = _override(pipeline.load_config(args.config), args)
    out = _outdir(args, cfg)
    model, report = _judged(lambda: pipeline.run_identification(cfg), out / "report.json")
    save_model(model.source, out / "model.json", cfg.spec, {"seed": report.seed, "N": report.N})
    print(f"order {report.order} model identified; {_verdict(report)}")
    depth = report.block_rows
    how = ("pattern" if depth["used"] == depth["pattern"]
           else f"fallback from pattern {depth['pattern']}")
    margin = depth["shift_margin"]
    print(f"block rows {depth['used']} ({how}); shift margin {margin:.2g} "
          f"{'>' if margin > report.sv_gap else '<='} gap {report.sv_gap:.2g}")
    print(f"wrote {out / 'model.json'}, {out / 'report.json'}")
    return report.exit_code


def cmd_verify(args):
    cfg = _override(pipeline.load_config(args.config), args)
    out = _outdir(args, cfg)
    mf = load_model(args.model)

    def judge():
        # a model of another sampling pattern or plant size came from other
        # data, and matrices that overflow are the file's: each refusal is
        # a data refusal that names the model file
        with pipeline.naming(args.model, (SchemaError, DivergentModelError)):
            if mf.spec != cfg.spec:
                raise SchemaError(f"model rates {list(mf.spec.rates)}, offsets "
                                  f"{list(mf.spec.offsets)} != config rates "
                                  f"{list(cfg.spec.rates)}, offsets {list(cfg.spec.offsets)}")
            return pipeline.validate(mf.model, cfg, {**mf.provenance, "observable_phases":
                                                     pipeline.observable_phases(cfg)})

    _, report = _judged(judge, out / "verify_report.json")
    print(f"order {report.order} model verified; {_verdict(report)}")
    return report.exit_code


def cmd_demo(args):
    studies = [(label, _override(pipeline.builtin_config(rates), args))
               for label, rates in pipeline.DEMO_STUDIES]
    status, reports = pipeline.demo_paper(studies)
    write_json(reports, _outdir(args) / "demo_report.json")
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
    # the commands raise, and only here is a refusal printed and given its exit code
    try:
        return handlers[args.command](args)
    except REFUSALS as e:
        code, prefix = KINDS[kind(e)]
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
