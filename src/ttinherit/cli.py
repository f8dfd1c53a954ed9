"""Command-line entry point.

    ttinherit run      --config cfg.json [--seed N] [--trials N] [--scale desk|paper] [--output-dir DIR] [--no-svg]
    ttinherit verify   --config cfg.json [--seed N] [--trials N] [--scale desk|paper]
    ttinherit generate --config cfg.json --out tensor.ttc [--generator KIND] [--seed N] [--scale desk|paper]
    ttinherit report   --in DIR

Exit codes: 0 success; 1 bound violations, failed rank hypotheses or failed
trials; 2 usage or configuration errors, or a file that cannot be read or
written.  ``--scale`` overlays the preset geometry (shape, ranks and sample
sizes) on top of the config file; ``--seed``/``--trials`` override single
fields.
``report`` summarizes DIR/trials.csv and writes summary.json and the SVGs
through the writer ``run`` uses; of an existing summary.json it replaces only
``summaries``, ``version`` and ``quartile_method`` and keeps the run's record,
and it exits 1 when that record lists failed trials.
TT_INHERIT_THREADS sets the number of trial workers; 0 or unset means one
worker when the largest interface matrix of the configured tensor holds
fewer than 2^16 entries, else one per CPU this process may use, at most 4,
and never more than there are trials.  Each worker runs OpenBLAS on one
thread; summary.json records the plan under ``threads``.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .container import save_tt
from .errors import TTInheritError
from .experiment import (
    ExperimentConfig,
    desk_preset,
    paper_preset,
    run_experiment,
    summarize_values,
    version_stamp,
    write_summary,
)
from .generators import KINDS, GeneratorSpec, generate

__all__ = ["main", "build_parser", "load_config"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttinherit",
        description="Sampling-inheritance experiments for tensor-train tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, trials=True):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override master_seed")
        if trials:
            p.add_argument("--trials", type=int, default=None, help="override trial count")
        p.add_argument(
            "--scale",
            choices=("desk", "paper"),
            default=None,
            help="overlay the desk/paper preset geometry on the config",
        )

    p_run = sub.add_parser("run", help="full experiment: trials, checks, all artifacts")
    add_common(p_run)
    p_run.add_argument("--output-dir", default=None, help="override output directory")
    p_run.add_argument("--no-svg", action="store_true", help="skip SVG rendering")

    p_verify = sub.add_parser("verify", help="bound-check suite only, no files written")
    add_common(p_verify)

    p_gen = sub.add_parser("generate", help="draw one TT tensor and serialize it")
    add_common(p_gen, trials=False)
    p_gen.add_argument("--out", required=True, help="output container file")
    p_gen.add_argument(
        "--generator",
        choices=KINDS,
        default=None,
        help="entry scheme (default: first kind in the config)",
    )

    p_rep = sub.add_parser("report", help="recompute summaries/SVGs from trials.csv")
    p_rep.add_argument("--in", dest="in_dir", required=True, help="directory with trials.csv")
    return parser


def load_config(args) -> ExperimentConfig:
    """Config file -> ExperimentConfig, with the --scale, --seed, --trials,
    --output-dir and --no-svg overrides applied in one validated replace."""
    with open(args.config, "r", encoding="utf-8") as f:
        raw = json.load(f)
    overrides = {}
    if getattr(args, "scale", None):
        preset = desk_preset() if args.scale == "desk" else paper_preset()
        for name in ("shape", "ranks", "sample_sizes_I", "sample_sizes_J"):
            overrides[name] = getattr(preset, name)
    for flag, name in (("seed", "master_seed"), ("trials", "trials"), ("output_dir", "output_dir")):
        if getattr(args, flag, None) is not None:
            overrides[name] = getattr(args, flag)
    if getattr(args, "no_svg", False):
        overrides["emit_svg"] = False
    return ExperimentConfig.from_dict(raw).replace(**overrides)


def _print_run_report(result) -> None:
    cfg = result.config
    print(
        f"shape {cfg.shape}, ranks {cfg.ranks}, {cfg.trials} trials x "
        f"{len(cfg.generators)} generators, master_seed {cfg.master_seed}"
    )
    for kind in cfg.generators:
        per_gen = [r for r in result.results if r.generator == kind]
        if not per_gen:
            print(f"  {kind:9s} no completed trials")
            continue
        n_checks = sum(
            len(rec.checks) for r in per_gen for rec in r.records_rows + r.records_cols
        )
        n_bad = sum(
            0 if ok else 1 for r in per_gen for ok in r.bound_pass.values()
        )
        resamples = sum(sum(r.resamples.values()) for r in per_gen)
        print(
            f"  {kind:9s} {len(per_gen)} trials, {n_checks} inequality checks, "
            f"{n_bad} failing parameters, {resamples} resamples"
        )
    print(f"bound violations: {result.bound_violations}")
    if result.hypothesis_failures:
        print(f"rank-hypothesis failures: {result.hypothesis_failures}")
    if result.failures:
        print(f"failed trials: {len(result.failures)}")
    for name, path in result.paths.items():
        print(f"  wrote {name}: {path}")


def _cmd_run(args) -> int:
    """``run`` writes every artifact; ``verify`` writes nothing and prints a verdict."""
    verify = args.command == "verify"
    result = run_experiment(load_config(args), write=not verify)
    _print_run_report(result)
    ok = not (result.bound_violations or result.hypothesis_failures or result.failures)
    if verify:
        print("VERIFY: OK" if ok else "VERIFY: FAIL")
    return EXIT_OK if ok else EXIT_VIOLATIONS


def _cmd_generate(args) -> int:
    cfg = load_config(args)
    kind = args.generator or cfg.generators[0]
    seed = cfg.master_seed
    spec = GeneratorSpec(kind, cfg.shape, cfg.ranks, seed=seed)
    t = generate(spec, cfg.rank_tol)
    save_tt(
        args.out,
        t,
        metadata={
            "generator": kind,
            "seed": seed,
            "rank_tol": cfg.rank_tol,
            "version": version_stamp(),
        },
    )
    print(f"wrote {args.out}: shape {t.shape}, ranks {t.ranks}, {kind} cores, seed {seed}")
    return EXIT_OK


def _cmd_report(args) -> int:
    """Summaries and SVGs from trials.csv, written as ``run`` writes them.

    An existing summary.json keeps the run's record; only its ``summaries``,
    ``version`` and ``quartile_method`` are replaced.  Failed trials listed
    in that record exit 1, like bound failures in trials.csv.
    """
    csv_path = os.path.join(args.in_dir, "trials.csv")
    values: dict[str, dict[str, list[float]]] = {}  # generators and labels in file order
    any_fail = False
    with open(csv_path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        needed = {"generator", "trial", "parameter_label", "value", "bound_pass"}
        missing = needed - set(reader.fieldnames or ())
        if missing:
            raise TTInheritError(f"{csv_path}: missing columns {sorted(missing)}")
        for row in reader:
            where = f"{csv_path}, line {reader.line_num}"
            if None in row.values():
                raise TTInheritError(f"{where}: fewer than {len(reader.fieldnames)} fields")
            try:
                value = float(row["value"])
            except ValueError:
                raise TTInheritError(f"{where}: value {row['value']!r} is not a number") from None
            per_gen = values.setdefault(row["generator"], {})
            per_gen.setdefault(row["parameter_label"], []).append(value)
            any_fail |= row["bound_pass"].strip().lower() == "false"
    if not values:
        raise TTInheritError(f"{csv_path}: no data rows")

    summary_path = os.path.join(args.in_dir, "summary.json")
    record = {"source": csv_path}
    if os.path.exists(summary_path):
        with open(summary_path, "r", encoding="utf-8") as f:
            try:
                record = json.load(f)
            except json.JSONDecodeError as exc:
                raise TTInheritError(f"{summary_path}: malformed JSON: {exc}") from None
        if not isinstance(record, dict):
            raise TTInheritError(f"{summary_path}: not a JSON object")
    for path in write_summary(args.in_dir, summarize_values(values), record).values():
        print(f"wrote {path}")
    failed = record.get("trials_failed")
    n_failed = len(failed) if isinstance(failed, list) else 0
    if any_fail:
        print("bound failures present in trials.csv")
    if n_failed:
        print(f"failed trials: {n_failed}")
    return EXIT_VIOLATIONS if any_fail or n_failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code is not None else EXIT_OK
    handlers = {
        "run": _cmd_run,
        "verify": _cmd_run,
        "generate": _cmd_generate,
        "report": _cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (TTInheritError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON config: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
