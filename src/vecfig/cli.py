"""Command-line front end: make-project, extract, generate, evaluate."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from . import evaluate as evaluate_mod
from . import pipeline, synth
from .config import DEFAULT_CONFIG, load_config
from .errors import VecfigError, WorkerDied
from .pipeline import DEFAULT_FIGURE_FILTER, Status
from .synth import AxisStyle, SyntheticSpec


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecfig",
        description="Extract data points from vector scatter figures.")
    sub = parser.add_subparsers(dest="subcommand")

    p_make = sub.add_parser("make-project",
                            help="restructure raw files into the corpus layout")
    p_make.add_argument("--project", required=True, help="corpus root directory")
    p_make.add_argument("--fileFilter", required=True,
                        help="regex matching input file paths, with capture groups")
    p_make.add_argument("--makeProject", required=True,
                        help=r"destination template, e.g. '(\1)/fulltext.pdf'")

    p_ext = sub.add_parser("extract", help="run scatter-to-CSV extraction")
    p_ext.add_argument("--project", required=True)
    p_ext.add_argument("--fileFilter", default=DEFAULT_FIGURE_FILTER,
                       help="regex selecting figure SVGs; group 1 is the index")
    p_ext.add_argument("--outputDir", required=True)
    p_ext.add_argument("--config", help="flat key=value tolerance overrides")

    p_gen = sub.add_parser("generate",
                           help="write synthetic figures with ground truth")
    p_gen.add_argument("--outputDir", required=True)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--count", type=int, default=1,
                       help="number of figures (seeds seed..seed+count-1)")
    style_or_spec = p_gen.add_mutually_exclusive_group()
    # no default: argparse skips the group check for a value that is the default object
    style_or_spec.add_argument("--style", choices=[s.value for s in AxisStyle])
    style_or_spec.add_argument("--spec", help="JSON file with SyntheticSpec fields")

    p_eval = sub.add_parser("evaluate",
                            help="score extraction output against truth files")
    p_eval.add_argument("--outputDir", required=True,
                        help="extraction output root (holds report.json files)")
    p_eval.add_argument("--truthDir", default=None,
                        help="truth root if not beside the outputs")
    p_eval.add_argument("--tolerance", type=float,
                        default=evaluate_mod.DEFAULT_TOLERANCE,
                        help="fraction of axis span")
    return parser


def run(argv: list[str]) -> int:
    """Run one subcommand; every failure it raises is printed here as
    ``error: ...``, with exit 3 for a batch whose worker died and 1 else."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return _COMMANDS[args.subcommand](args)
    except (VecfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, WorkerDied) else 1


def _cmd_make_project(args: argparse.Namespace) -> int:
    project = pipeline.make_project(args.project, args.fileFilter, args.makeProject)
    print(f"{len(project.trees)} tree(s) under {project.root}")
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else DEFAULT_CONFIG
    project = pipeline.scan_project(args.project)
    reports = pipeline.run_project(project, args.fileFilter, cfg, args.outputDir)
    for r in reports:
        print(f"{r.tree_id}/figure{r.figure_index}: {r.status.value} "
              f"({r.n_points} points)")
    if not reports or all(r.status is Status.OK for r in reports):
        return 0
    return 2


def _cmd_generate(args: argparse.Namespace) -> int:
    base: dict = {}
    if args.spec:
        # malformed JSON raises a ValueError, as a bad field value does
        base = json.loads(Path(args.spec).read_text(encoding="utf-8"))
        if not isinstance(base, dict):
            raise ValueError(f"{args.spec}: expected a JSON object of SyntheticSpec fields")
        unknown = sorted(base.keys() - {f.name for f in fields(SyntheticSpec)})
        if unknown:
            raise ValueError(f"{args.spec}: unknown spec key {unknown[0]!r}")
    elif args.style:
        base["axis_style"] = args.style
    specs = [SyntheticSpec(**{**base, "seed": seed})
             for seed in range(args.seed, args.seed + args.count)]
    synth.build_synthetic_project(args.outputDir, specs)
    print(f"{len(specs)} synthetic figure(s) under {args.outputDir}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    records, agg = evaluate_mod.evaluate_output_tree(
        args.outputDir, args.truthDir, args.tolerance)
    evaluate_mod.write_evaluation(records, agg, args.outputDir)
    sys.stdout.write(evaluate_mod.render_table(records))
    print(f"both axes correct: {agg['n_both_axes_correct']}/{agg['n_figures']}")
    print(f"axes and count correct: {agg['n_all_correct']}/{agg['n_figures']}")
    return 0


_COMMANDS = {"make-project": _cmd_make_project, "extract": _cmd_extract,
             "generate": _cmd_generate, "evaluate": _cmd_evaluate}


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
