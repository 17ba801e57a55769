"""Command line interface: convert, replace, stats, verify-render."""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .errors import ConfigInvalidError, SemtexError
from .pipeline import load_config, replace_files, run_pipeline, verify_render


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtex",
        description="Convert presentation LaTeX compendia into semantic "
        "LaTeX formula home pages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag that sets a config key has the key as its dest, so that
    # load_config checks it with the reader of the key.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument(
        "--input", action="append", help="input .tex file or directory (repeatable)"
    )
    common.add_argument("--glossary", help="glossary JSON (default: bundled)")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--bib", dest="bibliography", help="bibliography JSON")
    run.add_argument("--report", help="also write the report here")
    run.add_argument("--workers", type=int, help="validated only; files run in order")
    run.add_argument("--prefix", dest="corpus_prefix", help="corpus prefix of page titles")
    run.add_argument("--citation-key", dest="citation_key", help="bibliography key")

    p = sub.add_parser("convert", parents=[common, run], help="full pipeline: dump, report")
    p.add_argument("--out", dest="output", help="output dump path")

    p = sub.add_parser("replace", parents=[common], help="rewrite math spans, for review")
    p.add_argument("--out", required=True, help="output directory")

    sub.add_parser("stats", parents=[common, run], help="run the pipeline, print the report")

    p = sub.add_parser(
        "verify-render",
        parents=[common],
        help="spot-check formulae against a rendering service",
    )
    p.add_argument(
        "--endpoint",
        help="rendering service URL (default: SEMTEX_ENDPOINT environment variable)",
    )
    p.add_argument("--limit", type=int, default=0, help="check at most N formulae")
    return parser


def _cmd_convert(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, vars(args))
    if cfg.output_path is None:
        print("convert: --out (or config output) is required", file=sys.stderr)
        return 2
    run = run_pipeline(cfg)
    print(run.report, end="")
    return run.exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, vars(args))
    cfg.output_path = None
    run = run_pipeline(cfg)
    print(run.report, end="")
    return run.exit_code


def _cmd_replace(args: argparse.Namespace) -> int:
    cfg = load_config(args.config, vars(args))
    status = 0
    for name, outcome in replace_files(cfg, Path(args.out)):
        if isinstance(outcome, str):
            print(f"{name}: {outcome}", file=sys.stderr)
            status = 1
        else:
            print(f"{name}: {outcome.total} replacements")
    return status


def _cmd_verify_render(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ConfigInvalidError("limit must be a non-negative integer")
    cfg = load_config(args.config, vars(args))
    endpoint = cfg.endpoint or os.environ.get("SEMTEX_ENDPOINT")
    if not endpoint:
        print(
            "verify-render: no endpoint (use --endpoint or SEMTEX_ENDPOINT)",
            file=sys.stderr,
        )
        return 2
    cfg.endpoint = endpoint
    run = run_pipeline(cfg, write=False)
    formulae = run.formulae
    if args.limit:
        formulae = formulae[: args.limit]
    warnings = 0
    for fid, status in verify_render(formulae, endpoint):
        print(f"{fid}: {status}")
        if status != "ok":
            warnings += 1
    print(f"checked {len(formulae)} formulae, {warnings} warnings")
    return run.exit_code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "convert": _cmd_convert,
        "stats": _cmd_stats,
        "replace": _cmd_replace,
        "verify-render": _cmd_verify_render,
    }
    # The pipeline builds acyclic token and formula trees, which reference
    # counting frees; cyclic-collector passes set off by their allocations
    # find almost nothing, so the collector is paused while a command runs.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handlers[args.command](args)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SemtexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    raise SystemExit(main())
