"""Command line interface: convert, replace, stats, verify-render."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ConfigInvalidError, SemtexError
from .pipeline import (
    PipelineConfig,
    expand_inputs,
    load_config,
    replace_text,
    run_pipeline,
    validate_config,
    verify_render,
    _load_glossary,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument(
        "--input",
        action="append",
        default=None,
        help="input .tex file or directory (repeatable)",
    )
    p.add_argument("--glossary", help="glossary JSON (default: bundled)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semtex",
        description="Convert presentation LaTeX compendia into semantic "
        "LaTeX formula home pages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="full pipeline: dump plus report")
    _add_common(p)
    p.add_argument("--bib", help="bibliography JSON")
    p.add_argument("--out", help="output dump path")
    p.add_argument("--report", help="report path (default: stdout only)")
    p.add_argument("--workers", type=int, help="concurrent input files")
    p.add_argument("--prefix", help="corpus prefix used in page titles")
    p.add_argument("--citation-key", dest="citation_key", help="bibliography key")

    p = sub.add_parser("replace", help="rewrite math spans in place, for review")
    _add_common(p)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("stats", help="run the pipeline and print the report")
    _add_common(p)
    p.add_argument("--bib", help="bibliography JSON")
    p.add_argument("--report", help="also write the report here")
    p.add_argument("--workers", type=int, help="concurrent input files")
    p.add_argument("--prefix", help="corpus prefix used in page titles")
    p.add_argument("--citation-key", dest="citation_key", help="bibliography key")

    p = sub.add_parser(
        "verify-render", help="spot-check formulae against a rendering service"
    )
    _add_common(p)
    p.add_argument(
        "--endpoint",
        help="rendering service URL (default: SEMTEX_ENDPOINT environment variable)",
    )
    p.add_argument("--limit", type=int, default=0, help="check at most N formulae")
    return parser


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    cfg = load_config(args.config) if args.config else PipelineConfig()
    if args.input:
        cfg.inputs = [Path(p) for p in args.input]
    if args.glossary:
        cfg.glossary_path = Path(args.glossary)
    for flag, attr in (
        ("bib", "bibliography_path"),
        ("out", "output_path"),
        ("report", "report_path"),
    ):
        value = getattr(args, flag, None)
        if value:
            setattr(cfg, attr, Path(value))
    for flag, attr in (
        ("prefix", "corpus_prefix"),
        ("citation_key", "citation_key"),
        ("workers", "workers"),
        ("endpoint", "endpoint"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            setattr(cfg, attr, value)
    return cfg


def _cmd_convert(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    if cfg.output_path is None:
        print("convert: --out (or config output) is required", file=sys.stderr)
        return 2
    run = run_pipeline(cfg)
    print(run.report, end="")
    return run.exit_code


def _cmd_stats(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    cfg.output_path = None
    run = run_pipeline(cfg)
    print(run.report, end="")
    return run.exit_code


def _cmd_replace(args: argparse.Namespace) -> int:
    cfg = _config_from(args)
    validate_config(cfg)
    glossary = _load_glossary(cfg)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    status = 0
    for path in expand_inputs(cfg.inputs):
        try:
            rewritten, stats = replace_text(
                path.read_text(encoding="utf-8"), glossary
            )
        except SemtexError as exc:
            print(f"{path}: {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
            continue
        target = outdir / path.name
        target.write_text(rewritten, encoding="utf-8")
        print(f"{path.name}: {stats.total} replacements")
    return status


def _cmd_verify_render(args: argparse.Namespace) -> int:
    if args.limit < 0:
        raise ConfigInvalidError("limit must be a non-negative integer")
    cfg = _config_from(args)
    endpoint = cfg.endpoint or os.environ.get("SEMTEX_ENDPOINT")
    if not endpoint:
        print(
            "verify-render: no endpoint (use --endpoint or SEMTEX_ENDPOINT)",
            file=sys.stderr,
        )
        return 2
    cfg.endpoint = endpoint
    cfg.output_path = None
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
    try:
        return handlers[args.command](args)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SemtexError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
