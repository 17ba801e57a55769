"""Pipeline orchestration: config, per-file conversion, dump and report
assembly, and the optional rendering-service client.

Files are processed concurrently but merged in input order, so the dump
and report are identical for any worker count.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace as _dc_replace
from pathlib import Path
from typing import Sequence
from urllib.parse import urlparse
from xml.etree import ElementTree

from .canonicalize import canonicalize
from .engine import ReplacementStats, replace_all
from .errors import (
    ConfigInvalidError,
    SemtexError,
    ServiceRejectedError,
    ServiceUnreachableError,
)
from .glossary import Glossary, builtin_glossary, load_glossary
from .lexer import extract_math, render
from .metadata import (
    DEFAULT_INTRODUCERS,
    DEFAULT_KEYWORDS,
    ExtractionResult,
    Formula,
    SubstitutionDef,
    extract_document,
)
from .pages import (
    BibEntry,
    FormulaPage,
    SiteInfo,
    emit_dump,
    load_bibliography,
    render_page,
    stats_report,
)


@dataclass
class PipelineConfig:
    inputs: list[Path] = field(default_factory=list)
    glossary_path: Path | None = None
    bibliography_path: Path | None = None
    output_path: Path | None = None
    report_path: Path | None = None
    corpus_prefix: str = "KLS"
    citation_key: str = "KLS"
    keywords: tuple[str, ...] = DEFAULT_KEYWORDS
    introducers: tuple[str, ...] = DEFAULT_INTRODUCERS
    endpoint: str | None = None
    workers: int = 1
    siteinfo: SiteInfo = field(default_factory=SiteInfo)

    def __post_init__(self) -> None:
        self.inputs = [Path(p) for p in self.inputs]
        for attr in ("glossary_path", "bibliography_path", "output_path", "report_path"):
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, Path(value))


_CONFIG_KEYS = {
    "input",
    "glossary",
    "bibliography",
    "output",
    "report",
    "corpus_prefix",
    "citation_key",
    "keywords",
    "introducers",
    "endpoint",
    "workers",
    "siteinfo",
}


def _as_paths(value, key: str) -> list[Path]:
    if isinstance(value, str):
        return [Path(value)]
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return [Path(v) for v in value]
    raise ConfigInvalidError(f"{key} must be a string or list of strings")


def _string_tuple(value, key: str) -> tuple[str, ...]:
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigInvalidError(f"{key} must be a list of strings")


def load_config(path: str | Path) -> PipelineConfig:
    """Read a UTF-8 JSON config file.  CLI flags override afterwards."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigInvalidError("config root must be a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")

    cfg = PipelineConfig()
    if "input" in raw:
        cfg.inputs = _as_paths(raw["input"], "input")
    for key, attr in (
        ("glossary", "glossary_path"),
        ("bibliography", "bibliography_path"),
        ("output", "output_path"),
        ("report", "report_path"),
    ):
        if key in raw:
            if not isinstance(raw[key], str):
                raise ConfigInvalidError(f"{key} must be a string")
            setattr(cfg, attr, Path(raw[key]))
    for key in ("corpus_prefix", "citation_key", "endpoint"):
        if key in raw:
            if not isinstance(raw[key], str):
                raise ConfigInvalidError(f"{key} must be a string")
            setattr(cfg, key if key != "endpoint" else "endpoint", raw[key])
    if "keywords" in raw:
        cfg.keywords = _string_tuple(raw["keywords"], "keywords")
    if "introducers" in raw:
        cfg.introducers = _string_tuple(raw["introducers"], "introducers")
    if "workers" in raw:
        if not isinstance(raw["workers"], int) or raw["workers"] < 1:
            raise ConfigInvalidError("workers must be a positive integer")
        cfg.workers = raw["workers"]
    if "siteinfo" in raw:
        if not isinstance(raw["siteinfo"], dict):
            raise ConfigInvalidError("siteinfo must be an object")
        known = {f.name for f in SiteInfo.__dataclass_fields__.values()}
        bad = set(raw["siteinfo"]) - known
        if bad:
            raise ConfigInvalidError(f"unknown siteinfo keys: {sorted(bad)}")
        cfg.siteinfo = _dc_replace(SiteInfo(), **raw["siteinfo"])
    return cfg


def expand_inputs(paths: Sequence[Path]) -> list[Path]:
    """Directories expand to their sorted *.tex files; files pass through."""
    out: list[Path] = []
    for p in paths:
        if p.is_dir():
            out.extend(sorted(p.glob("*.tex")))
        else:
            out.append(p)
    return out


def validate_config(cfg: PipelineConfig) -> None:
    for p in cfg.inputs:
        if not p.exists():
            raise ConfigInvalidError(f"input path does not exist: {p}")
    for name, p in (
        ("glossary", cfg.glossary_path),
        ("bibliography", cfg.bibliography_path),
    ):
        if p is not None and not p.is_file():
            raise ConfigInvalidError(f"{name} file does not exist: {p}")
    if cfg.endpoint is not None:
        parsed = urlparse(cfg.endpoint)
        if parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ConfigInvalidError(f"endpoint is not an absolute URL: {cfg.endpoint}")
    if cfg.workers < 1:
        raise ConfigInvalidError("workers must be a positive integer")


def _load_glossary(cfg: PipelineConfig) -> Glossary:
    if cfg.glossary_path is None:
        return builtin_glossary()
    return load_glossary(cfg.glossary_path)


@dataclass
class FileOutcome:
    path: Path
    result: ExtractionResult | None
    error: str | None = None


def _process_file(path: Path, glossary: Glossary, cfg: PipelineConfig) -> FileOutcome:
    try:
        source = path.read_text(encoding="utf-8")
        result = extract_document(
            source,
            glossary,
            citation_key=cfg.citation_key,
            keywords=cfg.keywords,
            introducers=cfg.introducers,
        )
        return FileOutcome(path, result)
    except (SemtexError, OSError) as exc:
        return FileOutcome(path, None, error=f"{type(exc).__name__}: {exc}")


@dataclass
class RunResult:
    exit_code: int
    dump: str
    report: str
    pages: list[FormulaPage]
    formulae: list[Formula]
    defs: list[SubstitutionDef]
    stats: ReplacementStats
    failures: list[tuple[str, str]]


def run_pipeline(cfg: PipelineConfig, write: bool = True) -> RunResult:
    """Convert every input file and assemble the dump and report.

    Per-formula failures are recorded in the report and skipped; a
    file-level failure drops the file and makes the exit status nonzero.
    """
    validate_config(cfg)
    glossary = _load_glossary(cfg)
    bib = (
        load_bibliography(cfg.bibliography_path)
        if cfg.bibliography_path is not None
        else {cfg.citation_key: BibEntry(key=cfg.citation_key, author="", title="")}
    )
    files = expand_inputs(cfg.inputs)

    if files:
        with ThreadPoolExecutor(max_workers=cfg.workers) as ex:
            outcomes = list(ex.map(lambda p: _process_file(p, glossary, cfg), files))
    else:
        outcomes = []

    multi = len(files) > 1
    formulae: list[Formula] = []
    defs: list[SubstitutionDef] = []
    failures: list[tuple[str, str]] = []
    parts: list[ReplacementStats] = []
    file_error = False
    for oc in outcomes:
        stem = oc.path.stem
        if oc.result is None:
            failures.append((str(oc.path), oc.error or "unknown error"))
            file_error = True
            continue
        res = oc.result
        for f in res.formulae:
            if multi:
                f.id = f"{stem}:{f.id}"
            formulae.append(f)
        defs.extend(res.defs)
        parts.append(res.stats)
        for fid, msg in res.failures:
            failures.append((f"{stem}:{fid}" if multi else fid, msg))

    stats = ReplacementStats.combine(parts)
    pages = [render_page(f, glossary, bib, cfg.corpus_prefix) for f in formulae]
    dump = emit_dump(pages, cfg.siteinfo)
    report = stats_report(stats, formulae, defs, glossary, failures)

    if write and cfg.output_path is not None:
        cfg.output_path.write_text(dump, encoding="utf-8", newline="\n")
    if write and cfg.report_path is not None:
        cfg.report_path.write_text(report, encoding="utf-8", newline="\n")

    return RunResult(
        exit_code=1 if file_error else 0,
        dump=dump,
        report=report,
        pages=pages,
        formulae=formulae,
        defs=defs,
        stats=stats,
        failures=failures,
    )


def replace_text(source: str, glossary: Glossary) -> tuple[str, ReplacementStats]:
    """Rewrite every math span of a document in place.

    Only the span bodies change (canonicalized, then replaced), so the
    output diffs cleanly against the input for review.
    """
    spans = extract_math(source)
    parts: list[ReplacementStats] = []
    pieces: list[str] = []
    cursor = 0
    for ms in spans:
        sem, stats = replace_all(canonicalize(list(ms.body), glossary.settings), glossary)
        parts.append(stats)
        pieces.append(source[cursor : ms.span[0]])
        pieces.append(render(sem.nodes))
        cursor = ms.span[1]
    pieces.append(source[cursor:])
    return "".join(pieces), ReplacementStats.combine(parts)


@dataclass(frozen=True)
class RenderedMath:
    presentation: str
    content: str


def request_mathml(semantic_latex: str, endpoint: str) -> RenderedMath:
    """POST semantic LaTeX to a rendering service.

    The service answers with XML holding a presentation and a content
    MathML island; anything else raises ServiceRejectedError, transport
    failures raise ServiceUnreachableError.
    """
    import requests

    try:
        resp = requests.post(
            endpoint,
            data=semantic_latex.encode("utf-8"),
            headers={"Content-Type": "text/plain; charset=utf-8"},
            timeout=30,
        )
    except requests.RequestException as exc:
        raise ServiceUnreachableError(f"{endpoint}: {exc}") from exc
    if resp.status_code != 200:
        raise ServiceRejectedError(resp.status_code, resp.text[:200])
    try:
        root = ElementTree.fromstring(resp.text)
    except ElementTree.ParseError as exc:
        raise ServiceRejectedError(resp.status_code, f"unparseable response: {exc}")
    pres_wrap = root.find("presentation")
    cont_wrap = root.find("content")
    pres = pres_wrap[0] if pres_wrap is not None and len(pres_wrap) else None
    cont = cont_wrap[0] if cont_wrap is not None and len(cont_wrap) else None
    if pres is None or cont is None:
        raise ServiceRejectedError(
            resp.status_code, "response lacks presentation/content parts"
        )
    ElementTree.register_namespace("", "http://www.w3.org/1998/Math/MathML")
    return RenderedMath(
        presentation=ElementTree.tostring(pres, encoding="unicode"),
        content=ElementTree.tostring(cont, encoding="unicode"),
    )


def verify_render(
    formulae: Sequence[Formula], endpoint: str
) -> list[tuple[str, str]]:
    """Spot-check formulae against the rendering service.

    Returns (formula id, status) pairs; service failures become warning
    entries instead of exceptions, so a down service never fails a run.
    Once the service is unreachable the remaining formulae are skipped,
    so a dead service costs one timeout rather than one per formula.
    """
    out = []
    unreachable = False
    for f in formulae:
        if unreachable:
            out.append((f.id, "warning: service unreachable (skipped)"))
            continue
        try:
            rendered = request_mathml(f.source_semantic, endpoint)
            ok = rendered.presentation and rendered.content
            out.append((f.id, "ok" if ok else "warning: empty rendering"))
        except ServiceUnreachableError as exc:
            out.append((f.id, f"warning: service unreachable: {exc}"))
            unreachable = True
        except ServiceRejectedError as exc:
            out.append((f.id, f"warning: service rejected: {exc}"))
    return out
