"""Pipeline orchestration: config, the run over input files with
metadata.extract_document, dump and report assembly, replace over files
with metadata.replace_text, and the optional rendering-service client.

Files are converted one after another, in input order, so the dump and
report are identical for any worker count.
"""

from __future__ import annotations

import io
import json
import os
import re
import time
from contextlib import closing
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple, Sequence
from urllib.parse import urlsplit

from .engine import ReplacementStats
from .errors import (
    ConfigInvalidError,
    ForbiddenCharacterError,
    SemtexError,
    ServiceRejectedError,
    ServiceUnreachableError,
    UnbalancedGroupError,
    UnterminatedEnvironmentError,
)
from .glossary import Glossary, builtin_glossary, load_glossary
from .metadata import (
    DEFAULT_INTRODUCERS,
    DEFAULT_KEYWORDS,
    Formula,
    SubstitutionDef,
    _line_col,
    _title_key,
    extract_document,
    replace_text,
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


class PipelineConfig:
    """The settings of a run.  A path may be a str or an os.PathLike, and
    inputs one path or a list or tuple of them, whether given here or set
    later: the readers load_config uses read them, so a value that is no
    path raises ConfigInvalidError here or when the run checks them."""

    __slots__ = (
        "inputs", "glossary_path", "bibliography_path", "output_path", "report_path",
        "corpus_prefix", "citation_key", "keywords", "introducers", "endpoint",
        "workers", "siteinfo",
    )

    def __init__(
        self,
        inputs: str | os.PathLike | Sequence[str | os.PathLike] = (),
        glossary_path: str | os.PathLike | None = None,
        bibliography_path: str | os.PathLike | None = None,
        output_path: str | os.PathLike | None = None,
        report_path: str | os.PathLike | None = None,
        corpus_prefix: str = "KLS",
        citation_key: str = "KLS",
        keywords: tuple[str, ...] = DEFAULT_KEYWORDS,
        introducers: tuple[str, ...] = DEFAULT_INTRODUCERS,
        endpoint: str | None = None,
        workers: int = 1,
        siteinfo: SiteInfo = SiteInfo(),
    ):
        self.inputs = _paths(inputs, "input")
        self.glossary_path = glossary_path
        self.bibliography_path = bibliography_path
        self.output_path = output_path
        self.report_path = report_path
        self.corpus_prefix = corpus_prefix
        self.citation_key = citation_key
        self.keywords = keywords
        self.introducers = introducers
        self.endpoint = endpoint
        self.workers = workers
        self.siteinfo = siteinfo
        for key in ("glossary", "bibliography", "output", "report"):
            attr, read = _SETTINGS[key]
            value = getattr(self, attr)
            if value is not None:
                setattr(self, attr, read(value, key))


# The characters XML 1.0 does not allow, even as references.  Strict
# UTF-8 decoding already rejects surrogates.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")
# The characters http.client refuses in a URL: controls, space and DEL
_NOT_URL = re.compile("[\x00-\x20\x7f]")


def _string(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigInvalidError(f"{key} must be a string")
    return value


def _xml_text(value, key: str) -> str:
    """A string that goes into the dump, so holds only XML 1.0 characters."""
    bad = _NOT_XML.search(_string(value, key))
    if bad:
        raise ConfigInvalidError(f"{key} holds {bad.group()!r}, which XML 1.0 does not allow")
    return value


def _path(value, key: str) -> Path:
    """A path given as a str or an os.PathLike that gives one."""
    try:
        return Path(value)
    except TypeError:
        raise ConfigInvalidError(f"{key} must be a string") from None


def _paths(value, key: str) -> list[Path]:
    """One path, which is one input and not a sequence of characters, or
    a list or tuple of paths."""
    try:
        return [Path(v) for v in (value if isinstance(value, (list, tuple)) else (value,))]
    except TypeError:
        raise ConfigInvalidError(f"{key} must be a string or list of strings") from None


def _strings(value, key: str) -> tuple[str, ...]:
    if isinstance(value, (list, tuple)) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigInvalidError(f"{key} must be a list of strings")


def _workers(value, key: str) -> int:
    if type(value) is not int or value < 1:  # bool is an int subclass
        raise ConfigInvalidError(f"{key} must be a positive integer")
    return value


def _siteinfo(value, key: str) -> SiteInfo:
    if isinstance(value, SiteInfo):
        value = value._asdict()
    if not isinstance(value, dict):
        raise ConfigInvalidError(f"{key} must be an object")
    bad = value.keys() - SiteInfo._fields
    if bad:
        raise ConfigInvalidError(f"unknown {key} keys: {sorted(bad)}")
    return SiteInfo(**{k: _xml_text(v, f"{key}.{k}") for k, v in value.items()})


# The run settings: each config key, the PipelineConfig attribute it sets
# and the reader that checks its value.  A CLI flag that sets a key has
# the key as its argparse dest, so it is read here too.
_SETTINGS = {
    "input": ("inputs", _paths),
    "glossary": ("glossary_path", _path),
    "bibliography": ("bibliography_path", _path),
    "output": ("output_path", _path),
    "report": ("report_path", _path),
    "corpus_prefix": ("corpus_prefix", _xml_text),
    "citation_key": ("citation_key", _xml_text),
    "keywords": ("keywords", _strings),
    "introducers": ("introducers", _strings),
    "endpoint": ("endpoint", _string),
    "workers": ("workers", _workers),
    "siteinfo": ("siteinfo", _siteinfo),
}
_UNSET = frozenset({"glossary", "bibliography", "output", "report", "endpoint"})  # None is unset


def load_config(
    path: str | Path | None = None, flags: Mapping[str, object] | None = None
) -> PipelineConfig:
    """Read a UTF-8 JSON config file, when a path is given, then apply the
    flags over it: each entry named by a config key whose value is not
    None, which is how argparse leaves an unset flag.  File values and
    flags pass through the same readers."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigInvalidError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigInvalidError("config root must be a JSON object")
        unknown = raw.keys() - _SETTINGS.keys()
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
    given = {k: v for k, v in (flags or {}).items() if k in _SETTINGS and v is not None}
    cfg = PipelineConfig()
    for values in (raw, given):
        for key, value in values.items():
            attr, read = _SETTINGS[key]
            setattr(cfg, attr, read(value, key))
    return cfg


def expand_inputs(paths: Sequence[Path]) -> list[Path]:
    """Directories expand to their sorted *.tex files; files pass through.
    A file reached twice is kept at its first place only."""
    out: list[Path] = []
    seen: set[Path] = set()
    for p in paths:
        for f in sorted(p.glob("*.tex")) if p.is_dir() else (p,):
            key = f.resolve()
            if key not in seen:
                seen.add(key)
                out.append(f)
    return out


def _id_prefixes(files: Sequence[Path]) -> list[str]:
    """The prefix of each file's formula ids in a run over several files:
    its path from the common directory of the inputs that share its stem,
    without the suffix and written with /.  So a unique stem is the
    prefix itself, and a/ch.tex and b/ch.tex give a/ch and b/ch.
    """
    dirs: dict[str, list[str]] = {}
    for p in files:
        dirs.setdefault(p.stem, []).append(os.path.dirname(os.path.abspath(p)))
    return [
        Path(os.path.relpath(os.path.abspath(p), os.path.commonpath(dirs[p.stem])))
        .with_suffix("")
        .as_posix()
        for p in files
    ]


def validate_config(cfg: PipelineConfig) -> None:
    """Set each setting of cfg, but an unset path or endpoint, to what its
    reader gives, as load_config does; then check paths and endpoint."""
    for key, (attr, read) in _SETTINGS.items():
        if getattr(cfg, attr) is not None or key not in _UNSET:
            setattr(cfg, attr, read(getattr(cfg, attr), key))
    for p in cfg.inputs:
        if not p.exists():
            raise ConfigInvalidError(f"input path does not exist: {p}")
        if p.is_dir() and next(p.glob("*.tex"), None) is None:
            raise ConfigInvalidError(f"input directory holds no *.tex file: {p}")
    for name, p in (("glossary", cfg.glossary_path), ("bibliography", cfg.bibliography_path)):
        if p is not None and not p.is_file():
            raise ConfigInvalidError(f"{name} file does not exist: {p}")
    if cfg.endpoint is not None:
        bad = _NOT_URL.search(cfg.endpoint)
        if bad:
            raise ConfigInvalidError(f"endpoint holds {bad.group()!r}, which a URL does not allow")
        try:
            parsed = urlsplit(cfg.endpoint)
            parsed.port  # a port that is no number raises ValueError
        except ValueError:
            parsed = None
        if parsed is None or parsed.scheme not in ("http", "https") or not parsed.netloc:
            raise ConfigInvalidError(f"endpoint is not an absolute URL: {cfg.endpoint}")


def _check_outputs(
    cfg: PipelineConfig, files: Sequence[Path], outputs: Sequence[Path | None], verb: str
) -> None:
    """Refuse, before any input is read, an output path that resolves to
    an input file, the glossary, the bibliography or another output.  A
    path that is None is unset."""
    taken = {path.resolve(): f"its input {path}" for path in files}
    for what, path in (("glossary", cfg.glossary_path), ("bibliography", cfg.bibliography_path)):
        if path is not None:
            taken.setdefault(path.resolve(), f"its {what} {path}")
    for path in filter(None, outputs):
        key = path.resolve()
        if key in taken:
            raise ConfigInvalidError(f"{verb} would overwrite {taken[key]}")
        taken[key] = f"its output {path}"


def _load_glossary(cfg: PipelineConfig) -> Glossary:
    if cfg.glossary_path is None:
        return builtin_glossary()
    return load_glossary(cfg.glossary_path)


# What reading and converting one input file may raise: a file-level
# failure that drops the file, never the run
_FILE_ERRORS = (SemtexError, OSError, UnicodeDecodeError)


def _file_failure(exc: Exception, source: str) -> str:
    """The report line of a file that failed with exc, naming the line:col
    of a document-structure error; a span failure names its own."""
    msg = f"{type(exc).__name__}: {exc}"
    if isinstance(exc, (UnbalancedGroupError, UnterminatedEnvironmentError)):
        msg += f" at line {_line_col(source, exc.position)}"
    return msg


# Characters _write encodes at a time
_WRITE_SLICE = 1 << 16


def _write(path: Path, text: str) -> None:
    """Write text to path as UTF-8, a slice at a time, so no encoded copy
    of the whole text is ever held."""
    try:
        with path.open("w", encoding="utf-8", newline="\n") as fh:
            for start in range(0, len(text), _WRITE_SLICE):
                fh.write(text[start : start + _WRITE_SLICE])
    except OSError as exc:
        raise ConfigInvalidError(f"cannot write {path}: {exc}") from exc


class RunResult(NamedTuple):
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
    A bad setting, an output path whose directory is missing or that
    would overwrite an input, a setting's file or the other output, two
    inputs that would give the same formula ids and, in a run over
    several files, an id prefix that holds ':' raise ConfigInvalidError
    before any input is read.
    """
    validate_config(cfg)
    targets = (cfg.output_path, cfg.report_path) if write else ()
    for path in targets:
        if path is not None and not path.parent.is_dir():
            raise ConfigInvalidError(f"cannot write {path}: no directory {path.parent}")
    files = expand_inputs(cfg.inputs)
    _check_outputs(cfg, files, targets, "the run")
    prefixes = _id_prefixes(files)
    # prefixes MediaWiki takes for one would give pages one title, and so
    # may a prefix with a ':' (a:b.tex's \label{c} and a.tex's \label{b:c})
    multi = len(files) > 1
    first: dict[str, Path] = {}
    for path, prefix in zip(files, prefixes):
        if multi and ":" in prefix:
            raise ConfigInvalidError(
                f"input {path} would prefix its formula ids with {prefix!r}, which holds ':'"
            )
        key = _title_key(prefix)
        if first.setdefault(key, path) != path:
            raise ConfigInvalidError(
                f"inputs {first[key]} and {path} share the formula id prefix {prefix!r}"
            )
    glossary = _load_glossary(cfg)
    bib = (
        load_bibliography(cfg.bibliography_path)
        if cfg.bibliography_path is not None
        else {cfg.citation_key: BibEntry(key=cfg.citation_key, author="", title="")}
    )

    formulae: list[Formula] = []
    defs: list[SubstitutionDef] = []
    failures: list[tuple[str, str]] = []
    parts: list[ReplacementStats] = []
    file_error = False
    for path, prefix in zip(files, prefixes):
        text = ""
        try:
            text = path.read_text(encoding="utf-8")
            bad = _NOT_XML.search(text)
            if bad:
                raise ForbiddenCharacterError(bad.group(), _line_col(text, bad.start()))
            res = extract_document(
                text,
                glossary,
                citation_key=cfg.citation_key,
                keywords=cfg.keywords,
                introducers=cfg.introducers,
            )
        except _FILE_ERRORS as exc:
            failures.append((str(path), _file_failure(exc, text)))
            file_error = True
            continue
        for f in res.formulae:
            if multi:
                f.id = f"{prefix}:{f.id}"
            formulae.append(f)
        defs.extend(res.defs)
        parts.append(res.stats)
        for fid, msg in res.failures:
            failures.append((f"{prefix}:{fid}" if multi else fid, msg))

    stats = ReplacementStats.combine(parts)
    pages = [render_page(f, glossary, bib, cfg.corpus_prefix) for f in formulae]
    dump = emit_dump(pages, cfg.siteinfo)
    report = stats_report(stats, formulae, defs, glossary, failures)

    for path, text in zip(targets, (dump, report)):
        if path is not None:
            _write(path, text)

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


def replace_files(
    cfg: PipelineConfig, outdir: Path
) -> Iterator[tuple[str, ReplacementStats | str]]:
    """Rewrite every input file with replace_text into outdir, one at a
    time, and yield (output name, stats) for each file written and
    (input path, error message) for each file that failed and was
    skipped.  Files that share a name land at their id-prefix paths, as
    in run_pipeline, each keeping its suffix.  An output that would be
    an input file or a setting's file raises ConfigInvalidError before
    anything is read or written, so the input is left to diff against.
    """
    validate_config(cfg)
    files = expand_inputs(cfg.inputs)
    names = [prefix + path.suffix for path, prefix in zip(files, _id_prefixes(files))]
    _check_outputs(cfg, files, [outdir / name for name in names], "replace")
    glossary = _load_glossary(cfg)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot create output directory {outdir}: {exc}") from exc
    for path, name in zip(files, names):
        text = ""
        try:
            # newline="" keeps each line ending as the input has it
            with path.open(encoding="utf-8", newline="") as fh:
                text = fh.read()
            rewritten, stats = replace_text(text, glossary)
            target = outdir / name
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(rewritten, encoding="utf-8", newline="")
        except _FILE_ERRORS as exc:
            yield str(path), _file_failure(exc, text)
            continue
        yield name, stats


# The longest one request to the rendering service may take, from
# connecting to the last byte of the answer: every socket operation waits
# only for the time left, so a service that trickles cannot hold a run.
_RENDER_DEADLINE_S = 60.0


class RenderedMath(NamedTuple):
    presentation: str
    content: str


def _left(deadline: float) -> float:
    """The time left before deadline, the longest a socket operation may
    wait; none left raises TimeoutError."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError
    return left


class _Timed(io.RawIOBase):
    """A socket as an http.client response reads it, each read waiting
    only for the time left.  The socket's own reader keeps it open until
    the response is closed, even once the connection has let it go."""

    def __init__(self, sock, deadline: float):
        self._sock, self._deadline = sock, deadline
        self._raw = sock.makefile("rb", buffering=0)

    def makefile(self, mode: str) -> io.BufferedReader:
        return io.BufferedReader(self)

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        self._sock.settimeout(_left(self._deadline))
        return self._raw.readinto(buffer)

    def close(self) -> None:
        self._raw.close()
        super().close()


def _connection(endpoint: str):
    import http.client

    try:
        url = urlsplit(endpoint)
        kind = http.client.HTTPSConnection if url.scheme == "https" else http.client.HTTPConnection
        return kind(url.netloc)
    except (ValueError, http.client.InvalidURL) as exc:
        raise ServiceUnreachableError(f"{endpoint}: {exc}") from exc


def request_mathml(semantic_latex: str, endpoint: str) -> RenderedMath:
    """POST semantic LaTeX to a rendering service.

    The service answers with XML holding a presentation and a content
    MathML island; anything else, a body that does not decode included,
    raises ServiceRejectedError.  Transport failures, an endpoint that is
    no HTTP URL and an answer not complete within _RENDER_DEADLINE_S
    raise ServiceUnreachableError.
    """
    with closing(_connection(endpoint)) as conn:
        return _post_mathml(conn, semantic_latex, endpoint)


def _post_mathml(conn, semantic_latex: str, endpoint: str) -> RenderedMath:
    """request_mathml over conn, which an earlier request may have opened."""
    import http.client
    import zlib
    from xml.etree import ElementTree

    deadline = time.monotonic() + _RENDER_DEADLINE_S
    conn.response_class = lambda sock, *args, **kwargs: http.client.HTTPResponse(
        _Timed(sock, deadline), *args, **kwargs
    )
    url = urlsplit(endpoint)
    target = (url.path or "/") + (url.query and "?" + url.query)
    headers = {"Content-Type": "text/plain; charset=utf-8", "Accept-Encoding": "gzip, deflate"}
    try:
        # a kept connection the service has closed unasked is opened again
        for kept in (conn.sock is not None, False):
            if not kept:
                conn.close()
                conn.timeout = _left(deadline)
                conn.connect()
            conn.sock.settimeout(_left(deadline))  # for the sends, not what a read left
            try:
                conn.request("POST", target, semantic_latex.encode("utf-8"), headers)
                resp = conn.getresponse()
                break
            except OSError:  # over TLS, an SSLEOFError rather than a ConnectionError
                if not kept:
                    raise
        with resp:
            body = resp.read()
    except TimeoutError as exc:
        msg = f"{endpoint}: no complete answer within {_RENDER_DEADLINE_S:g} s"
        raise ServiceUnreachableError(msg) from exc
    except (OSError, http.client.HTTPException) as exc:
        raise ServiceUnreachableError(f"{endpoint}: {exc}") from exc
    coding = resp.getheader("Content-Encoding", "").strip().lower()
    try:
        if coding in ("gzip", "x-gzip"):
            body = zlib.decompress(body, 16 + zlib.MAX_WBITS)
        elif coding == "deflate":
            try:  # zlib-wrapped, as RFC 9110 says, or else raw
                body = zlib.decompress(body)
            except zlib.error:
                body = zlib.decompress(body, -zlib.MAX_WBITS)
    except zlib.error as exc:
        raise ServiceRejectedError(resp.status, f"undecodable response: {exc}") from exc
    try:
        text = body.decode(resp.msg.get_content_charset() or "utf-8", errors="replace")
    except (LookupError, ValueError):  # a charset Python does not know
        text = body.decode("utf-8", errors="replace")
    if resp.status != 200:
        raise ServiceRejectedError(resp.status, text[:200])
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        raise ServiceRejectedError(resp.status, f"unparseable response: {exc}")
    pres, cont = root.find("presentation/*"), root.find("content/*")
    if pres is None or cont is None:
        raise ServiceRejectedError(resp.status, "response lacks presentation/content parts")
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
    so a dead service costs one deadline rather than one per formula.
    The requests share one connection while the service keeps it open.
    An endpoint that is no HTTP URL raises ServiceUnreachableError.
    """
    out = []
    unreachable = False
    with closing(_connection(endpoint)) as conn:
        for f in formulae:
            if unreachable:
                out.append((f.id, "warning: service unreachable (skipped)"))
                continue
            try:
                _post_mathml(conn, f.source_semantic, endpoint)
                out.append((f.id, "ok"))
            except ServiceUnreachableError as exc:
                out.append((f.id, f"warning: service unreachable: {exc}"))
                unreachable = True
            except ServiceRejectedError as exc:
                out.append((f.id, f"warning: service rejected: {exc}"))
    return out
