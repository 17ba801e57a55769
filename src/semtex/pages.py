"""Formula home pages: wikitext rendering and the MediaWiki XML dump.

Every Formula becomes one wiki page whose sections mirror its annotation
kinds; pages are serialized into a deterministic export file suitable
for bulk import.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .engine import ReplacementStats
from .errors import ConfigInvalidError, DuplicateTitleError, MissingBibEntryError
from .glossary import Glossary, MacroRule
from .metadata import AnnotationKind, Formula, SubstitutionDef, _title_key

EXPORT_NS = "http://www.mediawiki.org/xml/export-0.10/"
EXPORT_SCHEMA = "http://www.mediawiki.org/xml/export-0.10.xsd"


class SymbolsListEntry(NamedTuple):
    macro_name: str
    rendered_form: str
    definition_link: str
    description: str


class FormulaPage(NamedTuple):
    title: str
    wikitext: str


class BibEntry(NamedTuple):
    key: str
    author: str
    title: str
    publisher: str = ""
    year: str = ""


class SiteInfo(NamedTuple):
    """Fixed dump header fields; pinned so dumps are byte-identical."""

    sitename: str = "DRMF"
    dbname: str = "drmf"
    base: str = "http://drmf.wmflabs.org/wiki/Main_Page"
    generator: str = "semtex"
    case: str = "first-letter"
    lang: str = "en"
    timestamp: str = "2010-01-01T00:00:00Z"
    contributor: str = "SeedBot"
    comment: str = "seeded formula home page"


# The types each bibliography field may have; bool is never one
_BIB_FIELDS = {"author": (str,), "title": (str,), "publisher": (str,), "year": (str, int)}


def load_bibliography(path: str | Path) -> dict[str, BibEntry]:
    """Read a UTF-8 JSON object of key -> entry object whose author, title
    and publisher are strings and whose year is a string or an integer;
    raises ConfigInvalidError naming the file when it is anything else."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise ConfigInvalidError(f"cannot read bibliography {path}: {exc}") from exc
    if not isinstance(raw, dict) or not all(isinstance(obj, dict) for obj in raw.values()):
        raise ConfigInvalidError(f"bibliography {path} must map each key to an object")
    out = {}
    for key, obj in raw.items():
        for name, types in _BIB_FIELDS.items():
            value = obj.get(name, "")
            if not isinstance(value, types) or isinstance(value, bool):
                kinds = " or ".join(t.__name__ for t in types)
                raise ConfigInvalidError(
                    f"bibliography {path}: {name} of {key!r} must be a {kinds}"
                )
        out[key] = BibEntry(
            key=key,
            author=obj.get("author", ""),
            title=obj.get("title", ""),
            publisher=obj.get("publisher", ""),
            year=str(obj.get("year", "")),
        )
    return out


def _placeholder_form(rule: MacroRule) -> str:
    return rule.template.replace("#", "")


def _heads_in(f: Formula, glossary: Glossary) -> Iterator[str]:
    """Each glossary head that occurs in the formula or one of its
    annotation bodies as \\head not followed by a letter (str.isalpha,
    so \\cosé holds no cos but \\cos² does)."""
    for text in (f.source_semantic, *(a.body for a in f.annotations)):
        n = len(text)
        for m in glossary._head_re.finditer(text):
            end = m.end(1)
            if end == n or not text[end].isalpha():
                yield m.group(1)


def build_symbols_list(f: Formula, glossary: Glossary) -> list[SymbolsListEntry]:
    """Deduplicated, name-sorted glossary macros occurring in the
    formula or any of its annotation bodies."""
    found = set(_heads_in(f, glossary))
    entries = []
    for name in glossary.macro_names:
        rule = glossary.by_name[name]
        if rule.head in found:
            entries.append(
                SymbolsListEntry(
                    macro_name=name,
                    rendered_form=_placeholder_form(rule),
                    definition_link=rule.definition_link,
                    description=rule.description,
                )
            )
    return entries


def _section(title: str, lines: Sequence[str]) -> list[str]:
    """A page section: its heading, its lines and a blank line, or
    nothing when it has no lines."""
    return [f"== {title} ==", *lines, ""] if lines else []


def render_page(
    f: Formula,
    glossary: Glossary,
    bib: Mapping[str, BibEntry],
    corpus_prefix: str,
) -> FormulaPage:
    """Wikitext for one formula home page.

    Section order is fixed (constraints, substitutions, proof, notes,
    symbols list, bibliography); empty sections are omitted.
    """
    if f.citation.key not in bib:
        raise MissingBibEntryError(f.citation.key)
    entry = bib[f.citation.key]

    lines: list[str] = []
    names = f.annotations_of(AnnotationKind.NAME)
    if names:
        lines.append(f"''{names[0].body}''")
        lines.append("")
    lines.append(f"<math>{f.source_semantic}</math>")
    lines.append("")
    for title, kind in (
        ("Constraints", AnnotationKind.CONSTRAINT),
        ("Substitutions", AnnotationKind.SUBSTITUTION),
    ):
        lines += _section(title, [f":<math>{a.body}</math>" for a in f.annotations_of(kind)])
    for title, kind in (("Proof", AnnotationKind.PROOF), ("Notes", AnnotationKind.NOTE)):
        lines += _section(title, [a.body for a in f.annotations_of(kind)])
    lines += _section(
        "Symbols List",
        [
            f"* <math>{s.rendered_form}</math> : {s.description} "
            f"([{s.definition_link} definition])"
            for s in build_symbols_list(f, glossary)
        ],
    )

    lines.append("== Bibliography ==")
    cite = f"Equation ({f.citation.tag}) of {entry.author}, ''{entry.title}''"
    if entry.publisher:
        cite += f", {entry.publisher}"
    if entry.year:
        cite += f", {entry.year}"
    lines.append(cite + ".")

    title = f"Formula:{corpus_prefix}:{f.id}"
    return FormulaPage(title=title, wikitext="\n".join(lines))


def _escape(text: str) -> str:
    """Escape &, > and < for XML, as xml.sax.saxutils.escape does; that
    module imports urllib.request and with it the network stack."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _attr(text: str) -> str:
    """Escape text for a double-quoted XML attribute value."""
    return _escape(text).replace('"', "&quot;")


def emit_dump(pages: Sequence[FormulaPage], siteinfo: SiteInfo = SiteInfo()) -> str:
    """Deterministic MediaWiki export XML for the given pages, in order,
    with page ids 1..N.  Raises DuplicateTitleError on two titles that
    MediaWiki takes for one."""
    seen = set()
    for p in pages:
        key = _title_key(p.title)
        if key in seen:
            raise DuplicateTitleError(p.title)
        seen.add(key)

    si = siteinfo
    out = [
        f'<mediawiki xmlns="{EXPORT_NS}" '
        'xmlns:xsi="http://www.w3.org/2001/XMLSchema-instance" '
        f'xsi:schemaLocation="{EXPORT_NS} {EXPORT_SCHEMA}" '
        f'version="0.10" xml:lang="{_attr(si.lang)}">',
        "  <siteinfo>",
        f"    <sitename>{_escape(si.sitename)}</sitename>",
        f"    <dbname>{_escape(si.dbname)}</dbname>",
        f"    <base>{_escape(si.base)}</base>",
        f"    <generator>{_escape(si.generator)}</generator>",
        f"    <case>{_escape(si.case)}</case>",
        "    <namespaces>",
        f'      <namespace key="0" case="{_attr(si.case)}" />',
        "    </namespaces>",
        "  </siteinfo>",
    ]
    # one string a page, each page's escaped wikitext freed as soon as
    # that string is made, rather than sixteen strings a page held to
    # the join
    revision = (
        f"      <timestamp>{_escape(si.timestamp)}</timestamp>\n"
        "      <contributor>\n"
        f"        <username>{_escape(si.contributor)}</username>\n"
        "      </contributor>\n"
        f"      <comment>{_escape(si.comment)}</comment>\n"
        "      <model>wikitext</model>\n"
        "      <format>text/x-wiki</format>\n"
    )
    for num, p in enumerate(pages, start=1):
        out.append(
            "  <page>\n"
            f"    <title>{_escape(p.title)}</title>\n"
            "    <ns>0</ns>\n"
            f"    <id>{num}</id>\n"
            "    <revision>\n"
            f"      <id>{num}</id>\n"
            f"{revision}"
            f'      <text xml:space="preserve">{_escape(p.wikitext)}</text>\n'
            "    </revision>\n"
            "  </page>"
        )
    out.append("</mediawiki>\n")
    return "\n".join(out)


def stats_report(
    stats: ReplacementStats,
    fs: Sequence[Formula],
    defs: Sequence[SubstitutionDef],
    glossary: Glossary,
    failures: Iterable[tuple[str, str]] = (),
) -> str:
    """Human-readable run summary; every number is restated by the
    acceptance tests, so the layout is frozen by the golden file."""
    annotated = sum(
        1 for f in fs if f.annotations_of(AnnotationKind.SUBSTITUTION)
    )
    non_empty = sum(1 for f in fs if next(_heads_in(f, glossary), None) is not None)
    pages = len(fs)
    pct = (100.0 * non_empty / pages) if pages else 0.0
    lines = [
        f"pages: {pages}",
        f"formulae: {stats.formulae}",
        f"replacements: {stats.total}",
        f"average per formula: {stats.total / stats.formulae if stats.formulae else 0.0:.2f}",
        f"substitution definitions (removed from page list): {len(defs)}",
        f"formulae with substitution annotations: {annotated}",
        f"non-empty symbols lists: {non_empty}/{pages} ({pct:.1f}%)",
        "per-rule replacement counts:",
    ]
    for name, count in sorted(stats.per_rule.items()):
        lines.append(f"  {name}: {count}")
    fail_list = list(failures)
    lines.append(f"failures: {len(fail_list)}")
    for where, message in fail_list:
        lines.append(f"  {where}: {message}")
    lines.append("")
    return "\n".join(lines)
