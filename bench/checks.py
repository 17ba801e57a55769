"""Output checks.  Each returns a list of problems; an empty list passes.

The benchmark reports no numbers for a run in which any check fails.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from xml.etree import ElementTree

import oracle  # tests/oracle.py
from corpus import Corpus, Row, page_key
from semtex.canonicalize import canonicalize_string
from semtex.engine import replace_all, strip_semantics
from semtex.lexer import extract_math

_NS = "{http://www.mediawiki.org/xml/export-0.10/}"
_SUBST_RE = re.compile(r"^== Substitutions ==\n((?::<math>.*</math>\n)+)", re.M)


def golden(dump: str, report: str, golden_dump: str, golden_report: str) -> list[str]:
    """The fixture's dump and report must match the golden files byte for byte."""
    out = []
    if dump != golden_dump:
        out.append("fixture dump differs from tests/data/golden_dump.xml")
    if report != golden_report:
        out.append("fixture report differs from tests/data/golden_report.txt")
    return out


def failed_rows(report: str, rows_per_file: dict[str, int]) -> int:
    """Rows the report lists under failures; a failed input file (listed
    by its path) counts every row of that file."""
    listed = report.split("\nfailures: ", 1)[1].splitlines()[1:]
    n = 0
    for line in listed:
        where = line.strip().split(": ", 1)[0]
        n += rows_per_file.get(Path(where).stem, 1) if where.endswith(".tex") else 1
    return n


def sample_rows(c: Corpus, seed: int, k: int) -> list[Row]:
    rng = random.Random(seed ^ 0x5EED)
    return rng.sample(c.rows, min(k, len(c.rows)))


def engine_sample(bodies: list[str], glossary) -> list[str]:
    """replace_all's per-rule counts equal the brute-force oracle's, and
    strip_semantics undoes replace_all, on each sampled row."""
    out = []
    for body in bodies:
        tree = canonicalize_string(body, glossary.settings)
        replaced, stats = replace_all(tree, glossary)
        expect = oracle.scan(tree.nodes, glossary)
        if dict(stats.per_rule) != dict(expect):
            out.append(f"replace_all counts {dict(stats.per_rule)} != oracle {dict(expect)} on {body!r}")
        if strip_semantics(replaced, glossary) != tree:
            out.append(f"strip_semantics(replace_all(t)) != t on {body!r}")
    return out


def dump_pages(dump: str) -> dict[str, str]:
    """Page title -> wikitext.  Raises ElementTree.ParseError."""
    root = ElementTree.fromstring(dump)
    return {
        p.findtext(f"{_NS}title"): p.findtext(f"{_NS}revision/{_NS}text") or ""
        for p in root.iter(f"{_NS}page")
    }


def _title_key(title: str, multi_file: bool, single_stem: str) -> str:
    key = title.split(":", 2)[2]
    return key if multi_file else f"{single_stem}:{key}"


def _head(equation: str) -> str:
    """Head key of a rendered def equation: the left side with braces
    and spaces removed, up to an argument list."""
    lhs = equation.split("=", 1)[0]
    return re.sub(r"[{} ]", "", lhs).split("(", 1)[0]


def substitutions(pages: dict[str, str], c: Corpus) -> list[str]:
    """Detected defs and per-page substitution annotations must equal
    the generator's ground truth.

    A detected def is a row that has no page.  Each page must cite, in
    its Substitutions section, exactly the transitive closure of the defs
    its row was generated to use, each once.
    """
    stems = {r.file for r in c.rows}
    multi = len(stems) > 1
    stem = next(iter(stems))
    want = c.expected_substitutions()
    unit_of = {page_key(r): r.unit for r in c.rows}
    by_head = {(unit, head): label for label, (unit, head, _) in c.defs.items()}
    got_keys = {_title_key(t, multi, stem) for t in pages}
    out = []
    planted = {page_key(r) for r in c.rows if r.is_def}
    detected = set(unit_of) - got_keys
    if detected != planted:
        out.append(
            f"detected defs differ from planted: missing {sorted(planted - detected)[:5]}, "
            f"extra {sorted(detected - planted)[:5]}"
        )
    if got_keys - set(unit_of):
        out.append(f"pages for unknown rows: {sorted(got_keys - set(unit_of))[:5]}")
    for title, text in pages.items():
        key = _title_key(title, multi, stem)
        if key not in want:
            continue
        m = _SUBST_RE.search(text)
        lines = m.group(1).splitlines() if m else []
        cited = [by_head.get((unit_of[key], _head(ln[7:-7])), "?" + ln) for ln in lines]
        if len(cited) != len(set(cited)) or set(cited) != want[key]:
            out.append(f"{title}: substitutions {sorted(cited)} != expected {sorted(want[key])}")
    return out


def _spans_text(text: str) -> list[str]:
    return [text[a:b] for a, b in (ms.span for ms in extract_math(text))]


def rerun_changed(first: str, second: str) -> tuple[int, int]:
    """(spans, spans whose text a second `replace` pass changed)."""
    a, b = _spans_text(first), _spans_text(second)
    return len(a), sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))
