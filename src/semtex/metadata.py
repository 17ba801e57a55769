"""Formula segmentation and rule-based metadata extraction.

Turns a document into Formula records: one per display-math row, with
trailing constraint clauses split off the body, prose constraints and
names and notes harvested from surrounding text, and substitution
definitions detected and inlined into the formulae that use them.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .canonicalize import (
    DEFAULT_SETTINGS,
    CanonicalSettings,
    CanonicalTree,
    canonicalize,
    canonicalize_string,
)
from .engine import ReplacementStats, replace_all
from .errors import SemtexError, SubstitutionCycleError
from .glossary import Glossary
from .lexer import (
    Group,
    Node,
    Token,
    TokenKind,
    _group_text,
    _math_spans,
    render,
    tokenize,
)

DEFAULT_KEYWORDS = (
    "normalized recurrence relation",
    "rodrigues-type formula",
    "recurrence relation",
    "generating function",
    "difference equation",
    "orthogonality",
    "forward shift",
    "backward shift",
    "limit relation",
    "definition",
)

DEFAULT_INTRODUCERS = ("where", "for", "provided")

# words a name keyword extends through when they follow it in prose
_NAME_TAILS = frozenset({"relation", "formula", "function", "equation"})

_RELATIONAL_CHARS = frozenset("<>=")
_RELATIONAL_NAMES = frozenset({"le", "leq", "ge", "geq", "ne", "neq", "in"})

_PROOF_RE = re.compile(r"%\s*proof:\s*(.+)$", re.IGNORECASE)


class AnnotationKind(Enum):
    CONSTRAINT = "constraint"
    SUBSTITUTION = "substitution"
    NAME = "name"
    PROOF = "proof"
    NOTE = "note"


@dataclass(frozen=True)
class Annotation:
    """One piece of metadata attached to a Formula.

    body is semantic LaTeX for constraints and substitutions, prose for
    names and notes; origin names the formula id or source region the
    annotation was harvested from.
    """

    kind: AnnotationKind
    body: str
    origin: str = ""


@dataclass(frozen=True)
class Citation:
    key: str
    tag: str


@dataclass
class Formula:
    """One display-math row with its metadata.

    source_canonical is the retained core after constraint splitting;
    source_semantic is the rendering of the replaced core and
    semantic_nodes its tree form.
    """

    id: str
    source_canonical: CanonicalTree
    source_semantic: str
    citation: Citation
    annotations: list[Annotation] = field(default_factory=list)
    semantic_nodes: tuple[Node, ...] = ()
    section_path: tuple[str, ...] = ()
    unit: str = "doc"
    ordinal: int = 0
    span: tuple[int, int] = (0, 0)
    outer: tuple[int, int] = (0, 0)
    stats: ReplacementStats = field(default_factory=ReplacementStats)

    def annotations_of(self, kind: AnnotationKind) -> list[Annotation]:
        return [a for a in self.annotations if a.kind is kind]


@dataclass
class SubstitutionDef:
    """A formula that merely defines a symbol used by its neighbours."""

    lhs_head: tuple[Node, ...]
    is_function: bool
    rhs: tuple[Node, ...]
    def_formula_id: str
    equation: str
    unit: str


@dataclass
class ExtractionResult:
    formulae: list[Formula]
    defs: list[SubstitutionDef]
    stats: ReplacementStats
    failures: list[tuple[str, str]] = field(default_factory=list)


def _leaves(nodes: Iterable[Node]) -> Iterator[Token]:
    for nd in nodes:
        if isinstance(nd, Group):
            yield from _leaves(nd.children)
        else:
            yield nd


def _is_relational(tok: Node) -> bool:
    if not isinstance(tok, Token):
        return False
    if tok.kind is TokenKind.CHAR and tok.text in _RELATIONAL_CHARS:
        return True
    return tok.kind is TokenKind.CONTROL and tok.name in _RELATIONAL_NAMES


def contains_relational(nodes: Iterable[Node]) -> bool:
    return any(_is_relational(t) for t in _leaves(nodes))


@dataclass(frozen=True)
class _Heading:
    pos: int
    end: int
    level: str
    title: str


def _scan_sections(tokens: list[Token]) -> list[_Heading]:
    out: list[_Heading] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind is TokenKind.CONTROL and t.name in ("section", "subsection"):
            j = i + 1
            if j < n and tokens[j].is_char("*"):
                j += 1
            got = _group_text(tokens, j)
            if got is not None:
                title, after = got
                out.append(
                    _Heading(t.span[0], tokens[after - 1].span[1], t.name, title.strip())
                )
                i = after
                continue
        i += 1
    return out


def _locate(sections: Sequence[_Heading], pos: int) -> tuple[tuple[str, ...], str]:
    sec = sub = None
    si = ui = -1
    for k, s in enumerate(sections):
        if s.pos >= pos:
            break
        if s.level == "section":
            sec, si = s, k
            sub, ui = None, -1
        else:
            sub, ui = s, k
    path = tuple(h.title for h in (sec, sub) if h is not None)
    unit = f"u{si}.{ui}" if path else "doc"
    return path, unit


def _strip_markup(nodes: Sequence[Node]) -> list[Node]:
    """Drop \\label{...}, \\nonumber, \\notag and trailing punctuation
    from a row body."""
    out: list[Node] = []
    i = 0
    while i < len(nodes):
        nd = nodes[i]
        if isinstance(nd, Token) and nd.kind is TokenKind.CONTROL:
            if nd.name == "label" and i + 1 < len(nodes) and isinstance(nodes[i + 1], Group):
                i += 2
                continue
            if nd.name in ("nonumber", "notag"):
                i += 1
                continue
        out.append(nd)
        i += 1
    while out and (
        isinstance(out[-1], Token)
        and (out[-1].kind is TokenKind.WHITESPACE or out[-1].text in (",", ".", ";"))
    ):
        out.pop()
    return out


def _segment(
    tokens: list[Token],
    sections: Sequence[_Heading],
    glossary: Glossary,
    citation_key: str,
    settings: CanonicalSettings | None,
) -> tuple[list[Formula], list[tuple[str, str]]]:
    settings = settings or glossary.settings
    formulae: list[Formula] = []
    failures: list[tuple[str, str]] = []
    ordinal = 0
    for ms in _math_spans(tokens):
        if not ms.is_display:
            continue
        ordinal += 1
        fid = ms.label or f"f{ordinal}"
        proofs = [
            Annotation(AnnotationKind.PROOF, m.group(1).strip(), origin=fid)
            for t in _leaves(ms.body)
            if t.kind is TokenKind.COMMENT
            for m in [_PROOF_RE.match(t.text)]
            if m is not None
        ]
        body = _strip_markup(list(ms.body))
        path, unit = _locate(sections, ms.outer[0])
        try:
            core = canonicalize(body, settings)
        except SemtexError as exc:
            failures.append((fid, f"{type(exc).__name__}: {exc}"))
            continue
        formulae.append(
            Formula(
                id=fid,
                source_canonical=core,
                source_semantic="",
                citation=Citation(citation_key, fid),
                annotations=proofs,
                section_path=path,
                unit=unit,
                ordinal=ordinal,
                span=ms.span,
                outer=ms.outer,
            )
        )
    return formulae, failures


def segment_formulae(
    source: str,
    glossary: Glossary,
    citation_key: str = "",
    settings: CanonicalSettings | None = None,
) -> list[Formula]:
    """One Formula per display row, in document order.

    Bodies are canonicalized with labels stripped; ids come from \\label
    when present, else f<ordinal>.  Proof annotations are taken from
    `% proof:` comments inside the row.  Constraint splitting and
    replacement happen later; source_semantic starts empty.  Rows whose
    bodies cannot be canonicalized are dropped here; extract_document
    reports them as failures.
    """
    tokens = tokenize(source)
    return _segment(tokens, _scan_sections(tokens), glossary, citation_key, settings)[0]


def _split_trailing(nodes: Sequence[Node]) -> tuple[tuple[Node, ...], list[tuple[Node, ...]]]:
    """Split trailing constraint clauses off a canonical body.

    Top-level comma segments are scanned right to left; each maximal run
    whose leftmost segment carries a relational token becomes one clause
    (so enumerations like n=0,1,...,N stay together).  The first segment
    is never split off; segments below the last clause rejoin the core.
    """
    nodes = list(nodes)
    commas: list[int] = []
    depth = 0
    for i, nd in enumerate(nodes):
        if not isinstance(nd, Token):
            continue
        if nd.text in ("(", "["):
            depth += 1
        elif nd.text in (")", "]"):
            depth = max(0, depth - 1)
        elif nd.is_char(",") and depth == 0:
            commas.append(i)
    if not commas:
        return tuple(nodes), []

    segs: list[tuple[int, int]] = []
    prev = -1
    for c in commas + [len(nodes)]:
        segs.append((prev + 1, c))
        prev = c

    def seg_relational(bounds: tuple[int, int]) -> bool:
        d = 0
        for nd in nodes[bounds[0] : bounds[1]]:
            if not isinstance(nd, Token):
                continue
            if nd.text in ("(", "["):
                d += 1
            elif nd.text in (")", "]"):
                d = max(0, d - 1)
            elif d == 0 and _is_relational(nd):
                return True
        return False

    ranges: list[tuple[int, int]] = []
    run_end: int | None = None
    for k in range(len(segs) - 1, 0, -1):
        if run_end is None:
            run_end = k
        if seg_relational(segs[k]):
            ranges.insert(0, (k, run_end))
            run_end = None
    if not ranges:
        return tuple(nodes), []
    first = ranges[0][0]
    core = tuple(nodes[: segs[first][0] - 1])
    clauses = [tuple(nodes[segs[a][0] : segs[b][1]]) for a, b in ranges]
    return core, clauses


def _strip_comment_lines(text: str) -> str:
    lines = []
    for line in text.split("\n"):
        m = re.search(r"(?<!\\)%", line)
        lines.append(line[: m.start()] if m else line)
    return "\n".join(lines)


def _sentences(text: str) -> list[str]:
    """Split prose into sentences, treating $...$ as opaque."""
    text = _strip_comment_lines(text)
    out: list[str] = []
    buf: list[str] = []
    in_math = False
    for ch in text:
        buf.append(ch)
        if ch == "$":
            in_math = not in_math
        elif ch in ".!?" and not in_math:
            out.append("".join(buf))
            buf = []
    out.append("".join(buf))
    return [re.sub(r"\s+", " ", s).strip() for s in out if s.strip()]


def _begins_with_introducer(sentence: str, introducers: Sequence[str]) -> bool:
    m = re.match(r"[A-Za-z]+", sentence)
    return m is not None and m.group(0).lower() in introducers


def _prose_constraints(
    sentence: str, settings: CanonicalSettings, origin: str
) -> list[Annotation]:
    out = []
    for m in re.finditer(r"\$([^$]+)\$", sentence):
        tree = canonicalize_string(m.group(1), settings)
        if contains_relational(tree.nodes):
            out.append(
                Annotation(AnnotationKind.CONSTRAINT, render(tree.nodes), origin=origin)
            )
    return out


def detect_constraints(
    f: Formula,
    following_prose: str = "",
    introducers: Sequence[str] = DEFAULT_INTRODUCERS,
    settings: CanonicalSettings = DEFAULT_SETTINGS,
) -> tuple[CanonicalTree, list[Annotation]]:
    """Split constraints off a formula; the formula is not modified.

    Returns the retained core and Constraint annotations from two
    sources: trailing top-level clauses of the body, and leading
    sentences of the following prose that begin with an introducer word
    and contain inline math with a relational token.  Annotation bodies
    are canonical presentation text; replacement is the caller's step.
    """
    core, clauses = _split_trailing(f.source_canonical.nodes)
    anns = [
        Annotation(AnnotationKind.CONSTRAINT, render(cl), origin=f.id)
        for cl in clauses
    ]
    for sentence in _sentences(following_prose):
        if not _begins_with_introducer(sentence, introducers):
            break
        anns.extend(_prose_constraints(sentence, settings, f.id))
    return CanonicalTree(core), anns


def _sequences(nodes: Sequence[Node]) -> Iterator[Sequence[Node]]:
    yield nodes
    for nd in nodes:
        if isinstance(nd, Group):
            yield from _sequences(nd.children)


def _run_occurs(nodes: Sequence[Node], run: Sequence[Node], as_call: bool) -> bool:
    want = len(run)
    for seq in _sequences(nodes):
        for i in range(len(seq) - want + 1):
            if all(seq[i + k] == run[k] for k in range(want)):
                if not as_call:
                    return True
                nxt = seq[i + want] if i + want < len(seq) else None
                if isinstance(nxt, Token) and nxt.is_char("("):
                    return True
    return False


def _simple_symbol(nodes: Sequence[Node], i: int) -> int | None:
    """Length of a simple symbol at nodes[i]: one letter or control
    sequence, optionally with a single sub/superscript."""
    nd = nodes[i] if i < len(nodes) else None
    if not isinstance(nd, Token):
        return None
    if nd.kind is TokenKind.CHAR and not nd.text.isalpha():
        return None
    if nd.kind not in (TokenKind.CHAR, TokenKind.CONTROL):
        return None
    j = i + 1
    if (
        j < len(nodes)
        and isinstance(nodes[j], Token)
        and nodes[j].kind in (TokenKind.SUBSCRIPT, TokenKind.SUPERSCRIPT)
        and j + 1 < len(nodes)
    ):
        return 3
    return 1


def _parse_def_lhs(nodes: Sequence[Node]) -> tuple[tuple[Node, ...], bool] | None:
    """Recognize H or H(arg, ...) with simple-symbol parts.

    Returns (head run to search for, is_function) or None.  For a
    function only the head symbol is the run; a use is the run followed
    by an opening parenthesis.
    """
    n = _simple_symbol(nodes, 0)
    if n is None:
        return None
    if n == len(nodes):
        return tuple(nodes), False
    if not (isinstance(nodes[n], Token) and nodes[n].is_char("(")):
        return None
    i = n + 1
    while True:
        m = _simple_symbol(nodes, i)
        if m is None:
            return None
        i += m
        if i >= len(nodes) or not isinstance(nodes[i], Token):
            return None
        if nodes[i].is_char(","):
            i += 1
            continue
        if nodes[i].is_char(")"):
            return (tuple(nodes[:n]), True) if i == len(nodes) - 1 else None
        return None


def _top_level_equation(nodes: Sequence[Node]) -> int | None:
    """Index of the single top-level '=' at paren depth 0, if any."""
    depth = 0
    found = None
    for i, nd in enumerate(nodes):
        if not isinstance(nd, Token):
            continue
        if nd.text in ("(", "["):
            depth += 1
        elif nd.text in (")", "]"):
            depth = max(0, depth - 1)
        elif nd.is_char("=") and depth == 0:
            if found is not None:
                return None
            found = i
    return found


def detect_substitutions(
    fs: Sequence[Formula], glossary: Glossary
) -> list[SubstitutionDef]:
    """Formulae that define a symbol reused by another formula in the
    same sectional unit.

    The core must be a single equation H = RHS with H a simple symbol or
    an application of simple symbols; glossary macro heads never
    qualify.
    """
    by_unit: dict[str, list[Formula]] = {}
    for f in fs:
        by_unit.setdefault(f.unit, []).append(f)
    defs: list[SubstitutionDef] = []
    for f in fs:
        nodes = f.semantic_nodes
        eq = _top_level_equation(nodes)
        if eq is None or eq == 0 or eq == len(nodes) - 1:
            continue
        parsed = _parse_def_lhs(nodes[:eq])
        if parsed is None:
            continue
        run, is_function = parsed
        head = run[0]
        if head.inert or (
            head.kind is TokenKind.CONTROL and head.name in glossary.heads
        ):
            continue
        others = [g for g in by_unit[f.unit] if g.id != f.id]
        if not any(_run_occurs(g.semantic_nodes, run, is_function) for g in others):
            continue
        defs.append(
            SubstitutionDef(
                lhs_head=run,
                is_function=is_function,
                rhs=tuple(nodes[eq + 1 :]),
                def_formula_id=f.id,
                equation=f.source_semantic,
                unit=f.unit,
            )
        )
    return defs


def _expand_def(
    d: SubstitutionDef,
    defs: Sequence[SubstitutionDef],
    seen: dict[str, SubstitutionDef],
    path: tuple[str, ...],
) -> None:
    if d.def_formula_id in path:
        cycle = path[path.index(d.def_formula_id) :] + (d.def_formula_id,)
        raise SubstitutionCycleError(cycle)
    if d.def_formula_id in seen:
        return
    seen[d.def_formula_id] = d
    for e in defs:
        if (
            e.def_formula_id != d.def_formula_id
            and e.unit == d.unit
            and _run_occurs(d.rhs, e.lhs_head, e.is_function)
        ):
            _expand_def(e, defs, seen, path + (d.def_formula_id,))


def inline_substitutions(
    fs: Sequence[Formula], defs: Sequence[SubstitutionDef]
) -> list[Formula]:
    """Attach Substitution annotations and drop the defining formulae.

    A formula referencing a def's head gains that def's equation as an
    annotation; defs referenced by a def's right side are inlined
    transitively.  |fs| == |result| + |defs|.
    """
    # surface mutually recursive definitions even when nothing uses them
    for d in defs:
        _expand_def(d, defs, {}, ())
    def_ids = {d.def_formula_id for d in defs}
    out = []
    for f in fs:
        if f.id in def_ids:
            continue
        seen: dict[str, SubstitutionDef] = {}
        for d in defs:
            if d.unit == f.unit and _run_occurs(f.semantic_nodes, d.lhs_head, d.is_function):
                _expand_def(d, defs, seen, ())
        for d in seen.values():
            f.annotations.append(
                Annotation(
                    AnnotationKind.SUBSTITUTION, d.equation, origin=d.def_formula_id
                )
            )
        out.append(f)
    return out


def _match_keyword(sentence: str, keywords: Sequence[str]) -> str | None:
    low = sentence.lower()
    for kw in sorted(keywords, key=len, reverse=True):
        m = re.search(r"\b" + re.escape(kw) + r"\b", low)
        if m is None:
            continue
        end = m.end()
        tail = re.match(r"\s+([a-z]+)", low[end:])
        if tail and tail.group(1) in _NAME_TAILS and not kw.endswith(tail.group(1)):
            end += tail.end()
        return " ".join(low[m.start() : end].split())
    return None


def _noteworthy(sentence: str) -> bool:
    return len(sentence.split()) >= 3 and sentence[0].isalpha()


def _gap_chunks(
    source: str, sections: Sequence[_Heading], a: int, b: int
) -> list[str]:
    chunks = []
    cur = a
    for h in sections:
        if a <= h.pos < b:
            chunks.append(source[cur : h.pos])
            cur = h.end
    chunks.append(source[cur:b])
    return chunks


def _env_edges(fs: Sequence[Formula]) -> tuple[set[int], set[int]]:
    """Ordinals of first and last rows per shared environment."""
    by_outer: dict[tuple[int, int], list[int]] = {}
    for f in fs:
        by_outer.setdefault(f.outer, []).append(f.ordinal)
    first = {min(v) for v in by_outer.values()}
    last = {max(v) for v in by_outer.values()}
    return first, last


def harvest_names_and_notes(
    source: str,
    sections: Sequence[_Heading],
    fs: Sequence[Formula],
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
    introducers: Sequence[str] = DEFAULT_INTRODUCERS,
) -> list[Formula]:
    """Attach Name and Note annotations from each formula's preceding
    prose block.

    The block runs from the previous environment (or the last section
    heading, whichever is closer) to the formula; leading introducer
    sentences belong to the previous formula and are skipped.  The first
    keyword sentence names the formula as "<innermost section> <keyword
    phrase>"; other sentences of three or more words become Notes.
    Formulae without an enclosing section get no Name.  sections are
    the document's headings, as _scan_sections finds them.
    """
    ordered = sorted(fs, key=lambda f: (f.outer[0], f.ordinal))
    firsts, _ = _env_edges(ordered)
    prev_end = 0
    prev_exists = False
    for f in ordered:
        start, end = f.outer
        if f.ordinal in firsts:
            chunks = _gap_chunks(source, sections, prev_end, start)
            sentences = _sentences(chunks[-1])
            if len(chunks) == 1 and prev_exists:
                while sentences and _begins_with_introducer(sentences[0], introducers):
                    sentences.pop(0)
            named = False
            for s in sentences:
                phrase = _match_keyword(s, keywords)
                if phrase is not None:
                    if not named and f.section_path:
                        f.annotations.append(
                            Annotation(
                                AnnotationKind.NAME,
                                f"{f.section_path[-1]} {phrase}",
                                origin=f.id,
                            )
                        )
                    named = True
                elif _noteworthy(s):
                    f.annotations.append(
                        Annotation(AnnotationKind.NOTE, s, origin=f.id)
                    )
        prev_end = max(prev_end, end)
        prev_exists = True
    return list(fs)


def extract_document(
    source: str,
    glossary: Glossary,
    citation_key: str = "",
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
    introducers: Sequence[str] = DEFAULT_INTRODUCERS,
    settings: CanonicalSettings | None = None,
) -> ExtractionResult:
    """Full extraction for one document.

    Segment, split constraints, replace (cores and constraint bodies,
    counts merged per formula), harvest names and notes, then detect and
    inline substitutions.  Failures on individual formulae are recorded
    and skipped; document-level errors propagate.
    """
    settings = settings or glossary.settings
    tokens = tokenize(source)
    sections = _scan_sections(tokens)
    fs, failures = _segment(tokens, sections, glossary, citation_key, settings)
    ordered = sorted(fs, key=lambda f: (f.outer[0], f.ordinal))
    _, lasts = _env_edges(ordered)

    ok: list[Formula] = []
    for idx, f in enumerate(ordered):
        prose = ""
        if f.ordinal in lasts:
            nxt = next(
                (g.outer[0] for g in ordered[idx + 1 :] if g.outer != f.outer),
                len(source),
            )
            chunks = _gap_chunks(source, sections, f.outer[1], nxt)
            prose = chunks[0]
        try:
            core, raw_anns = detect_constraints(f, prose, introducers, settings)
            counts: Counter = Counter()
            sem, stats = replace_all(core, glossary)
            counts.update(stats.per_rule)
            anns = []
            for ann in raw_anns:
                tree = canonicalize_string(ann.body, settings)
                rep, st = replace_all(tree, glossary)
                counts.update(st.per_rule)
                anns.append(Annotation(ann.kind, render(rep.nodes), ann.origin))
            f.source_canonical = core
            f.semantic_nodes = sem.nodes
            f.source_semantic = render(sem.nodes)
            f.stats = ReplacementStats.from_counts(counts, formulae=1)
            f.annotations.extend(anns)
            ok.append(f)
        except SemtexError as exc:
            failures.append((f.id, f"{type(exc).__name__}: {exc}"))

    harvest_names_and_notes(source, sections, ok, keywords, introducers)
    defs = detect_substitutions(ok, glossary)
    remaining = inline_substitutions(ok, defs)
    stats = ReplacementStats.combine(f.stats for f in ok)
    return ExtractionResult(remaining, defs, stats, failures)
