"""Formula segmentation, rule-based metadata extraction and in-place
replacement: the one reader of a document's math rows.

Both verbs read rows here: extract_document (convert) and replace_text
(replace) list a document's rows, build them with one leaf table,
rewrite them and name the line:col of a row that fails.

extract_document turns a document into Formula records: one per
display-math row, with trailing constraint clauses split off the body,
prose constraints and names and notes harvested from surrounding text,
and substitution definitions detected and inlined into the formulae
that use them.

Prose is cut at display environments into gaps.  The leading
introducer sentences of a gap give constraints to the last row of the
environment before it; the rest of the gap gives names and notes to the
first row that converts of the environment after it.  A heading that
cuts a gap ends its first part: the introducers are read up to the
first heading, and only the prose after the last heading goes to the
next environment.  The document's opening gap loses no introducers,
having no environment before it.  A failed row still bounds prose, so
its source never becomes part of another formula's notes.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from enum import Enum
from functools import cache, partial
from itertools import chain, pairwise
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, Sequence

from .canonicalize import (
    CanonicalSettings,
    CanonicalTree,
    _build,
    canonicalize_string,
)
from .engine import ReplacementStats, _replace
from .errors import (
    DuplicateTitleError,
    MismatchedLeftRightError,
    SemtexError,
    SubstitutionCycleError,
    UnknownSemanticMacroError,
)
from .glossary import Glossary
from .lexer import (
    Node,
    Token,
    TokenKind,
    _BLANK_RE,
    _COMMENT,
    _CONTROL_SEQ,
    _HEADINGS,
    _find_label,
    _group_at,
    _marks,
    _row_ranges,
    flatten,
    render,
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

_RELATIONAL_TEXTS = frozenset(
    {"<", ">", "=", "\\le", "\\leq", "\\ge", "\\geq", "\\ne", "\\neq", "\\in"}
)

# The texts the top-level scans of a canonical body act on: brackets,
# which step the depth, and the comma and relational texts
_BRACKET_STEP = {"(": 1, "[": 1, ")": -1, "]": -1}
_EQUATION_TEXTS = frozenset({*_BRACKET_STEP, "="})
_TOP_TEXTS = frozenset({*_BRACKET_STEP, ",", *_RELATIONAL_TEXTS})

_PROOF_RE = re.compile(r"%\s*proof:\s*(.+)$", re.IGNORECASE)
_SPACES_RE = re.compile(r"\s+")
_WORD_RE = re.compile(r"[A-Za-z]+")
_TAIL_RE = re.compile(r"\s+([a-z]+)")
_TITLE_GAP_RE = re.compile(r"[\s_]+")


class AnnotationKind(Enum):
    CONSTRAINT = "constraint"
    SUBSTITUTION = "substitution"
    NAME = "name"
    PROOF = "proof"
    NOTE = "note"


class Annotation(NamedTuple):
    """One piece of metadata attached to a Formula.

    body is semantic LaTeX for constraints and substitutions, prose for
    names and notes; origin names the formula id or source region the
    annotation was harvested from.
    """

    kind: AnnotationKind
    body: str
    origin: str = ""


class Citation(NamedTuple):
    key: str
    tag: str


class Formula:
    """One display-math row with its metadata.

    source_canonical is the retained core after constraint splitting;
    semantic_nodes is the replaced core and source_semantic is
    render(semantic_nodes).  detect_substitutions, inline_substitutions
    and the pages read source_semantic as that render: a token text
    missing from it is missing from the tree.  unit is the number of
    headings before the row's environment, so rows share a unit exactly
    when the same heading is the last one before them.
    """

    __slots__ = (
        "id", "source_canonical", "source_semantic", "citation", "annotations",
        "semantic_nodes", "unit", "ordinal", "span", "stats",
    )

    def __init__(
        self,
        id: str,
        source_canonical: CanonicalTree,
        source_semantic: str,
        citation: Citation,
        annotations: list[Annotation] | None = None,
        semantic_nodes: tuple[Node, ...] = (),
        unit: int = 0,
        ordinal: int = 0,
        span: tuple[int, int] = (0, 0),
        stats: ReplacementStats | None = None,
    ):
        self.id = id
        self.source_canonical = source_canonical
        self.source_semantic = source_semantic
        self.citation = citation
        self.annotations = [] if annotations is None else annotations
        self.semantic_nodes = semantic_nodes
        self.unit = unit
        self.ordinal = ordinal
        self.span = span
        self.stats = ReplacementStats() if stats is None else stats

    def annotations_of(self, kind: AnnotationKind) -> list[Annotation]:
        return [a for a in self.annotations if a.kind is kind]


class SubstitutionDef(NamedTuple):
    """A formula that merely defines a symbol used by its neighbours.

    ordinal is the defining row's Formula.ordinal, which, unlike its id,
    is unique in a document.  users holds the ordinals of the rows of
    the def's unit whose semantic body uses its head, its own row
    included.
    """

    lhs_head: tuple[Node, ...]
    is_function: bool
    rhs: tuple[Node, ...]
    def_formula_id: str
    equation: str
    unit: int
    ordinal: int
    users: frozenset[int]


class ExtractionResult(NamedTuple):
    formulae: list[Formula]
    defs: list[SubstitutionDef]
    stats: ReplacementStats
    failures: list[tuple[str, str]]


def contains_relational(nodes: Iterable[Node]) -> bool:
    return any(t.text in _RELATIONAL_TEXTS for t in flatten(nodes))


class _Heading(NamedTuple):
    pos: int
    end: int
    title: str


# the key that bisects a heading list by offset
_pos = attrgetter("pos")


def _scan_sections(source: str, marks: list[tuple[int, str]]) -> list[_Heading]:
    """The headings of a document; marks are its lexer._marks.  A
    heading inside the title of another is part of that title."""
    out: list[_Heading] = []
    after = 0
    for p, t in marks:
        if p < after or t not in _HEADINGS:
            continue
        # TeX skips spaces after a control word, so \section * {T} is
        # starred too
        k = _BLANK_RE.match(source, p + len(t)).end()
        got = _group_at(source, k + 1 if source.startswith("*", k) else k)
        if got is not None:
            title, after = got
            out.append(_Heading(p, after, title.strip()))
    return out


def _row(
    source: str,
    row: tuple,
    ordinal: int,
    sections: Sequence[_Heading],
    citation_key: str,
    settings: CanonicalSettings,
    leaves: dict[str, Token],
) -> Formula | tuple[str, str]:
    """The Formula of a display row of _row_ranges, or its (id, message)
    failure, naming the line:col of the fault, when the body cannot be
    canonicalized.  sections are the document's headings and leaves is
    its leaf table (see _build)."""
    _, texts, offset, a, b, span, outer = row
    fid = (_find_label(texts, a, b) or "").strip() or f"f{ordinal}"
    proofs: list[Annotation] = []
    # a row whose source holds no % has no comment to look for
    if source.find("%", *span) != -1:
        proofs = [
            Annotation(AnnotationKind.PROOF, m.group(1).strip(), origin=fid)
            for t in texts[a:b]
            if t[0] == "%"
            for m in [_PROOF_RE.match(t)]
            if m is not None
        ]
    try:
        core = _build(texts, offset, a, b, settings, True, leaves)
    except MismatchedLeftRightError as exc:
        where = _line_col(source, exc.position)
        return fid, f"{type(exc).__name__}: {exc} in the row at line {where}"
    return Formula(
        id=fid,
        source_canonical=core,
        source_semantic="",
        citation=Citation(citation_key, fid),
        annotations=proofs,
        unit=bisect_left(sections, outer[0], key=_pos),
        ordinal=ordinal,
        span=span,
    )


def _display_rows(source: str, marks: list[tuple[int, str]]) -> list[tuple]:
    return [r for r in _row_ranges(source, marks) if r[0] != "inline-dollar"]


def _rows(source: str, settings: CanonicalSettings, citation_key: str) -> tuple[list, list]:
    """The headings of a document and, in document order, each display
    row's (environment extent, _row outcome), every row built with one
    leaf table."""
    marks = _marks(source)
    sections = _scan_sections(source, marks)
    leaves: dict[str, Token] = {}
    return sections, [
        (row[-1], _row(source, row, k, sections, citation_key, settings, leaves))
        for k, row in enumerate(_display_rows(source, marks), 1)
    ]


def segment_formulae(
    source: str,
    glossary: Glossary,
    citation_key: str = "",
) -> list[Formula]:
    """One Formula per display row, in document order.

    Bodies are canonicalized with labels stripped; ids come from \\label
    when present, else f<ordinal>.  Proof annotations are taken from
    `% proof:` comments inside the row.  Constraint splitting and
    replacement happen later; source_semantic starts empty.  Rows whose
    bodies cannot be canonicalized are dropped here; extract_document
    reports them as failures.
    """
    _, rows = _rows(source, glossary.settings, citation_key)
    return [f for _, f in rows if isinstance(f, Formula)]


def _split_trailing(nodes: Sequence[Node]) -> tuple[tuple[Node, ...], list[tuple[Node, ...]]]:
    """Split trailing constraint clauses off a canonical body.

    Top-level commas cut the body into segments; a token is at the top
    level when it lies outside ( ) and [ ], and a closer with nothing
    open is ignored.  Each segment after the first that carries a
    relational token starts a clause, which runs up to the next such
    segment (so enumerations like n=0,1,...,N stay together); the
    segments before the first clause form the core.
    """
    cuts = [-1]  # segment k runs from cuts[k] + 1 to cuts[k + 1]
    relational: set[int] = set()  # the segments that hold a relational token
    depth = 0
    for i, nd in enumerate(nodes):
        if nd.__class__ is not Token:
            continue
        t = nd.text
        if t in _TOP_TEXTS:
            step = _BRACKET_STEP.get(t)
            if step is not None:
                if depth or step > 0:
                    depth += step
            elif depth:
                continue
            elif t == ",":
                cuts.append(i)
            else:
                relational.add(len(cuts) - 1)
    heads = sorted(relational - {0})
    if not heads:
        return tuple(nodes), []
    cuts.append(len(nodes))
    ends = heads[1:] + [len(cuts) - 1]
    core = tuple(nodes[: cuts[heads[0]]])
    return core, [tuple(nodes[cuts[a] + 1 : cuts[b]]) for a, b in zip(heads, ends)]


# The lexer's multi-character tokens, $ and the sentence ends: a hit
# starts where a token starts, so a control symbol such as \$ or \. is
# no hit of its own.  All but a comment is group 1.
_PROSE_RE = re.compile(f"({_CONTROL_SEQ}|[$.!?])|{_COMMENT}", re.S)
_SENTENCE_ENDS = frozenset(".!?")


def _sentences(text: str) -> list[str]:
    """Split prose into sentences, treating $...$ as opaque and dropping
    comments.  Both follow the lexer's rules, so \\$ opens no math and
    the % after \\\\ starts a comment."""
    if "%" in text:
        text = _PROSE_RE.sub(r"\1", text)
    out: list[str] = []
    cut = 0
    in_math = False
    for m in _PROSE_RE.finditer(text):
        t = m.group()
        if t == "$":
            in_math = not in_math
        elif t in _SENTENCE_ENDS and not in_math:
            out.append(text[cut : m.end()])
            cut = m.end()
    out.append(text[cut:])
    return [_SPACES_RE.sub(" ", s).strip() for s in out if s.strip()]


def _prose_constraints(sentence: str, settings: CanonicalSettings) -> list[tuple[Node, ...]]:
    """Relational $...$ snippets, canonical; $ tokens pair as in _sentences."""
    dollars = [m.start() for m in _PROSE_RE.finditer(sentence) if m.group() == "$"]
    out = []
    for i, j in zip(dollars[::2], dollars[1::2]):
        tree = canonicalize_string(sentence[i + 1 : j], settings)
        if contains_relational(tree.nodes):
            out.append(tree.nodes)
    return out


def _convert(clause: tuple[Node, ...], glossary: Glossary) -> tuple[str, Counter]:
    """A constraint clause's rendered replacement and per-rule counts."""
    per_rule: Counter = Counter()
    return render(_replace(clause, glossary, per_rule)), per_rule


def _head_finder(
    heads: Sequence[tuple[int, tuple[Node, ...], bool]]
) -> Callable[[Sequence[Node], int, str], list[int]]:
    """A search for many (unit, head run, is_function) entries at once.

    The search takes nodes, their unit and a text holding every token
    text of the nodes, such as their render, and returns, in order, the
    positions in heads of the unit's entries whose run occurs in the
    nodes or any nested group; a function head counts only where "("
    follows it.  It returns [] without a walk when the text holds no
    first-token text of the unit's runs: then no token can start a run.
    Otherwise it walks each node sequence once, and at a token whose
    text starts some run looks the nodes after it up in a table of the
    rest of those runs, once for each length of a rest, so a token costs
    the same however many runs share its text.
    """
    # unit -> text of a run's first token -> (the lengths of the rest of
    # those runs, (rest of a run, is_function) -> its positions in heads)
    index: dict[int, dict[str, tuple[set[int], dict]]] = {}
    for k, (unit, run, is_function) in enumerate(heads):
        sizes, rests = index.setdefault(unit, {}).setdefault(run[0].text, (set(), {}))
        sizes.add(len(run) - 1)
        rests.setdefault((run[1:], is_function), []).append(k)

    def find(nodes: Sequence[Node], unit: int, text: str) -> list[int]:
        starts = index.get(unit)
        if starts is None or not any(t in text for t in starts):
            return []
        hits: set[int] = set()
        todo = [nodes]
        while todo:
            seq = todo.pop()
            for i, nd in enumerate(seq):
                if nd.__class__ is not Token:
                    todo.append(nd.children)
                    continue
                got = starts.get(nd.text)
                if got is None:
                    continue
                sizes, rests = got
                for n in sizes:
                    # near the end of seq the slice may be shorter than n:
                    # it is still the rest of a run of seq
                    rest = tuple(seq[i + 1 : i + 1 + n])
                    hits.update(rests.get((rest, False), ()))
                    end = i + 1 + len(rest)
                    if end < len(seq) and seq[end].__class__ is Token and seq[end].text == "(":
                        hits.update(rests.get((rest, True), ()))
        return sorted(hits)

    return find


def _simple_symbol(nodes: Sequence[Node], i: int) -> int | None:
    """Length of a simple symbol at nodes[i]: one letter or control
    sequence, optionally with a single sub/superscript."""
    nd = nodes[i] if i < len(nodes) else None
    if not isinstance(nd, Token) or not (
        nd.kind is TokenKind.CONTROL or nd.kind is TokenKind.CHAR and nd.text.isalpha()
    ):
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
    if not (isinstance(nodes[n], Token) and nodes[n].text == "("):
        return None
    i = n + 1
    while True:
        m = _simple_symbol(nodes, i)
        if m is None:
            return None
        i += m
        if i >= len(nodes) or not isinstance(nodes[i], Token):
            return None
        if nodes[i].text == ",":
            i += 1
            continue
        if nodes[i].text == ")":
            return (tuple(nodes[:n]), True) if i == len(nodes) - 1 else None
        return None


def _top_level_equation(nodes: Sequence[Node]) -> int | None:
    """Index of the single '=' outside ( ) and [ ], if any, reading
    brackets as _split_trailing does."""
    found = None
    depth = 0
    for i, nd in enumerate(nodes):
        if nd.__class__ is not Token:
            continue
        t = nd.text
        if t in _EQUATION_TEXTS:
            step = _BRACKET_STEP.get(t)
            if step is not None:
                if depth or step > 0:
                    depth += step
            elif not depth:
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
    qualify.  A head that two candidate rows of one unit define, as a
    symbol or as a function, defines nothing there: those rows stay
    formulae.  A function head counts as used only where a call "("
    follows it.  Each formula is searched once, for every candidate
    head of its unit, and the rows found become the defs' users.
    """
    candidates: list[tuple[Formula, int, tuple[Node, ...], bool]] = []
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
            head.kind is TokenKind.CONTROL and head.name in glossary.by_head
        ):
            continue
        candidates.append((f, eq, run, is_function))
    defined = Counter((f.unit, run) for f, _, run, _ in candidates)
    candidates = [(f, eq, run, fn) for f, eq, run, fn in candidates if defined[f.unit, run] == 1]

    find = _head_finder([(f.unit, run, is_function) for f, _, run, is_function in candidates])
    # ordinals of the rows that use each candidate's head; ids may repeat
    users: list[set[int]] = [set() for _ in candidates]
    for g in fs:
        for k in find(g.semantic_nodes, g.unit, g.source_semantic):
            users[k].add(g.ordinal)

    defs: list[SubstitutionDef] = []
    for (f, eq, run, is_function), rows in zip(candidates, users):
        if rows <= {f.ordinal}:
            continue
        defs.append(
            SubstitutionDef(
                lhs_head=run,
                is_function=is_function,
                rhs=tuple(f.semantic_nodes[eq + 1 :]),
                def_formula_id=f.id,
                equation=f.source_semantic,
                unit=f.unit,
                ordinal=f.ordinal,
                users=frozenset(rows),
            )
        )
    return defs


def _closures(
    defs: Sequence[SubstitutionDef], edges: Sequence[list[int]]
) -> list[tuple[int, ...]]:
    """Each def's transitive closure over edges: the positions in defs
    of the defs it reaches, itself first, in depth-first preorder.
    Positions, not formula ids, because repeated labels give several
    defs one id.

    One three-colour depth-first search, roots and edges in defs order.
    An edge back to a def still on the search path raises
    SubstitutionCycleError with the ids from that def to the end of the
    path, then that def again.
    """
    closures: list[tuple[int, ...] | None] = [None] * len(defs)
    on_path = [False] * len(defs)
    for root in range(len(defs)):
        if closures[root] is not None:
            continue
        path = [root]
        todo = [iter(edges[root])]
        on_path[root] = True
        while path:
            for e in todo[-1]:
                if on_path[e]:
                    cycle = path[path.index(e) :] + [e]
                    raise SubstitutionCycleError(tuple(defs[k].def_formula_id for k in cycle))
                if closures[e] is None:
                    path.append(e)
                    todo.append(iter(edges[e]))
                    on_path[e] = True
                    break
            else:
                k = path.pop()
                todo.pop()
                on_path[k] = False
                closures[k] = tuple(dict.fromkeys(chain((k,), *(closures[e] for e in edges[k]))))
    return closures


def inline_substitutions(
    fs: Sequence[Formula], defs: Sequence[SubstitutionDef]
) -> list[Formula]:
    """Attach Substitution annotations and drop the defining formulae.

    A formula referencing a def's head gains that def's equation as an
    annotation; defs referenced by a def's right side are inlined
    transitively, in depth-first preorder over the used defs in defs
    order.  A def may mention its own head, but defs of one unit that
    reference each other in a ring raise SubstitutionCycleError, even
    when no formula uses them; its ids run from the first def of the
    ring the search reaches, round the ring and back to it.
    |fs| == |result| + |defs|.

    defs come from detect_substitutions over the same rows: a formula
    uses the defs whose users hold its ordinal, and only the defs'
    right sides are searched, for the defs they use.
    """
    find = _head_finder([(d.unit, d.lhs_head, d.is_function) for d in defs])
    # a def's equation holds every token text of its right side
    edges = [
        [k for k in find(d.rhs, d.unit, d.equation) if k != j] for j, d in enumerate(defs)
    ]
    closures = _closures(defs, edges)
    # row ordinal -> positions in defs of the defs the row uses, in order
    used: dict[int, list[int]] = {}
    for k, d in enumerate(defs):
        for ordinal in d.users:
            used.setdefault(ordinal, []).append(k)
    def_rows = {d.ordinal for d in defs}
    out = []
    for f in fs:
        if f.ordinal in def_rows:
            continue
        reached = chain.from_iterable(closures[k] for k in used.get(f.ordinal, ()))
        for k in dict.fromkeys(reached):
            d = defs[k]
            f.annotations.append(
                Annotation(AnnotationKind.SUBSTITUTION, d.equation, origin=d.def_formula_id)
            )
        out.append(f)
    return out


def _keyword_patterns(keywords: Sequence[str]) -> list[tuple[str, re.Pattern]]:
    """Each keyword, lowercased, with its whole-word pattern, longest
    first; sentences are matched lowercased."""
    words = sorted((kw.lower() for kw in keywords), key=len, reverse=True)
    return [(kw, re.compile(r"\b" + re.escape(kw) + r"\b")) for kw in words]


def _match_keyword(sentence: str, patterns: Sequence[tuple[str, re.Pattern]]) -> str | None:
    low = sentence.lower()
    for kw, pattern in patterns:
        m = pattern.search(low)
        if m is None:
            continue
        end = m.end()
        tail = _TAIL_RE.match(low, end)
        if tail and tail.group(1) in _NAME_TAILS and not kw.endswith(tail.group(1)):
            end = tail.end()
        return " ".join(low[m.start() : end].split())
    return None


def _noteworthy(sentence: str) -> bool:
    return len(sentence.split()) >= 3 and sentence[0].isalpha()


def _names_and_notes(
    f: Formula,
    heading: _Heading | None,
    sentences: Sequence[str],
    phrase: Callable[[str], str | None],
) -> list[Annotation]:
    """Name and Note annotations for f from the prose before its
    environment; heading is the last one before that environment and
    phrase gives a sentence's keyword phrase, None when it has none.

    The first keyword sentence names the formula as "<heading title>
    <keyword phrase>"; other sentences of three or more words become
    Notes.  Formulae with no heading before them get no Name.
    """
    out = []
    named = False
    for s in sentences:
        got = phrase(s)
        if got is not None:
            if not named and heading is not None:
                out.append(Annotation(AnnotationKind.NAME, f"{heading.title} {got}", f.id))
            named = True
        elif _noteworthy(s):
            out.append(Annotation(AnnotationKind.NOTE, s, f.id))
    return out


def extract_document(
    source: str,
    glossary: Glossary,
    citation_key: str = "",
    keywords: Sequence[str] = DEFAULT_KEYWORDS,
    introducers: Sequence[str] = DEFAULT_INTRODUCERS,
) -> ExtractionResult:
    """Full extraction for one document.

    One pass over the gaps between display environments splits each
    into sentences once and hands them out as the module docstring says.
    Then one walk over the display rows, in source order, segments each
    row, splits its constraints, replaces (cores and constraint bodies,
    counts merged per formula) and attaches names and notes; then
    substitutions are detected and inlined.  Keywords and introducers
    match prose in any case.  Failures on individual formulae are
    recorded and skipped; one in the prose after a row names the row's
    line:col.
    Document-level errors propagate.  A formula whose id repeats that of
    an earlier one left after inlining is such a failure, located by
    line:col, and the earlier one keeps the id.

    What the rows share is computed once per call, by functions cached
    for that call only: the sentences of each distinct prose text, the
    keyword phrase and the prose constraints of each distinct sentence,
    and the rendered replacement and per-rule counts of each distinct
    constraint clause.  functools.cache keeps no call that raises, so
    every row after a failing sentence, or holding a failing clause,
    fails on its own.  Each row gets its own Annotation objects, with
    its own id as origin.  A row whose canonical tree holds no @ leaf is
    rewritten without first marking semantic macros: it holds none.
    """
    settings = glossary.settings
    introducers = frozenset(w.lower() for w in introducers)
    sections, rows = _rows(source, settings, citation_key)
    split = cache(_sentences)
    phrase = cache(partial(_match_keyword, patterns=_keyword_patterns(keywords)))
    constraints = cache(partial(_prose_constraints, settings=settings))
    convert = cache(partial(_convert, glossary=glossary))
    ok: list[Formula] = []
    failures: list[tuple[str, str]] = []
    # each environment's extent -> the index of its last row, in order
    ends = {outer: k for k, (outer, _) in enumerate(rows)}
    # the sentences of the prose before and after each environment, from
    # one pass over the gaps between them
    before: dict[tuple[int, int], list[str]] = {}
    after: dict[tuple[int, int], list[str]] = {}
    for prev, nxt in pairwise([None, *ends, None]) if ends else ():
        a = 0 if prev is None else prev[1]
        b = len(source) if nxt is None else nxt[0]
        i = bisect_left(sections, a, key=_pos)
        j = bisect_left(sections, b, key=_pos)
        # the prose up to the first heading that cuts the gap, if one does
        first = split(source[a : sections[i].pos if i < j else b])
        lead = 0  # the leading introducer sentences
        if prev is not None:
            for sentence in first:
                m = _WORD_RE.match(sentence)
                if m is None or m.group(0).lower() not in introducers:
                    break
                lead += 1
            after[prev] = first[:lead]
        if nxt is not None:
            before[nxt] = split(source[sections[j - 1].end : b]) if i < j else first[lead:]
    for k, (outer, f) in enumerate(rows):
        if not isinstance(f, Formula):
            failures.append(f)
            continue
        core, clauses = _split_trailing(f.source_canonical.nodes)
        try:
            for sentence in after[outer] if ends[outer] == k else ():
                clauses += constraints(sentence)
        except SemtexError as exc:
            # offsets in a prose snippet are not source offsets
            what = str(exc).split(" at offset ")[0]
            failures.append(
                (
                    f.id,
                    f"{type(exc).__name__}: {what} in the prose after the row "
                    f"at line {_line_col(source, f.span[0])}",
                )
            )
            continue
        counts: Counter = Counter()
        try:
            sem = _replace(core, glossary, counts, f.source_canonical.at)
            for clause in clauses:
                body, per_rule = convert(clause)
                counts.update(per_rule)
                f.annotations.append(Annotation(AnnotationKind.CONSTRAINT, body, f.id))
        except UnknownSemanticMacroError as exc:
            where = _line_col(source, f.span[0])
            failures.append((f.id, f"{type(exc).__name__}: {exc} for the row at line {where}"))
            continue
        f.source_canonical = CanonicalTree(core)
        f.semantic_nodes = tuple(sem)
        f.source_semantic = render(sem)
        f.stats = ReplacementStats.from_counts(counts, formulae=1)
        heading = sections[f.unit - 1] if f.unit else None
        f.annotations.extend(_names_and_notes(f, heading, before.pop(outer, []), phrase))
        ok.append(f)

    defs = detect_substitutions(ok, glossary)
    remaining = inline_substitutions(ok, defs)
    # ids become page titles, so a repeated id would fail the whole dump
    kept: dict[str, Formula] = {}
    repeated: set[int] = set()
    for f in remaining:
        first = kept.setdefault(_title_key(f.id), f)
        if first is not f:
            repeated.add(f.ordinal)
            failures.append(
                (
                    f.id,
                    f"{DuplicateTitleError.__name__}: row at line "
                    f"{_line_col(source, f.span[0])} repeats the label {f.id!r} "
                    f"of the row at line {_line_col(source, first.span[0])}",
                )
            )
    remaining = list(kept.values())
    stats = ReplacementStats.combine(f.stats for f in ok if f.ordinal not in repeated)
    return ExtractionResult(remaining, defs, stats, failures)


def replace_text(source: str, glossary: Glossary) -> tuple[str, ReplacementStats]:
    """Rewrite every math span of a document in place.

    Each span is lexed, canonicalized from its token texts, labels kept,
    and replaced.  Only the span bodies change, so the output diffs
    cleanly against the input for review, and semantic macros already in
    a span keep their form, so a second pass changes nothing.  An
    @-marked macro the glossary does not read raises
    UnknownSemanticMacroError naming the span's line:col, and a span
    whose \\left and \\right do not pair raises MismatchedLeftRightError
    naming the line:col of the fault.
    """
    leaves: dict[str, Token] = {}
    counts: Counter = Counter()
    pieces: list[str] = []
    cursor = 0
    # every span is found and brace-checked before any is canonicalized,
    # as extract_math does, so an unterminated or unbalanced span raises
    # even when an earlier span holds a lone \left
    spans = list(_row_ranges(source, _marks(source)))
    for _, texts, offset, a, b, span, _ in spans:
        try:
            tree = _build(texts, offset, a, b, glossary.settings, False, leaves)
            sem = _replace(tree.nodes, glossary, counts, tree.at)
        except (MismatchedLeftRightError, UnknownSemanticMacroError) as exc:
            # a mismatch has the offset of its fault, an unknown macro none
            where = _line_col(source, getattr(exc, "position", span[0]))
            exc.args = (f"{exc} in the span at line {where}",)
            raise
        pieces += (source[cursor : span[0]], render(sem))
        cursor = span[1]
    pieces.append(source[cursor:])
    return "".join(pieces), ReplacementStats.from_counts(counts, formulae=len(spans))


def _title_key(title: str) -> str:
    """title as MediaWiki compares page titles: a run of whitespace and
    underscores is one space, and the ends are trimmed."""
    return _TITLE_GAP_RE.sub(" ", title).strip()


def _line_col(source: str, offset: int) -> str:
    """1-based line:column of a source offset."""
    line = source.count("\n", 0, offset) + 1
    col = offset - source.rfind("\n", 0, offset)
    return f"{line}:{col}"
