"""Brute-force references used to cross-check semtex.

scan() re-implements the documented matching semantics of replace_all
from scratch, without calling into semtex.engine: at every
position try each rule in glossary order, count the first match, consume
it, then recurse into captured sequences and unmatched groups.

detect_substitutions() and inline_substitutions() test every formula
against every other formula and every def, and walk the def graph afresh
for each formula and each def.  They share only the def parsing helpers
with semtex.metadata.  head_finder() is the search semtex.metadata's
head trie replaced: runs bucketed by their first token's text, and each
token compared with every run in its bucket.

tokenize() is the character-by-character lexer that semtex.lexer's
one-regex tokenizer replaced; it gives the same texts and spans, and
decides each token's kind on its own, returned next to the token, so
the kind Token derives from its text can be checked against it.

canonicalize() and canonicalize_row() are the tree walks that
semtex.canonicalize's one-pass builder replaced: the source is lexed,
grouped with build_groups, stripped of row markup, then each node
sequence is rebuilt in two passes, recursing into its groups.

render() serializes the token list flatten() gives, as semtex.lexer's
one-pass render did before; macro_occurs() searches a text for one
glossary head, which semtex.pages now finds for all heads in one scan.

split_trailing() and top_level_equation() read a canonical body through
the top_level() generator, as semtex.metadata's one-loop scans did
before.  build() is semtex.canonicalize._build without a leaf table:
every leaf is built afresh and every token takes the full path, and
unwrap() keeps the braces before an @ after the fact.  The references
for the structural scans of a document are in tests/lexing_oracle.py.

prose_walk() is the row loop that semtex.metadata.extract_document's
pass over the gaps replaced: it splits the gap after an environment
when it meets the environment's last row, looking one row ahead, and
carries the sentences before an environment to its first row that
converts.  It cuts a gap at every heading inside it, splits every gap
and matches every sentence afresh (names_and_notes), where
extract_document keeps one table of each per document.

Slow and simple on purpose.
"""

import re
from collections import Counter

from semtex.canonicalize import (
    _ARG_SPACING,
    _DELIMITER_TEXTS,
    _ROW_MARKUP,
    _TEXT_ARGS,
    DEFAULT_SETTINGS,
    CanonicalTree,
    _skip_blank,
)
from semtex.engine import replace_all
from semtex.errors import (
    MismatchedLeftRightError,
    SemtexError,
    SubstitutionCycleError,
    UnknownSemanticMacroError,
)
from semtex.glossary import AtomKind
from semtex.lexer import Group, Token, TokenKind, _marks, _match, build_groups, flatten
from semtex.metadata import (
    DEFAULT_INTRODUCERS,
    DEFAULT_KEYWORDS,
    Annotation,
    AnnotationKind,
    Formula,
    SubstitutionDef,
    _display_rows,
    _keyword_patterns,
    _line_col,
    _match_keyword,
    _noteworthy,
    _parse_def_lhs,
    _prose_constraints,
    _row,
    _scan_sections,
    _sentences,
    _split_trailing,
)

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
_SINGLE = {
    "{": TokenKind.GROUP_OPEN,
    "}": TokenKind.GROUP_CLOSE,
    "$": TokenKind.MATH_SHIFT,
    "^": TokenKind.SUPERSCRIPT,
    "_": TokenKind.SUBSCRIPT,
    "&": TokenKind.ALIGN_TAB,
}
_SEPARATORS = frozenset({",", ";", "|"})
_CLOSER = {"(": ")", "[": "]"}
_STOP_CHARS = frozenset("()[],;|=<>+-*/@.")
_STOP_KINDS = frozenset(
    {
        TokenKind.MATH_SHIFT,
        TokenKind.SUPERSCRIPT,
        TokenKind.SUBSCRIPT,
        TokenKind.ALIGN_TAB,
        TokenKind.COMMENT,
        TokenKind.WHITESPACE,
    }
)
_STOP_CONTROL = frozenset({"le", "leq", "ge", "geq", "ne", "neq", "in", "\\"})
_RELATIONAL_NAMES = frozenset({"le", "leq", "ge", "geq", "ne", "neq", "in"})


def _plain_single(nd):
    if not isinstance(nd, Token):
        return False
    if nd.kind in _STOP_KINDS:
        return False
    if nd.kind is TokenKind.CHAR and nd.text in _STOP_CHARS:
        return False
    if nd.kind is TokenKind.CONTROL and nd.name in _STOP_CONTROL:
        return False
    return True


def match(nodes, pos, rule):
    """Return (captures dict, end index) or None."""
    caps = {}
    seq = nodes
    i = pos
    stack = []
    for atom in rule.pattern:
        nd = seq[i] if i < len(seq) else None
        if atom.kind in (AtomKind.LITERAL, AtomKind.SEPARATOR):
            if not (isinstance(nd, Token) and nd.text == atom.value):
                return None
            i += 1
        elif atom.kind is AtomKind.OPEN:
            if atom.value == "{":
                if not isinstance(nd, Group):
                    return None
                stack.append(("group", seq, i + 1))
                seq, i = nd.children, 0
            else:
                if not (isinstance(nd, Token) and nd.text == atom.value):
                    return None
                stack.append(("paren", _CLOSER[atom.value]))
                i += 1
        elif atom.kind is AtomKind.CLOSE:
            if not stack:
                return None
            ctx = stack.pop()
            if ctx[0] == "group":
                if i != len(seq):
                    return None
                seq, i = ctx[1], ctx[2]
            else:
                if not (isinstance(nd, Token) and nd.text == ctx[1]):
                    return None
                i += 1
        else:  # capture
            if atom.mode == "single-token":
                if not _plain_single(nd):
                    return None
                caps[atom.name] = (nd,)
                i += 1
            elif atom.mode == "single-group":
                if isinstance(nd, Group):
                    caps[atom.name] = tuple(nd.children)
                    i += 1
                elif _plain_single(nd):
                    caps[atom.name] = (nd,)
                    i += 1
                else:
                    return None
            else:  # balanced-expression
                depth = 0
                taken = []
                while i < len(seq):
                    nd = seq[i]
                    if isinstance(nd, Token):
                        if depth == 0 and nd.text in _SEPARATORS:
                            break
                        if nd.text in ("(", "["):
                            depth += 1
                        elif nd.text in (")", "]"):
                            if depth == 0:
                                break
                            depth -= 1
                    taken.append(nd)
                    i += 1
                if not taken or depth != 0:
                    return None
                caps[atom.name] = tuple(taken)
    if stack:
        return None
    return caps, i


def scan(nodes, glossary):
    """Count every firing the way a full rewrite would, by brute force."""
    counts = Counter()
    nodes = list(nodes)
    i = 0
    while i < len(nodes):
        hit = None
        for rule in glossary.rules:
            m = match(nodes, i, rule)
            if m is not None:
                hit = (rule, m)
                break
        if hit is None:
            if isinstance(nodes[i], Group):
                counts.update(scan(nodes[i].children, glossary))
            i += 1
            continue
        rule, (caps, end) = hit
        counts[rule.macro_name] += 1
        for seq in caps.values():
            counts.update(scan(seq, glossary))
        i = end
    return counts


def _run_occurs(nodes, run, as_call):
    """Whether run occurs in nodes or in any nested group; with as_call,
    only an occurrence followed by "(" counts."""
    seqs = [nodes]
    while seqs:
        seq = seqs.pop()
        seqs.extend(nd.children for nd in seq if isinstance(nd, Group))
        for i in range(len(seq) - len(run) + 1):
            if all(seq[i + k] == run[k] for k in range(len(run))):
                if not as_call:
                    return True
                nxt = seq[i + len(run)] if i + len(run) < len(seq) else None
                if isinstance(nxt, Token) and nxt.text == "(":
                    return True
    return False


def detect_substitutions(fs, glossary):
    """Each formula H = RHS whose head some other formula of its unit
    uses, and no other formula of its unit defines."""
    candidates = []
    for f in fs:
        nodes = f.semantic_nodes
        eq = top_level_equation(nodes)
        if eq is None or eq == 0 or eq == len(nodes) - 1:
            continue
        parsed = _parse_def_lhs(nodes[:eq])
        if parsed is None:
            continue
        run, is_function = parsed
        head = run[0]
        if head.inert or (head.kind is TokenKind.CONTROL and head.name in glossary.by_head):
            continue
        candidates.append((f, eq, run, is_function))
    defs = []
    for f, eq, run, is_function in candidates:
        if any(g is not f and g.unit == f.unit and r == run for g, _, r, _ in candidates):
            continue
        nodes = f.semantic_nodes
        users = frozenset(
            g.ordinal
            for g in fs
            if g.unit == f.unit and _run_occurs(g.semantic_nodes, run, is_function)
        )
        if users - {f.ordinal}:
            defs.append(
                SubstitutionDef(
                    run,
                    is_function,
                    tuple(nodes[eq + 1 :]),
                    f.id,
                    f.source_semantic,
                    f.unit,
                    f.ordinal,
                    users,
                )
            )
    return defs


def head_finder(heads):
    """The search of semtex.metadata._head_finder, bucketed: a unit's runs
    are grouped by their first token's text, and a token that starts a
    bucket is compared with every run in it."""
    index = {}
    positions = {}
    for k, (unit, run, is_function) in enumerate(heads):
        bucket = index.setdefault(unit, {}).setdefault(run[0].text, [])
        if run not in bucket:
            bucket.append(run)
        positions.setdefault((unit, run, is_function), []).append(k)

    def find(nodes, unit, text):
        runs = index.get(unit)
        if runs is None or not any(t in text for t in runs):
            return []
        hits = set()
        seqs = [nodes]
        while seqs:
            seq = seqs.pop()
            seqs.extend(nd.children for nd in seq if isinstance(nd, Group))
            n = len(seq)
            for i, nd in enumerate(seq):
                if not isinstance(nd, Token) or nd.text not in runs:
                    continue
                for run in runs[nd.text]:
                    end = i + len(run)
                    if end > n or any(seq[i + k] != r for k, r in enumerate(run)):
                        continue
                    hits.add((run, False))
                    nxt = seq[end] if end < n else None
                    if isinstance(nxt, Token) and nxt.text == "(":
                        hits.add((run, True))
        return sorted(k for run, call in hits for k in positions.get((unit, run, call), ()))

    return find


def _expand_def(d, defs, seen, path):
    """Walk the defs d reaches, keyed by row ordinal, since ids may repeat."""
    if d.ordinal in path:
        ids = {e.ordinal: e.def_formula_id for e in defs}
        ring = path[path.index(d.ordinal) :] + (d.ordinal,)
        raise SubstitutionCycleError(tuple(ids[k] for k in ring))
    if d.ordinal in seen:
        return
    seen[d.ordinal] = d
    for e in defs:
        if (
            e.ordinal != d.ordinal
            and e.unit == d.unit
            and _run_occurs(d.rhs, e.lhs_head, e.is_function)
        ):
            _expand_def(e, defs, seen, path + (d.ordinal,))


def inline_substitutions(fs, defs):
    """Annotate each non-def formula with the defs it uses, transitively,
    in the order one shared walk first reaches them."""
    for d in defs:
        _expand_def(d, defs, {}, ())
    def_rows = {d.ordinal for d in defs}
    out = []
    for f in fs:
        if f.ordinal in def_rows:
            continue
        seen = {}
        for d in defs:
            if d.unit == f.unit and _run_occurs(f.semantic_nodes, d.lhs_head, d.is_function):
                _expand_def(d, defs, seen, ())
        f.annotations.extend(
            Annotation(AnnotationKind.SUBSTITUTION, d.equation, origin=d.def_formula_id)
            for d in seen.values()
        )
        out.append(f)
    return out


def tokenize(source):
    """Lex source one character at a time into (token, kind) pairs: a
    backslash and a run of ASCII letters or one other character (or
    nothing, at the end) is a control sequence, % runs to the newline,
    whitespace runs are one token."""
    out = []
    n = len(source)
    i = 0
    while i < n:
        c = source[i]
        if c == "\\":
            if i + 1 < n and source[i + 1] in _LETTERS:
                j = i + 1
                while j < n and source[j] in _LETTERS:
                    j += 1
            elif i + 1 < n:
                j = i + 2
            else:
                j = i + 1
            out.append((Token(source[i:j], span=(i, j)), TokenKind.CONTROL))
            i = j
        elif c == "%":
            j = i
            while j < n and source[j] != "\n":
                j += 1
            out.append((Token(source[i:j], span=(i, j)), TokenKind.COMMENT))
            i = j
        elif c in _SINGLE:
            out.append((Token(c, span=(i, i + 1)), _SINGLE[c]))
            i += 1
        elif c.isspace():
            j = i
            while j < n and source[j].isspace():
                j += 1
            out.append((Token(source[i:j], span=(i, j)), TokenKind.WHITESPACE))
            i = j
        else:
            out.append((Token(c, span=(i, i + 1)), TokenKind.CHAR))
            i += 1
    return out


def _skip_whitespace(nodes, i):
    while i < len(nodes) and isinstance(nodes[i], Token) and nodes[i].kind is TokenKind.WHITESPACE:
        i += 1
    return i


def _canonical_delimiter(t, settings):
    if t.kind is TokenKind.CONTROL and t.name in settings.bar_synonyms:
        return Token("|")
    mapped = settings.delimiter_map.get(t.text)
    if mapped is not None:
        return Token(mapped)
    return t


def _canon(nodes, settings, text=False, row=False):
    """The canonical nodes of one sequence; with text set, the sequence
    lies in a text argument, where each whitespace run is one space.
    Outside a row the group after \\label is its source text as one
    inert leaf in a group; in a row, whose labels strip_markup dropped,
    a \\label left is stray and its group unwraps as any other."""
    n = len(nodes)
    # pass 1: spacing, so a size prefix sees the delimiter behind it
    seq = []
    texts = set()  # positions in seq of groups that are text arguments
    labels = set()  # positions in seq of groups that are label arguments
    i = 0
    while i < n:
        node = nodes[i]
        i += 1
        if isinstance(node, Token):
            if node.kind is TokenKind.WHITESPACE:
                if text:
                    seq.append(Token(" "))
                continue
            if node.text in settings.spacing_tokens:
                continue
            if node.kind is TokenKind.CONTROL and node.name in _ARG_SPACING:
                j = _skip_whitespace(nodes, i)
                if j < n and isinstance(nodes[j], Token) and nodes[j].text == "*":
                    j = _skip_whitespace(nodes, j + 1)
                if j < n and isinstance(nodes[j], Group):
                    i = j + 1
                    continue
            if node.kind is TokenKind.CONTROL and node.name in _TEXT_ARGS:
                j = _skip_whitespace(nodes, i)
                if j < n and isinstance(nodes[j], Group):
                    seq.append(node)
                    texts.add(len(seq))
                    seq.append(nodes[j])
                    i = j + 1
                    continue
            if node.text == "\\label" and not row:
                j = _skip_whitespace(nodes, i)
                if j < n and isinstance(nodes[j], Group):
                    seq.append(node)
                    labels.add(len(seq))
                    seq.append(nodes[j])
                    i = j + 1
                    continue
        seq.append(node)
    # pass 2: delimiters, tabs and comments, and groups in source order
    out = []
    depth = 0
    first_open = None
    n = len(seq)
    i = 0
    while i < n:
        node = seq[i]
        i += 1
        if isinstance(node, Group) and i - 1 in labels:
            arg = "".join(t.text for t in flatten(node.children))
            out.append(Group((Token(arg, inert=True),) if arg else ()))
            continue
        if isinstance(node, Group):
            out.append(Group(tuple(_canon(node.children, settings, text or i - 1 in texts, row))))
            continue
        if node.kind is TokenKind.CONTROL and node.name in settings.size_prefixes:
            nxt = seq[i] if i < n else None
            if isinstance(nxt, Token) and nxt.text in _DELIMITER_TEXTS:
                i += 1
                if node.name == "left":
                    depth += 1
                    if first_open is None:
                        first_open = node
                elif node.name == "right":
                    depth -= 1
                    if depth < 0:
                        raise MismatchedLeftRightError(node.span[0] if node.span else None)
                if node.name in ("left", "right") and nxt.text == ".":
                    continue
                node = _canonical_delimiter(nxt, settings)
            out.append(node)
            continue
        node = _canonical_delimiter(node, settings)
        if node.kind not in (TokenKind.ALIGN_TAB, TokenKind.COMMENT):
            out.append(node)
    if depth != 0:
        pos = first_open.span[0] if first_open is not None and first_open.span else None
        raise MismatchedLeftRightError(pos)
    return unwrap(out)


def unwrap(seq):
    """seq with each group that holds a single CHAR or CONTROL leaf
    replaced by the leaf, except a label argument, whose leaf is inert,
    and the groups of a run that an @ token follows."""
    kept = set()
    for k, nd in enumerate(seq):
        if isinstance(nd, Token) and nd.text == "@":
            j = k - 1
            while j >= 0 and isinstance(seq[j], Group):
                kept.add(j)
                j -= 1
    out = []
    for k, nd in enumerate(seq):
        if (
            k not in kept
            and isinstance(nd, Group)
            and len(nd.children) == 1
            and isinstance(nd.children[0], Token)
            and not nd.children[0].inert
            and nd.children[0].kind in (TokenKind.CHAR, TokenKind.CONTROL)
        ):
            nd = nd.children[0]
        out.append(nd)
    return out


def canonicalize(nodes, settings=DEFAULT_SETTINGS, row=False):
    """The canonical tree of built nodes; row as for _canon."""
    return CanonicalTree(tuple(_canon(list(nodes), settings, row=row)))


def strip_markup(nodes):
    """Drop \\label{...} (TeX skips spaces before the brace), \\nonumber
    and \\notag at every depth."""
    out = []
    i = 0
    while i < len(nodes):
        nd = nodes[i]
        if isinstance(nd, Group):
            out.append(Group(tuple(strip_markup(nd.children))))
            i += 1
            continue
        if isinstance(nd, Token) and nd.kind is TokenKind.CONTROL:
            if nd.name == "label":
                j = _skip_whitespace(nodes, i + 1)
                if j < len(nodes) and isinstance(nodes[j], Group):
                    i = j + 1
                    continue
            if nd.name in ("nonumber", "notag"):
                i += 1
                continue
        out.append(nd)
        i += 1
    return out


def _drop_punctuation(nodes):
    """nodes without the , . ; tokens that end them."""
    nodes = list(nodes)
    while nodes and isinstance(nodes[-1], Token) and nodes[-1].text in (",", ".", ";"):
        nodes.pop()
    return tuple(nodes)


def canonicalize_row(source, settings=DEFAULT_SETTINGS):
    """The canonical tree of a display row body: lex, group, strip the
    markup, canonicalize, then drop the trailing , . ; leaves."""
    nodes = strip_markup(build_groups(t for t, _ in tokenize(source)))
    tree = canonicalize(nodes, settings, row=True)
    return CanonicalTree(_drop_punctuation(tree.nodes))


def render(nodes):
    """Join the texts of flatten(nodes), with a space after a letter-named
    control word that a letter follows."""
    parts = []
    prev = None
    for t in flatten(list(nodes)):
        if (
            prev is not None
            and prev.kind is TokenKind.CONTROL
            and len(prev.text) > 1
            and prev.text[-1] in _LETTERS
            and t.text[:1] in _LETTERS
        ):
            parts.append(" ")
        parts.append(t.text)
        prev = t
    return "".join(parts)


def macro_occurs(name, text):
    """Whether \\name occurs in text with no letter (str.isalpha) after it."""
    needle = "\\" + name
    start = 0
    while True:
        i = text.find(needle, start)
        if i < 0:
            return False
        end = i + len(needle)
        if end >= len(text) or not text[end].isalpha():
            return True
        start = i + 1


def top_level(nodes):
    """(index, token) of each token of nodes outside ( ) and [ ]; a
    closer with nothing open is ignored."""
    depth = 0
    for i, nd in enumerate(nodes):
        if not isinstance(nd, Token):
            continue
        if nd.text in ("(", "["):
            depth += 1
        elif nd.text in (")", "]"):
            depth = max(0, depth - 1)
        elif depth == 0:
            yield i, nd


def _is_relational(tok):
    if tok.kind is TokenKind.CHAR:
        return tok.text in ("<", ">", "=")
    return tok.kind is TokenKind.CONTROL and tok.name in _RELATIONAL_NAMES


def split_trailing(nodes):
    """Core and trailing clauses of a canonical body, cut at top-level
    commas: a clause starts at each later segment holding a relational."""
    nodes = list(nodes)
    cuts = [-1]
    relational = set()
    for i, nd in top_level(nodes):
        if nd.text == ",":
            cuts.append(i)
        elif _is_relational(nd):
            relational.add(len(cuts) - 1)
    heads = sorted(relational - {0})
    if not heads:
        return tuple(nodes), []
    cuts.append(len(nodes))
    ends = heads[1:] + [len(cuts) - 1]
    core = tuple(nodes[: cuts[heads[0]]])
    return core, [tuple(nodes[cuts[a] + 1 : cuts[b]]) for a, b in zip(heads, ends)]


def top_level_equation(nodes):
    """Index of the single top-level '=', if any."""
    found = None
    for i, nd in top_level(nodes):
        if nd.text == "=":
            if found is not None:
                return None
            found = i
    return found


def build(texts, pos, a, b, settings, row=False):
    """The canonical tree of texts[a:b], token by token, every leaf built
    afresh, by the rules semtex.canonicalize._build documents; pos(k) is
    the offset an error at token k names."""
    spacing = settings.spacing_tokens
    stack = []
    out = []
    depth, first = 0, -1
    prefix = -1
    text_at = -1
    quoted = -1
    label_at = -1
    k = a
    while k < b:
        t = texts[k]
        k += 1
        c = t[0]
        if c == "\\":
            name = t[1:]
            if row and t in _ROW_MARKUP:
                continue
            if name == "label":
                j = _skip_blank(texts, k, b, False)
                if j < b and texts[j] == "{":
                    if row:
                        k = _match(texts, j) + 1
                        continue
                    k = label_at = j
            if t in spacing:
                continue
            if name in _ARG_SPACING:
                j = _skip_blank(texts, k, b, row)
                if j < b and texts[j] == "*":
                    j = _skip_blank(texts, j + 1, b, row)
                if j < b and texts[j] == "{":
                    k = _match(texts, j) + 1
                    continue
            if name in _TEXT_ARGS:
                j = _skip_blank(texts, k, b, row)
                if j < b and texts[j] == "{":
                    k = text_at = j
        elif c.isspace():
            if quoted < 0:
                continue
        elif t in spacing and c not in "{}":
            continue
        if prefix >= 0 and t in _DELIMITER_TEXTS:
            size = texts[prefix][1:]
            if size == "left":
                depth += 1
                if first < 0:
                    first = prefix
            elif size == "right":
                depth -= 1
                if depth < 0:
                    raise MismatchedLeftRightError(pos(prefix))
            prefix = -1
            if t == "." and (size == "left" or size == "right"):
                continue
        else:
            if prefix >= 0:
                out.append(Token(texts[prefix]))
                prefix = -1
            if c == "{":
                if k - 1 == label_at:
                    m = _match(texts, label_at)
                    arg = "".join(texts[k:m])
                    out.append(Group((Token(arg, inert=True),) if arg else ()))
                    k = m + 1
                    continue
                stack.append((out, depth, first))
                out, depth, first = [], 0, -1
                if k - 1 == text_at and quoted < 0:
                    quoted = len(stack)
                continue
            if c == "}":
                if depth:
                    raise MismatchedLeftRightError(pos(first))
                if len(stack) == quoted:
                    quoted = -1
                kids = unwrap(out)
                out, depth, first = stack.pop()
                out.append(Group(tuple(kids)))
                continue
            if c == "\\" and name in settings.size_prefixes:
                prefix = k - 1
                continue
        if c.isspace():
            out.append(Token(" "))
            continue
        if c == "\\" and name in settings.bar_synonyms:
            out.append(Token("|"))
            continue
        mapped = settings.delimiter_map.get(t)
        if mapped is not None:
            out.append(Token(mapped))
        elif c != "&" and c != "%":
            out.append(Token(t))
    if prefix >= 0:
        out.append(Token(texts[prefix]))
    if depth:
        raise MismatchedLeftRightError(pos(first))
    out = unwrap(out)
    return CanonicalTree(_drop_punctuation(out) if row else tuple(out))


def names_and_notes(f, heading, sentences, patterns):
    """Name and Note annotations for f from the sentences before its
    environment, each sentence matched afresh: the first keyword
    sentence names f when a heading precedes it, and other noteworthy
    sentences become Notes."""
    out = []
    named = False
    for s in sentences:
        phrase = _match_keyword(s, patterns)
        if phrase is not None:
            if not named and heading is not None:
                out.append(Annotation(AnnotationKind.NAME, f"{heading.title} {phrase}", f.id))
            named = True
        elif _noteworthy(s):
            out.append(Annotation(AnnotationKind.NOTE, s, f.id))
    return out


def prose_walk(source, glossary, keywords=DEFAULT_KEYWORDS, introducers=DEFAULT_INTRODUCERS):
    """The Constraint, Name and Note annotations of each row of source
    that converts, keyed by its ordinal, and the failures of the rows
    that do not, from the per-row walk: the gap after an environment is
    split when its last row is met, and its leading sentences that
    begin with an introducer constrain that row."""
    settings = glossary.settings
    patterns = _keyword_patterns(keywords)
    introducers = {w.lower() for w in introducers}
    marks = _marks(source)
    sections = _scan_sections(source, marks)
    rows = _display_rows(source, marks)

    def chunks(a, b):
        """The prose of source[a:b] cut at every heading that starts in it."""
        out, cur = [], a
        for h in sections:
            if a <= h.pos < b:
                out.append(source[cur : h.pos])
                cur = h.end
        return out + [source[cur:b]]

    def introduced(sentences):
        k = 0
        while k < len(sentences):
            m = re.match(r"[A-Za-z]+", sentences[k])
            if m is None or m.group(0).lower() not in introducers:
                break
            k += 1
        return k

    out, failures = {}, []
    upcoming = _sentences(chunks(0, rows[0][-1][0])[-1]) if rows else []
    following = before = []
    for k, row in enumerate(rows):
        outer = row[-1]
        if k == 0 or outer != rows[k - 1][-1]:
            before = upcoming
        nxt = rows[k + 1][-1] if k + 1 < len(rows) else None
        if nxt != outer:
            gap = chunks(outer[1], nxt[0] if nxt else len(source))
            following = _sentences(gap[0])
            if len(gap) > 1:
                upcoming = _sentences(gap[-1]) if nxt else []
            else:
                upcoming = following[introduced(following) :]
        else:
            following = []
        f = _row(source, row, k + 1, sections, "", settings, {})
        if not isinstance(f, Formula):
            failures.append(f)
            continue
        where = _line_col(source, f.span[0])
        core, clauses = _split_trailing(f.source_canonical.nodes)
        try:
            for sentence in following[: introduced(following)]:
                clauses += _prose_constraints(sentence, settings)
        except SemtexError as exc:
            what = str(exc).split(" at offset ")[0]
            failures.append(
                (f.id, f"{type(exc).__name__}: {what} in the prose after the row at line {where}")
            )
            continue
        try:
            replace_all(CanonicalTree(core), glossary)
            bodies = [render(replace_all(CanonicalTree(c), glossary)[0].nodes) for c in clauses]
        except UnknownSemanticMacroError as exc:
            failures.append((f.id, f"{type(exc).__name__}: {exc} for the row at line {where}"))
            continue
        heading = sections[f.unit - 1] if f.unit else None
        out[f.ordinal] = [
            Annotation(AnnotationKind.CONSTRAINT, body, f.id) for body in bodies
        ] + names_and_notes(f, heading, before, patterns)
        before = []
    return out, failures
