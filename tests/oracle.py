"""Brute-force references used to cross-check semtex.

scan() re-implements the documented matching semantics of replace_all
from scratch, without importing anything from semtex.engine: at every
position try each rule in glossary order, count the first match, consume
it, then recurse into captured sequences and unmatched groups.

detect_substitutions() and inline_substitutions() test every formula
against every other formula and every def, and walk the def graph afresh
for each formula and each def.  They share only the def parsing helpers
with semtex.metadata.

tokenize() is the character-by-character lexer that semtex.lexer's
one-regex tokenizer replaced; it gives the same kinds, texts and spans.

canonicalize() and canonicalize_row() are the tree walks that
semtex.canonicalize's one-pass builder replaced: the source is lexed,
grouped with build_groups, stripped of row markup, then each node
sequence is rebuilt in two passes, recursing into its groups.

render() serializes the token list flatten() gives, as semtex.lexer's
one-pass render did before; macro_occurs() searches a text for one
glossary head, which semtex.pages now finds for all heads in one scan.

Slow and simple on purpose.
"""

from collections import Counter

from semtex.canonicalize import (
    _ARG_SPACING,
    _DELIMITER_TEXTS,
    DEFAULT_SETTINGS,
    CanonicalTree,
)
from semtex.errors import MismatchedLeftRightError, SubstitutionCycleError
from semtex.glossary import AtomKind
from semtex.lexer import Group, Token, TokenKind, build_groups, flatten
from semtex.metadata import (
    Annotation,
    AnnotationKind,
    SubstitutionDef,
    _parse_def_lhs,
    _top_level_equation,
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
                if isinstance(nxt, Token) and nxt.is_char("("):
                    return True
    return False


def detect_substitutions(fs, glossary):
    """Each formula H = RHS whose head some other formula of its unit uses."""
    defs = []
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
        if head.inert or (head.kind is TokenKind.CONTROL and head.name in glossary.heads):
            continue
        others = [g for g in fs if g.unit == f.unit and g.ordinal != f.ordinal]
        if any(_run_occurs(g.semantic_nodes, run, is_function) for g in others):
            defs.append(
                SubstitutionDef(
                    run,
                    is_function,
                    tuple(nodes[eq + 1 :]),
                    f.id,
                    f.source_semantic,
                    f.unit,
                    f.ordinal,
                )
            )
    return defs


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
    """Lex source one character at a time: a backslash and a run of ASCII
    letters or one other character (or nothing, at the end) is a control
    sequence, % runs to the newline, whitespace runs are one token."""
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
            out.append(Token(TokenKind.CONTROL, source[i:j], span=(i, j)))
            i = j
        elif c == "%":
            j = i
            while j < n and source[j] != "\n":
                j += 1
            out.append(Token(TokenKind.COMMENT, source[i:j], span=(i, j)))
            i = j
        elif c in _SINGLE:
            out.append(Token(_SINGLE[c], c, span=(i, i + 1)))
            i += 1
        elif c.isspace():
            j = i
            while j < n and source[j].isspace():
                j += 1
            out.append(Token(TokenKind.WHITESPACE, source[i:j], span=(i, j)))
            i = j
        else:
            out.append(Token(TokenKind.CHAR, c, span=(i, i + 1)))
            i += 1
    return out


def _skip_whitespace(nodes, i):
    while i < len(nodes) and isinstance(nodes[i], Token) and nodes[i].kind is TokenKind.WHITESPACE:
        i += 1
    return i


def _canonical_delimiter(t, settings):
    if t.kind is TokenKind.CONTROL and t.name in settings.bar_synonyms:
        return Token(TokenKind.CHAR, "|")
    mapped = settings.delimiter_map.get(t.text)
    if mapped is not None:
        kind = TokenKind.CONTROL if mapped.startswith("\\") else TokenKind.CHAR
        return Token(kind, mapped)
    return t


def _canon(nodes, settings):
    n = len(nodes)
    # pass 1: spacing, so a size prefix sees the delimiter behind it
    seq = []
    i = 0
    while i < n:
        node = nodes[i]
        i += 1
        if isinstance(node, Token):
            if node.kind is TokenKind.WHITESPACE or node.text in settings.spacing_tokens:
                continue
            if node.kind is TokenKind.CONTROL and node.name in _ARG_SPACING:
                j = _skip_whitespace(nodes, i)
                if j < n and isinstance(nodes[j], Token) and nodes[j].is_char("*"):
                    j = _skip_whitespace(nodes, j + 1)
                if j < n and isinstance(nodes[j], Group):
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
        if isinstance(node, Group):
            kids = _canon(node.children, settings)
            if (
                len(kids) == 1
                and isinstance(kids[0], Token)
                and kids[0].kind in (TokenKind.CHAR, TokenKind.CONTROL)
            ):
                out.append(kids[0])
            else:
                out.append(Group(tuple(kids)))
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
    return out


def canonicalize(nodes, settings=DEFAULT_SETTINGS):
    """The canonical tree of built nodes."""
    return CanonicalTree(tuple(_canon(list(nodes), settings)))


def strip_markup(nodes):
    """Drop top-level \\label{...} (TeX skips spaces before the brace),
    \\nonumber and \\notag, then trailing whitespace and , . ; tokens."""
    out = []
    i = 0
    while i < len(nodes):
        nd = nodes[i]
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
    while out and (
        isinstance(out[-1], Token)
        and (out[-1].kind is TokenKind.WHITESPACE or out[-1].text in (",", ".", ";"))
    ):
        out.pop()
    return out


def canonicalize_row(source, settings=DEFAULT_SETTINGS):
    """The canonical tree of a display row body: lex, group, strip the
    markup, canonicalize."""
    return canonicalize(strip_markup(build_groups(tokenize(source))), settings)


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
