"""Canonical form for math token trees.

Collapses presentation-only degrees of freedom (spacing, delimiter
sizing, bar spellings, script bracing) so the rewriter can match one
spelling instead of dozens.  canonicalize is idempotent.

One builder reads lexed token texts once and returns the canonical tree
directly: every row and span a verb reads is canonicalized straight
from the document's texts, with no Token or Group built for what it
drops, and canonicalize runs the same builder over the flattened leaves
of a built tree.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .errors import MismatchedLeftRightError
from .lexer import Group, Node, Token, TokenKind, _check_balance, _lex, _match, flatten

DEFAULT_SPACING_TOKENS = (
    "\\,", "\\!", "\\;", "\\:", "~", "\\ ",
    "\\quad", "\\qquad", "\\enspace", "\\enskip",
    "\\thinspace", "\\medspace", "\\thickspace",
    "\\negthinspace", "\\negmedspace", "\\negthickspace",
)

DEFAULT_SIZE_PREFIXES = (
    "left", "right", "middle",
    "bigl", "bigr", "bigm", "big",
    "Bigl", "Bigr", "Bigm", "Big",
    "biggl", "biggr", "biggm", "bigg",
    "Biggl", "Biggr", "Biggm", "Bigg",
)

DEFAULT_BAR_SYNONYMS = ("mid", "vert", "lvert", "rvert")

DEFAULT_DELIMITER_CLASSES = (
    {"canonical": "(", "variants": ["\\lparen"]},
    {"canonical": ")", "variants": ["\\rparen"]},
    {"canonical": "[", "variants": ["\\lbrack"]},
    {"canonical": "]", "variants": ["\\rbrack"]},
    {"canonical": "\\{", "variants": ["\\lbrace"]},
    {"canonical": "\\}", "variants": ["\\rbrace"]},
)

# Spacing commands that take a braced argument which goes away with them.
_ARG_SPACING = frozenset({"hspace", "mspace"})

# Commands whose braced argument is text, in which each whitespace run
# is kept as one space leaf.
_TEXT_ARGS = frozenset({"text", "mbox", "textrm", "textit", "textbf"})

# Token texts a size prefix may be applied to.
_DELIMITER_TEXTS = frozenset(
    {"(", ")", "[", "]", "\\{", "\\}", "|", ".", "/",
     "\\vert", "\\lvert", "\\rvert", "\\mid", "\\Vert", "\\|",
     "\\langle", "\\rangle", "\\lparen", "\\rparen",
     "\\lbrack", "\\rbrack", "\\lbrace", "\\rbrace",
     "\\lfloor", "\\rfloor", "\\lceil", "\\rceil"}
)


def _class_map(classes) -> dict[str, str]:
    out: dict[str, str] = {}
    for entry in classes:
        for variant in entry["variants"]:
            out[variant] = entry["canonical"]
    return out


class CanonicalSettings(NamedTuple):
    """Which spellings collapse to what.  Loaded from the glossary file."""

    spacing_tokens: frozenset = frozenset(DEFAULT_SPACING_TOKENS)
    size_prefixes: frozenset = frozenset(DEFAULT_SIZE_PREFIXES)
    bar_synonyms: frozenset = frozenset(DEFAULT_BAR_SYNONYMS)
    # read-only, as every default settings object shares it
    delimiter_map: Mapping[str, str] = MappingProxyType(_class_map(DEFAULT_DELIMITER_CLASSES))

    @classmethod
    def from_config(cls, cfg: Mapping) -> "CanonicalSettings":
        return cls(
            spacing_tokens=frozenset(
                cfg.get("spacing_tokens", DEFAULT_SPACING_TOKENS)
            ),
            size_prefixes=frozenset(
                name.lstrip("\\")
                for name in cfg.get("size_prefixes", DEFAULT_SIZE_PREFIXES)
            ),
            bar_synonyms=frozenset(
                name.lstrip("\\")
                for name in cfg.get("bar_synonyms", DEFAULT_BAR_SYNONYMS)
            ),
            delimiter_map=_class_map(
                cfg.get("delimiter_classes", DEFAULT_DELIMITER_CLASSES)
            ),
        )


DEFAULT_SETTINGS = CanonicalSettings()


class CanonicalTree:
    """Canonical node sequence; trees compare by content.  at is False
    only for a tree the builder made with no @ leaf."""

    __slots__ = ("nodes", "at")

    def __init__(self, nodes: tuple[Node, ...], at: bool = True):
        self.nodes = nodes
        self.at = at

    def __eq__(self, other):
        if other.__class__ is not CanonicalTree:
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self):
        return f"CanonicalTree(nodes={self.nodes!r})"


# Token kinds a one-leaf brace group unwraps to.
_LEAF_KINDS = (TokenKind.CHAR, TokenKind.CONTROL)
# Markup a display row drops at every depth, besides \label{...}.
_ROW_MARKUP = frozenset({"\\nonumber", "\\notag"})
# Control words that reach a leaf only where their context lets them
_NOT_PLAIN = _ROW_MARKUP | {"\\label"} | {"\\" + name for name in _TEXT_ARGS}
# The leaf of a whitespace run in a text argument
_SPACE = Token(" ")
# Leaves a display row drops off the end of its canonical top level
_ROW_PUNCTUATION = frozenset({",", ".", ";"})


def _skip_blank(texts: Sequence[str], i: int, b: int, markup: bool) -> int:
    """Index of the first token at or after i, before b, that is not
    whitespace nor, with markup, row markup; TeX skips spaces after a
    control word and before an argument."""
    while i < b:
        t = texts[i]
        if t[0].isspace() or (markup and t in _ROW_MARKUP):
            i += 1
        elif markup and t == "\\label":
            j = _skip_blank(texts, i + 1, b, False)
            if j == b or texts[j] != "{":
                return i
            i = _match(texts, j) + 1
        else:
            return i
    return i


def _build(
    texts: Sequence[str],
    pos: Callable[[int], int | None],
    a: int,
    b: int,
    settings: CanonicalSettings,
    row: bool = False,
    leaves: dict[str, Token] | None = None,
) -> CanonicalTree:
    """The canonical tree of the balanced tokens texts[a:b], read once, by
    the rules canonicalize gives; pos(k) is the offset an error at token k
    names.  A row also drops \\label{...}, \\nonumber and \\notag at every
    depth, and then the , . ; leaves that end its canonical top level,
    so the . of a closing \\right. is a delimiter, not punctuation.
    Outside a row the argument of \\label is a name, not math: it
    stays a group holding its source text as one inert leaf, so a
    rewritten label keeps its braces and its spelling.

    Leaves are spanless and never mutated, and all but a label
    argument's are non-inert, so one leaf serves every occurrence of its
    text.  leaves maps each plain text met so far to its leaf, and a
    caller that builds many rows of a document passes one table, with
    one settings, to all of them.  A plain text is one whose treatment
    does not depend on its context: wherever no size prefix waits, it
    becomes its own leaf, so one lookup decides it.  Whitespace, spacing
    tokens, { } & and comments, size prefixes, bar and delimiter
    synonyms, \\label, \\nonumber, \\notag, \\hspace, \\mspace, the text
    commands of _TEXT_ARGS and @ are not plain; a leaf built for one of
    them is fresh.  A one-leaf group in the run of groups right before
    an @ keeps its braces, so the run reads as a macro's fields.  The
    tree's at says whether an @ leaf was made, a mapped delimiter
    included.
    """
    if leaves is None:
        leaves = {}
    # (sequence, index, children) of each one-leaf group unwrapped
    bare = []
    at = False
    plain = leaves.get
    spacing = settings.spacing_tokens
    # one (nodes, depth, first) frame per enclosing group: the sequence
    # built so far, its \left count less its \right count, and the index
    # of its first \left (-1 before it)
    stack: list[tuple[list[Node], int, int]] = []
    out: list[Node] = []
    depth, first = 0, -1
    prefix = -1  # index of a size prefix waiting for the next token
    text_at = -1  # index of the { that opens the last text argument seen
    quoted = -1  # len(stack) inside the text argument being read, else -1
    label_at = -1  # index of the { that opens the last label argument seen
    k = a
    while k < b:
        t = texts[k]
        k += 1
        if prefix < 0:
            leaf = plain(t)
            if leaf is not None:
                out.append(leaf)
                continue
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
                # the argument follows past spaces and, in a row, markup
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
                kids = out
                out, depth, first = stack.pop()
                kid = kids[0] if len(kids) == 1 else None
                if kid.__class__ is Token and kid.kind in _LEAF_KINDS:
                    bare.append((out, len(out), kids))
                    out.append(kid)
                else:
                    out.append(Group(tuple(kids)))
                continue
            if c == "\\" and name in settings.size_prefixes:
                prefix = k - 1
                continue
        # the leaf, with bar and delimiter synonyms mapped to one spelling;
        # tabs and comments go
        if c.isspace():
            out.append(_SPACE)
            continue
        if c == "\\" and name in settings.bar_synonyms:
            out.append(Token("|"))
            continue
        mapped = settings.delimiter_map.get(t)
        if mapped is not None:
            leaf = Token(mapped)
        elif c == "&" or c == "%":
            continue
        else:
            leaf = plain(t)
            if leaf is None:
                leaf = Token(t)
                if t != "@" and (c != "\\" or (name not in _ARG_SPACING and t not in _NOT_PLAIN)):
                    leaves[t] = leaf
        if leaf.text == "@":
            at = True
            _rebrace(out, bare)
        out.append(leaf)
    if prefix >= 0:
        out.append(Token(texts[prefix]))
    if depth:
        raise MismatchedLeftRightError(pos(first))
    if row:
        while out and out[-1].__class__ is Token and out[-1].text in _ROW_PUNCTUATION:
            out.pop()
    return CanonicalTree(tuple(out), at)


def _rebrace(out: list[Node], bare: list) -> None:
    """Put back the braces of the groups of bare that end out."""
    braced = {k: kids for seq, k, kids in bare if seq is out}
    k = len(out) - 1
    while k >= 0 and (k in braced or out[k].__class__ is Group):
        if k in braced:
            out[k] = Group(tuple(braced[k]))
        k -= 1


def canonicalize(
    nodes: Iterable[Node], settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """Canonicalize in one walk.  In each node sequence, in order:

    1. drop whitespace, spacing tokens and \\hspace/\\mspace{...}, but
       keep each whitespace run inside the braced argument of \\text,
       \\mbox, \\textrm, \\textit or \\textbf as one space leaf;
    2. collapse sized and synonym delimiters to one spelling per class
       (\\left. and \\right. disappear) and raise MismatchedLeftRightError
       when \\left/\\right do not pair up within the sequence;
    3. drop alignment tabs and comments;
    4. canonicalize each group once and unwrap it when it holds a single
       CHAR or CONTROL leaf, so {{n}} becomes n, unless it stands in the
       run of groups right before an @, so \\Foo{x}@{y} keeps {x}; the
       argument of \\label is not read as math but kept as its source
       text, in its braces.
    """
    flat = flatten(nodes)
    texts = [t.text for t in flat]
    return _build(texts, [t.span and t.span[0] for t in flat].__getitem__, 0, len(texts), settings)


def canonicalize_string(
    source: str, settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """Lex and canonicalize; raises UnbalancedGroupError as build_groups
    does."""
    texts, starts = _lex(source)
    _check_balance(texts, starts, 0, len(texts))
    return _build(texts, starts, 0, len(texts), settings)
