"""Canonical form for math token trees.

Collapses presentation-only degrees of freedom (spacing, delimiter
sizing, bar spellings, script bracing) so the rewriter can match one
spelling instead of dozens.  canonicalize is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import MismatchedLeftRightError
from .lexer import Group, Node, Token, TokenKind, build_groups, tokenize

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

# Token texts a size prefix may be applied to.
_DELIMITER_TEXTS = frozenset(
    {"(", ")", "[", "]", "\\{", "\\}", "|", ".", "/",
     "\\vert", "\\lvert", "\\rvert", "\\mid", "\\Vert", "\\|",
     "\\langle", "\\rangle", "\\lparen", "\\rparen",
     "\\lbrack", "\\rbrack", "\\lbrace", "\\rbrace",
     "\\lfloor", "\\rfloor", "\\lceil", "\\rceil"}
)


@dataclass(frozen=True)
class CanonicalSettings:
    """Which spellings collapse to what.  Loaded from the glossary file."""

    spacing_tokens: frozenset = frozenset(DEFAULT_SPACING_TOKENS)
    size_prefixes: frozenset = frozenset(DEFAULT_SIZE_PREFIXES)
    bar_synonyms: frozenset = frozenset(DEFAULT_BAR_SYNONYMS)
    delimiter_map: Mapping[str, str] = field(
        default_factory=lambda: _class_map(DEFAULT_DELIMITER_CLASSES)
    )

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


def _class_map(classes) -> dict[str, str]:
    out: dict[str, str] = {}
    for entry in classes:
        for variant in entry["variants"]:
            out[variant] = entry["canonical"]
    return out


DEFAULT_SETTINGS = CanonicalSettings()


def _canonical_delimiter(t: Token, settings: CanonicalSettings) -> Token:
    """Canonical token for a delimiter spelling (without size prefix)."""
    if t.kind is TokenKind.CONTROL and t.name in settings.bar_synonyms:
        return Token(TokenKind.CHAR, "|")
    mapped = settings.delimiter_map.get(t.text)
    if mapped is not None:
        kind = TokenKind.CONTROL if mapped.startswith("\\") else TokenKind.CHAR
        return Token(kind, mapped)
    return t


# Token kinds dropped after delimiter normalization, and kinds a one-leaf
# brace group unwraps to.
_DROPPED_KINDS = (TokenKind.ALIGN_TAB, TokenKind.COMMENT)
_LEAF_KINDS = (TokenKind.CHAR, TokenKind.CONTROL)


def _skip_whitespace(nodes: Sequence[Node], i: int) -> int:
    """Index of the first node at or after i that is not whitespace; TeX
    skips spaces after a control word and before an argument."""
    while (
        i < len(nodes)
        and isinstance(nodes[i], Token)
        and nodes[i].kind is TokenKind.WHITESPACE
    ):
        i += 1
    return i


def _canon(nodes: Sequence[Node], settings: CanonicalSettings) -> list[Node]:
    """Canonical form of one node sequence, recursing into its groups."""
    n = len(nodes)
    # Spacing goes first, so a size prefix sees the delimiter behind it.
    seq: list[Node] = []
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
    # Delimiters, tabs and comments, and groups in source order, so the
    # first left/right mismatch in the tree is the one raised.  Tabs and
    # comments still separate a size prefix from what follows them.
    out: list[Node] = []
    depth = 0
    first_open: Token | None = None
    n = len(seq)
    i = 0
    while i < n:
        node = seq[i]
        i += 1
        if isinstance(node, Group):
            kids = _canon(node.children, settings)
            if len(kids) == 1 and isinstance(kids[0], Token) and kids[0].kind in _LEAF_KINDS:
                out.append(kids[0])
            else:
                out.append(
                    Group(tuple(kids), open_tok=node.open_tok, close_tok=node.close_tok)
                )
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
                        raise MismatchedLeftRightError(
                            node.span[0] if node.span else None
                        )
                if node.name in ("left", "right") and nxt.text == ".":
                    continue
                node = _canonical_delimiter(nxt, settings)
            out.append(node)
            continue
        node = _canonical_delimiter(node, settings)
        if node.kind not in _DROPPED_KINDS:
            out.append(node)
    if depth != 0:
        pos = first_open.span[0] if first_open is not None and first_open.span else None
        raise MismatchedLeftRightError(pos)
    return out


@dataclass(frozen=True)
class CanonicalTree:
    """Canonical node sequence; trees compare by content."""

    nodes: tuple[Node, ...]


def canonicalize(
    nodes: Iterable[Node], settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """Canonicalize in one walk.  In each node sequence, in order:

    1. drop whitespace, spacing tokens and \\hspace/\\mspace{...};
    2. collapse sized and synonym delimiters to one spelling per class
       (\\left. and \\right. disappear) and raise MismatchedLeftRightError
       when \\left/\\right do not pair up within the sequence;
    3. drop alignment tabs and comments;
    4. canonicalize each group once and unwrap it when it holds a single
       CHAR or CONTROL leaf, so {{n}} becomes n.
    """
    return CanonicalTree(tuple(_canon(list(nodes), settings)))


def canonicalize_string(
    source: str, settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """Convenience wrapper: lex, group, canonicalize."""
    return canonicalize(build_groups(tokenize(source)), settings)
