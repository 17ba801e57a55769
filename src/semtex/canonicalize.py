"""Canonical form for math token trees.

Collapses presentation-only degrees of freedom (spacing, delimiter
sizing, bar spellings, script bracing) so the rewriter can match one
spelling instead of dozens.  canonicalize is idempotent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

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


def strip_spacing(
    nodes: Iterable[Node], settings: CanonicalSettings = DEFAULT_SETTINGS
) -> list[Node]:
    """Drop whitespace tokens and explicit spacing commands."""
    out: list[Node] = []
    nodes = list(nodes)
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if isinstance(node, Group):
            out.append(
                Group(
                    tuple(strip_spacing(node.children, settings)),
                    open_tok=node.open_tok,
                    close_tok=node.close_tok,
                )
            )
            i += 1
            continue
        if node.kind is TokenKind.WHITESPACE or node.text in settings.spacing_tokens:
            i += 1
            continue
        if node.kind is TokenKind.CONTROL and node.name in _ARG_SPACING:
            j = i + 1
            if j < len(nodes) and isinstance(nodes[j], Token) and nodes[j].is_char("*"):
                j += 1
            if j < len(nodes) and isinstance(nodes[j], Group):
                i = j + 1
                continue
        out.append(node)
        i += 1
    return out


def _canonical_delimiter(t: Token, settings: CanonicalSettings) -> Token:
    """Canonical token for a delimiter spelling (without size prefix)."""
    if t.kind is TokenKind.CONTROL and t.name in settings.bar_synonyms:
        return Token(TokenKind.CHAR, "|")
    mapped = settings.delimiter_map.get(t.text)
    if mapped is not None:
        kind = TokenKind.CONTROL if mapped.startswith("\\") else TokenKind.CHAR
        return Token(kind, mapped)
    return t


def normalize_delimiters(
    nodes: Iterable[Node], settings: CanonicalSettings = DEFAULT_SETTINGS
) -> list[Node]:
    """Collapse sized/synonymous delimiters to one spelling per class.

    \\left. and \\right. disappear.  Raises MismatchedLeftRightError when
    \\left/\\right do not pair up within a group.
    """
    out: list[Node] = []
    nodes = list(nodes)
    depth = 0
    first_open: Token | None = None
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if isinstance(node, Group):
            out.append(
                Group(
                    tuple(normalize_delimiters(node.children, settings)),
                    open_tok=node.open_tok,
                    close_tok=node.close_tok,
                )
            )
            i += 1
            continue
        if node.kind is TokenKind.CONTROL and node.name in settings.size_prefixes:
            nxt = nodes[i + 1] if i + 1 < len(nodes) else None
            if isinstance(nxt, Token) and nxt.text in _DELIMITER_TEXTS:
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
                if not (node.name in ("left", "right") and nxt.text == "."):
                    out.append(_canonical_delimiter(nxt, settings))
                i += 2
                continue
            out.append(node)
            i += 1
            continue
        out.append(_canonical_delimiter(node, settings))
        i += 1
    if depth != 0:
        pos = first_open.span[0] if first_open is not None and first_open.span else None
        raise MismatchedLeftRightError(pos)
    return out


def _unwrap_singletons(nodes: list[Node]) -> list[Node]:
    """Drop redundant braces: {n} becomes n when the group holds a single
    CHAR or CONTROL leaf.  Applied bottom-up so {{n}} fully collapses; a
    canonical tree therefore never contains a one-leaf brace group."""
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Group):
            kids = _unwrap_singletons(list(node.children))
            if (
                len(kids) == 1
                and isinstance(kids[0], Token)
                and kids[0].kind in (TokenKind.CHAR, TokenKind.CONTROL)
            ):
                out.append(kids[0])
                continue
            node = Group(
                tuple(kids), open_tok=node.open_tok, close_tok=node.close_tok
            )
        out.append(node)
    return out


def _drop_kinds(nodes: Iterable[Node], kinds: tuple[TokenKind, ...]) -> list[Node]:
    out: list[Node] = []
    for node in nodes:
        if isinstance(node, Group):
            out.append(
                Group(
                    tuple(_drop_kinds(node.children, kinds)),
                    open_tok=node.open_tok,
                    close_tok=node.close_tok,
                )
            )
        elif node.kind not in kinds:
            out.append(node)
    return out


@dataclass(frozen=True)
class CanonicalTree:
    """Canonical node sequence; trees compare by content."""

    nodes: tuple[Node, ...]


def canonicalize(
    nodes: Iterable[Node], settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """strip_spacing, normalize_delimiters, then drop alignment tabs and
    comments and unwrap single-leaf brace groups."""
    work = strip_spacing(nodes, settings)
    work = normalize_delimiters(work, settings)
    work = _drop_kinds(work, (TokenKind.ALIGN_TAB, TokenKind.COMMENT))
    work = _unwrap_singletons(work)
    return CanonicalTree(tuple(work))


def canonicalize_string(
    source: str, settings: CanonicalSettings = DEFAULT_SETTINGS
) -> CanonicalTree:
    """Convenience wrapper: lex, group, canonicalize."""
    return canonicalize(build_groups(tokenize(source)), settings)
