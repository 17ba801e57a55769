"""Lossless LaTeX lexer, brace grouping, and math span extraction.

The tokenizer is total: any input string lexes, and detokenize(tokenize(s))
reproduces s byte for byte.  Group building and math extraction are the
only places that can reject input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Union

from .errors import UnbalancedGroupError, UnterminatedEnvironmentError

_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


class TokenKind(Enum):
    CONTROL = "control-sequence"
    CHAR = "character"
    GROUP_OPEN = "group-open"
    GROUP_CLOSE = "group-close"
    MATH_SHIFT = "math-shift"
    SUPERSCRIPT = "superscript"
    SUBSCRIPT = "subscript"
    ALIGN_TAB = "alignment-tab"
    COMMENT = "comment"
    WHITESPACE = "whitespace"


@dataclass(frozen=True)
class Token:
    """One lexical token.

    Equality and hashing use (kind, text) only, so canonical trees compare
    by content.  span is the token's source offset range; inert marks
    rewriter output that must never be rematched.
    """

    kind: TokenKind
    text: str
    span: tuple[int, int] | None = field(default=None, compare=False)
    inert: bool = field(default=False, compare=False)

    @property
    def name(self) -> str:
        """Control sequence name (text without the backslash)."""
        if self.kind is TokenKind.CONTROL:
            return self.text[1:]
        return self.text

    def is_control(self, name: str) -> bool:
        return self.kind is TokenKind.CONTROL and self.text[1:] == name

    def is_char(self, ch: str) -> bool:
        return self.kind is TokenKind.CHAR and self.text == ch

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r})"


def control(name: str, **kw) -> Token:
    return Token(TokenKind.CONTROL, "\\" + name, **kw)


def char(ch: str, **kw) -> Token:
    return Token(TokenKind.CHAR, ch, **kw)


_SINGLE = {
    "{": TokenKind.GROUP_OPEN,
    "}": TokenKind.GROUP_CLOSE,
    "$": TokenKind.MATH_SHIFT,
    "^": TokenKind.SUPERSCRIPT,
    "_": TokenKind.SUBSCRIPT,
    "&": TokenKind.ALIGN_TAB,
}


def tokenize(source: str) -> list[Token]:
    """Lex source into a flat token list covering every character.

    A trailing lone backslash becomes a one-character control sequence
    with an empty name; comments run to (not including) the newline.
    """
    out: list[Token] = []
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


def detokenize(tokens: Iterable[Token]) -> str:
    """Exact inverse of tokenize: concatenation of token texts."""
    return "".join(t.text for t in tokens)


@dataclass(frozen=True)
class Group:
    """A balanced {...} group.  Equality looks at children only."""

    children: tuple["Node", ...]
    open_tok: Token | None = field(default=None, compare=False)
    close_tok: Token | None = field(default=None, compare=False)
    inert: bool = field(default=False, compare=False)

    def __repr__(self):
        return f"Group({list(self.children)!r})"


Node = Union[Token, Group]


def build_groups(tokens: Iterable[Token]) -> list[Node]:
    """Fold GroupOpen/GroupClose tokens into Group nodes.

    Raises UnbalancedGroupError with the offset of the offending brace.
    """
    stack: list[tuple[Token, list[Node]]] = []
    current: list[Node] = []
    for t in tokens:
        if t.kind is TokenKind.GROUP_OPEN:
            stack.append((t, current))
            current = []
        elif t.kind is TokenKind.GROUP_CLOSE:
            if not stack:
                raise UnbalancedGroupError(t.span[0] if t.span else -1)
            open_tok, outer = stack.pop()
            outer.append(Group(tuple(current), open_tok=open_tok, close_tok=t))
            current = outer
        else:
            current.append(t)
    if stack:
        open_tok, _ = stack[0]
        raise UnbalancedGroupError(open_tok.span[0] if open_tok.span else -1)
    return current


def flatten(nodes: Iterable[Node]) -> list[Token]:
    """Depth-first leaves; inverse of build_groups."""
    out: list[Token] = []
    for node in nodes:
        if isinstance(node, Group):
            out.append(node.open_tok or Token(TokenKind.GROUP_OPEN, "{"))
            out.extend(flatten(node.children))
            out.append(node.close_tok or Token(TokenKind.GROUP_CLOSE, "}"))
        else:
            out.append(node)
    return out


def render(nodes: Iterable[Node]) -> str:
    """Serialize a tree to LaTeX, inserting the minimal spaces needed.

    Unlike detokenize this is meant for synthesized trees with no
    whitespace tokens: a space is inserted after a letter-named control
    word whenever the next token would otherwise extend its name.
    """
    parts: list[str] = []
    prev: Token | None = None
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


MATH_ENVIRONMENTS = frozenset(
    {"equation", "equation*", "align", "align*", "eqnarray", "displaymath"}
)
ROW_SPLIT_ENVIRONMENTS = frozenset({"align", "align*", "eqnarray"})


@dataclass(frozen=True)
class MathSpan:
    """One display row or inline snippet of math.

    span is the source offset range of the (trimmed) body, excluding the
    delimiters, so splicing a rewritten body back preserves everything
    around it.
    """

    environment: str
    body: tuple[Node, ...]
    span: tuple[int, int]
    label: str | None = None
    # full extent of the enclosing environment, delimiters included;
    # rows split from one alignment share it
    outer: tuple[int, int] = (0, 0)

    @property
    def is_display(self) -> bool:
        return self.environment != "inline-dollar"


def _group_text(tokens: list[Token], i: int) -> tuple[str, int] | None:
    """Read a balanced {...} at tokens[i] (skipping leading whitespace).

    Returns (inner text, index past the closing brace), or None.
    """
    n = len(tokens)
    while i < n and tokens[i].kind is TokenKind.WHITESPACE:
        i += 1
    if i >= n or tokens[i].kind is not TokenKind.GROUP_OPEN:
        return None
    depth = 0
    j = i
    while j < n:
        if tokens[j].kind is TokenKind.GROUP_OPEN:
            depth += 1
        elif tokens[j].kind is TokenKind.GROUP_CLOSE:
            depth -= 1
            if depth == 0:
                return detokenize(tokens[i + 1 : j]), j + 1
        j += 1
    return None


def _trim(tokens: list[Token]) -> list[Token]:
    a, b = 0, len(tokens)
    while a < b and tokens[a].kind is TokenKind.WHITESPACE:
        a += 1
    while b > a and tokens[b - 1].kind is TokenKind.WHITESPACE:
        b -= 1
    return tokens[a:b]


def _find_label(tokens: list[Token]) -> str | None:
    for i, t in enumerate(tokens):
        if t.is_control("label"):
            got = _group_text(tokens, i + 1)
            if got is not None:
                return got[0]
    return None


def _substantial(tokens: list[Token]) -> bool:
    return any(
        t.kind not in (TokenKind.WHITESPACE, TokenKind.COMMENT) for t in tokens
    )


def _make_span(
    env: str, tokens: list[Token], outer: tuple[int, int]
) -> MathSpan | None:
    body = _trim(tokens)
    if not _substantial(body):
        return None
    return MathSpan(
        environment=env,
        body=tuple(build_groups(body)),
        span=(body[0].span[0], body[-1].span[1]),
        label=_find_label(body),
        outer=outer,
    )


def _split_rows(tokens: list[Token]) -> list[list[Token]]:
    """Split an alignment body at top-level \\\\ separators."""
    rows: list[list[Token]] = [[]]
    depth = 0
    env_depth = 0
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        if t.kind is TokenKind.GROUP_OPEN:
            depth += 1
        elif t.kind is TokenKind.GROUP_CLOSE:
            depth -= 1
        elif t.is_control("begin"):
            env_depth += 1
        elif t.is_control("end"):
            env_depth -= 1
        elif t.is_control("\\") and depth == 0 and env_depth == 0:
            rows.append([])
            i += 1
            continue
        rows[-1].append(t)
        i += 1
    return rows


def extract_math(source: str) -> list[MathSpan]:
    """Find every math region of the document, in source order.

    Alignment environments contribute one MathSpan per row.  Raises
    UnterminatedEnvironmentError when an opener has no closer.
    """
    return _math_spans(tokenize(source))


def _math_spans(tokens: list[Token]) -> list[MathSpan]:
    """extract_math over an already lexed document."""
    spans: list[MathSpan] = []
    n = len(tokens)
    i = 0
    while i < n:
        t = tokens[i]
        if t.is_control("begin"):
            got = _group_text(tokens, i + 1)
            if got is None:
                i += 1
                continue
            env, after = got
            if env not in MATH_ENVIRONMENTS:
                i = after
                continue
            j = after
            depth = 0
            end_at = None
            while j < n:
                u = tokens[j]
                if u.is_control("begin"):
                    inner = _group_text(tokens, j + 1)
                    if inner is not None and inner[0] == env:
                        depth += 1
                        j = inner[1]
                        continue
                elif u.is_control("end"):
                    inner = _group_text(tokens, j + 1)
                    if inner is not None and inner[0] == env:
                        if depth == 0:
                            end_at = j
                            after_end = inner[1]
                            break
                        depth -= 1
                        j = inner[1]
                        continue
                j += 1
            if end_at is None:
                raise UnterminatedEnvironmentError(env, t.span[0])
            body_tokens = tokens[after:end_at]
            outer = (t.span[0], tokens[after_end - 1].span[1])
            if env in ROW_SPLIT_ENVIRONMENTS:
                for row in _split_rows(body_tokens):
                    ms = _make_span(env, row, outer)
                    if ms is not None:
                        spans.append(ms)
            else:
                ms = _make_span(env, body_tokens, outer)
                if ms is not None:
                    spans.append(ms)
            i = after_end
        elif t.is_control("["):
            j = i + 1
            while j < n and not tokens[j].is_control("]"):
                j += 1
            if j >= n:
                raise UnterminatedEnvironmentError("bracket-display", t.span[0])
            outer = (t.span[0], tokens[j].span[1])
            ms = _make_span("bracket-display", tokens[i + 1 : j], outer)
            if ms is not None:
                spans.append(ms)
            i = j + 1
        elif t.kind is TokenKind.MATH_SHIFT:
            double = i + 1 < n and tokens[i + 1].kind is TokenKind.MATH_SHIFT
            if double:
                j = i + 2
                while j < n:
                    if (
                        tokens[j].kind is TokenKind.MATH_SHIFT
                        and j + 1 < n
                        and tokens[j + 1].kind is TokenKind.MATH_SHIFT
                    ):
                        break
                    j += 1
                if j >= n:
                    raise UnterminatedEnvironmentError("bracket-display", t.span[0])
                outer = (t.span[0], tokens[j + 1].span[1])
                ms = _make_span("bracket-display", tokens[i + 2 : j], outer)
                if ms is not None:
                    spans.append(ms)
                i = j + 2
            else:
                j = i + 1
                while j < n and tokens[j].kind is not TokenKind.MATH_SHIFT:
                    j += 1
                if j >= n:
                    raise UnterminatedEnvironmentError("inline-dollar", t.span[0])
                outer = (t.span[0], tokens[j].span[1])
                ms = _make_span("inline-dollar", tokens[i + 1 : j], outer)
                if ms is not None:
                    spans.append(ms)
                i = j + 1
        else:
            i += 1
    return spans
