r"""Lossless LaTeX lexer, brace grouping, and math span extraction.

The tokenizer is total: any input string lexes, and detokenize(tokenize(s))
reproduces s byte for byte.  Group building and math extraction are the
only places that can reject input.

The token grammar is one regular expression, matched left to right with
re.S, whose alternatives are tried in order:

    \\(?:[A-Za-z]+|.)?  |  %[^\n]*  |  \s+  |  .

A backslash with a run of ASCII letters, one other character or nothing
(at the end of input) is a CONTROL token; % up to the newline is a
COMMENT; a whitespace run (\s is exactly str.isspace()) is WHITESPACE;
any other single character is GROUP_OPEN, GROUP_CLOSE, MATH_SHIFT,
SUPERSCRIPT, SUBSCRIPT or ALIGN_TAB for { } $ ^ _ &, else CHAR.  So a
token text that starts with a backslash is always a control sequence,
and {, } and $ always have their own kinds: math and headings are found
by comparing token text.

A token is its text: Token derives its kind from the text by _kind, the
one place that rule lives, so no token can have a kind its text does
not give, and two tokens of one text are equal whatever their spans.
A Group is its children; its braces are implied, and flatten and
render write them back.

A document is lexed to token texts and start offsets only; math rows
and headings are found on those as index ranges, reading only the
structural tokens _marks lists, and rows are canonicalized straight
from the texts.  No verb goes through
extract_math: it is the public, Token-building view of the same rows,
and only it builds Tokens, for the bodies of the MathSpans it returns.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from enum import Enum
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Union

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


# the kind of a token whose first character decides it; any other token
# is WHITESPACE or CHAR
_FIRST = {
    "\\": TokenKind.CONTROL,
    "%": TokenKind.COMMENT,
    "{": TokenKind.GROUP_OPEN,
    "}": TokenKind.GROUP_CLOSE,
    "$": TokenKind.MATH_SHIFT,
    "^": TokenKind.SUPERSCRIPT,
    "_": TokenKind.SUBSCRIPT,
    "&": TokenKind.ALIGN_TAB,
}
_TOKEN_RE = re.compile(r"\\(?:[A-Za-z]+|.)?|%[^\n]*|\s+|.", re.S)

# read once for _render: each read of an enum member through its class
# goes through the enum's metaclass (about 0.13 us on CPython 3.11)
_CONTROL = TokenKind.CONTROL


def _kind(text: str) -> TokenKind:
    """The kind of a token of text, which its first character decides;
    the empty text is a CHAR."""
    c = text[:1]
    kind = _FIRST.get(c)
    if kind is None:
        kind = TokenKind.WHITESPACE if c.isspace() else TokenKind.CHAR
    return kind


class Token:
    """One lexical token, which is its text.

    kind is derived from the text by the lexer's rule (_kind), and
    equality and hashing use the text alone, so canonical trees compare
    by content.  Aside from the text, span is the token's source offset
    range, and inert marks rewriter output and semantic macros read
    back from source, which must never be rematched.  Tokens are never
    mutated after construction, so one token may stand at many places:
    the canonical builder gives every occurrence of a text in a
    document the same leaf.
    """

    __slots__ = ("kind", "text", "span", "inert")

    def __init__(self, text: str, span: tuple[int, int] | None = None, inert: bool = False):
        self.kind = _kind(text)
        self.text = text
        self.span = span
        self.inert = inert

    def __eq__(self, other):
        if other.__class__ is not Token:
            return NotImplemented
        return self.text == other.text

    def __hash__(self):
        return hash(self.text)

    @property
    def name(self) -> str:
        """Control sequence name (text without the backslash)."""
        if self.kind is TokenKind.CONTROL:
            return self.text[1:]
        return self.text

    def __repr__(self):
        return f"Token({self.kind.name}, {self.text!r})"


def _lex(source: str) -> tuple[list[str], list[int]]:
    """Token texts of source and their start offsets; starts has one
    more entry, len(source), so token k spans starts[k]:starts[k + 1]."""
    texts = _TOKEN_RE.findall(source)
    return texts, [0, *accumulate(map(len, texts))]


def _tokens(texts: list[str], starts: list[int], a: int, b: int) -> list[Token]:
    """The Tokens of lexed tokens a..b-1, with their source spans."""
    spans = zip(starts[a:b], starts[a + 1 : b + 1])
    return [Token(text, span) for text, span in zip(texts[a:b], spans)]


def tokenize(source: str) -> list[Token]:
    """Lex source into a flat token list covering every character.

    A trailing lone backslash becomes a one-character control sequence
    with an empty name; comments run to (not including) the newline.
    """
    texts, starts = _lex(source)
    return _tokens(texts, starts, 0, len(texts))


def detokenize(tokens: Iterable[Token]) -> str:
    """Exact inverse of tokenize: concatenation of token texts."""
    return "".join(t.text for t in tokens)


class Group:
    """A balanced {...} group: it is its children.  Equality looks at
    children only; the braces are implied, and inert marks rewriter
    output as for tokens.

    Like tokens, groups are never mutated after construction.
    """

    __slots__ = ("children", "inert")

    def __init__(self, children: tuple["Node", ...], inert: bool = False):
        self.children = children
        self.inert = inert

    def __eq__(self, other):
        if other.__class__ is not Group:
            return NotImplemented
        return self.children == other.children

    def __hash__(self):
        return hash(self.children)

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
            _, outer = stack.pop()
            outer.append(Group(tuple(current)))
            current = outer
        else:
            current.append(t)
    if stack:
        open_tok, _ = stack[0]
        raise UnbalancedGroupError(open_tok.span[0] if open_tok.span else -1)
    return current


_OPEN = Token("{")
_CLOSE = Token("}")


def flatten(nodes: Iterable[Node]) -> list[Token]:
    """Depth-first leaves, each group between a { and a } token; inverse
    of build_groups."""
    out: list[Token] = []
    for node in nodes:
        if isinstance(node, Group):
            out.append(_OPEN)
            out.extend(flatten(node.children))
            out.append(_CLOSE)
        else:
            out.append(node)
    return out


def render(nodes: Iterable[Node]) -> str:
    """Serialize a tree to LaTeX, inserting the minimal spaces needed.

    Unlike detokenize this is meant for synthesized trees with no
    whitespace tokens: a space is inserted after a letter-named control
    word whenever the next token would otherwise extend its name.  The
    texts are those of flatten(nodes), in order, so every token text of
    the tree appears verbatim in the result.
    """
    parts: list[str] = []
    _render(nodes, parts.append, False)
    return "".join(parts)


def _render(nodes: Iterable[Node], append, word: bool) -> bool:
    """Append the texts of nodes, depth first; word says whether the
    text appended last is a control word that a letter would extend.
    Returns that flag for the last text appended here."""
    for node in nodes:
        if node.__class__ is Group:
            append("{")
            _render(node.children, append, False)
            append("}")
            word = False
            continue
        text = node.text
        if word and text[:1] in _LETTERS:
            append(" ")
        append(text)
        word = node.kind is _CONTROL and len(text) > 1 and text[-1] in _LETTERS
    return word


MATH_ENVIRONMENTS = frozenset(
    {"equation", "equation*", "align", "align*", "eqnarray", "displaymath"}
)
ROW_SPLIT_ENVIRONMENTS = frozenset({"align", "align*", "eqnarray"})


class MathSpan(NamedTuple):
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


# The scans below read token texts by index: _TOKEN_RE gives {, } and $
# their own tokens, backslash-initial text only to control sequences and
# whitespace-initial text only to whitespace runs.
def _group_text(texts: list[str], i: int, n: int) -> tuple[str, int] | None:
    """Read a balanced {...} at texts[i] (skipping leading whitespace),
    looking no further than texts[n - 1].

    Returns (inner text, index past the closing brace), or None.
    """
    while i < n and texts[i][0].isspace():
        i += 1
    if i >= n or texts[i] != "{":
        return None
    depth = 0
    j = i
    while j < n:
        if texts[j] == "{":
            depth += 1
        elif texts[j] == "}":
            depth -= 1
            if depth == 0:
                return "".join(texts[i + 1 : j]), j + 1
        j += 1
    return None


def _find_label(texts: list[str], a: int, b: int) -> str | None:
    for i in range(a, b):
        if texts[i] == "\\label":
            got = _group_text(texts, i + 1, b)
            if got is not None:
                return got[0]
    return None


def _check_balance(texts: list[str], starts: list[int], a: int, b: int) -> None:
    """Raise UnbalancedGroupError, as build_groups does, unless the braces
    of tokens a..b-1 balance: at the first unmatched }, else at the
    outermost unclosed {."""
    depth = 0
    for k in range(a, b):
        t = texts[k]
        if t == "{":
            if not depth:
                opened = k
            depth += 1
        elif t == "}":
            if not depth:
                raise UnbalancedGroupError(starts[k])
            depth -= 1
    if depth:
        raise UnbalancedGroupError(starts[opened])


def _split_rows(texts: list[str], a: int, b: int) -> list[tuple[int, int]]:
    """Split an alignment body a..b-1 at top-level \\\\ separators into
    index ranges."""
    rows: list[tuple[int, int]] = []
    depth = 0
    env_depth = 0
    for i in range(a, b):
        text = texts[i]
        if text == "{":
            depth += 1
        elif text == "}":
            depth -= 1
        elif text == "\\begin":
            env_depth += 1
        elif text == "\\end":
            env_depth -= 1
        elif text == "\\\\" and depth == 0 and env_depth == 0:
            rows.append((a, i))
            a = i + 1
    rows.append((a, b))
    return rows


def extract_math(source: str) -> list[MathSpan]:
    """Find every math region of the document, in source order.

    Alignment environments contribute one MathSpan per row.  Raises
    UnterminatedEnvironmentError when an opener has no closer, and
    UnbalancedGroupError when a row's braces do not balance.
    """
    texts, starts = _lex(source)
    return [
        MathSpan(env, tuple(build_groups(_tokens(texts, starts, a, b))),
                 (starts[a], starts[b]), _find_label(texts, a, b), outer)
        for env, a, b, outer in _row_ranges(texts, starts, _marks(source, texts, starts))
    ]


_OPENERS = frozenset({"\\begin", "\\[", "$"})

# Where a structural token may start: \begin, \end, \[, \], $, \section
# and \subsection, or the start of a longer control word
_MARK_RE = re.compile(r"\\(?:begin|end|section|subsection|\[|\])|\$")


def _marks(source: str, texts: list[str], starts: list[int]) -> list[int]:
    """Indices, in order, of the structural tokens of a lexed document:
    \\begin, \\end, \\[, \\], $, \\section and \\subsection.  The scans of
    math rows and headings read only these.  A hit of _MARK_RE counts
    only where a token of its text starts, so one inside a comment,
    after a backslash or at the head of a longer control word is none."""
    out: list[int] = []
    for m in _MARK_RE.finditer(source):
        p = m.start()
        k = bisect_left(starts, p)
        if starts[k] == p and texts[k] == m.group():
            out.append(k)
    return out


def _row_ranges(texts: list[str], starts: list[int], marks: list[int]) -> Iterator[tuple]:
    """The math rows of a lexed document as (environment, a, b, outer):
    tokens a..b-1 are the body with whitespace trimmed, outer the source
    extent of the environment.  marks are the document's _marks: an
    environment opens and closes only at one of them.  Rows of only
    whitespace and comments are skipped; raises as extract_math does."""
    n = len(texts)
    nm = len(marks)
    m = 0
    while m < nm:
        i = marks[m]
        m += 1
        t = texts[i]
        if t not in _OPENERS:
            continue
        if t == "\\begin":
            got = _group_text(texts, i + 1, n)
            if got is None:
                continue
            env, end = got
            if env in MATH_ENVIRONMENTS:
                after = end
                depth = 0
                j = after  # the next \begin or \end looked at starts here
                end_at = None
                while m < nm:
                    q = marks[m]
                    m += 1
                    u = texts[q]
                    if q < j or (u != "\\begin" and u != "\\end"):
                        continue
                    inner = _group_text(texts, q + 1, n)
                    if inner is None or inner[0] != env:
                        continue
                    if u == "\\begin":
                        depth += 1
                    elif depth:
                        depth -= 1
                    else:
                        end_at, end = q, inner[1]
                        break
                    j = inner[1]
                if end_at is None:
                    raise UnterminatedEnvironmentError(env, starts[i])
                if env in ROW_SPLIT_ENVIRONMENTS:
                    rows = _split_rows(texts, after, end_at)
                else:
                    rows = [(after, end_at)]
            else:
                rows = ()
        else:
            # \[ closes at \], $$ at $ followed by $ and $ at $; width is
            # the number of tokens in the opener and in the closer
            close = "\\]" if t == "\\[" else "$"
            width = 2 if t == "$" and i + 1 < n and texts[i + 1] == "$" else 1
            env = "inline-dollar" if t == "$" and width == 1 else "bracket-display"
            m += width - 1  # past the second $ of $$
            while m < nm:
                j = marks[m]
                if texts[j] == close and (width == 1 or (j + 1 < n and texts[j + 1] == "$")):
                    break
                m += 1
            if m == nm:
                raise UnterminatedEnvironmentError(env, starts[i])
            rows, end = [(i + width, j)], j + width
        # marks before end lie inside what was just read
        while m < nm and marks[m] < end:
            m += 1
        outer = (starts[i], starts[end])
        for a, b in rows:
            while a < b and texts[a][0].isspace():
                a += 1
            while b > a and texts[b - 1][0].isspace():
                b -= 1
            if all(u[0] == "%" or u[0].isspace() for u in texts[a:b]):
                continue
            _check_balance(texts, starts, a, b)
            yield env, a, b, outer
