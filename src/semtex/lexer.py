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

A document is never lexed whole: one regular-expression scan (_marks)
finds its structural tokens, the braces after a mark are scanned only
to their close, and each math body is lexed once, to token texts that
rows are canonicalized from.  No verb goes through extract_math: it is the
public, Token-building view of the same rows, and only it builds
Tokens, for the bodies of the MathSpans it returns.
"""

from __future__ import annotations

import re
from enum import Enum
from itertools import accumulate
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

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
# The lexer's multi-character tokens: a control word or symbol, and a
# comment, which runs to the end of its line
_CONTROL_SEQ = r"\\(?:[A-Za-z]+|.)?"
_COMMENT = r"%[^\n]*"
_TOKEN_RE = re.compile("|".join((_CONTROL_SEQ, _COMMENT, r"\s+", ".")), re.S)
# The multi-character tokens, and $ or a brace: a hit starts where a
# token starts, so a scan skips what the lexer would, a mark inside a
# comment, after \\ or at the head of a longer control word
_SCAN_RE = re.compile("|".join((_CONTROL_SEQ, _COMMENT, r"\$")), re.S)
_BRACE_RE = re.compile("|".join((_CONTROL_SEQ, _COMMENT, "[{}]")), re.S)
_HEADINGS = frozenset({"\\section", "\\subsection"})
_MARKS = frozenset({"\\begin", "\\end", "\\[", "\\]", "$", *_HEADINGS})
_BLANK_RE = re.compile(r"\s*")

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


def _lex(source: str, a: int = 0, b: int | None = None) -> tuple[list[str], Callable[[int], int]]:
    """Token texts of source[a:b], which must start and end at token
    boundaries of source, and the function giving the source offset of
    text k.  It sums the offset when called: only an error calls it."""
    texts = _TOKEN_RE.findall(source, a, len(source) if b is None else b)
    return texts, lambda k: a + len("".join(texts[:k]))


def _tokens(texts: list[str], a: int, b: int, p: int) -> list[Token]:
    """The Tokens of lexed tokens a..b-1, the first at offset p."""
    run = texts[a:b]
    return [Token(t, (q, q + len(t))) for t, q in zip(run, accumulate(map(len, run), initial=p))]


def tokenize(source: str) -> list[Token]:
    """Lex source into a flat token list covering every character.

    A trailing lone backslash becomes a one-character control sequence
    with an empty name; comments run to (not including) the newline.
    """
    texts = _TOKEN_RE.findall(source)
    return _tokens(texts, 0, len(texts), 0)


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


def _match(texts: Sequence[str], j: int) -> int:
    """Index of the } that matches the { at texts[j]."""
    depth = 0
    while True:
        t = texts[j]
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if not depth:
                return j
        j += 1


def _group_at(source: str, p: int) -> tuple[str, int] | None:
    """Read a balanced {...} at offset p (a token start), skipping leading
    whitespace: (inner text, offset past the closing brace), or None.
    Only controls, comments and braces are scanned, as in _marks."""
    p = _BLANK_RE.match(source, p).end()
    if not source.startswith("{", p):
        return None
    depth = 0
    for m in _BRACE_RE.finditer(source, p):
        t = m.group()
        if t == "{":
            depth += 1
        elif t == "}":
            depth -= 1
            if not depth:
                return source[p + 1 : m.start()], m.end()
    return None


def _find_label(texts: list[str], a: int, b: int) -> str | None:
    """The text of the first \\label{...} among the balanced texts[a:b];
    TeX skips spaces before the brace."""
    while True:
        try:
            a = texts.index("\\label", a, b) + 1
        except ValueError:
            return None
        j = a + (a < b and texts[a][0].isspace())  # past one whitespace run
        if j < b and texts[j] == "{":
            return "".join(texts[j + 1 : _match(texts, j)])


def _check_balance(texts: list[str], offset: Callable[[int], int], a: int, b: int) -> None:
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
                raise UnbalancedGroupError(offset(k))
            depth -= 1
    if depth:
        raise UnbalancedGroupError(offset(opened))


def _split_rows(texts: list[str]) -> list[tuple[int, int]]:
    """Split the tokens of an alignment body at \\\\ separators outside
    braces and inner environments into index ranges."""
    rows: list[tuple[int, int]] = []
    # depth and env_depth count the { and \\begin not closed before token i
    depth = env_depth = a = i = 0
    while True:
        try:
            j = texts.index("\\\\", i)
        except ValueError:
            break
        seen = texts[i:j]
        depth += seen.count("{") - seen.count("}")
        env_depth += seen.count("\\begin") - seen.count("\\end")
        if not depth and not env_depth:
            rows.append((a, j))
            a = j + 1
        i = j + 1
    rows.append((a, len(texts)))
    return rows


def extract_math(source: str) -> list[MathSpan]:
    """Find every math region of the document, in source order.

    Alignment environments contribute one MathSpan per row.  Raises
    UnterminatedEnvironmentError when an opener has no closer, and
    UnbalancedGroupError when a row's braces do not balance.
    """
    return [
        MathSpan(env, tuple(build_groups(_tokens(texts, a, b, span[0]))),
                 span, _find_label(texts, a, b), outer)
        for env, texts, _, a, b, span, outer in _row_ranges(source, _marks(source))
    ]




def _marks(source: str) -> list[tuple[int, str]]:
    """The (offset, text) of each structural token of a document, in
    order: the scans of math rows and headings read only these."""
    return [(m.start(), t) for m in _SCAN_RE.finditer(source) if (t := m.group()) in _MARKS]


def _row_ranges(source: str, marks: list[tuple[int, str]]) -> Iterator[tuple]:
    """The math rows of a document as (environment, texts, offset, a, b,
    span, outer): tokens a..b-1, whitespace trimmed, of texts and offset,
    the _lex of the environment's body; span is their source extent,
    outer that of the environment, delimiters included.  marks are the
    document's _marks: only they open and close environments.  Rows of
    only whitespace and comments are skipped; raises as extract_math
    does."""
    nm = len(marks)
    m = 0
    while m < nm:
        p, t = marks[m]
        m += 1
        if t == "\\begin":
            got = _group_at(source, p + 6)
            if got is None:
                continue
            env, body = got
            if env in MATH_ENVIRONMENTS:
                # the \end{env} that closes it, past nested \begin{env};
                # the group of either matches env only when it reads {env}
                name = "{" + env + "}"
                depth = 0
                while m < nm:
                    q, u = marks[m]
                    m += 1
                    if u != "\\begin" and u != "\\end":
                        continue
                    k = _BLANK_RE.match(source, q + len(u)).end()
                    if not source.startswith(name, k):
                        continue
                    if u == "\\begin":
                        depth += 1
                    elif depth:
                        depth -= 1
                    else:
                        end = k + len(name)
                        break
                else:
                    raise UnterminatedEnvironmentError(env, p)
            else:
                env, end = None, body
        elif t == "\\[" or t == "$":
            # \[ closes at \], $$ at $ followed by $ and $ at $; width is
            # the number of tokens in the opener and in the closer
            close = "\\]" if t == "\\[" else "$"
            width = 2 if t == "$" and source.startswith("$", p + 1) else 1
            env = "inline-dollar" if t == "$" and width == 1 else "bracket-display"
            m += width - 1  # past the second $ of $$
            while m < nm:
                q, u = marks[m]
                if u == close and (width == 1 or source.startswith("$", q + 1)):
                    break
                m += 1
            if m == nm:
                raise UnterminatedEnvironmentError(env, p)
            body, end = p + len(t) * width, q + len(u) * width
        else:
            continue
        # marks before end lie inside what was just read
        while m < nm and marks[m][0] < end:
            m += 1
        if env is None:
            continue
        texts, offset = _lex(source, body, q)
        k = 0  # token k starts at offset body
        for a, b in _split_rows(texts) if env in ROW_SPLIT_ENVIRONMENTS else [(0, len(texts))]:
            while a < b and texts[a][0].isspace():
                a += 1
            while b > a and texts[b - 1][0].isspace():
                b -= 1
            if all(u[0] == "%" or u[0].isspace() for u in texts[a:b]):
                continue
            _check_balance(texts, offset, a, b)
            body += len("".join(texts[k:a]))
            k = b
            start, body = body, body + len("".join(texts[a:b]))
            yield env, texts, offset, a, b, (start, body), (p, end)
