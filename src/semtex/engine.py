"""Rule matching and replacement over canonical trees.

replace_all walks a canonical tree left to right; at each position the
highest-ordered matching rule fires, its captures are rewritten
recursively, and the instantiated template is spliced in marked inert so
a second pass finds nothing to do.  Only the rules whose first pattern
atom can match the node at hand are tried (the glossary buckets them by
that atom), in the same total order, so the rule that fires is the one a
try-every-rule walk would pick.  strip_semantics is the inverse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .canonicalize import CanonicalTree
from .errors import UnknownSemanticMacroError
from .glossary import AtomKind, Glossary, MacroRule
from .lexer import Group, Node, Token, TokenKind, tokenize

_CLOSER = {"(": ")", "[": "]"}

# Leaves a single-token/single-group capture refuses: delimiters,
# separators, operators, relationals, and structural kinds.
_SINGLE_STOP_CHARS = frozenset("()[],;|=<>+-*/@.")
_SINGLE_STOP_KINDS = frozenset(
    {
        TokenKind.MATH_SHIFT,
        TokenKind.SUPERSCRIPT,
        TokenKind.SUBSCRIPT,
        TokenKind.ALIGN_TAB,
        TokenKind.COMMENT,
        TokenKind.WHITESPACE,
    }
)
_SINGLE_STOP_CONTROL = frozenset({"le", "leq", "ge", "geq", "ne", "neq", "in", "\\"})

_SEPARATOR_TEXTS = frozenset({",", ";", "|"})


def _single_ok(node: Node | None) -> bool:
    if not isinstance(node, Token) or node.inert:
        return False
    if node.kind in _SINGLE_STOP_KINDS:
        return False
    if node.kind is TokenKind.CHAR and node.text in _SINGLE_STOP_CHARS:
        return False
    if node.kind is TokenKind.CONTROL and node.name in _SINGLE_STOP_CONTROL:
        return False
    return True


@dataclass
class MatchResult:
    """Captures of a successful match and the node index just past it."""

    captures: dict[str, tuple[Node, ...]]
    end: int


def match_at(nodes: Sequence[Node], pos: int, rule: MacroRule) -> MatchResult | None:
    """Try to match rule's pattern starting at nodes[pos].

    Structural atoms (literals, separators, delimiters) only match
    non-inert tokens; captures may swallow inert content since replaced
    output is opaque argument material.
    """
    caps: dict[str, tuple[Node, ...]] = {}
    seq: Sequence[Node] = nodes
    i = pos
    # stack entries: ("group", outer_seq, outer_resume) or ("paren", closer)
    stack: list[tuple] = []

    for atom in rule.pattern:
        node = seq[i] if i < len(seq) else None
        if atom.kind is AtomKind.LITERAL or atom.kind is AtomKind.SEPARATOR:
            if not (
                isinstance(node, Token)
                and not node.inert
                and node.text == atom.value
            ):
                return None
            i += 1
        elif atom.kind is AtomKind.OPEN:
            if atom.value == "{":
                if not isinstance(node, Group) or node.inert:
                    return None
                stack.append(("group", seq, i + 1))
                seq = node.children
                i = 0
            else:
                if not (
                    isinstance(node, Token)
                    and not node.inert
                    and node.text == atom.value
                ):
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
                _, seq, i = ctx
            else:
                if not (
                    isinstance(node, Token)
                    and not node.inert
                    and node.text == ctx[1]
                ):
                    return None
                i += 1
        else:  # capture
            if atom.mode == "single-token":
                if not _single_ok(node):
                    return None
                caps[atom.name] = (node,)
                i += 1
            elif atom.mode == "single-group":
                if isinstance(node, Group) and not node.inert:
                    caps[atom.name] = tuple(node.children)
                    i += 1
                elif _single_ok(node):
                    caps[atom.name] = (node,)
                    i += 1
                else:
                    return None
            else:  # balanced-expression: maximal run to separator/closer
                depth = 0
                taken: list[Node] = []
                while i < len(seq):
                    node = seq[i]
                    if isinstance(node, Token):
                        t = node.text
                        if depth == 0 and t in _SEPARATOR_TEXTS:
                            break
                        if t in ("(", "["):
                            depth += 1
                        elif t in (")", "]"):
                            if depth == 0:
                                break
                            depth -= 1
                    taken.append(node)
                    i += 1
                if not taken or depth != 0:
                    return None
                caps[atom.name] = tuple(taken)
    if stack:
        return None
    return MatchResult(caps, i)


def instantiate(rule: MacroRule, captures: Mapping[str, Sequence[Node]]) -> list[Node]:
    """Build the semantic replacement for one firing, fully inert."""
    out: list[Node] = [Token(TokenKind.CONTROL, "\\" + rule.head, inert=True)]
    for name in rule.param_names:
        out.append(Group(tuple(captures[name]), inert=True))
    for _ in rule.at_variant:
        out.append(Token(TokenKind.CHAR, "@", inert=True))
    for name in rule.arg_names:
        out.append(Group(tuple(captures[name]), inert=True))
    return out


@dataclass
class ReplacementStats:
    """Firing counts; total is always the sum of per_rule."""

    per_rule: dict[str, int] = field(default_factory=dict)
    total: int = 0
    formulae: int = 0

    @property
    def avg_per_formula(self) -> Fraction:
        if self.formulae == 0:
            return Fraction(0)
        return Fraction(self.total, self.formulae)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], formulae: int) -> "ReplacementStats":
        return cls(
            per_rule=dict(sorted(counts.items())),
            total=sum(counts.values()),
            formulae=formulae,
        )

    @classmethod
    def combine(cls, parts: Iterable["ReplacementStats"]) -> "ReplacementStats":
        per: Counter = Counter()
        formulae = 0
        for p in parts:
            per.update(p.per_rule)
            formulae += p.formulae
        return cls.from_counts(per, formulae)


def _rewrite(nodes: Sequence[Node], glossary: Glossary, counts: Counter) -> Sequence[Node]:
    """Rewrite one node sequence, adding each firing to counts.

    Returns nodes itself when no rule fired in it at any depth.
    """
    by_first = glossary._by_first
    unkeyed = glossary._unkeyed
    out: list[Node] = []
    fired = False
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if node.inert:
            out.append(node)
            i += 1
            continue
        key = node.text if isinstance(node, Token) else Group
        for rule in by_first.get(key, unkeyed):
            m = match_at(nodes, i, rule)
            if m is not None:
                break
        else:
            if isinstance(node, Group):
                kids = _rewrite(node.children, glossary, counts)
                if kids is not node.children:
                    node = Group(tuple(kids), open_tok=node.open_tok, close_tok=node.close_tok)
                    fired = True
            out.append(node)
            i += 1
            continue
        fired = True
        counts[rule.macro_name] += 1
        rewritten = {
            name: _rewrite(seq, glossary, counts) for name, seq in m.captures.items()
        }
        out.extend(instantiate(rule, rewritten))
        i = m.end
    return out if fired else nodes


def replace_all(
    tree: CanonicalTree | Sequence[Node], glossary: Glossary
) -> tuple[CanonicalTree, ReplacementStats]:
    """Replace every matching presentation pattern, leftmost first.

    At each position only the rules whose first pattern atom can match
    the node are tried, in the glossary's total order.  Returns the
    rewritten tree and per-rule firing counts for this one formula
    (formulae == 1 in the stats).
    """
    nodes = tree.nodes if isinstance(tree, CanonicalTree) else tuple(tree)
    counts: Counter = Counter()
    out = _rewrite(nodes, glossary, counts)
    stats = ReplacementStats.from_counts(counts, formulae=1)
    return CanonicalTree(tuple(out)), stats


def _token_for(text: str) -> Token:
    tok = tokenize(text)[0]
    return Token(tok.kind, tok.text)


def _at_run_follows(nodes: Sequence[Node], i: int) -> bool:
    """Loose test for an @-marked occurrence: groups, then at least one @."""
    j = i + 1
    while j < len(nodes) and isinstance(nodes[j], Group):
        j += 1
    return (
        j < len(nodes)
        and isinstance(nodes[j], Token)
        and nodes[j].kind is TokenKind.CHAR
        and nodes[j].text == "@"
    )


def _parse_semantic(nodes: Sequence[Node], i: int, rule: MacroRule):
    """Match \\Head with exactly the rule's params, @ run and args.

    A field is a brace group or, since canonical trees unwrap one-leaf
    groups, a bare non-@ token.  Returns (param seqs, arg seqs, end
    index) or None.
    """
    j = i + 1

    def field() -> list[Node] | None:
        nonlocal j
        if j < len(nodes):
            nd = nodes[j]
            if isinstance(nd, Group):
                j += 1
                return list(nd.children)
            if isinstance(nd, Token) and nd.text != "@" and nd.kind in (
                TokenKind.CHAR,
                TokenKind.CONTROL,
            ):
                j += 1
                return [nd]
        return None

    params: list[list[Node]] = []
    for _ in rule.param_names:
        f = field()
        if f is None:
            return None
        params.append(f)
    ats = 0
    while (
        j < len(nodes)
        and isinstance(nodes[j], Token)
        and nodes[j].kind is TokenKind.CHAR
        and nodes[j].text == "@"
    ):
        ats += 1
        j += 1
    if "@" * ats != rule.at_variant:
        return None
    args: list[list[Node]] = []
    for _ in rule.arg_names:
        f = field()
        if f is None:
            return None
        args.append(f)
    return params, args, j


def _emit_pattern(rule: MacroRule, caps: Mapping[str, list[Node]]) -> list[Node]:
    """Rebuild the presentation form of one rule from stripped captures."""
    buffers: list[list[Node]] = [[]]
    opens: list[str] = []
    for atom in rule.pattern:
        buf = buffers[-1]
        if atom.kind is AtomKind.LITERAL:
            buf.append(_token_for(atom.value))
        elif atom.kind is AtomKind.SEPARATOR:
            buf.append(_token_for(atom.value))
        elif atom.kind is AtomKind.OPEN:
            if atom.value == "{":
                buffers.append([])
            else:
                buf.append(_token_for(atom.value))
            opens.append(atom.value)
        elif atom.kind is AtomKind.CLOSE:
            o = opens.pop()
            if o == "{":
                kids = buffers.pop()
                buffers[-1].append(Group(tuple(kids)))
            else:
                buffers[-1].append(_token_for(_CLOSER[o]))
        else:  # capture
            seq = list(caps[atom.name])
            if atom.mode == "balanced-expression":
                buf.extend(seq)
            elif len(seq) == 1 and isinstance(seq[0], Token):
                # canonical trees carry no one-leaf brace groups, so a
                # lone token round-trips bare and anything else braced
                buf.append(seq[0])
            else:
                buf.append(Group(tuple(seq)))
    return buffers[0]


def _strip(nodes: Sequence[Node], glossary: Glossary) -> list[Node]:
    out: list[Node] = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        if isinstance(node, Token) and node.kind is TokenKind.CONTROL:
            rule = glossary.by_head.get(node.name)
            parsed = _parse_semantic(nodes, i, rule) if rule is not None else None
            if parsed is not None:
                params, args, end = parsed
                caps: dict[str, list[Node]] = {}
                for name, seq in zip(rule.param_names, params):
                    caps[name] = _strip(seq, glossary)
                for name, seq in zip(rule.arg_names, args):
                    caps[name] = _strip(seq, glossary)
                out.extend(_emit_pattern(rule, caps))
                i = end
                continue
            if _at_run_follows(nodes, i):
                if rule is None:
                    raise UnknownSemanticMacroError(node.name)
                raise UnknownSemanticMacroError(
                    node.name,
                    f"\\{node.name} occurrence does not match its glossary "
                    f"signature",
                )
        if isinstance(node, Group):
            out.append(
                Group(
                    tuple(_strip(node.children, glossary)),
                    open_tok=node.open_tok,
                    close_tok=node.close_tok,
                )
            )
        else:
            out.append(node)
        i += 1
    return out


def strip_semantics(
    tree: CanonicalTree | Sequence[Node], glossary: Glossary
) -> CanonicalTree:
    """Expand every semantic macro back to its presentation pattern.

    Raises UnknownSemanticMacroError for @-marked macros the glossary
    does not define.
    """
    nodes = tree.nodes if isinstance(tree, CanonicalTree) else tuple(tree)
    out = _strip(nodes, glossary)
    return CanonicalTree(tuple(out))
