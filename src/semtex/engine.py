"""Rule matching and replacement over canonical trees.

One walker, _walk, reads the semantic-macro occurrences of a tree
(\\Head, its params, its @ run and its args) and rebuilds each one
through a callback.  replace_all first walks with instantiate, which
marks every occurrence inert, so macros read back from an earlier pass
are never matched as presentation.  That premark runs only where an @
can be: every occurrence has an @ run, so _replace skips it for a tree
built with no @ leaf.  Then the rewrite walks the tree left to
right; at each non-inert position the highest-ordered matching rule
fires, its captures are rewritten recursively, and the instantiated
template is spliced in inert.  A one-token capture that is inert, or
that no rule starts with, is kept as it is, without a recursive call.
Inert groups are descended into, so presentation left in a hand-written
field is still rewritten, and a second pass fires nothing: replace
reaches a fixpoint after one pass.
Only the rules whose first pattern atom can match the node at hand are
tried (the glossary buckets them by that atom: a token by its text, a
group by whether it is empty), in the same total order, so the rule
that fires is the one a try-every-rule walk would pick.  match_at runs
the steps each rule compiles its pattern to.  strip_semantics walks
with _emit_pattern, which runs the same steps to rebuild presentation,
and is the inverse.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, NamedTuple, Sequence

from .canonicalize import _LEAF_KINDS, CanonicalTree
from .errors import UnknownSemanticMacroError
from .glossary import (
    EMPTY_GROUP,
    END,
    FIELD,
    GROUP,
    LIT,
    RUN,
    SEPARATOR_CHARS,
    TOKEN,
    Glossary,
    MacroRule,
)
from .lexer import Group, Node, Token, TokenKind

if TYPE_CHECKING:
    from fractions import Fraction

# Leaves a single-token/single-group capture refuses: delimiters,
# separators, operators, relationals, and structural kinds.
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
_SINGLE_STOP_TEXTS = frozenset("()[],;|=<>+-*/@.") | {
    "\\" + name for name in ("le", "leq", "ge", "geq", "ne", "neq", "in", "\\")
}

_SEPARATOR_TEXTS = frozenset(SEPARATOR_CHARS)

# The @ of every instantiated occurrence; tokens are never mutated
_INERT_AT = Token("@", inert=True)


def _single_ok(node: Node | None) -> bool:
    if node.__class__ is not Token or node.inert:
        return False
    return node.kind not in _SINGLE_STOP_KINDS and node.text not in _SINGLE_STOP_TEXTS


class MatchResult(NamedTuple):
    """Captures of a successful match and the node index just past it."""

    captures: dict[str, tuple[Node, ...]]
    end: int


def match_at(nodes: Sequence[Node], pos: int, rule: MacroRule) -> MatchResult | None:
    """Try to match rule's pattern starting at nodes[pos], by running its
    compiled steps.

    Structural atoms (literals, separators, delimiters) only match
    non-inert tokens; captures may swallow inert content since replaced
    output is opaque argument material.
    """
    caps: dict[str, tuple[Node, ...]] = {}
    seq: Sequence[Node] = nodes
    i = pos
    # (enclosing sequence, index past the group) per group entered
    stack: list[tuple[Sequence[Node], int]] = []
    for op, arg in rule.steps:
        if op == END:
            if i != len(seq):
                return None
            seq, i = stack.pop()
            continue
        node = seq[i] if i < len(seq) else None
        if op == LIT:
            if node.__class__ is not Token or node.inert or node.text != arg:
                return None
            i += 1
        elif op == GROUP:
            if node.__class__ is not Group or node.inert:
                return None
            stack.append((seq, i + 1))
            seq = node.children
            i = 0
        elif op == TOKEN:
            if not _single_ok(node):
                return None
            caps[arg] = (node,)
            i += 1
        elif op == FIELD:
            if node.__class__ is Group and not node.inert:
                caps[arg] = tuple(node.children)
            elif _single_ok(node):
                caps[arg] = (node,)
            else:
                return None
            i += 1
        else:  # RUN: maximal run to a separator or closer
            depth = 0
            start = i
            while i < len(seq):
                node = seq[i]
                if node.__class__ is Token:
                    t = node.text
                    if depth == 0 and t in _SEPARATOR_TEXTS:
                        break
                    if t in ("(", "["):
                        depth += 1
                    elif t in (")", "]"):
                        if depth == 0:
                            break
                        depth -= 1
                i += 1
            if i == start or depth != 0:
                return None
            caps[arg] = tuple(seq[start:i])
    return MatchResult(caps, i)


def instantiate(rule: MacroRule, captures: Mapping[str, Sequence[Node]]) -> list[Node]:
    """Build the semantic form of one rule from its fields, fully inert:
    the replacement of one firing, or a marked occurrence."""
    out: list[Node] = [rule.head_token]
    for name in rule.param_names:
        out.append(Group(tuple(captures[name]), inert=True))
    for _ in rule.at_variant:
        out.append(_INERT_AT)
    for name in rule.arg_names:
        out.append(Group(tuple(captures[name]), inert=True))
    return out


class ReplacementStats:
    """Firing counts; total is always the sum of per_rule."""

    __slots__ = ("per_rule", "total", "formulae")

    def __init__(self, per_rule: dict[str, int] | None = None, total: int = 0, formulae: int = 0):
        self.per_rule = {} if per_rule is None else per_rule
        self.total = total
        self.formulae = formulae

    def __eq__(self, other):
        if other.__class__ is not ReplacementStats:
            return NotImplemented
        return (self.per_rule, self.total, self.formulae) == (
            other.per_rule, other.total, other.formulae
        )

    def __repr__(self):
        return (
            f"ReplacementStats(per_rule={self.per_rule!r}, total={self.total!r}, "
            f"formulae={self.formulae!r})"
        )

    @property
    def avg_per_formula(self) -> Fraction:
        from fractions import Fraction

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
    n = len(nodes)
    while i < n:
        node = nodes[i]
        if node.__class__ is Token:
            if node.inert or (not unkeyed and node.text not in by_first):
                # no rule can start at this token
                out.append(node)
                i += 1
                continue
            rules = by_first.get(node.text, unkeyed)
        elif node.inert:
            rules = ()
        else:
            rules = by_first.get(Group if node.children else EMPTY_GROUP, unkeyed)
        for rule in rules:
            m = match_at(nodes, i, rule)
            if m is not None:
                fired = True
                counts[rule.macro_name] += 1
                # rewritten in place; _rewrite would keep a one-token
                # capture no rule can start at as it is
                caps = m.captures
                for name, seq in caps.items():
                    if len(seq) == 1:
                        leaf = seq[0]
                        if leaf.__class__ is Token and (
                            leaf.inert or (not unkeyed and leaf.text not in by_first)
                        ):
                            continue
                    caps[name] = _rewrite(seq, glossary, counts)
                out.extend(instantiate(rule, caps))
                i = m.end
                break
        else:
            if node.__class__ is Group:
                kids = _rewrite(node.children, glossary, counts)
                if kids is not node.children:
                    node = Group(tuple(kids), node.inert)
                    fired = True
            out.append(node)
            i += 1
    return out if fired else nodes


def replace_all(
    tree: CanonicalTree | Sequence[Node], glossary: Glossary
) -> tuple[CanonicalTree, ReplacementStats]:
    """Replace every matching presentation pattern, leftmost first.

    Semantic macros already in the tree are marked inert first and keep
    their form; an @-marked one the glossary does not read raises
    UnknownSemanticMacroError, as in strip_semantics.  At each position
    only the rules whose first pattern atom can match the node (a token
    of its text, an empty or a non-empty group) are tried, in the
    glossary's total order.  Returns the rewritten tree
    and per-rule firing counts for this one formula (formulae == 1 in
    the stats).
    """
    nodes, at = (tree.nodes, tree.at) if isinstance(tree, CanonicalTree) else (tuple(tree), True)
    counts: Counter = Counter()
    out = _replace(nodes, glossary, counts, at)
    return CanonicalTree(tuple(out)), ReplacementStats.from_counts(counts, formulae=1)


def _replace(
    nodes: Sequence[Node], glossary: Glossary, counts: Counter, at: bool = True
) -> Sequence[Node]:
    """replace_all's rewrite of nodes, adding each firing to counts.  The
    semantic macros in nodes are marked inert first, unless at=False says
    nodes hold no @ token and so no macro (see CanonicalTree)."""
    if at:
        nodes = _walk(nodes, glossary, instantiate)
    return _rewrite(nodes, glossary, counts)


def _fields(nodes: Sequence[Node], j: int, names: Sequence[str], caps: dict) -> int | None:
    """Read one field per name from nodes[j:] into caps and return the
    index past them, or None.  A field is a brace group or, since
    canonical trees unwrap one-leaf groups, a bare non-@ token."""
    for name in names:
        nd = nodes[j] if j < len(nodes) else None
        if isinstance(nd, Group):
            caps[name] = nd.children
        elif isinstance(nd, Token) and nd.text != "@" and nd.kind in _LEAF_KINDS:
            caps[name] = (nd,)
        else:
            return None
        j += 1
    return j


def _parse_semantic(nodes: Sequence[Node], i: int, rule: MacroRule):
    """Match \\Head at nodes[i] with exactly the rule's params, @ run and
    args.  Returns (fields by capture name, end index) or None."""
    caps: dict[str, Sequence[Node]] = {}
    j = _fields(nodes, i + 1, rule.param_names, caps)
    if j is None:
        return None
    k = j
    while k < len(nodes) and isinstance(nodes[k], Token) and nodes[k].text == "@":
        k += 1
    if k - j != len(rule.at_variant):
        return None
    end = _fields(nodes, k, rule.arg_names, caps)
    return None if end is None else (caps, end)


def _emit_pattern(rule: MacroRule, caps: Mapping[str, Sequence[Node]]) -> list[Node]:
    """Rebuild the presentation form of one rule from stripped captures,
    by running its compiled steps."""
    buffers: list[list[Node]] = [[]]
    for op, arg in rule.steps:
        if op == LIT:
            buffers[-1].append(Token(arg))
        elif op == GROUP:
            buffers.append([])
        elif op == END:
            kids = buffers.pop()
            buffers[-1].append(Group(tuple(kids)))
        elif op == RUN:
            buffers[-1].extend(caps[arg])
        else:  # TOKEN or FIELD
            seq = caps[arg]
            # canonical trees carry no one-leaf brace groups, so a lone
            # token round-trips bare and anything else braced
            if len(seq) == 1 and isinstance(seq[0], Token):
                buffers[-1].append(seq[0])
            else:
                buffers[-1].append(Group(tuple(seq)))
    return buffers[0]


def _walk(
    nodes: Sequence[Node],
    glossary: Glossary,
    emit: Callable[[MacroRule, Mapping[str, Sequence[Node]]], list[Node]],
) -> Sequence[Node]:
    """The one reader of semantic-macro occurrences.

    Rebuilds nodes with each occurrence replaced by emit(rule, fields),
    its fields walked first.  Every occurrence has an @ run, so a level
    without an @ token is only visited for its groups, and is returned
    as nodes itself when none of them changed.  A control sequence that
    groups and an @ follow but no glossary rule reads raises
    UnknownSemanticMacroError.
    """
    seq = nodes
    at = False
    for k, nd in enumerate(nodes):
        if nd.__class__ is Group:
            kids = _walk(nd.children, glossary, emit)
            if kids is not nd.children:
                if seq is nodes:
                    seq = list(nodes)
                seq[k] = Group(tuple(kids), nd.inert)
        elif nd.text == "@":
            at = True
    if not at:
        return seq
    out: list[Node] = []
    i = 0
    while i < len(seq):
        node = seq[i]
        if isinstance(node, Token) and node.kind is TokenKind.CONTROL:
            rule = glossary.by_head.get(node.name)
            parsed = _parse_semantic(seq, i, rule) if rule is not None else None
            if parsed is not None:
                caps, i = parsed
                out += emit(rule, caps)
                continue
            j = i + 1
            while j < len(seq) and isinstance(seq[j], Group):
                j += 1
            if j < len(seq) and seq[j].text == "@":
                raise UnknownSemanticMacroError(
                    node.name,
                    "" if rule is None
                    else f"\\{node.name} occurrence does not match its glossary signature",
                )
        out.append(node)
        i += 1
    return out


def strip_semantics(
    tree: CanonicalTree | Sequence[Node], glossary: Glossary
) -> CanonicalTree:
    """Expand every semantic macro back to its presentation pattern.

    Raises UnknownSemanticMacroError for @-marked macros the glossary
    does not define or whose occurrence does not match its signature.
    """
    nodes = tree.nodes if isinstance(tree, CanonicalTree) else tuple(tree)
    return CanonicalTree(tuple(_walk(nodes, glossary, _emit_pattern)))
