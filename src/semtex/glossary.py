"""Macro glossary: replacement rules mapping presentation patterns to
semantic macros, plus the canonicalization settings that ship with them.

A glossary file is UTF-8 JSON with two top-level keys:

  canonicalization: {spacing_tokens, size_prefixes, bar_synonyms,
                     delimiter_classes}
  rules: [{name, priority, pattern, template, at, url, description}, ...]

Pattern atoms are one-key objects: {"lit": "\\Gamma"}, {"capture": "z",
"mode": "balanced-expression"}, {"sep": ";"}, {"open": "("}, {"close": true}.
Templates use {#name} placeholders and contain the rule's @ or @@ marker
exactly once, separating parameter groups from argument groups.  A
literal must lex as one token, and a delimiter class's canonical
spelling as one character or control sequence, so every token the
glossary puts into a tree is one the lexer would give for its text.
"""

from __future__ import annotations

import json
import re
from enum import Enum
from pathlib import Path
from typing import NamedTuple

from .canonicalize import _LEAF_KINDS, DEFAULT_SETTINGS, CanonicalSettings
from .errors import (
    DuplicateMacroError,
    GlossaryParseError,
    TemplateCaptureMismatchError,
)
from .lexer import Group, Node, Token, TokenKind, build_groups, tokenize


class AtomKind(Enum):
    LITERAL = "literal"
    CAPTURE = "capture"
    SEPARATOR = "separator"
    OPEN = "open"
    CLOSE = "close"


CAPTURE_MODES = ("balanced-expression", "single-group", "single-token")
SEPARATOR_CHARS = (",", ";", "|")
OPEN_CHARS = ("(", "[", "{")
_CLOSER = {"(": ")", "[": "]"}

# Opcodes of MacroRule.steps, each step an (opcode, argument) pair:
# LIT matches a non-inert token of the argument's text (a literal, a
# separator, or a ( [ opener or its closer); GROUP enters a non-inert
# group and END leaves it, matching only at its end; TOKEN, FIELD and
# RUN capture under the argument's name a single token, a single group
# or token, and a balanced expression.
LIT, GROUP, END, TOKEN, FIELD, RUN = range(6)
_CAPTURE_OPS = {"single-token": TOKEN, "single-group": FIELD, "balanced-expression": RUN}

# The first-atom key of a rule whose pattern opens with an empty group:
# no token text can equal it, nor can the Group class, which keys a
# group opener followed by anything else.
EMPTY_GROUP = (Group, 0)


class PatternAtom(NamedTuple):
    kind: AtomKind
    value: str = ""
    name: str = ""
    mode: str = "balanced-expression"


class MacroRule:
    """One presentation -> semantic rewrite rule.

    head, param_names and arg_names are derived from template at load
    time; steps (the steps match_at runs) and head_token (the inert
    \\head every firing starts with) are derived from pattern and head
    on construction.  Rules compare by their other fields.
    """

    __slots__ = (
        "macro_name", "pattern", "template", "at_variant", "priority",
        "definition_link", "description", "head", "param_names", "arg_names",
        "steps", "head_token",
    )

    def __init__(
        self,
        macro_name: str,
        pattern: tuple[PatternAtom, ...],
        template: str,
        at_variant: str,
        priority: int,
        definition_link: str = "",
        description: str = "",
        head: str = "",
        param_names: tuple[str, ...] = (),
        arg_names: tuple[str, ...] = (),
    ):
        self.macro_name = macro_name
        self.pattern = pattern
        self.template = template
        self.at_variant = at_variant
        self.priority = priority
        self.definition_link = definition_link
        self.description = description
        self.head = head
        self.param_names = param_names
        self.arg_names = arg_names
        self.steps = _compile(macro_name, pattern)
        self.head_token = Token("\\" + head, inert=True)

    def _key(self) -> tuple:
        return (
            self.macro_name, self.pattern, self.template, self.at_variant,
            self.priority, self.definition_link, self.description,
        )

    def __eq__(self, other):
        if other.__class__ is not MacroRule:
            return NotImplemented
        return self._key() == other._key()

    @property
    def capture_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.pattern if a.kind is AtomKind.CAPTURE)


def _compile(rule_name: str, pattern: tuple[PatternAtom, ...]) -> tuple[tuple[int, str], ...]:
    """The steps of a pattern.  An opener and its close become LIT steps
    of their two texts, or GROUP and END for a brace group; raises
    GlossaryParseError when the opens and closes do not pair up."""
    steps: list[tuple[int, str]] = []
    opens: list[str] = []
    for atom in pattern:
        if atom.kind is AtomKind.CAPTURE:
            steps.append((_CAPTURE_OPS[atom.mode], atom.name))
        elif atom.kind is AtomKind.OPEN:
            opens.append(atom.value)
            steps.append((GROUP, "") if atom.value == "{" else (LIT, atom.value))
        elif atom.kind is AtomKind.CLOSE:
            if not opens:
                raise GlossaryParseError(None, f"rule {rule_name!r}: unbalanced pattern close")
            o = opens.pop()
            steps.append((END, "") if o == "{" else (LIT, _CLOSER[o]))
        else:
            steps.append((LIT, atom.value))
    if opens:
        raise GlossaryParseError(None, f"rule {rule_name!r}: unbalanced pattern opens")
    return tuple(steps)


def _one_token(text) -> Token | None:
    """The token text lexes to, or None unless it is one string that
    lexes to exactly one token."""
    tokens = tokenize(text) if isinstance(text, str) else ()
    return tokens[0] if len(tokens) == 1 else None


def _parse_atom(obj, rule_name: str) -> PatternAtom:
    if not isinstance(obj, dict) or len(obj) - ("mode" in obj) != 1:
        raise GlossaryParseError(None, f"rule {rule_name!r}: bad pattern atom {obj!r}")
    if "lit" in obj:
        if _one_token(obj["lit"]) is None:
            raise GlossaryParseError(
                None, f"rule {rule_name!r}: pattern literal {obj['lit']!r} is not one token"
            )
        return PatternAtom(AtomKind.LITERAL, value=obj["lit"])
    if "capture" in obj:
        mode = obj.get("mode", "balanced-expression")
        if mode not in CAPTURE_MODES:
            raise GlossaryParseError(
                None, f"rule {rule_name!r}: unknown capture mode {mode!r}"
            )
        return PatternAtom(AtomKind.CAPTURE, name=obj["capture"], mode=mode)
    if "sep" in obj:
        if obj["sep"] not in SEPARATOR_CHARS:
            raise GlossaryParseError(
                None, f"rule {rule_name!r}: bad separator {obj['sep']!r}"
            )
        return PatternAtom(AtomKind.SEPARATOR, value=obj["sep"])
    if "open" in obj:
        if obj["open"] not in OPEN_CHARS:
            raise GlossaryParseError(
                None, f"rule {rule_name!r}: bad open delimiter {obj['open']!r}"
            )
        return PatternAtom(AtomKind.OPEN, value=obj["open"])
    if "close" in obj:
        return PatternAtom(AtomKind.CLOSE)
    raise GlossaryParseError(None, f"rule {rule_name!r}: bad pattern atom {obj!r}")


def _parse_template(rule_name: str, template: str, at_variant: str):
    """Split a template into (head, param names, arg names), validating the
    canonical shape: \\Head {#p}* @|@@ {#a}+ ."""
    try:
        nodes = build_groups(tokenize(template))
    except Exception as exc:
        raise GlossaryParseError(
            None, f"rule {rule_name!r}: template does not parse: {exc}"
        ) from exc
    if not nodes or not isinstance(nodes[0], Token) or nodes[0].kind is not TokenKind.CONTROL:
        raise GlossaryParseError(
            None, f"rule {rule_name!r}: template must start with a control sequence"
        )
    head = nodes[0].name
    params: list[str] = []
    args: list[str] = []
    ats = 0
    seen_at = False
    for node in nodes[1:]:
        if isinstance(node, Token) and node.text == "@":
            if args:
                raise GlossaryParseError(
                    None, f"rule {rule_name!r}: @ must appear once in template"
                )
            seen_at = True
            ats += 1
            continue
        if isinstance(node, Group):
            if (
                len(node.children) < 2
                or not isinstance(node.children[0], Token)
                or node.children[0].text != "#"
            ):
                raise GlossaryParseError(
                    None,
                    f"rule {rule_name!r}: template groups must hold one "
                    f"{{#name}} placeholder",
                )
            name = "".join(
                c.text for c in node.children[1:] if isinstance(c, Token)
            )
            (args if seen_at else params).append(name)
            continue
        raise GlossaryParseError(
            None, f"rule {rule_name!r}: unexpected template content {node!r}"
        )
    if ats == 0 or "@" * ats != at_variant:
        raise GlossaryParseError(
            None,
            f"rule {rule_name!r}: template must contain its at variant "
            f"{at_variant!r} exactly once",
        )
    if not args:
        raise GlossaryParseError(
            None, f"rule {rule_name!r}: template needs at least one argument group"
        )
    return head, tuple(params), tuple(args)


def _validate_rule(rule: MacroRule) -> None:
    placeholders = list(rule.param_names) + list(rule.arg_names)
    captures = list(rule.capture_names)
    if sorted(placeholders) != sorted(captures) or len(set(captures)) != len(captures):
        raise TemplateCaptureMismatchError(
            rule.macro_name,
            f"rule {rule.macro_name!r}: template placeholders {sorted(placeholders)} "
            f"do not match pattern captures {sorted(captures)}",
        )


def _first_key(rule: MacroRule) -> object:
    """The node key that a rule's first step can match, or None.

    A LIT step matches only a token of its text, so it is keyed by that
    text.  A GROUP step matches only a non-inert group: an empty one
    when END follows, keyed EMPTY_GROUP, since no other step matches
    inside an empty group, and otherwise a non-empty one, keyed by the
    Group class.  A leading capture can match any node and gives None.
    """
    (op, arg), *rest = rule.steps
    if op == LIT:
        return arg
    if op == GROUP:
        return EMPTY_GROUP if rest[0][0] == END else Group
    return None


class Glossary:
    """Rules in total order (priority desc, pattern length desc, name asc).

    _by_first buckets the rules by _first_key: the bucket of a key holds
    the rules keyed by it plus every unkeyed rule, in the total order.
    _unkeyed holds the unkeyed rules alone, for nodes no bucket names.

    _head_re matches a backslash that some rule head follows and
    captures the longest such head.  A head is a control-sequence name
    (a run of ASCII letters or one other character), so of two heads
    found at one backslash the shorter is followed by a letter.
    """

    __slots__ = ("rules", "settings", "by_name", "by_head", "_by_first", "_unkeyed", "_head_re")

    def __init__(
        self, rules: tuple[MacroRule, ...], settings: CanonicalSettings = DEFAULT_SETTINGS
    ):
        self.settings = settings
        self.rules = tuple(
            sorted(
                rules,
                key=lambda r: (-r.priority, -len(r.pattern), r.macro_name),
            )
        )
        self.by_name: dict[str, MacroRule] = {}
        self.by_head: dict[str, MacroRule] = {}
        for rule in self.rules:
            if rule.macro_name in self.by_name:
                raise DuplicateMacroError(rule.macro_name)
            self.by_name[rule.macro_name] = rule
            self.by_head.setdefault(rule.head, rule)
        by_first: dict[object, list[MacroRule]] = {}
        unkeyed: list[MacroRule] = []
        for rule in self.rules:
            key = _first_key(rule)
            if key is None:
                unkeyed.append(rule)
                for bucket in by_first.values():
                    bucket.append(rule)
            else:
                by_first.setdefault(key, list(unkeyed)).append(rule)
        self._by_first = {k: tuple(b) for k, b in by_first.items()}
        self._unkeyed = tuple(unkeyed)
        heads = sorted(self.by_head, key=len, reverse=True)
        # with no rules, (?!) keeps the empty alternation from matching
        alternation = "|".join(map(re.escape, heads)) or "(?!)"
        self._head_re = re.compile(r"\\(?=(%s))" % alternation)

    @property
    def macro_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.by_name))


def _rule_from_json(obj, index: int) -> MacroRule:
    if not isinstance(obj, dict):
        raise GlossaryParseError(None, f"rule #{index}: not an object")
    for key in ("name", "priority", "pattern", "template", "at"):
        if key not in obj:
            raise GlossaryParseError(
                None, f"rule #{index}: missing required key {key!r}"
            )
    name = obj["name"]
    if obj["at"] not in ("@", "@@"):
        raise GlossaryParseError(None, f"rule {name!r}: at must be '@' or '@@'")
    if not obj.get("url"):
        # symbols-list entries must be able to link every macro somewhere
        raise GlossaryParseError(None, f"rule {name!r}: url must be non-empty")
    if not isinstance(obj["priority"], int):
        raise GlossaryParseError(None, f"rule {name!r}: priority must be an integer")
    pattern = tuple(_parse_atom(a, name) for a in obj["pattern"])
    head, params, args = _parse_template(name, obj["template"], obj["at"])
    rule = MacroRule(
        macro_name=name,
        pattern=pattern,
        template=obj["template"],
        at_variant=obj["at"],
        priority=obj["priority"],
        definition_link=obj.get("url", ""),
        description=obj.get("description", ""),
        head=head,
        param_names=params,
        arg_names=args,
    )
    _validate_rule(rule)
    return rule


def load_glossary(path: str | Path) -> Glossary:
    """Load and validate a glossary file.

    Raises GlossaryParseError, DuplicateMacroError, or
    TemplateCaptureMismatchError.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        # read_text decodes the whole file at once, so exc.object is its bytes
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise GlossaryParseError(line, f"not UTF-8: {exc.reason}") from exc
    return loads_glossary(text)


def loads_glossary(text: str) -> Glossary:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GlossaryParseError(exc.lineno, exc.msg) from exc
    if not isinstance(data, dict) or "rules" not in data:
        raise GlossaryParseError(None, "top level must be an object with 'rules'")
    if not isinstance(data["rules"], list):
        raise GlossaryParseError(None, "'rules' must be an array")
    rules = [_rule_from_json(obj, i + 1) for i, obj in enumerate(data["rules"])]
    settings = CanonicalSettings.from_config(data.get("canonicalization", {}))
    for canonical in settings.delimiter_map.values():
        tok = _one_token(canonical)
        # a lone backslash lexes as one token only at the end of a text:
        # written before a letter it would start a control word
        if tok is None or tok.kind not in _LEAF_KINDS or tok.text == "\\":
            raise GlossaryParseError(
                None,
                f"delimiter class canonical {canonical!r} is not one character "
                f"or control sequence",
            )
    return Glossary(tuple(rules), settings)


def builtin_glossary_path() -> Path:
    """Path of the glossary that ships with the package."""
    return Path(__file__).parent / "data" / "glossary.json"


def builtin_glossary() -> Glossary:
    return load_glossary(builtin_glossary_path())
