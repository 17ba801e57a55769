"""replace_all / strip_semantics against the builtin glossary."""

import json
from collections import Counter

import pytest

import gen
import oracle
from semtex import engine
from semtex.canonicalize import canonicalize_string
from semtex.engine import (
    ReplacementStats,
    instantiate,
    match_at,
    replace_all,
    strip_semantics,
)
from semtex.errors import UnknownSemanticMacroError
from semtex.glossary import builtin_glossary_path, loads_glossary
from semtex.lexer import Group, flatten, render
from semtex.pipeline import replace_text


def convert(text, glossary):
    tree, stats = replace_all(canonicalize_string(text, glossary.settings), glossary)
    return render(tree.nodes), stats


@pytest.mark.parametrize(
    "source,expected",
    [
        (r"\sin z", r"\sin@@{z}"),
        (r"\Gamma(z)", r"\EulerGamma@{z}"),
        (r"P_n^{(\alpha,\beta)}(x)", r"\Jacobi{\alpha}{\beta}{n}@{x}"),
        (r"p_n(x;a|q)", r"\littleqLaguerre{n}@{x}{a}{q}"),
    ],
)
def test_reference_conversions(glossary, source, expected):
    out, stats = convert(source, glossary)
    assert out == expected
    assert stats.total == 1


@pytest.mark.parametrize(
    "source,expected",
    [
        (r"\sin{z}", r"\sin@@{z}"),
        (r"\sin \, z", r"\sin@@{z}"),
        (r"\Gamma \left( z \right)", r"\EulerGamma@{z}"),
        (r"\Gamma(z) % comment", r"\EulerGamma@{z}"),
        (r"P_{n}^{(\alpha ,\beta)}\left(x\right)", r"\Jacobi{\alpha}{\beta}{n}@{x}"),
        ("P_n ^ {(\\alpha,\t\\beta)} (x)", r"\Jacobi{\alpha}{\beta}{n}@{x}"),
        (r"\cos{2z}", r"\cos@@{2z}"),
        (r"p_n(x;a\mid q)", r"\littleqLaguerre{n}@{x}{a}{q}"),
        (r"p_{n}\left(x;a\Big|q\right)", r"\littleqLaguerre{n}@{x}{a}{q}"),
    ],
)
def test_spelling_variants_converge(glossary, source, expected):
    assert convert(source, glossary)[0] == expected


@pytest.mark.parametrize(
    "source",
    [
        r"\sin(\pi z)",  # argument not a single group
        r"{}_2F_1(a,b;c;z)",  # wrong head letter
        r"(a)^n",  # superscript, not subscript
        r"x@y",  # @ never matches a capture
        r"\Gamma(z",  # unterminated call
    ],
)
def test_non_matches_pass_through(glossary, source):
    tree = canonicalize_string(source, glossary.settings)
    out, stats = replace_all(tree, glossary)
    assert stats.total == 0
    assert render(out.nodes) == render(tree.nodes)


def test_nested_firings_are_counted(glossary):
    out, stats = convert(r"\Gamma((a;q)_\infty)", glossary)
    assert out == r"\EulerGamma@{\qPochhammer{a}{q}@{\infty}}"
    assert stats.per_rule == {"EulerGamma": 1, "qPochhammer": 1}
    assert stats.total == 2


def test_priority_resolves_overlap(glossary):
    # (a;q)_n must go to the q-shifted rule, never the plain one
    _, stats = convert(r"(a;q)_n (b)_n", glossary)
    assert stats.per_rule == {"Pochhammer": 1, "qPochhammer": 1}


def test_full_series_rule(glossary):
    out, stats = convert(r"{}_2\phi_1(a,b;c;q,z)", glossary)
    assert out == r"\qHypergeometric{2}{1}{a}{b}{c}@{q}{z}"
    assert stats.per_rule == {"qHypergeometric": 1}


def test_stats_combine():
    a = ReplacementStats.from_counts({"sin": 2, "cos": 1}, formulae=1)
    b = ReplacementStats.from_counts({}, formulae=1)
    c = ReplacementStats.from_counts({"sin": 1}, formulae=1)
    whole = ReplacementStats.combine([a, b, c])
    assert whole.per_rule == {"cos": 1, "sin": 3}
    assert whole.total == 4
    assert whole.formulae == 3


def test_counts_agree_with_bruteforce_oracle(glossary):
    checked = 0
    for text in gen.corpus(seed=99, count=300):
        tree = canonicalize_string(text, glossary.settings)
        if len(flatten(list(tree.nodes))) > 200:
            continue
        _, stats = replace_all(tree, glossary)
        expect = oracle.scan(tree.nodes, glossary)
        assert dict(stats.per_rule) == dict(expect), text
        assert stats.total == sum(expect.values()), text
        checked += 1
    assert checked >= 250


def test_replace_and_canonicalize_idempotent(glossary):
    for text in gen.corpus(seed=7, count=200):
        tree = canonicalize_string(text, glossary.settings)
        assert canonicalize_string(render(tree.nodes), glossary.settings) == tree
        once, _ = replace_all(tree, glossary)
        twice, again = replace_all(once, glossary)
        assert again.total == 0
        assert twice == once


def test_strip_inverts_replace(glossary):
    for text in gen.corpus(seed=31, count=200):
        tree = canonicalize_string(text, glossary.settings)
        sem, _ = replace_all(tree, glossary)
        assert strip_semantics(sem, glossary) == tree


@pytest.mark.parametrize(
    "semantic,presentation",
    [
        (r"\sin@@{z}", r"\sin z"),
        (r"\sin@@z", r"\sin z"),  # brace-free spelling after canonicalization
        (r"\EulerGamma@{z}", r"\Gamma(z)"),
        (r"\Jacobi{\alpha}{\beta}{n}@{x}", r"P_n^{(\alpha,\beta)}(x)"),
        (r"\Jacobi\alpha\beta n@x", r"P_n^{(\alpha,\beta)}(x)"),
        (r"\littleqLaguerre{n}@{x}{a}{q}", r"p_n(x;a|q)"),
    ],
)
def test_strip_spellings(glossary, semantic, presentation):
    tree = canonicalize_string(semantic, glossary.settings)
    assert render(strip_semantics(tree, glossary).nodes) == presentation


def test_strip_leaves_presentation_alone(glossary):
    tree = canonicalize_string(r"\Gamma(z)+\sin(\pi z)", glossary.settings)
    assert strip_semantics(tree, glossary) == tree


# each occurrence the rewriters reject, with the message they give
_REJECTED = {
    r"\mystery@@{z}": r"unknown semantic macro \mystery",
    r"\sin@{z}": r"\sin occurrence does not match its glossary signature",
    r"\EulerGamma@@{z}": r"\EulerGamma occurrence does not match its glossary signature",
    r"x+{\frac{ab}{cd}@e}": r"unknown semantic macro \frac",
    # a field missing after the @ run or before it
    r"\EulerGamma@": r"\EulerGamma occurrence does not match its glossary signature",
    r"\Jacobi{a}{b}@{x}": r"\Jacobi occurrence does not match its glossary signature",
}


@pytest.mark.parametrize("bad", list(_REJECTED))
def test_strip_rejects_unknown_semantics(glossary, bad):
    message = _REJECTED[bad]
    tree = canonicalize_string(bad, glossary.settings)
    with pytest.raises(UnknownSemanticMacroError) as stripping:
        strip_semantics(tree, glossary)
    assert str(stripping.value) == message
    # one reader, one rule: replace_all and replace_text reject the same
    # occurrence
    with pytest.raises(UnknownSemanticMacroError) as replacing:
        replace_all(tree, glossary)
    assert str(replacing.value) == message
    with pytest.raises(UnknownSemanticMacroError) as rewriting:
        replace_text(f"so ${bad}$.", glossary)
    assert str(rewriting.value) == f"{message} in the span at line 1:5"


@pytest.mark.parametrize(
    "semantic,expected,fired",
    [
        (r"\EulerGamma@{\sin}z", r"\EulerGamma@{\sin}z", 0),
        (r"\EulerGamma@z", r"\EulerGamma@{z}", 0),
        (r"\Jacobi\alpha\beta n@x", r"\Jacobi{\alpha}{\beta}{n}@{x}", 0),
        (r"(\EulerGamma@z;q)_n", r"\qPochhammer{\EulerGamma@{z}}{q}@{n}", 1),
        # presentation inside a hand-written field is still rewritten
        (r"\EulerGamma@{\Gamma(z)}+\sin x", r"\EulerGamma@{\EulerGamma@{z}}+\sin@@{x}", 2),
    ],
)
def test_replace_keeps_semantic_macros_it_reads_back(glossary, semantic, expected, fired):
    out, stats = convert(semantic, glossary)
    assert (out, stats.total) == (expected, fired)
    assert convert(out, glossary) == (out, ReplacementStats.from_counts({}, 1))


def test_the_walk_returns_a_tree_without_at_untouched(glossary):
    tree = canonicalize_string(r"\frac{\Gamma(z)}{x^{2}}+\sin y", glossary.settings)
    assert engine._walk(tree.nodes, glossary, instantiate) is tree.nodes


def test_firings_of_one_rule_share_its_inert_head_and_at_tokens(glossary):
    tree, stats = replace_all(canonicalize_string(r"\sin x+\sin y", glossary.settings), glossary)
    assert stats.per_rule == {"sin": 2}
    heads = [n for n in tree.nodes if getattr(n, "text", None) == "\\sin"]
    ats = [n for n in tree.nodes if getattr(n, "text", None) == "@"]
    assert len(heads) == 2 and len(ats) == 4
    assert heads[0] is heads[1] is glossary.by_name["sin"].head_token
    assert all(at is ats[0] for at in ats)
    assert all(n.inert for n in heads + ats)


# Rules the bundled glossary lacks, so that first-atom dispatch meets every
# kind of first atom: leading captures ranked above and below keyed rules,
# a [ opener, a separator, and a literal shared with a higher-ranked rule.
_EXTRA_RULES = [
    # outranks EulerGamma (50) at \Gamma(z)
    {"name": "Apply", "priority": 55, "template": "\\Apply{#f}@{#x}",
     "pattern": [{"capture": "f", "mode": "single-token"}, {"open": "("},
                 {"capture": "x"}, {"close": True}]},
    {"name": "Power", "priority": 1, "template": "\\Power{#b}@{#e}",
     "pattern": [{"capture": "b", "mode": "single-token"}, {"lit": "^"},
                 {"capture": "e", "mode": "single-group"}]},
    {"name": "Bracket", "priority": 60, "template": "\\Bracket{#n}@{#a}",
     "pattern": [{"open": "["}, {"capture": "a"}, {"close": True}, {"lit": "_"},
                 {"capture": "n", "mode": "single-group"}]},
    {"name": "Comma", "priority": 5, "template": "\\Comma@{#a}",
     "pattern": [{"sep": ","}, {"capture": "a", "mode": "single-token"}]},
    # shares \sin with the bundled sin rule (40) and ranks below it
    {"name": "SinExpr", "priority": 30, "template": "\\SinExpr@{#z}",
     "pattern": [{"lit": "\\sin"}, {"capture": "z"}]},
    # opens with a non-empty group, where qHypergeometric opens with {}
    {"name": "Ratio", "priority": 20, "template": "\\Ratio@{#a}{#b}",
     "pattern": [{"open": "{"}, {"capture": "a"}, {"close": True},
                 {"open": "{"}, {"capture": "b"}, {"close": True}]},
]


@pytest.fixture(scope="module")
def mixed_glossary():
    data = json.loads(builtin_glossary_path().read_text(encoding="utf-8"))
    for rule in _EXTRA_RULES:
        data["rules"].append(dict(rule, at="@", url="http://example.org/" + rule["name"]))
    return loads_glossary(json.dumps(data))


def _every_rule_walk(nodes, glossary):
    """Reference rewrite that tries every rule at every position."""
    out = []
    i = 0
    while i < len(nodes):
        node = nodes[i]
        hit = None
        if not node.inert:
            for rule in glossary.rules:
                m = match_at(nodes, i, rule)
                if m is not None:
                    hit = rule
                    break
        if hit is None:
            if isinstance(node, Group) and not node.inert:
                node = Group(tuple(_every_rule_walk(node.children, glossary)))
            out.append(node)
            i += 1
            continue
        caps = {k: _every_rule_walk(v, glossary) for k, v in m.captures.items()}
        out.extend(instantiate(hit, caps))
        i = m.end
    return out


def _dispatch_texts():
    """Formulae that fire every rule of the mixed glossary, half of them
    with ( ) spelled [ ]."""
    texts = [r"\Gamma(z)", r"\sin -x", r"[a+b]_n", r"x , y", r"a^2", r"\frac{a+1}{b+c}"]
    for seed in range(3):
        for k, text in enumerate(gen.corpus(seed=1000 + seed, count=150)):
            if k % 2:
                text = text.replace("(", "[").replace(")", "]")
            texts.append(text)
    return texts


def test_dispatch_keeps_the_global_rule_order(mixed_glossary):
    fired = Counter()
    for text in _dispatch_texts():
        tree = canonicalize_string(text, mixed_glossary.settings)
        out, stats = replace_all(tree, mixed_glossary)
        assert dict(stats.per_rule) == dict(oracle.scan(tree.nodes, mixed_glossary)), text
        want = _every_rule_walk(tree.nodes, mixed_glossary)
        assert render(out.nodes) == render(want), text
        assert [n.inert for n in flatten(out.nodes)] == [n.inert for n in flatten(want)], text
        fired.update(stats.per_rule)
    assert set(fired) >= {r["name"] for r in _EXTRA_RULES}, fired
    assert convert(r"\Gamma(z)", mixed_glossary)[0] == r"\Apply{\Gamma}@{z}"
    assert convert(r"\sin z", mixed_glossary)[0] == r"\sin@@{z}"


def test_strip_inverts_replace_under_every_step_kind(mixed_glossary):
    # Bracket's [ ] closers, Ratio's two groups, Comma's separator and
    # Apply's leading capture take every kind of step back to presentation
    fired = Counter()
    for text in _dispatch_texts():
        tree = canonicalize_string(text, mixed_glossary.settings)
        sem, stats = replace_all(tree, mixed_glossary)
        assert strip_semantics(sem, mixed_glossary) == tree, text
        fired.update(stats.per_rule)
    assert set(fired) >= {"Bracket", "Ratio", "Comma", "Apply"}, fired


def test_only_rules_whose_first_atom_fits_are_tried(glossary, monkeypatch):
    tried = []

    def counting(nodes, pos, rule):
        tried.append(rule.macro_name)
        return match_at(nodes, pos, rule)

    monkeypatch.setattr(engine, "match_at", counting)
    out, stats = convert(r"\Gamma(z)+x", glossary)
    assert out == r"\EulerGamma@{z}+x"
    assert tried == ["EulerGamma"]


def test_a_group_is_tried_only_with_the_rules_for_its_shape(mixed_glossary, monkeypatch):
    tried = Counter()

    def counting(nodes, pos, rule):
        node = nodes[pos]
        if isinstance(node, Group):
            tried[rule.macro_name, "{}" if not node.children else "{...}"] += 1
        return match_at(nodes, pos, rule)

    monkeypatch.setattr(engine, "match_at", counting)
    out, _ = convert(r"{}_2\phi_1(a,b;c;q,z)+\frac{a+1}{b+c}+{x+y}", mixed_glossary)
    assert out == r"\qHypergeometric{2}{1}{a}{b}{c}@{q}{z}+\frac\Ratio@{a+1}{b+c}+{x+y}"
    assert tried["qHypergeometric", "{}"] == 1
    assert tried["Ratio", "{...}"] == 2
    assert tried["qHypergeometric", "{...}"] == 0
    assert tried["Ratio", "{}"] == 0
