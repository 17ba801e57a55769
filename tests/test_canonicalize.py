import random
import types
from collections import Counter

import pytest

import gen
import oracle
from semtex import canonicalize_string, render
from semtex.canonicalize import CanonicalSettings, CanonicalTree, _build, canonicalize
from semtex.errors import MismatchedLeftRightError, SemtexError
from semtex.lexer import Token, _check_balance, _lex, build_groups, flatten, tokenize


def canon(source):
    return render(canonicalize_string(source).nodes)


@pytest.mark.parametrize(
    "source,expected",
    [
        (r"x \, y \; z \quad w \qquad v \! u", "xyzwvu"),
        ("x ~ y", "xy"),
        (r"x \hspace{2mm} y", "xy"),
        (r"\hspace {2mm}x", "x"),
        (r"\hspace *{2mm}x", "x"),
        (r"\sin  z", r"\sin z"),
    ],
)
def test_spacing_stripped(source, expected):
    assert canon(source) == expected


@pytest.mark.parametrize(
    "source,expected",
    [
        (r"\left( x \right)", "(x)"),
        (r"\bigl[ x \bigr]", "[x]"),
        (r"\Big| x \Big|", "|x|"),
        (r"a \mid b \vert c", "a|b|c"),
        (r"\Bigl\lbrace x \Bigr\rbrace", r"\{x\}"),
        # a null delimiter disappears but the pairing still counts
        (r"\left. \frac{dy}{dx} \right|_{x=0}", r"\frac{dy}{dx}|_{x=0}"),
    ],
)
def test_delimiters_normalized(source, expected):
    assert canon(source) == expected


@pytest.mark.parametrize(
    "source",
    [
        r"\left( x",
        r"x \right)",
        r"\left( \left[ y \right]",
        # pairing is checked within one group
        r"{\left( x} \right)",
    ],
)
def test_left_right_mismatch_raises(source):
    with pytest.raises(MismatchedLeftRightError):
        canonicalize_string(source)


def test_alignment_tabs_and_comments_dropped():
    assert canon("a &= b") == "a=b"
    assert canon("x % trailing comment") == "x"


@pytest.mark.parametrize(
    "source,expected",
    [
        ("a_{n}", "a_n"),
        ("{{n}}", "n"),
        (r"{\alpha}", r"\alpha"),
        (r"\sqrt{2}", r"\sqrt2"),
        # spacing, delimiters and null delimiters go before the unwrap
        (r"{ \, n }", "n"),
        (r"{\mid}", "|"),
        (r"{\left. y \right.}", "y"),
        # multi-token groups keep their braces
        ("{n+1}", "{n+1}"),
        ("x^{z-1}", "x^{z-1}"),
    ],
)
def test_single_leaf_groups_unwrapped(source, expected):
    assert canon(source) == expected


def test_unwrap_is_bottom_up():
    tree = canonicalize_string("{{{q}}}")
    assert len(tree.nodes) == 1
    node = tree.nodes[0]
    assert isinstance(node, Token)
    assert node.text == "q"


_LPAREN_AT = CanonicalSettings.from_config(
    {"delimiter_classes": [{"canonical": "@", "variants": ["\\lparen"]}]}
)


@pytest.mark.parametrize(
    "source, settings, at",
    [
        (r"\EulerGamma@{x}", None, True),
        (r"{a\EulerGamma@{x}}", None, True),
        (r"f\lparen x)", _LPAREN_AT, True),
        (r"f\lparen x)", None, False),
        ("x % a@b", None, False),
        (r"x \label{a@b}", None, False),
        (r"\Gamma(x)+\label{@}", _LPAREN_AT, False),
    ],
)
def test_a_built_tree_says_whether_it_holds_an_at_leaf(source, settings, at):
    tree = canonicalize_string(source, settings or CanonicalSettings())
    assert tree.at is at
    # a tree built elsewhere may hold one; at takes no part in equality
    assert CanonicalTree(tree.nodes).at is True
    assert CanonicalTree(tree.nodes) == tree


@pytest.mark.parametrize(
    "source",
    [
        r"\Gamma(z)=\int_0^\infty t^{z-1}e^{-t}\,dt",
        r"P_n^{(\alpha,\beta)}(x) \left( 1 \right)",
        r"{}_2\phi_1(a,b;c;q,z) &= y \quad % c",
    ],
)
def test_canonicalize_is_idempotent(source):
    once = canonicalize_string(source)
    twice = canonicalize(list(once.nodes))
    assert render(twice.nodes) == render(once.nodes)


def test_canonicalize_accepts_prebuilt_nodes():
    nodes = build_groups(tokenize(r"\sin \, z"))
    assert render(canonicalize(nodes).nodes) == r"\sin z"


def test_package_attribute_is_the_module():
    import semtex.canonicalize

    assert isinstance(semtex.canonicalize, types.ModuleType)
    assert semtex.canonicalize.canonicalize is canonicalize


# every rule of the builder and its row markup
_SOUP = (
    "\\hspace", "\\hspace*", "\\mspace", "*", "{2mm}", "\\left", "\\right", "\\middle",
    "\\left.", "\\right.", "\\bigl", "\\bigr", "\\Big", ".", "(", ")", "[", "]",
    "\\{", "\\}", "|", "\\|", "\\mid", "\\vert", "\\lvert", "\\lparen", "\\rbrack",
    "\\lbrace", "\\rbrace", "\\langle", "\\label", "{eq:a}", "{b}", "\\nonumber", "\\notag", "&",
    "% c\n", " ", " ", "\\,", "\\quad", "~", ",", ";", "x", "1", "\\alpha", "^", "_", "=",
    "\\\\", "\\text", "\\mbox", "\\textrm", "\\textit", "\\textbf", "{a b}", "\\ ",
    "@", "{y}@",
)


# rows where markup meets trailing punctuation, spacing or a size prefix
_EDGES = (
    r"x+y, \label {a.b} \nonumber",
    r"\label{a}{b}.",
    r"\label \nonumber {a} x",
    r"\left( x \right. ,",
    r"\left\label{a}( x \right)",
    r"\hspace \label{a} * \notag {2mm} x",
    r"x . \,",
    r"\left( x \right \label{a} .",
    r"\left. y \right \, .",
    r"x \bigr.",
    r"\text{for all } n",
    r"\mbox { for \label{a} } n",
    r"\text{a \textbf {b  c} \nonumber d}, x \label{b}",
    r"\textit{\big ( \bigl( \hspace{1mm} }",
    r"{\text{ }} \textrm x \mbox",
    r"f(x)={x \label{b}} \label{a}",
    r"\label{a} x \label {b}{c}",
    r"\text{\label {a} x} \label{\label{b}}",
    r"{\label{a}} {b} \label{{c}}",
)


def _soup(rng, depth=2):
    """Soup tokens in nested groups, with now and then a stray brace."""
    parts = []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < 0.01:
            parts.append(rng.choice("{}"))
        elif r < 0.2 and depth:
            parts.append("{" + _soup(rng, depth - 1) + "}")
        else:
            parts.append(rng.choice(_SOUP))
    return "".join(parts)


def _outcome(make):
    try:
        return make()
    except SemtexError as exc:
        return type(exc).__name__, str(exc)


def _row(source, settings, leaves):
    texts, starts = _lex(source)
    _check_balance(texts, starts, 0, len(texts))
    return _build(texts, starts, 0, len(texts), settings, True, leaves)


def test_builder_matches_the_tree_walk_reference(glossary):
    settings = glossary.settings
    rng = random.Random(20261018)
    sources = [*_EDGES, *(_soup(rng) for _ in range(4000)), *gen.corpus(seed=11, count=300)]
    seen = Counter()
    # one leaf table for every row, as for the rows of one document
    leaves = {}
    for source in sources:
        want = _outcome(lambda: oracle.canonicalize_row(source, settings))
        assert _outcome(lambda: _row(source, settings, leaves)) == want, source
        seen[want[0] if isinstance(want, tuple) else "tree"] += 1
        want = _outcome(
            lambda: oracle.canonicalize(
                build_groups(t for t, _ in oracle.tokenize(source)), settings
            )
        )
        assert _outcome(lambda: canonicalize_string(source, settings)) == want, source
        nodes = _outcome(lambda: build_groups(tokenize(source)))
        if isinstance(nodes, list):
            assert _outcome(lambda: canonicalize(nodes, settings)) == want, source
    # the soups reach both errors as well as trees
    assert seen["tree"] > 2000
    assert seen["MismatchedLeftRightError"] > 200
    assert seen["UnbalancedGroupError"] > 200


def _bar_mapped():
    """Settings where | is a delimiter synonym, so only the bar spelling
    of \\mid stays |, where \\lparen is spelt @ and where x is a
    spacing token."""
    return CanonicalSettings.from_config(
        {
            "spacing_tokens": ["\\,", "x"],
            "size_prefixes": ["left", "right", "big"],
            "bar_synonyms": ["mid"],
            "delimiter_classes": [
                {"canonical": "\\vert", "variants": ["|", "\\lvert"]},
                {"canonical": "@", "variants": ["\\lparen"]},
            ],
        }
    )


@pytest.mark.parametrize("custom", [False, True])
def test_builder_leaf_table_matches_the_table_free_reference(glossary, custom):
    settings = _bar_mapped() if custom else glossary.settings
    rng = random.Random(20261019)
    sources = [*_EDGES, *(_soup(rng) for _ in range(3000)), *gen.corpus(seed=12, count=300)]
    # one table per row kind, each shared by every row, as in a document
    tables = {True: {}, False: {}}
    seen = Counter()
    for source in sources:
        texts, starts = _lex(source)
        if _outcome(lambda: _check_balance(texts, starts, 0, len(texts))) is not None:
            continue
        for row in (True, False):
            want = _outcome(lambda: oracle.build(texts, starts, 0, len(texts), settings, row))
            got = _outcome(
                lambda: _build(texts, starts, 0, len(texts), settings, row, tables[row])
            )
            assert got == want, (source, row)
            if isinstance(got, tuple):
                seen[got[0]] += 1
            else:
                seen["tree"] += 1
                leaves = flatten(got.nodes)
                assert all(t.span is None for t in leaves)
                # only the source text of a label argument is inert
                inert = [k for k, t in enumerate(leaves) if t.inert]
                assert all(leaves[k - 2].text == "\\label" and not row for k in inert)
                seen["label"] += bool(inert)
                # at is exactly whether the tree holds an @ leaf
                assert got.at == any(t.text == "@" and not t.inert for t in leaves)
                seen["at"] += got.at
    assert seen["tree"] > 2000 and seen["MismatchedLeftRightError"] > 100 and seen["label"] > 40
    assert 100 < seen["at"] < seen["tree"] - 100
    # the tables hold only texts whose leaf does not depend on context
    for table in tables.values():
        assert table and all(t == leaf.text for t, leaf in table.items())
        assert not table.keys() & {"\\label", "\\nonumber", "\\notag", "\\hspace", "\\mspace"}
        assert not table.keys() & {"\\text", "\\mbox", "\\textrm", "\\textit", "\\textbf"}
        assert not table.keys() & (settings.spacing_tokens | settings.delimiter_map.keys())
        assert not {t[1:] for t in table} & (settings.size_prefixes | settings.bar_synonyms)
