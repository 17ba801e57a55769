import types

import pytest

from semtex import canonicalize_string, render
from semtex.canonicalize import canonicalize
from semtex.errors import MismatchedLeftRightError
from semtex.lexer import Group, Token, TokenKind, build_groups, tokenize


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
