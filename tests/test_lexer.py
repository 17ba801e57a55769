import bisect
import random
from collections import Counter

import pytest

import gen
import lexing_oracle
import oracle
from semtex import (
    canonicalize_string,
    detokenize,
    extract_math,
    render,
    replace_all,
    strip_semantics,
    tokenize,
)
from semtex.canonicalize import _build
from semtex.errors import (
    SemtexError,
    UnbalancedGroupError,
    UnknownSemanticMacroError,
    UnterminatedEnvironmentError,
)
from semtex.lexer import (
    Group,
    Token,
    TokenKind,
    _marks,
    _row_ranges,
    build_groups,
    flatten,
)
from semtex.canonicalize import DEFAULT_SETTINGS
from semtex.metadata import Formula, _row, _scan_sections, _sentences

from conftest import DATA


def kinds(source):
    return [(t.kind.name, t.text) for t in tokenize(source)]


def test_control_words_and_symbols():
    assert kinds(r"\alpha\beta x") == [
        ("CONTROL", r"\alpha"),
        ("CONTROL", r"\beta"),
        ("WHITESPACE", " "),
        ("CHAR", "x"),
    ]
    # control symbols are exactly one non-letter
    assert kinds(r"\,x") == [("CONTROL", "\\,"), ("CHAR", "x")]
    assert kinds("\\\\") == [("CONTROL", "\\\\")]


def test_comment_runs_to_end_of_line():
    toks = tokenize("a % note\nb")
    assert [t.kind for t in toks] == [
        TokenKind.CHAR,
        TokenKind.WHITESPACE,
        TokenKind.COMMENT,
        TokenKind.WHITESPACE,
        TokenKind.CHAR,
    ]
    assert toks[2].text == "% note"


def test_alignment_tab_and_scripts():
    toks = tokenize("a &= b_n^2")
    assert [t.kind.name for t in toks if t.kind is not TokenKind.WHITESPACE] == [
        "CHAR",
        "ALIGN_TAB",
        "CHAR",
        "CHAR",
        "SUBSCRIPT",
        "CHAR",
        "SUPERSCRIPT",
        "CHAR",
    ]


@pytest.mark.parametrize(
    "source",
    [
        r"\Gamma(z)=\int_0^\infty t^{z-1}e^{-t}\,dt",
        "a % comment\n  b\t c",
        r"\sin  z \\ {nested {deep}} $x$",
        "",
    ],
)
def test_detokenize_inverts_tokenize(source):
    assert detokenize(tokenize(source)) == source


def test_detokenize_inverts_tokenize_on_fixture_corpus():
    for path in sorted(DATA.glob("*.tex")):
        source = path.read_text(encoding="utf-8")
        assert detokenize(tokenize(source)) == source, path.name


def test_build_groups_nests_and_flattens():
    nodes = build_groups(tokenize("a{b{c}}d"))
    assert [type(n).__name__ for n in nodes] == ["Token", "Group", "Token"]
    inner = nodes[1]
    assert isinstance(inner.children[1], Group)
    assert detokenize(flatten(nodes)) == "a{b{c}}d"


def test_unbalanced_groups_raise():
    with pytest.raises(UnbalancedGroupError):
        build_groups(tokenize(r"\frac{1}{2"))
    with pytest.raises(UnbalancedGroupError):
        build_groups(tokenize("x}"))


def test_extract_math_environment_labels():
    spans = extract_math(
        "$x$ \\[y\\] $$z$$ \\begin{equation*}w\\end{equation*}"
    )
    assert [(m.environment, m.is_display) for m in spans] == [
        ("inline-dollar", False),
        ("bracket-display", True),
        ("bracket-display", True),
        ("equation*", True),
    ]


def test_extract_math_spans_slice_back_to_body():
    source = "text $a+b$ more \\begin{equation}\nc=d \\label{x}\n\\end{equation}"
    spans = extract_math(source)
    assert [source[m.span[0] : m.span[1]] for m in spans] == [
        "a+b",
        "c=d \\label{x}",
    ]
    assert spans[1].label == "x"
    outer = spans[1].outer
    assert source[outer[0] : outer[1]].startswith("\\begin{equation}")
    assert source[outer[0] : outer[1]].endswith("\\end{equation}")


def test_align_splits_rows_and_shares_outer():
    source = (
        "\\begin{align}\n"
        "a &= b, \\label{r.1}\\\\\n"
        "c &= d\n"
        "\\end{align}"
    )
    spans = extract_math(source)
    assert len(spans) == 2
    assert [m.label for m in spans] == ["r.1", None]
    assert spans[0].outer == spans[1].outer
    assert spans[0].span != spans[1].span


def test_unterminated_environment_raises():
    with pytest.raises(UnterminatedEnvironmentError):
        extract_math("\\begin{equation} x = y")


def test_fixture_span_census(mini_source):
    """The corpus file carries exactly 30 display rows and 9 inline spans."""
    spans = extract_math(mini_source)
    display = [m for m in spans if m.is_display]
    inline = [m for m in spans if not m.is_display]
    assert len(display) == 30
    assert len(inline) == 9
    # one align block contributes three of the display rows
    aligns = {m.outer for m in display if m.environment == "align"}
    assert len(aligns) == 1
    assert sum(1 for m in display if m.environment == "align") == 3
    # exactly one row is unlabeled and falls back to its ordinal
    assert sum(1 for m in display if m.label is None) == 1


def test_render_inserts_space_after_control_word_before_letter():
    toks = [Token("\\sin"), Token("z")]
    assert render(toks) == "\\sin z"
    # no space needed before a non-letter
    toks[1] = Token("(")
    assert render(toks) == "\\sin("


def _random_tree(rng, depth):
    """Nodes mixing control words, control symbols, letters, other
    characters and empty texts, with groups."""
    pool = tuple(map(Token, ("\\sin", "\\a", "\\,", "\\", "z", "(", "é", "", "_")))
    out = []
    for _ in range(rng.randint(0, 5)):
        if depth and rng.random() < 0.3:
            out.append(Group(tuple(_random_tree(rng, depth - 1))))
        else:
            out.append(rng.choice(pool))
    return out


def test_render_matches_the_flatten_reference(glossary):
    trees = []
    for s in gen.corpus(4, 300):
        canonical = canonicalize_string(s, glossary.settings)
        trees += [canonical.nodes, replace_all(canonical, glossary)[0].nodes]
        # the source's tokens, whitespace included
        trees.append(build_groups(tokenize(s)))
    rng = random.Random(4)
    trees += [_random_tree(rng, 3) for _ in range(2000)]
    # control words right before letters, in and out of groups
    sin, z = Token("\\sin"), Token("z")
    trees += [[sin, Group((z,))], [Group((sin,)), z], [sin, Group(()), z], [sin, z, sin]]
    for nodes in trees:
        assert render(nodes) == oracle.render(nodes), nodes
        assert render(iter(nodes)) == oracle.render(nodes)


def test_token_and_group_value_semantics():
    x = Token("x")
    assert x.span is None and x.inert is False
    placed = Token("x", span=(3, 4), inert=True)
    assert placed == x and hash(placed) == hash(x)
    assert Token("x") != Token("y")
    # the kind follows from the text, the empty text included
    assert [Token(t).kind for t in ("x", "\\sin", "\\", "_", " ", "")] == [
        TokenKind.CHAR,
        TokenKind.CONTROL,
        TokenKind.CONTROL,
        TokenKind.SUBSCRIPT,
        TokenKind.WHITESPACE,
        TokenKind.CHAR,
    ]

    g = Group((x,))
    assert g.inert is False
    marked = Group((placed,), inert=True)
    assert marked == g and hash(marked) == hash(g)
    assert Group((x,)) != Group((x, x))

    # a token never equals a group, even one that holds just that token
    assert x != g and g != x
    assert Group(()) != Token("")

    table = {x: "token", g: "group"}
    assert table[placed] == "token" and table[marked] == "group"
    assert {x, placed, g, marked} == {x, g}
    assert repr(x) == "Token(CHAR, 'x')" and repr(g) == "Group([Token(CHAR, 'x')])"
    assert x.name == "x" and Token("\\sin").name == "sin"


def _leaves(nodes):
    for node in nodes:
        if isinstance(node, Group):
            yield from _leaves(node.children)
        else:
            yield node


def _math_trees(source, settings):
    """The canonical trees of a document's math spans, display rows read
    as rows, up to a span the scan rejects; a span that fails to
    canonicalize is skipped."""
    trees = []
    try:
        for env, texts, offset, a, b, _, _ in _row_ranges(source, _marks(source)):
            try:
                trees.append(_build(texts, offset, a, b, settings, env != "inline-dollar"))
            except SemtexError:
                pass
    except SemtexError:
        pass
    return trees


def test_every_leaf_lexes_back_to_itself(glossary):
    """A leaf of a canonical, replaced or stripped tree is one token of
    its text, of the kind the lexer and the reference lexer give it."""
    trees = []
    for path in sorted(DATA.glob("*.tex")):
        trees += _math_trees(path.read_text(encoding="utf-8"), glossary.settings)
    trees += [canonicalize_string(s, glossary.settings) for s in gen.corpus(seed=20, count=1000)]
    seen = Counter()
    for tree in trees:
        forms = [tree]
        try:
            replaced = replace_all(tree, glossary)[0]
            forms += [replaced, strip_semantics(replaced, glossary)]
        except UnknownSemanticMacroError:
            pass
        for form in forms:
            for leaf in _leaves(form.nodes):
                (tok,) = tokenize(leaf.text)
                assert (tok.text, tok.kind) == (leaf.text, leaf.kind), leaf
                ((_, kind),) = oracle.tokenize(leaf.text)
                assert kind is leaf.kind, leaf
                seen[leaf.inert] += 1
    assert seen[True] > 1000 and seen[False] > 10000, seen


# ------------------------------------------------- tokenizer vs the reference

_ALPHABET = "\\%${}^_&\n\x0b\x1c\x85\u2003\u00a0 \tabzXéßλ09*(),."


def _lexed(tokens):
    return [(t.kind, t.text, t.span) for t in tokens]


def _reference(source):
    """_lexed of the reference lexer's tokens, with the kinds it decides."""
    return [(kind, t.text, t.span) for t, kind in oracle.tokenize(source)]


def _random_strings(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 60)))


@pytest.mark.parametrize(
    "source",
    ["", "\\", "x\\", "\\\n", "\\\nx", "a\\\\\n%c\\\n\\%\\", "a\x0b\x1c\x85\u2003\u00a0b"],
)
def test_tokenize_edge_cases_match_the_reference(source):
    assert _lexed(tokenize(source)) == _reference(source)
    assert detokenize(tokenize(source)) == source


def test_tokenize_matches_the_reference_on_random_strings():
    for source in _random_strings(9, 3000):
        assert _lexed(tokenize(source)) == _reference(source), repr(source)
        assert detokenize(tokenize(source)) == source


def test_tokenize_matches_the_reference_on_generated_corpora():
    for seed in range(3):
        source = "\n".join(
            f"\\begin{{equation}}{body} % proof: {k}\n\\end{{equation}} where ${body}$."
            for k, body in enumerate(gen.corpus(seed, 100))
        )
        assert _lexed(tokenize(source)) == _reference(source)
        assert detokenize(tokenize(source)) == source


# ------------------------------------------------ math found by token text


def rows(source):
    return [
        (m.environment, source[m.span[0] : m.span[1]], m.span, m.label, m.outer)
        for m in extract_math(source)
    ]


def headings(source):
    return [(h.pos, h.end, h.title) for h in _scan_sections(source, _marks(source))]


def test_escaped_dollars_and_commented_dollars_open_no_math():
    assert rows("a \\$ b $x$ c") == [("inline-dollar", "x", (8, 9), None, (7, 10))]
    assert rows("a \\\\$x$ c") == [("inline-dollar", "x", (5, 6), None, (4, 7))]
    assert rows("a % $ b\n$y$") == [("inline-dollar", "y", (9, 10), None, (8, 11))]


def test_begin_may_have_whitespace_but_not_a_comment_before_its_brace():
    assert rows("\\begin {equation}x=1\\end{equation}") == [
        ("equation", "x=1", (17, 20), None, (0, 34))
    ]
    assert rows("\\begin%c\n{equation}x=1\\end{equation}") == []


def test_nested_same_name_environments_close_at_the_outer_end():
    source = "\\begin{equation}a\\begin{equation}b\\end{equation}c\\end{equation}"
    assert rows(source) == [
        ("equation", "a\\begin{equation}b\\end{equation}c", (16, 49), None, (0, 63))
    ]


def test_row_breaks_inside_groups_and_inner_environments_do_not_split():
    source = "\\begin{align}a{b\\\\c}&=d\\\\ e&=\\begin{cases}1\\\\2\\end{cases}\\end{align}"
    assert rows(source) == [
        ("align", "a{b\\\\c}&=d", (13, 23), None, (0, 68)),
        ("align", "e&=\\begin{cases}1\\\\2\\end{cases}", (26, 57), None, (0, 68)),
    ]
    group = extract_math(source)[0].body[1]
    assert isinstance(group, Group)


def test_double_dollars_and_unterminated_displays():
    assert rows("$$x+y$$") == [("bracket-display", "x+y", (2, 5), None, (0, 7))]
    with pytest.raises(
        UnterminatedEnvironmentError,
        match="^unterminated 'bracket-display' starting at offset 0$",
    ):
        extract_math("\\[ x")
    with pytest.raises(
        UnterminatedEnvironmentError,
        match="^unterminated 'bracket-display' starting at offset 0$",
    ):
        extract_math("$$ x $")


def test_starred_sections_are_headings_and_longer_names_are_not():
    assert headings("\\section*{T} \\sectionx{U} \\subsection {V}") == [
        (0, 12, "T"),
        (26, 41, "V"),
    ]
    # TeX skips the spaces after a control word, before the star too
    assert headings("\\section *{T}") == [(0, 13, "T")]
    assert headings("\\subsection * {V}") == [(0, 17, "V")]


# ------------------------------------- math rows against the whole token list


# math under every delimiter, and prose with comments, escaped dollars
# and spaced starred headings
_PIECES = (
    "\\begin{{equation}}\n{body} \\label{{e.{k}}} % proof: p\n\\end{{equation}}",
    "\\begin{{align}}\n{body} \\\\ \n  x_{{{k}}} &= 1,\\\\\n\\end{{align}}",
    "\\[ {body} \\]",
    "$$ {body}\n$$",
    "Costs \\$5 where ${body}$ holds. % not $ math\n",
    "\\subsection * {{T{k}}} Prose with a\\% sign.",
)


def _document(seed, rows):
    rng = random.Random(seed)
    parts = ["\\section{S}\n"]
    for k, body in enumerate(gen.corpus(seed, rows)):
        parts.append(rng.choice(_PIECES).format(body=body, k=k))
        parts.append(rng.choice(("\n", " ", "\n\n", "\t")))
    return "".join(parts)


def test_math_rows_hold_the_tokens_tokenize_gives_inside_their_spans():
    sources = [(DATA / "kls_mini.tex").read_text(encoding="utf-8")]
    sources += [_document(seed, 80) for seed in range(4)]
    for source in sources:
        tokens = _lexed(tokenize(source))
        starts = [span[0] for _, _, span in tokens]
        spans = extract_math(source)
        assert spans
        for m in spans:
            a = bisect.bisect_left(starts, m.span[0])
            b = bisect.bisect_left(starts, m.span[1])
            # a group's braces are implied, so flatten gives them no span
            want = [(k, t, None if t in ("{", "}") else span) for k, t, span in tokens[a:b]]
            assert _lexed(flatten(m.body)) == want


# pieces of documents that open, close, hide or nest environments and
# headings: comments, \\, \$, display and inline dollars, titles that
# hold headings or math, and control words that only start like a mark
_DOC_PIECES = (
    "\\begin{equation}", "\\end{equation}", "\\begin{align}", "\\end{align}",
    "\\begin {equation*}", "\\end{equation*}", "\\begin{itemize}", "\\end{itemize}",
    "\\begin{\\end{equation}}", "\\begin", "\\end", "\\[", "\\]", "$", "$$", "\\$",
    "\\\\", "\\\\[", "% c $ \\begin{equation} \\[\n", "\\section{", "\\subsection * {",
    "\\section{A \\subsection{B} $x$}", "\\section", "}", "{", "x", "=", " ", "\n", "&",
    "\\label{a}", "\\beginx", "\\endgroup", "\\sectionmark", "\\left(", "\\right)",
)
_MARK_TEXTS = frozenset(
    {"\\begin", "\\end", "\\[", "\\]", "$", "\\section", "\\subsection"}
)


def _scan_outcome(make):
    try:
        return make()
    except (UnbalancedGroupError, UnterminatedEnvironmentError) as exc:
        return type(exc).__name__, str(exc), exc.position


def _scanned(source):
    """The document's rows as (environment, token texts, span, outer),
    read by _row_ranges, or the error it raises."""
    rows = _row_ranges(source, _marks(source))
    return _scan_outcome(
        lambda: [(env, texts[a:b], span, outer) for env, texts, _, a, b, span, outer in rows]
    )


def _walked(source, texts, starts, ranges):
    """_scanned of the (environment, a, b, outer) rows of a whole-document
    lex that ranges gives."""
    return _scan_outcome(
        lambda: [
            (env, texts[a:b], (starts[a], starts[b]), outer)
            for env, a, b, outer in ranges(texts, starts)
        ]
    )


def test_the_reference_lexes_with_a_copy_of_the_token_pattern():
    """A test may stand a recorder in for semtex.lexer._TOKEN_RE, so the
    reference compiles the same pattern for itself."""
    import semtex.lexer

    mine, real = lexing_oracle._TOKEN_RE, semtex.lexer._TOKEN_RE
    assert (mine.pattern, mine.flags) == (real.pattern, real.flags)


def test_structural_scans_match_the_token_walk_reference():
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(3000):
        source = "".join(rng.choice(_DOC_PIECES) for _ in range(rng.randint(1, 20)))
        texts, starts = lexing_oracle.lex(source)
        marks = _marks(source)
        assert marks == [(p, t) for p, t in zip(starts, texts) if t in _MARK_TEXTS], source
        want = _walked(source, texts, starts, lexing_oracle.row_ranges)
        got = _scanned(source)
        assert got == want, source
        sections = _scan_sections(source, marks)
        heads = [(h.pos, h.end, h.title) for h in sections]
        reference = lexing_oracle.scan_sections(texts, starts)
        assert heads == [(pos, end, title) for pos, end, _, title in reference], source
        seen[want[0] if isinstance(want, tuple) else "rows" if want else "none"] += 1
        seen["headings"] += bool(heads)
        if not isinstance(want, tuple):
            seen["units"] += _placed_units(source, sections) > 1
    assert seen.pop("units") > 10, seen
    assert min(seen.values()) > 200, seen
    # many headings and rows, so that most rows are placed after the first
    for source in [(DATA / "kls_mini.tex").read_text(encoding="utf-8")] + [
        _document(seed, 200) for seed in range(4)
    ]:
        sections = _scan_sections(source, _marks(source))
        assert _placed_units(source, sections) > 3, source


def _placed_units(source, sections):
    """Check the unit and heading of each row that builds against the
    walk of lexing_oracle.locate: two rows share a unit exactly when the
    walk gives them one unit, and the heading's title ends its path.
    Returns the number of units."""
    reference = lexing_oracle.scan_sections(*lexing_oracle.lex(source))
    placed = []
    for k, row in enumerate(_row_ranges(source, _marks(source)), 1):
        f = _row(source, row, k, sections, "", DEFAULT_SETTINGS, {})
        if isinstance(f, Formula):
            path, unit = lexing_oracle.locate(reference, row[-1][0])
            title = sections[f.unit - 1].title if f.unit else None
            assert title == (path[-1] if path else None), source
            placed.append((f.unit, unit))
    units = {u for u, _ in placed}
    assert len(units) == len({u for _, u in placed}) == len(set(placed)), source
    return len(units)


# ----------------------------------- the scans against the whole-document lex

# where a scan of the source could part from the token list: marks in
# comments, after \\ or at the head of longer control words, spaced or
# commented environment names, braces in comments and control symbols
# inside a name or title, a control space ending a row, nested
# environments of one name and unterminated displays
_TARGETED = (
    "\\begin{equation}a % \\end{equation}\nb\\end{equation}",
    "x \\\\begin{equation}a\\end{equation} $y$",
    "costs \\$5 and $z$ and \\$6. Done.",
    "50\\% of $x$ % and $ here\n holds. \\% $y$.",
    "\\beginx{equation}a\\end{equation} \\endx $b$",
    "\\begin {equation} a \\end {equation}",
    "\\begin{equ%c\nation}a\\end{equation}",
    "\\begin{equation}a\\begin{equ%c\nation}b\\end{equation}",
    "\\[ x \\ \\] and \\[ y\\  \\]",
    "\\begin{align}a &= b \\ \\\\ c \\end{align}",
    "\\begin{equation}a\\begin{equation}b\\end{equation}c\\end{equation}",
    "\\begin{align}a\\\\\\begin{align}b\\\\c\\end{align}\\\\d\\end{align}",
    "$$ x $ y",
    "\\[ x \\section{T}",
    "a $$ b",
    "\\section {A} \\subsection*{B {C}} \\section{\\subsection{D}} \\section %c\n{E}",
    "\\begin{equation}\\label{a}x\\end{equation}\\begin{equation}{\\end{equation}",
    "\\begin{equation}x\\end{equation}\\begin{align}}\\end{align}",
    "Ends here. \\section{S} Then $a.b$ and \\. and x! Or y? % c. d\n z",
    "\\section{A % }\n B} $x$ \\subsection{C \\} {D}} $y$ \\section{E \\\\}",
    "\\begin{equ % }\nation}x\\end{equation} \\begin{\\}}$y$\\end{\\}} \\begin{%}\n}$z$",
)


def _old_scan(source):
    """_scanned, _marks and the headings of source by the references of
    tests/oracle.py that read the whole-document lex."""
    texts, starts = lexing_oracle.lex(source)
    marks = lexing_oracle.marks(source, texts, starts)
    rows = _walked(
        source, texts, starts, lambda t, s: lexing_oracle.marked_row_ranges(t, s, marks)
    )
    heads = lexing_oracle.marked_scan_sections(texts, starts, marks)
    return rows, [(starts[k], texts[k]) for k in marks], heads


def _new_scan(source):
    marks = _marks(source)
    heads = [(h.pos, h.end, h.title) for h in _scan_sections(source, marks)]
    return _scanned(source), marks, heads


def _gaps(source):
    """The prose between the math environments of source, and the whole
    source, as text for the sentence splitter."""
    try:
        outers = sorted({r[-1] for r in _row_ranges(source, _marks(source))})
    except SemtexError:
        return [source]
    cuts = [0, *(p for outer in outers for p in outer), len(source)]
    return [source] + [source[a:b] for a, b in zip(cuts[::2], cuts[1::2])]


def test_scans_match_the_whole_document_lex_reference():
    """Rows (token texts, spans, outer extents), raised errors (class
    and offset), marks, headings and sentences read from the source
    equal those of the whole-document lex the scans replaced."""
    sources = [*_TARGETED, *(p.read_text(encoding="utf-8") for p in sorted(DATA.glob("*.tex")))]
    sources += [_document(seed, 60) for seed in range(6)]
    rng = random.Random(20261020)
    sources += [
        "".join(rng.choice(_DOC_PIECES) for _ in range(rng.randint(1, 20))) for _ in range(1500)
    ]
    seen = Counter()
    for source in sources:
        new, old = _new_scan(source), _old_scan(source)
        assert new == old, source
        rows = new[0]
        seen[rows[0] if isinstance(rows, tuple) else "rows" if rows else "none"] += 1
        for gap in _gaps(source):
            got = lexing_oracle.sentences(gap)
            assert _sentences(gap) == got, gap
            seen["sentences"] += len(got)
    assert min(seen.values()) > 30, seen
