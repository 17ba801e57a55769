"""Wiki page rendering, the XML dump, and the stats report."""

import json
import random
from xml.etree import ElementTree

import pytest

import oracle
from conftest import DATA
from semtex import loads_glossary
from semtex.canonicalize import canonicalize_string
from semtex.engine import ReplacementStats
from semtex.errors import ConfigInvalidError, DuplicateTitleError, MissingBibEntryError
from semtex.metadata import Annotation, AnnotationKind, Citation, Formula
from semtex.pages import (
    EXPORT_NS,
    FormulaPage,
    SiteInfo,
    build_symbols_list,
    emit_dump,
    load_bibliography,
    render_page,
    stats_report,
)


@pytest.fixture(scope="module")
def bib():
    return load_bibliography(DATA / "bib.json")


@pytest.fixture(scope="module")
def formulae(mini_extraction):
    return {f.id: f for f in mini_extraction.formulae}


def make_formula(semantic, fid="t", key="KLS", annotations=()):
    return Formula(
        id=fid,
        source_canonical=canonicalize_string("x"),
        source_semantic=semantic,
        citation=Citation(key, fid),
        annotations=list(annotations),
    )


# --------------------------------------------------------------- bibliography


def test_load_bibliography(bib):
    assert set(bib) == {"KLS", "GR"}
    assert bib["KLS"].author.startswith("R. Koekoek")
    assert bib["KLS"].year == "2010"


def test_year_numbers_become_strings(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"X": {"author": "A", "title": "T", "year": 1999}}))
    assert load_bibliography(p)["X"].year == "1999"


@pytest.mark.parametrize(
    "field,value",
    [("title", ["T"]), ("year", None), ("year", True), ("author", 5), ("publisher", {})],
)
def test_a_bibliography_field_of_the_wrong_type_is_a_config_error(tmp_path, field, value):
    p = tmp_path / "b.json"
    p.write_text(json.dumps({"X": {"author": "A", "title": "T", field: value}}))
    with pytest.raises(ConfigInvalidError, match=f"{p}: {field} of 'X' must be a "):
        load_bibliography(p)


# --------------------------------------------------------------- symbols list


def test_symbols_from_formula_body(glossary):
    f = make_formula(r"\Jacobi{\alpha}{\beta}{n}@{x}=\EulerGamma@{z}")
    names = [s.macro_name for s in build_symbols_list(f, glossary)]
    assert names == ["EulerGamma", "Jacobi"]


def test_symbols_include_annotation_bodies(glossary, formulae):
    # 9.2.5's only macro call sits in a prose-derived constraint
    names = [s.macro_name for s in build_symbols_list(formulae["9.2.5"], glossary)]
    assert "Racah" in names


def test_symbols_require_word_boundary(glossary):
    assert build_symbols_list(make_formula(r"\sinister@@{z}"), glossary) == []
    got = build_symbols_list(make_formula(r"\sin@@{z}"), glossary)
    assert [s.macro_name for s in got] == ["sin"]


def test_symbols_entries_carry_links(glossary):
    (entry,) = build_symbols_list(make_formula(r"\EulerGamma@{z}"), glossary)
    assert entry.definition_link.startswith("http")
    assert entry.rendered_form == r"\EulerGamma@{z}"
    assert entry.description


def test_rows_without_macros_have_empty_lists(glossary, formulae):
    assert build_symbols_list(formulae["9.2.4"], glossary) == []
    assert build_symbols_list(formulae["14.20.4"], glossary) == []


def _head_rule(name):
    return {
        "name": name,
        "priority": 1,
        "pattern": [{"lit": "\\" + name}, {"capture": "z"}],
        "template": f"\\{name}@@{{#z}}",
        "at": "@@",
        "url": f"http://example.org/{name}",
    }


# heads of which one is a prefix of another
PREFIX_GLOSSARY = loads_glossary(
    json.dumps({"rules": [_head_rule("cos"), _head_rule("cosh"), _head_rule("c")]})
)
# é is a letter to str.isalpha, ² is not
_PIECES = (
    "\\", "\\", "\\", "\\\\", "cos", "cosh", "c", "h", "é", "²", "@@{z}", " ", "(", "1",
    "EulerGamma", "sin", "\\EulerGamma@{z}",
)


def _reference_symbols(f, glossary):
    texts = [f.source_semantic] + [a.body for a in f.annotations]
    return [
        name
        for name in glossary.macro_names
        if any(oracle.macro_occurs(glossary.by_name[name].head, t) for t in texts)
    ]


@pytest.mark.parametrize(
    "text, names",
    [
        ("\\\\cos", ["cos"]),
        ("\\cosé", []),
        ("\\cos²", ["cos"]),
        ("\\cosh²", ["cosh"]),
        ("\\coshx+\\c", ["c"]),
        ("\\cosh@@{z}\\cos", ["cos", "cosh"]),
    ],
)
def test_symbols_of_prefix_heads(text, names):
    got = build_symbols_list(make_formula(text), PREFIX_GLOSSARY)
    assert [s.macro_name for s in got] == names
    assert _reference_symbols(make_formula(text), PREFIX_GLOSSARY) == names


def test_symbols_lists_match_the_per_head_reference(glossary):
    rng = random.Random(15)
    for g in (glossary, PREFIX_GLOSSARY):
        fs = []
        for k in range(1500):
            texts = [
                "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 8)))
                for _ in range(rng.randint(1, 3))
            ]
            anns = [Annotation(rng.choice(list(AnnotationKind)), t) for t in texts[1:]]
            fs.append(make_formula(texts[0], fid=f"t{k}", annotations=anns))
        non_empty = 0
        for f in fs:
            want = _reference_symbols(f, g)
            assert [s.macro_name for s in build_symbols_list(f, g)] == want, f
            non_empty += bool(want)
        assert 200 < non_empty < 1300
        report = stats_report(ReplacementStats(), fs, [], g)
        assert f"non-empty symbols lists: {non_empty}/1500 (" in report


def test_a_glossary_without_rules_lists_no_symbols():
    g = loads_glossary('{"rules": []}')
    f = make_formula("\\, x+\\")
    assert build_symbols_list(f, g) == []
    assert "non-empty symbols lists: 0/1 (0.0%)" in stats_report(ReplacementStats(), [f], [], g)


# ----------------------------------------------------------------- page text


def test_page_layout(glossary, formulae, bib):
    page = render_page(formulae["9.8.2"], glossary, bib, corpus_prefix="KLS")
    assert page.title == "Formula:KLS:9.8.2"
    lines = page.wikitext.splitlines()
    assert lines[0] == "''Jacobi orthogonality relation''"
    assert lines[2].startswith("<math>\\EulerGamma@") or "<math>" in lines[2]
    assert "== Constraints ==" in lines
    i = lines.index("== Constraints ==")
    assert lines[i + 1] == ":<math>\\alpha>-1</math>"
    assert lines[i + 2] == ":<math>\\beta>-1</math>"
    assert "== Proof ==" in lines
    assert "integrate the Rodrigues form by parts n times" in lines
    assert "== Symbols List ==" in lines
    assert any(l.startswith("* <math>\\Jacobi") and "definition])" in l for l in lines)
    assert lines[-1] == (
        "Equation (9.8.2) of R. Koekoek, P. A. Lesky, and R. F. Swarttouw, "
        "''Hypergeometric Orthogonal Polynomials and Their q-Analogues'', "
        "Springer-Verlag, 2010."
    )


def test_empty_sections_are_omitted(glossary, formulae, bib):
    page = render_page(formulae["f5"], glossary, bib, corpus_prefix="KLS")
    assert page.wikitext.startswith("<math>")  # no name line
    for heading in ("== Constraints ==", "== Substitutions ==", "== Proof ==", "== Notes =="):
        assert heading not in page.wikitext
    assert "== Bibliography ==" in page.wikitext


def test_substitution_section(glossary, formulae, bib):
    page = render_page(formulae["9.8.5"], glossary, bib, corpus_prefix="KLS")
    assert ":<math>R=\\sqrt{1-2xt+t^2}</math>" in page.wikitext.splitlines()


def test_missing_bib_entry(glossary, formulae, bib):
    with pytest.raises(MissingBibEntryError):
        render_page(make_formula("x", key="nope"), glossary, bib, "KLS")


# ------------------------------------------------------------------ XML dump


def pages_of(glossary, formulae, bib, ids):
    return [render_page(formulae[i], glossary, bib, "KLS") for i in ids]


def test_dump_is_wellformed_and_ordered(glossary, formulae, bib):
    pages = pages_of(glossary, formulae, bib, ["1.1.1", "1.1.2", "9.8.2"])
    xml = emit_dump(pages)
    root = ElementTree.fromstring(xml)
    assert root.tag == f"{{{EXPORT_NS}}}mediawiki"
    got = root.findall(f"{{{EXPORT_NS}}}page")
    assert len(got) == 3
    titles = [p.findtext(f"{{{EXPORT_NS}}}title") for p in got]
    assert titles == ["Formula:KLS:1.1.1", "Formula:KLS:1.1.2", "Formula:KLS:9.8.2"]
    ids = [p.findtext(f"{{{EXPORT_NS}}}id") for p in got]
    assert ids == ["1", "2", "3"]


def test_dump_escapes_wikitext(glossary, formulae, bib):
    pages = pages_of(glossary, formulae, bib, ["1.1.1"])
    xml = emit_dump(pages)
    assert "&lt;math&gt;" in xml
    assert 'xml:space="preserve"' in xml
    root = ElementTree.fromstring(xml)
    text = root.find(f"{{{EXPORT_NS}}}page/{{{EXPORT_NS}}}revision/{{{EXPORT_NS}}}text")
    assert text.text == pages[0].wikitext  # escaping round-trips


def test_dump_is_deterministic(glossary, formulae, bib):
    pages = pages_of(glossary, formulae, bib, ["1.1.1", "9.8.2"])
    assert emit_dump(pages) == emit_dump(pages)


def test_dump_header_fields(glossary, formulae, bib):
    name = "X&Y <a> &lt;"
    xml = emit_dump(pages_of(glossary, formulae, bib, ["1.1.1"]), SiteInfo(sitename=name))
    assert "<sitename>X&amp;Y &lt;a&gt; &amp;lt;</sitename>" in xml
    root = ElementTree.fromstring(xml)
    si = root.find(f"{{{EXPORT_NS}}}siteinfo")
    assert si.findtext(f"{{{EXPORT_NS}}}sitename") == name
    assert root.get("version") == "0.10"


def test_every_header_field_is_escaped(glossary, formulae, bib):
    odd = 'en" x="1 & <b>'
    fields = ("sitename", "dbname", "base", "generator", "case", "lang", "timestamp",
              "contributor", "comment")
    xml = emit_dump(
        pages_of(glossary, formulae, bib, ["1.1.1"]), SiteInfo(**{f: odd for f in fields})
    )
    root = ElementTree.fromstring(xml)
    assert root.get("{http://www.w3.org/XML/1998/namespace}lang") == odd
    si = root.find(f"{{{EXPORT_NS}}}siteinfo")
    for f in ("sitename", "dbname", "base", "generator", "case"):
        assert si.findtext(f"{{{EXPORT_NS}}}{f}") == odd
    assert si.find(f".//{{{EXPORT_NS}}}namespace").get("case") == odd
    rev = root.find(f"{{{EXPORT_NS}}}page/{{{EXPORT_NS}}}revision")
    assert rev.findtext(f"{{{EXPORT_NS}}}timestamp") == odd
    assert rev.findtext(f"{{{EXPORT_NS}}}comment") == odd


def test_duplicate_titles_rejected(glossary, formulae, bib):
    page = pages_of(glossary, formulae, bib, ["1.1.1"])[0]
    with pytest.raises(DuplicateTitleError):
        emit_dump([page, page])


@pytest.mark.parametrize(
    "first, second",
    [("K:b_c", "K:b c"), ("K:b  c", "K:b\tc"), ("K:a", "K:a_"), ("K:a", " K:a"), ("K:a__b", "K:a b")],
)
def test_titles_mediawiki_folds_together_are_duplicates(first, second):
    with pytest.raises(DuplicateTitleError) as info:
        emit_dump([FormulaPage(first, "x"), FormulaPage(second, "y")])
    assert info.value.title == second
    # titles that differ after folding stay apart
    assert emit_dump([FormulaPage(first, "x"), FormulaPage(second + "d", "y")]).count("<page>") == 2


# ------------------------------------------------------------------- reports


def test_stats_report_shape(glossary, mini_extraction):
    res = mini_extraction
    text = stats_report(res.stats, res.formulae, res.defs, glossary, res.failures)
    lines = text.splitlines()
    assert lines[0] == "pages: 28"
    assert "formulae: 30" in lines
    assert "replacements: 55" in lines
    assert "substitution definitions (removed from page list): 2" in lines
    assert "formulae with substitution annotations: 5" in lines
    assert "non-empty symbols lists: 26/28 (92.9%)" in lines
    idx = lines.index("per-rule replacement counts:")
    per = lines[idx + 1 : idx + 10]
    assert per == sorted(per)
    assert "  qPochhammer: 18" in per
    assert lines[-1] == "failures: 0"


def test_stats_report_lists_failures(glossary, mini_extraction):
    res = mini_extraction
    text = stats_report(res.stats, res.formulae, res.defs, glossary, [("e.2", "boom")])
    assert text.splitlines()[-2:] == ["failures: 1", "  e.2: boom"]
