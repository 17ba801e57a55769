"""The record types: how they build, compare and refuse change."""

import copy
from fractions import Fraction
from pathlib import Path

import pytest

from semtex.canonicalize import (
    DEFAULT_BAR_SYNONYMS,
    DEFAULT_DELIMITER_CLASSES,
    DEFAULT_SIZE_PREFIXES,
    DEFAULT_SPACING_TOKENS,
    CanonicalSettings,
    CanonicalTree,
    _class_map,
)
from semtex.engine import MatchResult, ReplacementStats
from semtex.errors import ConfigInvalidError
from semtex.glossary import AtomKind, Glossary, MacroRule, PatternAtom
from semtex.lexer import MathSpan, Token
from semtex.metadata import (
    Annotation,
    AnnotationKind,
    Citation,
    ExtractionResult,
    Formula,
    SubstitutionDef,
    _Heading,
)
from semtex.pages import BibEntry, FormulaPage, SiteInfo, SymbolsListEntry, stats_report
from semtex.pipeline import PipelineConfig, RenderedMath, RunResult, _siteinfo

# Each immutable record, the values of its fields without a default and
# the defaults of the rest, in field order
RECORDS = [
    (MathSpan, ("display-bracket", (Token("x"),), (3, 4)), {"label": None, "outer": (0, 0)}),
    (
        CanonicalSettings,
        (),
        {
            "spacing_tokens": frozenset(DEFAULT_SPACING_TOKENS),
            "size_prefixes": frozenset(DEFAULT_SIZE_PREFIXES),
            "bar_synonyms": frozenset(DEFAULT_BAR_SYNONYMS),
            "delimiter_map": _class_map(DEFAULT_DELIMITER_CLASSES),
        },
    ),
    (PatternAtom, (AtomKind.LITERAL,), {"value": "", "name": "", "mode": "balanced-expression"}),
    (Annotation, (AnnotationKind.NOTE, "a note"), {"origin": ""}),
    (Citation, ("KLS", "1.2"), {}),
    (_Heading, (0, 9, "Title"), {}),
    (SubstitutionDef, ((Token("u"),), False, (Token("2"),), "d", "u=2", 1, 2, frozenset({2, 3})), {}),
    (ExtractionResult, ([], [], ReplacementStats(), [("f1", "boom")]), {}),
    (MatchResult, ({"z": (Token("z"),)}, 4), {}),
    (SymbolsListEntry, ("EulerGamma", "\\EulerGamma@{z}", "http://dlmf.nist.gov/5.2.E1", "Gamma"), {}),
    (FormulaPage, ("Formula:KLS:1", "text"), {}),
    (BibEntry, ("KLS", "A", "T"), {"publisher": "", "year": ""}),
    (
        SiteInfo,
        (),
        {
            "sitename": "DRMF",
            "dbname": "drmf",
            "base": "http://drmf.wmflabs.org/wiki/Main_Page",
            "generator": "semtex",
            "case": "first-letter",
            "lang": "en",
            "timestamp": "2010-01-01T00:00:00Z",
            "contributor": "SeedBot",
            "comment": "seeded formula home page",
        },
    ),
    (RenderedMath, ("<mi>x</mi>", "<ci>x</ci>"), {}),
    (RunResult, (0, "<mediawiki/>", "pages: 0\n", [], [], [], ReplacementStats(), []), {}),
]


@pytest.mark.parametrize("cls, required, defaults", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_a_record_builds_by_position_and_keyword_and_compares_by_fields(cls, required, defaults):
    names = cls._fields
    by_position = cls(*required)
    by_keyword = cls(**dict(zip(names, required)))
    assert by_position == by_keyword == cls(*copy.deepcopy(required))
    # a record is the tuple of its values, the defaults filling the rest
    assert by_position == (*required, *defaults.values())
    assert names[len(required) :] == tuple(defaults)
    if names:
        changed = cls(**{**by_position._asdict(), names[-1]: object()})
        assert changed != by_position
        with pytest.raises(AttributeError):
            setattr(by_position, names[0], None)


def test_default_settings_share_one_read_only_delimiter_map():
    a, b = CanonicalSettings(), CanonicalSettings()
    assert a.delimiter_map is b.delimiter_map
    with pytest.raises(TypeError):
        a.delimiter_map["("] = "["


def test_a_canonical_tree_compares_by_nodes_and_is_no_tuple():
    tree = CanonicalTree((Token("x"), Token("+")))
    assert not isinstance(tree, tuple)
    assert tree == CanonicalTree((Token("x", span=(5, 6)), Token("+")))
    assert tree != CanonicalTree((Token("x"),))
    assert tree != (Token("x"), Token("+"))


def test_replacement_stats_compare_by_fields_and_keep_their_own_counts():
    assert ReplacementStats() == ReplacementStats({}, 0, 0)
    assert ReplacementStats({"sin": 2}, 2, 1) == ReplacementStats(per_rule={"sin": 2}, total=2, formulae=1)
    assert ReplacementStats({"sin": 2}, 2, 1) != ReplacementStats({"sin": 2}, 2, 2)
    assert ReplacementStats().per_rule is not ReplacementStats().per_rule
    assert ReplacementStats.from_counts({"a": 1}, formulae=3).avg_per_formula == Fraction(1, 3)
    assert ReplacementStats().avg_per_formula == Fraction(0)


def test_a_macro_rule_compares_by_its_fields_not_its_derived_ones(glossary):
    rule = glossary.by_name["EulerGamma"]
    fields = (rule.macro_name, rule.pattern, rule.template, rule.at_variant, rule.priority)
    bare = MacroRule(*fields, rule.definition_link, rule.description)
    assert bare.head == "" and bare.steps == rule.steps
    assert bare == rule
    assert MacroRule(*fields[:-1], rule.priority + 1, rule.definition_link, rule.description) != rule


def test_a_glossary_defaults_to_the_default_settings(glossary):
    assert Glossary(glossary.rules).settings == CanonicalSettings()


def test_mutable_records_get_their_own_defaults():
    one = Formula("a", CanonicalTree(()), "", Citation("KLS", "a"))
    two = Formula(id="b", source_canonical=CanonicalTree(()), source_semantic="", citation=Citation("KLS", "b"))
    assert one.annotations == [] and one.annotations is not two.annotations
    assert one.stats == ReplacementStats() and one.stats is not two.stats
    assert (one.semantic_nodes, one.unit, one.ordinal, one.span) == ((), 0, 0, (0, 0))
    cfg = PipelineConfig(["a.tex"], "g.json")
    assert cfg.inputs == [Path("a.tex")] and cfg.glossary_path == Path("g.json")
    assert cfg.output_path is None and PipelineConfig().inputs is not PipelineConfig().inputs
    assert (cfg.workers, cfg.siteinfo) == (1, SiteInfo())


def test_siteinfo_takes_every_field_and_rejects_unknown_keys():
    assert _siteinfo(SiteInfo()._asdict(), "siteinfo") == SiteInfo()
    with pytest.raises(ConfigInvalidError, match=r"unknown siteinfo keys: \['nope'\]"):
        _siteinfo({"sitename": "x", "nope": "y"}, "siteinfo")


def test_the_report_average_is_the_rounded_exact_quotient(glossary):
    grid = [(t, n) for t in range(0, 120) for n in range(1, 60)]
    grid += [(10**17 + 1, 3), (2**60 - 1, 7), (5, 8), (15, 8), (1, 200), (3, 400)]
    for t, n in grid:
        report = stats_report(ReplacementStats({}, t, n), [], [], glossary)
        assert f"average per formula: {float(Fraction(t, n)):.2f}\n" in report, (t, n)
    assert "average per formula: 0.00\n" in stats_report(ReplacementStats(), [], [], glossary)
