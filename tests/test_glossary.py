import json

import pytest

from semtex import builtin_glossary, loads_glossary
from semtex.errors import (
    DuplicateMacroError,
    GlossaryParseError,
    TemplateCaptureMismatchError,
)
from semtex.glossary import Glossary, load_glossary

from conftest import DATA


def make_rule(**overrides):
    rule = {
        "name": "Foo",
        "priority": 10,
        "pattern": [{"lit": "F"}, {"open": "("}, {"capture": "x"}, {"close": True}],
        "template": "\\Foo@{#x}",
        "at": "@",
        "url": "http://example.org/Foo",
        "description": "foo function",
    }
    rule.update(overrides)
    return rule


def loads(rules, **top):
    return loads_glossary(json.dumps({"rules": rules, **top}))


def test_builtin_glossary_names():
    g = builtin_glossary()
    assert g.macro_names == (
        "EulerGamma",
        "Jacobi",
        "Pochhammer",
        "Racah",
        "cos",
        "littleqLaguerre",
        "qHypergeometric",
        "qPochhammer",
        "sin",
    )
    # every rule must point its symbols-list entry somewhere
    assert all(r.definition_link for r in g.rules)


def test_rules_ordered_by_priority_then_specificity():
    g = loads(
        [
            make_rule(
                name="Low",
                priority=1,
                pattern=[{"lit": "L"}, {"capture": "x", "mode": "single-group"}],
                template="\\Low@@{#x}",
                at="@@",
            ),
            make_rule(name="High", priority=99),
        ]
    )
    assert [r.macro_name for r in g.rules][0] == "High"


def test_duplicate_macro_name_raises():
    with pytest.raises(DuplicateMacroError):
        loads([make_rule(), make_rule(description="same name again")])


def test_template_capture_mismatch_raises():
    with pytest.raises(TemplateCaptureMismatchError):
        loads([make_rule(template="\\Foo@{#y}")])
    with pytest.raises(TemplateCaptureMismatchError):
        # pattern captures x and y but the template only places x
        pattern = [
            {"lit": "F"},
            {"open": "("},
            {"capture": "x"},
            {"sep": ","},
            {"capture": "y"},
            {"close": True},
        ]
        loads([make_rule(pattern=pattern)])


@pytest.mark.parametrize(
    "breakage",
    [
        {"at": "@@@"},
        {"url": ""},
        {"priority": "high"},
        {"pattern": [{"what": "?"}]},
        {"pattern": [{"capture": "x"}, {"close": True}]},
        {"pattern": [{"open": "("}, {"open": "{"}, {"capture": "x"}, {"close": True}]},
    ],
)
def test_malformed_rules_raise_parse_error(breakage):
    with pytest.raises(GlossaryParseError):
        loads([make_rule(**breakage)])


def test_malformed_documents_raise_parse_error():
    with pytest.raises(GlossaryParseError):
        loads_glossary("[1, 2]")
    with pytest.raises(GlossaryParseError):
        loads_glossary('{"rules": 7}')
    with pytest.raises(GlossaryParseError) as err:
        loads_glossary('{"rules": [,]}')
    # truncated or invalid JSON reports the line it broke on
    assert err.value.line is not None


def test_an_undecodable_glossary_file_raises_parse_error(tmp_path):
    p = tmp_path / "g.json"
    p.write_bytes(b'{"rules": [\n"\xff"]}')
    with pytest.raises(GlossaryParseError) as err:
        load_glossary(p)
    assert err.value.line == 2


def test_missing_required_keys_raise():
    rule = make_rule()
    del rule["template"]
    with pytest.raises(GlossaryParseError):
        loads([rule])


def test_duplicate_detection_applies_to_programmatic_construction():
    g = builtin_glossary()
    with pytest.raises(DuplicateMacroError):
        Glossary(rules=g.rules + (g.rules[0],))


@pytest.mark.parametrize("lit", ["", "ab", "\\alpha x", " F", "F ", 7])
def test_a_pattern_literal_that_is_not_one_token_raises_parse_error(lit):
    pattern = [{"lit": lit}, {"capture": "x", "mode": "single-group"}]
    with pytest.raises(GlossaryParseError) as err:
        loads([make_rule(pattern=pattern)])
    assert f"pattern literal {lit!r} is not one token" in str(err.value)


# a lone backslash would merge with the letter after it: replace would
# write $\lparen x$ as $\x$
@pytest.mark.parametrize("canonical", [" ", "^", "_", "{", "&", "%", "", "ab", "\\left(", "\\"])
def test_a_delimiter_canonical_that_is_not_one_character_or_control_sequence_raises(canonical):
    classes = [{"canonical": canonical, "variants": ["\\lparen"]}]
    with pytest.raises(GlossaryParseError) as err:
        loads([make_rule()], canonicalization={"delimiter_classes": classes})
    assert repr(canonical) in str(err.value)



@pytest.mark.parametrize(
    "rule, message",
    [
        ("F", "rule #1: not an object"),
        (make_rule(pattern=["F"]), "rule 'Foo': bad pattern atom 'F'"),
        (make_rule(pattern=[{"lit": "F", "sep": ","}]), "rule 'Foo': bad pattern atom"),
        (
            make_rule(pattern=[{"lit": "F"}, {"capture": "x", "mode": "greedy"}]),
            "rule 'Foo': unknown capture mode 'greedy'",
        ),
        (make_rule(pattern=[{"lit": "F"}, {"sep": "+"}]), "rule 'Foo': bad separator '+'"),
        (make_rule(pattern=[{"open": "<"}]), "rule 'Foo': bad open delimiter '<'"),
        (make_rule(template="\\Foo@{#x"), "rule 'Foo': template does not parse"),
        (make_rule(template="Foo@{#x}"), "template must start with a control sequence"),
        (make_rule(template="\\Foo@{#x}@"), "rule 'Foo': @ must appear once in template"),
        (make_rule(template="\\Foo@{x}"), "template groups must hold one {#name} placeholder"),
        (make_rule(template="\\Foo@{#x}y"), "rule 'Foo': unexpected template content"),
        (make_rule(template="\\Foo@@{#x}"), "template must contain its at variant '@' exactly once"),
        (make_rule(template="\\Foo{#x}@"), "template needs at least one argument group"),
        (make_rule(template="\\Foo@{#x}@{#y}"), "rule 'Foo': @ must appear once in template"),
    ],
)
def test_a_malformed_rule_raises_parse_error_naming_its_fault(rule, message):
    with pytest.raises(GlossaryParseError) as err:
        loads([rule])
    assert message in str(err.value)
