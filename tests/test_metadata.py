"""Constraint splitting, substitutions, names, notes, proofs."""

import pytest

from conftest import DATA
from semtex.errors import SubstitutionCycleError
from semtex.lexer import render
from semtex.metadata import (
    AnnotationKind,
    contains_relational,
    detect_constraints,
    detect_substitutions,
    extract_document,
    inline_substitutions,
    segment_formulae,
)
from semtex.canonicalize import canonicalize_string


def wrap(*rows, section="\\section{S}\n"):
    return section + "\n".join(f"\\[ {r} \\]" for r in rows) + "\n"


def bodies(kind, f):
    return [a.body for a in f.annotations_of(kind)]


@pytest.fixture(scope="module")
def mini(glossary, mini_source):
    return extract_document(mini_source, glossary, citation_key="KLS")


def by_id(result):
    return {f.id: f for f in result.formulae}


# ---------------------------------------------------------------- segmentation


def test_extract_document_lexes_the_source_once(glossary, mini_source, monkeypatch):
    import semtex.lexer
    import semtex.metadata

    real = semtex.lexer.tokenize
    whole = []

    def counting(source):
        if source == mini_source:
            whole.append(source)
        return real(source)

    monkeypatch.setattr(semtex.lexer, "tokenize", counting)
    monkeypatch.setattr(semtex.metadata, "tokenize", counting)
    extract_document(mini_source, glossary, citation_key="KLS")
    assert len(whole) == 1


def test_segment_ids_and_order(glossary, mini_source):
    fs = segment_formulae(mini_source, glossary, "KLS")
    assert len(fs) == 30
    assert [f.id for f in fs[:6]] == ["1.1.1", "1.1.2", "1.1.3", "1.2.1", "f5", "1.2.2"]
    assert fs[4].citation.key == "KLS"
    assert fs[4].citation.tag == "f5"


def test_segment_strips_labels_and_trailing_punctuation(glossary):
    fs = segment_formulae("\\[ x+y, \\label{a.b} \\nonumber \\]", glossary)
    assert len(fs) == 1
    assert fs[0].id == "a.b"
    assert render(fs[0].source_canonical.nodes) == "x+y"


def test_segment_skips_inline_math(glossary):
    fs = segment_formulae("text $a+b$ more \\[ c \\]", glossary)
    assert [f.id for f in fs] == ["f1"]


def test_sections_set_unit_and_path(glossary, mini_source):
    fs = segment_formulae(mini_source, glossary)
    f = {x.id: x for x in fs}
    assert f["9.2.2"].section_path[-1] == "Racah"
    assert f["9.2.2"].unit == f["9.2.5"].unit
    assert f["9.2.2"].unit != f["9.8.1"].unit


def test_relational_detector(glossary):
    yes = canonicalize_string("n \\le N", glossary.settings)
    no = canonicalize_string("a+b", glossary.settings)
    assert contains_relational(yes.nodes)
    assert not contains_relational(no.nodes)


# ---------------------------------------------------------- constraint splits


def split(glossary, body, prose=""):
    fs = segment_formulae(f"\\[ {body} \\]", glossary)
    core, anns = detect_constraints(fs[0], prose)
    return render(core.nodes), [a.body for a in anns]


def test_single_trailing_clause(glossary):
    core, anns = split(glossary, r"\Gamma(z)=\int_0^\infty e^{-t}t^{z-1}\,dt, \quad \Re z>0")
    assert core == r"\Gamma(z)=\int_0^\infty e^{-t}t^{z-1}dt"
    assert anns == [r"\Re z>0"]


def test_two_trailing_clauses(glossary):
    core, anns = split(glossary, r"e_q(z)=s, \quad |z|<1, \quad 0<q<1")
    assert core == r"e_q(z)=s"
    assert anns == [r"|z|<1", "0<q<1"]


def test_enumeration_stays_one_clause(glossary):
    core, anns = split(glossary, r"R_n(x)=y, \quad n=0,1,\ldots,N")
    assert core == r"R_n(x)=y"
    assert anns == [r"n=0,1,\ldots,N"]


def test_commas_without_relations_are_kept(glossary):
    core, anns = split(glossary, r"f(x,y)=x, y, z")
    assert core == "f(x,y)=x,y,z"
    assert anns == []


def test_first_segment_never_splits(glossary):
    core, anns = split(glossary, r"n \ge 0")
    assert core == r"n\ge0"
    assert anns == []


def test_commas_inside_groups_are_not_boundaries(glossary):
    core, anns = split(glossary, r"g=\max(a, b), a<b")
    assert core == r"g=\max(a,b)"
    assert anns == ["a<b"]


@pytest.mark.parametrize("introducer", ["where", "for", "provided"])
def test_prose_constraint_introducers(glossary, introducer):
    _, anns = split(glossary, "y=s", f"{introducer} $0<q<1$. More text.")
    assert anns == ["0<q<1"]


def test_prose_without_introducer_is_ignored(glossary):
    _, anns = split(glossary, "y=s", "Assume $0<q<1$ throughout.")
    assert anns == []


def test_prose_math_without_relation_is_ignored(glossary):
    _, anns = split(glossary, "y=s", "where $q$ is fixed.")
    assert anns == []


def test_prose_constraints_stop_at_first_plain_sentence(glossary):
    _, anns = split(glossary, "y=s", "where $n\\ge0$. Next topic. for $|t|<1$.")
    assert anns == [r"n\ge0"]


# -------------------------------------------------------------- substitutions


def extract(glossary, src):
    return extract_document(src, glossary)


def test_symbol_and_function_defs_detected(mini):
    got = {(d.def_formula_id, render(d.lhs_head), d.is_function) for d in mini.defs}
    assert got == {("9.2.1", "\\lambda", True), ("9.8.6", "R", False)}


def test_defs_dropped_and_counts_balance(glossary, mini_source, mini):
    segmented = segment_formulae(mini_source, glossary)
    assert len(segmented) == len(mini.formulae) + len(mini.defs)
    ids = {f.id for f in mini.formulae}
    assert "9.2.1" not in ids and "9.8.6" not in ids


def test_substitution_annotations_attach_to_users(mini):
    f = by_id(mini)
    users = sorted(x.id for x in mini.formulae if bodies(AnnotationKind.SUBSTITUTION, x))
    assert users == ["9.2.2", "9.2.3", "9.8.5", "9.8.7", "9.8.8"]
    assert bodies(AnnotationKind.SUBSTITUTION, f["9.8.5"]) == [r"R=\sqrt{1-2xt+t^2}"]
    assert bodies(AnnotationKind.SUBSTITUTION, f["9.2.3"]) == [
        r"\lambda(x)=x(x+\gamma+\delta+1)"
    ]


def test_defs_respect_unit_boundaries(glossary):
    src = (
        "\\section{A}\n\\[ y=R+1 \\]\n\\[ R=x^2 \\]\n"
        "\\section{B}\n\\[ z=R-1 \\]\n"
    )
    res = extract(glossary, src)
    assert [d.def_formula_id for d in res.defs] == ["f2"]
    f = by_id(res)
    assert bodies(AnnotationKind.SUBSTITUTION, f["f1"]) == ["R=x^2"]
    assert bodies(AnnotationKind.SUBSTITUTION, f["f3"]) == []


def test_unused_symbol_is_not_a_def(glossary):
    res = extract(glossary, wrap("y=x+1", "w=2"))
    assert res.defs == []
    assert len(res.formulae) == 2


def test_glossary_heads_never_define(glossary):
    # \Gamma(z) = ... looks like a function def but the head is converted
    res = extract(glossary, wrap(r"\Gamma(z)=(z-1)\Gamma(z-1)", r"y=\Gamma(z)+1"))
    assert res.defs == []


def test_transitive_inlining(glossary):
    res = extract(glossary, wrap("y=u+u^2", "u=v+1", "v=2"))
    assert {d.def_formula_id for d in res.defs} == {"f2", "f3"}
    assert len(res.formulae) == 1
    subs = bodies(AnnotationKind.SUBSTITUTION, res.formulae[0])
    assert sorted(subs) == ["u=v+1", "v=2"]


def test_substitution_cycle_raises(glossary):
    src = wrap("x=a", "a=b+1", "b=a-1")
    with pytest.raises(SubstitutionCycleError):
        extract(glossary, src)


def test_unused_cycle_still_raises(glossary):
    # defs that reference each other are rejected even with no other user
    with pytest.raises(SubstitutionCycleError):
        extract(glossary, wrap("a=b+1", "b=a-1", "y=1"))


def test_inline_substitutions_conserves_rows(glossary):
    res = extract(glossary, wrap("y=u+1", "u=2", "z=u-1"))
    assert len(res.formulae) == 2 and len(res.defs) == 1


# ---------------------------------------------------------- names and notes


def test_names_from_fixture(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.NAME, f["1.1.1"]) == ["Gamma function definition"]
    assert bodies(AnnotationKind.NAME, f["9.8.2"]) == ["Jacobi orthogonality relation"]
    assert bodies(AnnotationKind.NAME, f["9.8.4"]) == ["Jacobi rodrigues-type formula"]
    assert bodies(AnnotationKind.NAME, f["14.20.4"]) == [
        "Little q-Laguerre / Wall normalized recurrence relation"
    ]
    assert bodies(AnnotationKind.NAME, f["1.1.2"]) == []


def test_name_keyword_extends_through_tail_word(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.NAME, f["14.20.8"]) == [
        "Little q-Laguerre / Wall limit relation"
    ]


def test_only_first_row_of_align_is_named(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.NAME, f["1.2.1"]) == ["q-shifted factorials definition"]
    assert bodies(AnnotationKind.NAME, f["f5"]) == []
    assert bodies(AnnotationKind.NAME, f["1.2.2"]) == []


def test_notes_from_fixture(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.NOTE, f["1.1.2"]) == [
        "Here $\\Gamma(z)$ denotes the gamma function."
    ]
    assert bodies(AnnotationKind.NOTE, f["9.8.7"]) == ["Further generating functions."]
    assert bodies(AnnotationKind.NOTE, f["9.8.1"]) == []


def test_formula_without_section_gets_no_name(glossary):
    res = extract(glossary, "A definition follows.\n\\[ y=x \\]\n")
    assert bodies(AnnotationKind.NAME, res.formulae[0]) == []


def test_note_requires_three_words(glossary):
    res = extract(glossary, wrap("y=x", section="\\section{S}\nToo short.\n"))
    assert bodies(AnnotationKind.NOTE, res.formulae[0]) == []


# --------------------------------------------------------------------- proofs


def test_proof_comment(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.PROOF, f["9.8.2"]) == [
        "integrate the Rodrigues form by parts n times"
    ]
    total = sum(len(bodies(AnnotationKind.PROOF, x)) for x in mini.formulae)
    assert total == 1


def test_constraints_from_fixture(mini):
    f = by_id(mini)
    assert bodies(AnnotationKind.CONSTRAINT, f["1.3.1"]) == ["|z|<1", "0<q<1"]
    assert bodies(AnnotationKind.CONSTRAINT, f["9.2.2"]) == [r"n=0,1,\ldots,N"]
    assert bodies(AnnotationKind.CONSTRAINT, f["9.8.2"]) == [r"\alpha>-1", r"\beta>-1"]
    # prose clause with a macro call gets replaced like any formula
    assert bodies(AnnotationKind.CONSTRAINT, f["14.20.5"]) == [
        r"y(x)=\littleqLaguerre{n}@{x}{a}{q}"
    ]


# ------------------------------------------------------------------- failures


def test_failures_are_isolated_per_row(glossary):
    src = (DATA / "mixed_errors.tex").read_text()
    res = extract(glossary, src)
    assert [f.id for f in res.formulae] == ["e.1", "e.3"]
    assert len(res.failures) == 1
    fid, msg = res.failures[0]
    assert fid == "e.2"
    assert "MismatchedLeftRight" in msg
