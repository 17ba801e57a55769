"""Constraint splitting, substitutions, names, notes, proofs."""

import copy
import gc
import json
import random
from collections import Counter

import pytest

import gen
import lexing_oracle
import oracle
from conftest import DATA, assert_lexed_once_in_windows, prose_document
from semtex.engine import replace_all
from semtex.errors import (
    SubstitutionCycleError,
    UnbalancedGroupError,
    UnknownSemanticMacroError,
)
from semtex.glossary import builtin_glossary_path, loads_glossary
from semtex.lexer import Group, Token, flatten, render
from semtex.metadata import (
    DEFAULT_INTRODUCERS,
    DEFAULT_KEYWORDS,
    Annotation,
    AnnotationKind,
    _head_finder,
    _split_trailing,
    _top_level_equation,
    contains_relational,
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


def test_extract_document_lexes_only_math_and_mark_windows_once(glossary, mini_source, lexed):
    docs = [mini_source, prose_document(1), prose_document(10)]
    for source in docs:
        extract_document(source, glossary, citation_key="KLS")
        assert_lexed_once_in_windows(source, lexed)
    # however much prose a document holds, none of it is lexed
    sizes = [sum(b - a for a, b in lexed[source]) for source in docs[1:]]
    assert sizes[0] == sizes[1] > 0
    # besides the documents, only the $...$ snippets of the prose that
    # follows a row are lexed, each once: no constraint annotation is
    # lexed again
    snippets = [text for text in lexed if text not in docs]
    assert all(f"${c}$" in mini_source for c in snippets)
    lexed_once = sum(len(lexing_oracle.lex(c)[0]) for c in snippets)
    assert sum(len(lexed[c]) for c in snippets) == lexed_once
    assert len(snippets) == 5


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


def test_a_label_with_a_space_before_its_brace_is_stripped(glossary):
    # TeX skips the space after a control word, so this is \label{eq:a}
    source = "\\begin{equation}\\label {eq:a} x = \\Gamma(z)\\end{equation}"
    (f,) = extract_document(source, glossary).formulae
    assert f.id == "eq:a"
    assert f.source_semantic == "x=\\EulerGamma@{z}"


@pytest.mark.parametrize(
    "row, semantic",
    [
        # the . of a closing \right. is a null delimiter, not punctuation
        ("f(x) = \\left\\{ a \\right.", "f(x)=\\{a"),
        ("\\left. \\frac{d}{dx}\\Gamma(x) \\right. .", "\\frac d{dx}\\EulerGamma@{x}"),
        # punctuation before a comment still ends the row
        ("a+b. % note\n", "a+b"),
    ],
)
def test_a_row_drops_the_punctuation_that_ends_its_canonical_form(glossary, row, semantic):
    res = extract_document(wrap(row), glossary)
    assert res.failures == []
    assert [f.source_semantic for f in res.formulae] == [semantic]


def test_a_lone_right_dot_ending_a_row_is_a_mismatch(glossary):
    res = extract_document("\\[ x \\right. \\]", glossary)
    assert res.formulae == []
    assert res.failures == [
        (
            "f1",
            "MismatchedLeftRightError: mismatched \\left/\\right at offset 5 "
            "in the row at line 1:6",
        )
    ]


def test_segment_skips_inline_math(glossary):
    fs = segment_formulae("text $a+b$ more \\[ c \\]", glossary)
    assert [f.id for f in fs] == ["f1"]


def test_sections_set_unit_and_path(glossary, mini_source, mini):
    fs = segment_formulae(mini_source, glossary)
    f = {x.id: x for x in fs}
    # the Name takes the title of the last heading before the row
    named = next(x for x in mini.formulae if x.id == "9.2.2")
    assert bodies(AnnotationKind.NAME, named) == ["Racah definition"]
    assert f["9.2.2"].unit == f["9.2.5"].unit
    assert f["9.2.2"].unit != f["9.8.1"].unit


class _CountingList(list):
    """A list that counts the entries read from it."""

    read = 0

    def __iter__(self):
        for x in super().__iter__():
            self.read += 1
            yield x

    def __getitem__(self, k):
        got = super().__getitem__(k)
        self.read += len(got) if isinstance(k, slice) else 1
        return got


def test_heading_entries_read_per_row_stay_flat_as_a_document_grows(glossary, monkeypatch):
    import semtex.metadata

    real = semtex.metadata._scan_sections
    made = []

    def counting(*args):
        made.append(_CountingList(real(*args)))
        return made[-1]

    monkeypatch.setattr(semtex.metadata, "_scan_sections", counting)

    def per_row(rows):
        # subsections of 16 rows, a section for every 8 of them
        parts = []
        for k in range(rows):
            if k % 128 == 0:
                parts.append(f"\\section{{S{k}}}\n")
            if k % 16 == 0:
                parts.append(f"\\subsection{{T{k}}}\nThe definition of x.\n")
            parts.append(f"\\[ x_{{{k}}} = k \\]\nwhere $k>0$. A note on the row.\n")
        result = extract_document("".join(parts), glossary)
        assert len(result.formulae) == rows
        last = (rows - 1) // 16 * 16
        assert bodies(AnnotationKind.NAME, result.formulae[last]) == [f"T{last} definition"]
        return made.pop().read / rows

    small, large = per_row(250), per_row(4000)
    assert large <= 2 * small, (small, large)


def test_relational_detector(glossary):
    yes = canonicalize_string("n \\le N", glossary.settings)
    no = canonicalize_string("a+b", glossary.settings)
    assert contains_relational(yes.nodes)
    assert not contains_relational(no.nodes)


# ---------------------------------------------------------- constraint splits


# a glossary with no rules: the constraints extract_document attaches
# are the canonical clauses, rendered
_RULELESS = loads_glossary('{"rules": []}')


def split(body, prose=""):
    """The rendered core of a row and its constraints, from its trailing
    clauses and the prose after it."""
    (f,) = extract_document(f"\\[ {body} \\] {prose}", _RULELESS).formulae
    return render(f.source_canonical.nodes), bodies(AnnotationKind.CONSTRAINT, f)


def test_single_trailing_clause():
    core, anns = split(r"\Gamma(z)=\int_0^\infty e^{-t}t^{z-1}\,dt, \quad \Re z>0")
    assert core == r"\Gamma(z)=\int_0^\infty e^{-t}t^{z-1}dt"
    assert anns == [r"\Re z>0"]


def test_two_trailing_clauses():
    core, anns = split(r"e_q(z)=s, \quad |z|<1, \quad 0<q<1")
    assert core == r"e_q(z)=s"
    assert anns == [r"|z|<1", "0<q<1"]


def test_enumeration_stays_one_clause():
    core, anns = split(r"R_n(x)=y, \quad n=0,1,\ldots,N")
    assert core == r"R_n(x)=y"
    assert anns == [r"n=0,1,\ldots,N"]


def test_commas_without_relations_are_kept():
    core, anns = split(r"f(x,y)=x, y, z")
    assert core == "f(x,y)=x,y,z"
    assert anns == []


def test_first_segment_never_splits():
    core, anns = split(r"n \ge 0")
    assert core == r"n\ge0"
    assert anns == []


def test_commas_inside_groups_are_not_boundaries():
    core, anns = split(r"g=\max(a, b), a<b")
    assert core == r"g=\max(a,b)"
    assert anns == ["a<b"]


@pytest.mark.parametrize("introducer", ["where", "for", "provided"])
def test_prose_constraint_introducers(introducer):
    _, anns = split("y=s", f"{introducer} $0<q<1$. More text.")
    assert anns == ["0<q<1"]


def test_prose_without_introducer_is_ignored():
    _, anns = split("y=s", "Assume $0<q<1$ throughout.")
    assert anns == []


def test_prose_math_without_relation_is_ignored():
    _, anns = split("y=s", "where $q$ is fixed.")
    assert anns == []


def test_an_escaped_dollar_pairs_with_no_prose_math():
    _, anns = split("y=x", r"where $0<q<1$ costs \$5 and $n \ge 0$.")
    assert anns == ["0<q<1", r"n\ge0"]


def test_prose_constraints_stop_at_first_plain_sentence():
    _, anns = split("y=s", "where $n\\ge0$. Next topic. for $|t|<1$.")
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


@pytest.mark.parametrize("script", ["^", "_"])
def test_a_left_side_that_starts_with_a_script_is_no_def(glossary, script):
    # its head is a SUPERSCRIPT or SUBSCRIPT token, neither a letter nor a
    # control sequence, though another row uses the same text
    res = extract(glossary, wrap(f"{script}2=y", f"x{script}2+1"))
    assert res.defs == []
    assert [f.source_semantic for f in res.formulae] == [f"{script}2=y", f"x{script}2+1"]


def test_glossary_heads_never_define(glossary):
    # \Gamma(z) = ... looks like a function def but the head is converted
    res = extract(glossary, wrap(r"\Gamma(z)=(z-1)\Gamma(z-1)", r"y=\Gamma(z)+1"))
    assert res.defs == []


def test_an_unconverted_glossary_head_never_defines(glossary):
    # \sin with no argument stays \sin, a plain control word, yet it is
    # the head of a glossary rule; the u pair of the same unit is a def
    res = extract(glossary, wrap(r"\sin = y+1", r"\sin + 2", "u = y+1", "u + 2"))
    assert [f.source_semantic for f in res.formulae] == [r"\sin=y+1", r"\sin+2", "u+2"]
    assert [d.equation for d in res.defs] == ["u=y+1"]


def test_a_head_two_rows_define_defines_nothing(glossary):
    res = extract(
        glossary,
        wrap(
            "p_n(x)=\\sum_{k=0}^n x^k \\label{a}",
            "p_n(x)=\\frac{1-x^{n+1}}{1-x} \\label{b}",
            "p_n(1)=n+1 \\label{c}",
            "\\int_0^1 p_n(x)dx=H_{n+1} \\label{d}",
        ),
    )
    assert res.defs == [] and res.failures == []
    assert [f.id for f in res.formulae] == ["a", "b", "c", "d"]
    assert all(f.annotations_of(AnnotationKind.SUBSTITUTION) == [] for f in res.formulae)


def test_a_symbol_head_and_a_function_head_on_one_run_are_one_head(glossary):
    res = extract(glossary, wrap("u=2", "u(x)=x^2", "y=u(t)+u"))
    assert res.defs == []
    assert len(res.formulae) == 3
    # in another unit the head still defines
    res = extract(glossary, wrap("u=2", "u(x)=x^2") + wrap("u=3", "y=u+1", section="\\section{T}\n"))
    assert [d.def_formula_id for d in res.defs] == ["f3"]


def test_many_rows_defining_one_head_stay_pages(glossary):
    rows = [f"f(x)=\\Gamma(x)+\\sum_{{k=0}}^{{{k}}} x^k" for k in range(2000)]
    res = extract(glossary, wrap(*rows))
    assert res.defs == [] and res.failures == []
    assert len(res.formulae) == 2000
    with pytest.raises(SubstitutionCycleError):
        extract(glossary, wrap(*rows[:3], "a=b+1", "b=a+1"))


# The head search skips a row whose source_semantic holds no first-token
# text of its unit's heads, so these uses must still be found through it.
def test_a_head_used_only_inside_a_nested_group_is_found(glossary):
    res = extract(glossary, wrap("\\Omega_3=x+1", "y=\\frac{\\sqrt{{\\Omega_3}^2}}{2}", "z=1"))
    assert [d.def_formula_id for d in res.defs] == ["f1"]
    f = by_id(res)
    assert bodies(AnnotationKind.SUBSTITUTION, f["f2"]) == ["\\Omega_3=x+1"]
    assert bodies(AnnotationKind.SUBSTITUTION, f["f3"]) == []


def test_a_function_head_used_only_as_a_call_is_found(glossary):
    res = extract(glossary, wrap("\\Psi(x)=x^2", "y=\\Psi(t)+1", "z=\\Psi+t"))
    assert [(d.def_formula_id, d.is_function) for d in res.defs] == [("f1", True)]
    f = by_id(res)
    assert f["f2"].source_semantic == "y=\\Psi(t)+1"
    assert bodies(AnnotationKind.SUBSTITUTION, f["f2"]) == ["\\Psi(x)=x^2"]
    assert bodies(AnnotationKind.SUBSTITUTION, f["f3"]) == []


def test_transitive_inlining(glossary):
    res = extract(glossary, wrap("y=u+u^2", "u=v+1", "v=2"))
    assert {d.def_formula_id for d in res.defs} == {"f2", "f3"}
    assert len(res.formulae) == 1
    subs = bodies(AnnotationKind.SUBSTITUTION, res.formulae[0])
    assert sorted(subs) == ["u=v+1", "v=2"]


def cycle_ids(glossary, *rows):
    with pytest.raises(SubstitutionCycleError) as err:
        extract(glossary, wrap(*rows))
    return err.value.ids


def test_substitution_cycle_raises(glossary):
    assert cycle_ids(glossary, "x=a", "a=b+1", "b=a-1") == ("f2", "f3", "f2")


def test_unused_cycle_still_raises(glossary):
    # defs that reference each other are rejected even with no other user
    assert cycle_ids(glossary, "a=b+1", "b=a-1", "y=1") == ("f1", "f2", "f1")


def test_cycle_path_starts_at_the_revisited_def(glossary):
    assert cycle_ids(glossary, "y=c", "c=b", "b=a", "a=b") == ("f3", "f4", "f3")


def test_annotations_follow_the_walk_preorder(glossary):
    res = extract(glossary, wrap("y=u+w", "u=v+1", "w=v", "v=2"))
    assert [a.origin for a in res.formulae[0].annotations_of(AnnotationKind.SUBSTITUTION)] == [
        "f2",
        "f4",
        "f3",
    ]


def test_def_mentioning_its_own_head_is_not_a_cycle(glossary):
    res = extract(glossary, wrap("y=u", "u=u^2+1"))
    assert [d.def_formula_id for d in res.defs] == ["f2"]
    assert bodies(AnnotationKind.SUBSTITUTION, res.formulae[0]) == ["u=u^2+1"]


def test_defs_sharing_a_label_are_all_attached(glossary):
    res = extract(glossary, wrap("y=u+w", "u=2 \\label{d}", "w=3 \\label{d}"))
    assert [d.def_formula_id for d in res.defs] == ["d", "d"]
    assert [f.id for f in res.formulae] == ["f1"]
    assert bodies(AnnotationKind.SUBSTITUTION, res.formulae[0]) == ["u=2", "w=3"]



def test_row_sharing_a_defs_label_is_kept(glossary):
    res = extract(glossary, wrap("u=2 \\label{d}", "z+u", "z^2 \\label{d}"))
    assert [(d.def_formula_id, d.ordinal) for d in res.defs] == [("d", 1)]
    assert [(f.id, f.ordinal) for f in res.formulae] == [("f2", 2), ("d", 3)]
    assert res.failures == []


def test_use_from_a_row_sharing_the_defs_label_counts(glossary):
    res = extract(glossary, wrap("y=u \\label{d}", "u=2 \\label{d}"))
    assert [(d.def_formula_id, d.ordinal) for d in res.defs] == [("d", 2)]
    assert [f.ordinal for f in res.formulae] == [1]
    assert bodies(AnnotationKind.SUBSTITUTION, res.formulae[0]) == ["u=2"]


def test_rows_repeating_a_label_fail_on_their_own(glossary):
    res = extract(glossary, "\\[ x+1 \\label{d} \\]\n\\[ y+2 \\label{d} \\]\n")
    assert [(f.id, f.ordinal) for f in res.formulae] == [("d", 1)]
    assert res.failures == [
        ("d", "DuplicateTitleError: row at line 2:4 repeats the label 'd' of the row at line 1:4")
    ]
    assert res.stats.formulae == 1


_SYMBOL_HEADS = ("u", "w", "s", "\\rho", "\\theta", "h_n", "g^2", "\\sigma_k")
_FUNCTION_HEADS = ("F", "\\psi", "G_m")


def _use(rng, head):
    """One use of head, sometimes inside a group; function heads are
    sometimes named without a call."""
    if head in _FUNCTION_HEADS:
        head += "(t)" if rng.random() < 0.8 else ""
    wraps = ("{}", "\\frac{{{}}}{{2}}", "{{{}+1}}^2", "\\sqrt{{{}}}")
    return rng.choice(wraps).format(head)


def _planted_rows(rng, cycle, redefine=False):
    """One unit's rows: gen.py noise, defs whose right sides use earlier
    heads (chains and diamonds), rows that use the heads, with cycle set
    a ring of two or three defs that use each other, and with redefine
    set a second definition of one head, as a symbol or a function."""
    heads = rng.sample(_SYMBOL_HEADS, 5) + rng.sample(_FUNCTION_HEADS, 2)
    rng.shuffle(heads)
    defs = []
    for k, head in enumerate(heads):
        lhs = head + rng.choice(("(x)", "(x,y)")) if head in _FUNCTION_HEADS else head
        deps = rng.sample(heads[:k], min(k, rng.randint(0, 3)))
        defs.append(lhs + "=" + "+".join([_use(rng, d) for d in deps] + ["1"]))
    rows = [gen.formula(rng) for _ in range(rng.randint(3, 8))]
    for _ in range(rng.randint(2, 6)):
        rows.append("+".join(_use(rng, h) for h in rng.sample(heads, rng.randint(1, 3))))
    if cycle:
        ring = ("\\mu", "\\nu", "\\kappa")[: rng.randint(2, 3)]
        rows += [f"{h}={_use(rng, ring[k - 1])}-1" for k, h in enumerate(ring)]
        # reached from a planted def, from a plain row, or from nothing
        pick = rng.randrange(3)
        if pick == 0:
            defs[-1] += "+" + ring[-1]
        elif pick == 1:
            rows.append("y+" + ring[0])
    if redefine:
        head = rng.choice(heads)
        rows.append(head + rng.choice(("", "(z)")) + "=2")
    rows += defs
    rng.shuffle(rows)
    return rows


def _replaced_rows(glossary, source):
    fs = segment_formulae(source, glossary)
    for f in fs:
        sem, _ = replace_all(f.source_canonical, glossary)
        f.semantic_nodes = sem.nodes
        f.source_semantic = render(sem.nodes)
    return fs


def _fresh(f):
    """A copy of f with no annotations, so inlining leaves f as it was."""
    f = copy.copy(f)
    f.annotations = []
    return f


def _substitute(detect, inline, fs, glossary):
    fs = [_fresh(f) for f in fs]
    defs = detect(fs, glossary)
    try:
        kept = inline(fs, defs)
    except SubstitutionCycleError as exc:
        return defs, exc.ids
    return defs, [(f.id, f.annotations) for f in kept]


def test_substitutions_match_the_brute_force_reference(glossary):
    cycles = annotated = 0
    for seed in range(40):
        rng = random.Random(seed)
        source = "\\section{S}\n"
        for unit in ("A", "B"):
            rows = _planted_rows(rng, cycle=seed % 4 == 0, redefine=seed % 4 == 1)
            source += f"\\subsection{{{unit}}}\n" + "\n".join(f"\\[ {r} \\]" for r in rows) + "\n"
        fs = _replaced_rows(glossary, source)
        want = _substitute(oracle.detect_substitutions, oracle.inline_substitutions, fs, glossary)
        got = _substitute(detect_substitutions, inline_substitutions, fs, glossary)
        assert got == want, seed
        # one head, one definition
        assert len({(d.unit, d.lhs_head) for d in got[0]}) == len(got[0]), seed
        if isinstance(got[1], tuple):
            cycles += 1
        else:
            annotated += sum(len(anns) > 1 for _, anns in got[1])
    # both outcomes occur, and many formulae gain more than one annotation
    assert cycles >= 8 and annotated >= 150, (cycles, annotated)


def test_inline_substitutions_conserves_rows(glossary):
    res = extract(glossary, wrap("y=u+1", "u=2", "z=u-1"))
    assert len(res.formulae) == 2 and len(res.defs) == 1


def test_rows_with_repeated_labels_are_each_kept_once(glossary):
    # Every display row becomes exactly one formula, def or failure, and
    # the substitution stages agree with the brute-force reference.
    defs_seen = 0
    for seed in range(30):
        rng = random.Random(seed)
        rows = _planted_rows(rng, cycle=False)
        labels = rng.sample("abcdefgh", rng.randint(1, 3))
        rows = [
            r + f" \\label{{{rng.choice(labels)}}}" if rng.random() < 0.6 else r
            for r in rows
        ]
        source = wrap(*rows)
        res = extract(glossary, source)
        ordinals = [f.ordinal for f in res.formulae] + [d.ordinal for d in res.defs]
        assert len(set(ordinals)) == len(ordinals), seed
        assert len(ordinals) + len(res.failures) == len(rows), seed
        defs_seen += len(res.defs)

        fs = _replaced_rows(glossary, source)
        want = _substitute(oracle.detect_substitutions, oracle.inline_substitutions, fs, glossary)
        got = _substitute(detect_substitutions, inline_substitutions, fs, glossary)
        assert got == want, seed
    assert defs_seen >= 100, defs_seen


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


def test_keywords_and_introducers_with_capitals_match(glossary):
    src = (
        "\\section{Jacobi} The Generating function is \\[ x+1 \\label{a} \\]\n"
        "Where $0<q<1$ holds here. \\[ y=2 \\label{b} \\]\n"
    )
    res = extract_document(src, glossary, keywords=["Generating function"], introducers=["Where"])
    f = by_id(res)
    assert bodies(AnnotationKind.NAME, f["a"]) == ["Jacobi generating function"]
    assert bodies(AnnotationKind.NOTE, f["a"]) == []
    # the introducer sentence constrains the row before it, not the next
    assert bodies(AnnotationKind.CONSTRAINT, f["a"]) == ["0<q<1"]
    assert bodies(AnnotationKind.NOTE, f["b"]) == []
    res = extract_document("\\[ y=s \\] PROVIDED $|t|<1$.", _RULELESS, introducers=["Provided"])
    assert bodies(AnnotationKind.CONSTRAINT, res.formulae[0]) == ["|t|<1"]


def test_formula_without_section_gets_no_name(glossary):
    res = extract(glossary, "A definition follows.\n\\[ y=x \\]\n")
    assert bodies(AnnotationKind.NAME, res.formulae[0]) == []


def test_note_requires_three_words(glossary):
    res = extract(glossary, wrap("y=x", section="\\section{S}\nToo short.\n"))
    assert bodies(AnnotationKind.NOTE, res.formulae[0]) == []


def test_a_comment_after_a_line_break_leaks_no_note(glossary):
    prose = "\\section{S}\nA line that ends here \\\\% hidden words.\nAnd more words follow.\n"
    res = extract(glossary, wrap("y=x", section=prose))
    assert bodies(AnnotationKind.NOTE, res.formulae[0]) == [
        "A line that ends here \\\\ And more words follow."
    ]


def test_an_escaped_dollar_opens_no_math_in_prose(glossary):
    prose = "\\section{S}\nCosts \\$5 here. Next one is here.\n"
    res = extract(glossary, wrap("y=x", section=prose))
    assert bodies(AnnotationKind.NOTE, res.formulae[0]) == [
        "Costs \\$5 here.",
        "Next one is here.",
    ]



def test_the_opening_introducer_sentence_is_a_note_of_the_first_row(glossary):
    # no environment comes before the opening prose, so none takes its
    # introducer sentence as a constraint
    res = extract(glossary, "For all $n>0$ the sum is finite.\n\\[ y=x \\]\nwhere $0<q<1$.\n")
    f = res.formulae[0]
    assert bodies(AnnotationKind.NOTE, f) == ["For all $n>0$ the sum is finite."]
    assert bodies(AnnotationKind.CONSTRAINT, f) == ["0<q<1"]


def test_a_gap_cut_by_two_headings_names_the_next_row_from_its_last_part(glossary):
    res = extract(
        glossary,
        "\\section{A}\n\\[ y=x \\label{a} \\]\n"
        "where $0<q<1$. The orthogonality relation is not this row's.\n"
        "\\section{B} The recurrence relation reads here.\n"
        "\\subsection{C} The generating function reads here.\n"
        "\\[ z=x \\label{b} \\]\n",
    )
    f = by_id(res)
    assert bodies(AnnotationKind.CONSTRAINT, f["a"]) == ["0<q<1"]
    assert [a.kind for a in f["a"].annotations] == [AnnotationKind.CONSTRAINT]
    assert f["b"].annotations == [
        Annotation(AnnotationKind.NAME, "C generating function", "b")
    ]


# headings, display rows (some failing in their body, their prose or
# their replacement) and introducer, keyword and plain sentences
_PROSE_PIECES = (
    "\\section{A}\n", "\\subsection{B}\n", "\\section*{C}\n", "\\subsection{D $x$}",
    "\\[ x=1 \\]\n", "\\[ y_{k}=2, q<1 \\]\n", "$$ z=3 $$",
    "\\begin{align} a=1 \\\\ b=2, n>0 \\\\ c=3 \\end{align}\n",
    "\\begin{equation} z=3 \\label{e} \\end{equation}\n",
    "\\[ \\left( x \\]\n", "\\begin{align} \\left( x \\\\ y=2 \\end{align}\n",
    "\\[ \\mystery@@{z} \\]\n", "\\begin{align} y=1 \\\\ \\mystery@@{z} \\end{align}\n",
    "where $0<q<1$. ", "For all $n>0$ the sum is finite. ", "PROVIDED $|z|<1$. ",
    "where $\\left( q<1$ holds. ", "The orthogonality relation reads. ",
    "Generating function. ", "This follows from the binomial theorem. ",
    "Two words. ", "$x=1$ is used. ", "\n\n", "% where $a<b$.\n", "x",
)


def test_labels_mediawiki_takes_for_one_title_fail_on_their_own(glossary):
    labels = (" a ", "a", "b_c", "b  c", " ")
    res = extract(glossary, wrap(*(f"x+{k} \\label{{{label}}}" for k, label in enumerate(labels))))
    # surrounding spaces are trimmed, and a label of spaces alone is none
    assert [f.id for f in res.formulae] == ["a", "b_c", "f5"]
    assert res.failures == [
        ("a", "DuplicateTitleError: row at line 3:4 repeats the label 'a' of the row at line 2:4"),
        ("b  c", "DuplicateTitleError: row at line 5:4 repeats the label 'b  c' of the row at line 4:4"),
    ]


def test_gap_prose_matches_the_per_row_walk_reference(glossary):
    rng = random.Random(20261019)
    seen = Counter()
    kinds = (AnnotationKind.CONSTRAINT, AnnotationKind.NAME, AnnotationKind.NOTE)
    for _ in range(1200):
        source = "".join(rng.choice(_PROSE_PIECES) for _ in range(rng.randint(0, 24)))
        res = extract(glossary, source)
        want, failures = oracle.prose_walk(source, glossary)
        got = {f.ordinal: [a for a in f.annotations if a.kind in kinds] for f in res.formulae}
        assert got == {k: want[k] for k in got}, source
        # the rest repeat a label
        assert res.failures[: len(failures)] == failures, source
        assert all(m.startswith("DuplicateTitleError") for _, m in res.failures[len(failures) :])
        seen.update(a.kind for anns in got.values() for a in anns)
        seen["failures"] += len(failures)
        seen["rows"] += len(got)
    assert min(seen.values()) > 150, seen


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


def test_unbalanced_inline_math_fails_the_document(glossary):
    with pytest.raises(UnbalancedGroupError, match="unbalanced group at offset 7$"):
        extract(glossary, "Text $ {x $ and more.\n\\[ y = x \\]\n")


def test_extraction_leaves_no_cyclic_garbage(glossary, mini_source):
    # the CLI runs with the cyclic collector paused, so a reference cycle
    # built per row would never be freed
    gc.collect()
    gc.disable()
    try:
        extract(glossary, mini_source)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_rows_of_a_document_share_one_leaf_per_text(glossary):
    rows = [r"(a;q)_n+q_1", r"\Gamma(q)", r"f(q_2)"]
    doc = "".join(
        f"\\begin{{equation}} {r} \\label{{r{k}}} \\end{{equation}}\n" for k, r in enumerate(rows)
    )
    res = extract(glossary, doc)
    assert [f.stats.total for f in res.formulae] == [1, 1, 0]
    leaves = [t for f in res.formulae for t in flatten(f.source_canonical.nodes)]
    assert all(t.span is None and not t.inert for t in leaves)
    by_text: dict[str, set[int]] = {}
    for t in leaves:
        by_text.setdefault(t.text, set()).add(id(t))
    assert {"(", "q", "_"} <= by_text.keys()
    assert all(len(ids) == 1 for ids in by_text.values()), by_text
    # a shared leaf changes no formula: each converts as it does alone
    alone = [extract(glossary, f"\\[ {r} \\]").formulae[0].source_semantic for r in rows]
    assert [f.source_semantic for f in res.formulae] == alone


def test_failures_are_isolated_per_row(glossary):
    src = (DATA / "mixed_errors.tex").read_text()
    res = extract(glossary, src)
    assert [f.id for f in res.formulae] == ["e.1", "e.3"]
    assert len(res.failures) == 1
    fid, msg = res.failures[0]
    assert fid == "e.2"
    # the \left of "f(x)=\left(1+x" on line 11
    assert msg == (
        "MismatchedLeftRightError: mismatched \\left/\\right at offset 173 "
        "in the row at line 11:6"
    )


def test_row_failing_to_segment_leaks_no_note(glossary):
    res = extract(
        glossary,
        "\\section{S}\n"
        "\\begin{equation} \\left( x+1 \\text{ is a broken row. It has words in it } "
        "\\label{a}\\end{equation}\n"
        "where $0<x$.\n"
        "\\begin{equation} y=2 \\label{b}\\end{equation}\n",
    )
    assert [fid for fid, _ in res.failures] == ["a"]
    assert [f.id for f in res.formulae] == ["b"]
    assert res.formulae[0].annotations == []


def test_row_failing_in_its_prose_leaks_no_note(glossary):
    res = extract(
        glossary,
        "\\section{S}\n"
        "\\begin{equation} y=1 \\text{ for all. It has words in it } \\label{a}\\end{equation}\n"
        "where $\\left( q<1$ holds.\n"
        "\\begin{equation} y=2 \\label{b}\\end{equation}\n",
    )
    # the failure names the row, not an offset inside the $...$ snippet
    assert res.failures == [
        (
            "a",
            "MismatchedLeftRightError: mismatched \\left/\\right in the prose "
            "after the row at line 2:18",
        )
    ]
    assert [f.id for f in res.formulae] == ["b"]
    assert res.formulae[0].annotations == []


def test_an_unknown_semantic_macro_fails_its_row_only(glossary):
    res = extract(
        glossary,
        "\\section{S}\n"
        "\\begin{equation} \\mystery@@{z} \\label{a}\\end{equation}\n"
        "\\begin{equation} y=\\sin@@{z}, \\EulerGamma@@ x>0 \\label{b}\\end{equation}\n"
        "\\begin{equation} \\Gamma(z) \\label{c}\\end{equation}\n",
    )
    assert res.failures == [
        (
            "a",
            "UnknownSemanticMacroError: unknown semantic macro \\mystery "
            "for the row at line 2:18",
        ),
        (
            "b",
            "UnknownSemanticMacroError: \\EulerGamma occurrence does not match its "
            "glossary signature for the row at line 3:18",
        ),
    ]
    assert [(f.id, f.source_semantic) for f in res.formulae] == [("c", "\\EulerGamma@{z}")]


def test_name_goes_to_the_first_row_that_converts(glossary):
    res = extract(
        glossary,
        "\\section{Jacobi}\nThe orthogonality relation reads.\n"
        "\\begin{align} \\left( x \\label{a} \\\\ y=2 \\label{b} \\\\ z=3 \\label{c} \\end{align}\n",
    )
    assert [fid for fid, _ in res.failures] == ["a"]
    f = by_id(res)
    assert bodies(AnnotationKind.NAME, f["b"]) == ["Jacobi orthogonality relation"]
    assert f["c"].annotations == []


def _odd_tree(rng, depth=2):
    """Random nodes: brackets that need not pair, commas and relationals,
    and nested groups."""
    texts = ("(", ")", "[", "]", ",", "=", "<", ">", "\\le", "\\in", "\\neq", "x", "\\alpha")
    out = []
    for _ in range(rng.randint(0, 12)):
        if rng.random() < 0.1 and depth:
            out.append(Group(tuple(_odd_tree(rng, depth - 1))))
        else:
            out.append(Token(rng.choice(texts), inert=rng.random() < 0.05))
    return out


def test_top_level_scans_match_the_generator_reference(glossary):
    rng = random.Random(20261019)
    rows = [canonicalize_string(s).nodes for s in gen.corpus(seed=13, count=400)]
    trees = [
        *rows,
        *(replace_all(r, glossary)[0].nodes for r in rows),
        *(_odd_tree(rng) for _ in range(3000)),
    ]
    clauses = equations = 0
    for nodes in trees:
        got = _split_trailing(nodes)
        assert got == oracle.split_trailing(nodes), nodes
        eq = _top_level_equation(nodes)
        assert eq == oracle.top_level_equation(nodes), nodes
        clauses += bool(got[1])
        equations += eq is not None
    assert clauses > 300 and equations > 300


# ------------------------------------------------- per-document tables


_REPEATED_ROWS = (
    # (row body, where-sentence after it); the clause and the sentence
    # repeat, and a clause and a sentence that fail repeat too
    ("y_{k} = x, (a;q)_n>0", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
    ("y_{k} = x, (a;q)_n>0", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
    (r"y_{k} = x, \nosuch@{q}<1", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
    ("y_{k} = x, (a;q)_n>0", r"where $\left( n<1$."),
    ("y_{k} = x, (a;q)_n>0", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
    (r"y_{k} = x, \nosuch@{q}<1", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
    ("y_{k} = x, (a;q)_n>0", r"where $\left( n<1$."),
    ("y_{k} = x, (a;q)_n>0", r"where $n=0,1,\ldots,N$ and $\Gamma(z)\ne 0$."),
)


def _row_lines(k, body, sentence):
    return [f"\\[ {body.replace('{k}', str(k))} \\label{{r{k}}} \\]", sentence]


def test_repeated_constraints_convert_as_each_row_alone(glossary, monkeypatch):
    import semtex.metadata

    blocks = [_row_lines(k, *row) for k, row in enumerate(_REPEATED_ROWS)]
    head = ["\\section{S}"]
    whole = extract_document("\n".join(head + sum(blocks, [])), glossary)
    got = {f.id: (f.annotations, f.stats) for f in whole.formulae}
    failed = dict(whole.failures)
    assert len(got) == 4 and len(failed) == 4
    for k, block in enumerate(blocks):
        # the row alone, at the same line and column
        lines = sum((b if j == k else ["", ""] for j, b in enumerate(blocks)), [])
        alone = extract_document("\n".join(head + lines), glossary)
        fid = f"r{k}"
        if alone.failures:
            assert alone.failures == [(fid, failed[fid])], k
        else:
            (f,) = alone.formulae
            assert got[fid] == (f.annotations, f.stats), k
            assert f.stats.total == 2
    # each distinct clause is replaced once, except one that fails,
    # which every row holding it replaces again
    calls = []
    real = semtex.metadata._replace
    monkeypatch.setattr(
        semtex.metadata, "_replace", lambda nodes, *rest: calls.append(nodes) or real(nodes, *rest)
    )
    extract_document("\n".join(head + sum(blocks, [])), glossary)
    cores = len(_REPEATED_ROWS) - 2  # the two rows failing in their prose reach no core
    assert len(calls) == cores + 3 + 2
    # each distinct gap text is split once, and each distinct
    # where-sentence canonicalized once, except the one that fails,
    # which every row after it canonicalizes again
    texts, snippets = _count_calls(monkeypatch, "_sentences", "canonicalize_string")
    extract_document("\n".join(head + sum(blocks, [])), glossary)
    assert len(texts) == len(set(texts)) == 5
    assert snippets == [r"n=0,1,\ldots,N", r"\Gamma(z)\ne 0", r"\left( n<1", r"\left( n<1"]


def _count_calls(monkeypatch, *names):
    """Patch each named function of semtex.metadata to record its first
    argument in a list of its own; returns the lists."""
    import semtex.metadata

    out = []
    for name in names:
        seen, real = [], getattr(semtex.metadata, name)

        def counting(x, *rest, seen=seen, real=real, **kw):
            seen.append(x)
            return real(x, *rest, **kw)

        monkeypatch.setattr(semtex.metadata, name, counting)
        out.append(seen)
    return out


def test_the_shared_work_of_rows_is_kept_for_one_call_only(glossary, monkeypatch):
    doc = (
        "\\section{S}\n"
        "The generating function and orthogonality relation hold.\n"
        "\\[ y = x, (a;q)_n>0 \\label{a} \\]\n"
        "where $0<q\\,<1$. Given $n\\ge 0$.\n"
    )
    plain = loads_glossary('{"rules": [], "canonicalization": {"spacing_tokens": []}}')
    first = (glossary, DEFAULT_KEYWORDS, DEFAULT_INTRODUCERS)
    second = (plain, ["orthogonality"], ["where", "given"])
    names = ("_sentences", "_match_keyword", "canonicalize_string", "_replace")
    calls = _count_calls(monkeypatch, *names)
    got, made = [], []
    # the first call again last: a cache that outlived its call would
    # answer it, or the second, without the work
    for g, keywords, introducers in (first, second, first):
        for seen in calls:
            seen.clear()
        (f,) = extract_document(doc, g, keywords=keywords, introducers=introducers).formulae
        got.append((bodies(AnnotationKind.NAME, f), bodies(AnnotationKind.CONSTRAINT, f)))
        made.append([len(seen) for seen in calls])
    assert got == [
        (["S generating function"], [r"\qPochhammer{a}{q}@{n}>0", "0<q<1"]),
        (["S orthogonality relation"], ["(a;q)_n>0", r"0<q\,<1", r"n\ge0"]),
        (["S generating function"], [r"\qPochhammer{a}{q}@{n}>0", "0<q<1"]),
    ]
    # 3 gap texts, the sentence before the row, 1 or 2 snippets, and a
    # core and 2 or 3 clauses
    assert made == [[3, 1, 1, 3], [3, 1, 2, 4], [3, 1, 1, 3]]


def test_rows_after_identical_prose_get_their_own_names_and_notes(glossary):
    prose = "Orthogonality relation. This holds for every real parameter.\n"
    doc = (
        "\\section{Jacobi}\n"
        + prose + "\\[ x+1 \\label{a} \\]\n"
        + prose + "\\[ x+2 \\label{b} \\]\n"
    )
    fs = by_id(extract_document(doc, glossary))
    a, b = fs["a"].annotations, fs["b"].annotations
    assert [(x.kind, x.body) for x in a] == [
        (AnnotationKind.NAME, "Jacobi orthogonality relation"),
        (AnnotationKind.NOTE, "This holds for every real parameter."),
    ]
    assert [(x.kind, x.body) for x in b] == [(x.kind, x.body) for x in a]
    assert {x.origin for x in a} == {"a"} and {x.origin for x in b} == {"b"}
    a.append(Annotation(AnnotationKind.NOTE, "added", "a"))
    assert len(b) == 2 and fs["b"].annotations_of(AnnotationKind.NOTE)[0].origin == "b"


_SUBSECTION = r"""\subsection{Family}
The generating function reads as follows. It converges near the origin.
\begin{equation}\label{g{k}}
\Gamma(z)\,(a;q)_n = \sum_{n} y_{k}, \quad |t|<1
\end{equation}
where $0<q<1$ and $n \ge 0$.

Orthogonality relation.
\begin{equation}\label{d{k}}
y_{k} = \sin x + 1
\end{equation}
Another step, taken with care.
\begin{align}
f(x) &= y_{k} + \Gamma(x) \label{u{k}}\\
h &= \cos x % proof: by parts
\label{v{k}}
\end{align}
for $\Re a > 0$.
"""


def test_a_repeated_subsection_annotates_each_copy_as_alone(glossary):
    head = "\\section{Big q-Jacobi}\n"
    copies = [_SUBSECTION.replace("{k}", f"{k}") for k in range(3)]
    whole = extract_document(head + "".join(copies), glossary)
    assert not whole.failures
    got = {f.id: f for f in whole.formulae}
    assert len(got) == 9 and len(whole.defs) == 3
    for k, copy_k in enumerate(copies):
        alone = extract_document(head + copy_k, glossary)
        assert not alone.failures and len(alone.formulae) == 3, k
        for f in alone.formulae:
            g = got[f.id]
            # the copy's own labels are its ids, so origins match too
            assert g.annotations == f.annotations, (k, f.id)
            assert (g.source_semantic, g.stats) == (f.source_semantic, f.stats), (k, f.id)
        kinds = {a.kind for f in alone.formulae for a in f.annotations}
        assert kinds == set(AnnotationKind), k


def _at_rows_glossary(glossary):
    """The builtin glossary with \\lparen spelt @ in canonical trees."""
    data = json.loads(builtin_glossary_path().read_text(encoding="utf-8"))
    data["canonicalization"]["delimiter_classes"].append(
        {"canonical": "@", "variants": ["\\lparen"]}
    )
    return loads_glossary(json.dumps(data))


def test_skipping_the_premark_of_rows_without_at_is_exact(glossary):
    plain = [r for r in gen.corpus(seed=24, count=40) if "@" not in r]
    special = [
        "x+\\Gamma(z) % a@b\n",
        "\\Gamma(z) \\label{a@b}",
        "\\EulerGamma@{x}+\\Gamma(y)",
        "\\Foo{x}@{y}+\\Gamma(y)",
        "\\Foo@{y}+\\Gamma(y)",
    ]
    # with \\lparen spelt @, these rows hold an @ token but no @ character
    mapped = ["\\Foo\\lparen{y}+\\Gamma(y)", "\\EulerGamma\\lparen{x}+\\Gamma(y)"]
    cases = ((glossary, plain + special), (_at_rows_glossary(glossary), plain + special + mapped))
    for g, rows in cases:
        doc = "\\section{S}\n" + "".join(f"\\[ {r} \\]\n" for r in rows)
        result = extract_document(doc, g)
        done = {f.ordinal: f for f in result.formulae}
        failed = dict(result.failures)
        checked = set()
        for f in segment_formulae(doc, g):
            if _split_trailing(f.source_canonical.nodes)[1]:
                continue  # a row with clauses counts them too
            checked.add(f.ordinal)
            try:
                want, stats = replace_all(f.source_canonical, g)
            except UnknownSemanticMacroError as exc:
                assert f.ordinal not in done, f.id
                assert failed[f.id].startswith(f"UnknownSemanticMacroError: {exc} for"), f.id
                continue
            got = done[f.ordinal]
            assert [(t.text, t.inert) for t in flatten(got.semantic_nodes)] == [
                (t.text, t.inert) for t in flatten(want.nodes)
            ], f.id
            assert (got.source_semantic, got.stats) == (render(want.nodes), stats), f.id
        assert set(range(len(plain) + 1, len(rows) + 1)) <= checked
        assert len(checked) > 30
        # \\Foo{x}@ and \\Foo@ fail with either glossary, \\Foo\\lparen with
        # the second: the one-leaf group before an @ keeps its braces
        assert len(failed) == (2 if g is glossary else 3)


# ------------------------------------------------------------ head trie


def _nodes(text):
    return canonicalize_string(text).nodes


def _heads_on_one_base(count):
    """count symbol heads \\Omega_{k} on one base, and plain \\Omega."""
    return [("u", _nodes(f"\\Omega_{{{k}}}"), False) for k in range(1, count + 1)] + [
        ("u", _nodes("\\Omega"), False)
    ]


# token texts the rows below are drawn from; brace groups nest
_ROW_SOUP = (
    "\\Omega", "\\Omega", "_", "_", "1", "2", "12", "{12}", "{1}", "(", ")", "F", "G", "x",
    "+", "^", "m", "\\Gamma(", "(a;q)_n",
)


def _row_text(rng, depth=2):
    parts = []
    for _ in range(rng.randint(1, 8)):
        if depth and rng.random() < 0.2:
            parts.append("{" + _row_text(rng, depth - 1) + "}")
        else:
            parts.append(rng.choice(_ROW_SOUP))
    text = " ".join(parts)
    # balance the parentheses a \Gamma( opened
    return text + ")" * text.count("\\Gamma(")


def test_head_trie_matches_the_bucketed_reference(glossary):
    omega, sub, one = _nodes("\\Omega_1")
    heads = [
        # prefix runs, runs that end in a group, and one base in two units
        ("u", _nodes("\\Omega"), False),
        ("u", _nodes("\\Omega_1"), False),
        ("u", _nodes("\\Omega_{12}"), False),
        ("u", _nodes("\\Omega_2"), False),
        ("v", _nodes("\\Omega_1"), False),
        # function heads, also on a base a symbol head shares
        ("u", _nodes("F"), True),
        ("u", _nodes("\\Omega"), True),
        ("v", _nodes("G_m"), True),
        ("v", _nodes("G_m"), False),
        # a run repeated
        ("u", _nodes("\\Omega_2"), False),
    ] + _heads_on_one_base(400)
    find = _head_finder(heads)
    want = oracle.head_finder(heads)
    rng = random.Random(19)
    found = 0
    for _ in range(1500):
        text = _row_text(rng)
        tree = canonicalize_string(text)
        # replacement makes inert groups, such as \EulerGamma@{...}
        nodes = replace_all(tree, glossary)[0].nodes if rng.random() < 0.5 else tree.nodes
        if rng.random() < 0.1:
            nodes = (*nodes, omega, sub, one)
        for unit in ("u", "v", "w"):
            hits = find(nodes, unit, render(nodes))
            assert hits == want(nodes, unit, render(nodes)), (text, unit)
            found += len(hits)
    assert found > 1500, found


def test_head_search_compares_no_more_tokens_as_defs_share_a_base(monkeypatch):
    uses = ("\\Omega_{{{k}}}+x", "\\frac{{\\Omega_{{{k}}}}}{{2}}", "F(\\Omega)+\\Omega_{k}")
    rows = [_nodes(use.format(k=k)) for k in range(1, 41) for use in uses]

    def comparisons(count):
        heads = _heads_on_one_base(count) + [("u", _nodes("F"), True)]
        find = _head_finder(heads)
        calls = []
        real_eq, real_hash = Token.__eq__, Token.__hash__
        with monkeypatch.context() as m:
            m.setattr(Token, "__eq__", lambda a, b: calls.append(1) or real_eq(a, b))
            m.setattr(Token, "__hash__", lambda a: calls.append(1) or real_hash(a))
            hits = [find(nodes, "u", render(nodes)) for nodes in rows]
        return len(calls), [[heads[k][1:] for k in row] for row in hits]

    few, hits_few = comparisons(40)
    many, hits_many = comparisons(400)
    assert hits_few == hits_many and all(hits_few)
    assert many <= few, (few, many)
