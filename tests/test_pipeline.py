"""Config handling, full runs, and the rendering-service client."""

import contextlib
import json
import gzip
import os
import random
import re
import socket
import struct
import threading
import time
import zlib
from http.server import BaseHTTPRequestHandler

import pytest

import gen
from conftest import DATA, TLS_CERT, assert_lexed_once_in_windows, prose_document, serving
from semtex.canonicalize import canonicalize
from semtex.engine import ReplacementStats, replace_all
from semtex.errors import (
    ConfigInvalidError,
    MismatchedLeftRightError,
    SemtexError,
    ServiceRejectedError,
    ServiceUnreachableError,
    UnbalancedGroupError,
    UnknownSemanticMacroError,
    UnterminatedEnvironmentError,
)
from semtex.glossary import builtin_glossary, builtin_glossary_path, loads_glossary
from semtex.lexer import extract_math, render
from semtex.metadata import _line_col
from semtex.mockserver import _Handler, response_for, start_server
from semtex.pages import SiteInfo
from semtex.pipeline import (
    _WRITE_SLICE,
    PipelineConfig,
    expand_inputs,
    load_config,
    replace_files,
    replace_text,
    request_mathml,
    run_pipeline,
    validate_config,
    verify_render,
)


def write_config(tmp_path, **overrides):
    cfg = {"input": str(DATA / "kls_mini.tex")}
    cfg.update(overrides)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    return p


# -------------------------------------------------------------------- config


def test_load_config_full(tmp_path):
    p = write_config(
        tmp_path,
        input=[str(DATA / "kls_mini.tex"), str(DATA / "mixed_errors.tex")],
        bibliography=str(DATA / "bib.json"),
        output="out.xml",
        report="report.txt",
        corpus_prefix="KLS",
        citation_key="KLS",
        keywords=["definition"],
        introducers=["where"],
        endpoint="http://127.0.0.1:9999/",
        workers=4,
        siteinfo={"sitename": "Test", "timestamp": "2011-02-03T00:00:00Z"},
    )
    cfg = load_config(p)
    assert [q.name for q in cfg.inputs] == ["kls_mini.tex", "mixed_errors.tex"]
    assert cfg.bibliography_path == DATA / "bib.json"
    assert cfg.output_path.name == "out.xml"
    assert cfg.keywords == ("definition",)
    assert cfg.introducers == ("where",)
    assert cfg.workers == 4
    assert cfg.siteinfo.sitename == "Test"
    assert cfg.siteinfo.dbname == "drmf"  # untouched fields keep defaults


def test_load_config_single_input_string(tmp_path):
    cfg = load_config(write_config(tmp_path))
    assert len(cfg.inputs) == 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"no_such_key": 1},
        {"workers": 0},
        {"workers": "2"},
        {"workers": True},
        {"keywords": "definition"},
        {"output": 7},
        {"siteinfo": {"sitename": "x", "nope": "y"}},
        {"siteinfo": "x"},
        {"siteinfo": {"sitename": 5}},
        {"siteinfo": {"lang": None}},
        # characters XML 1.0 forbids, in values that go into the dump
        {"siteinfo": {"sitename": "a\x02"}},
        {"corpus_prefix": "K\x01"},
        {"citation_key": "\ufffe"},
        {"input": 5},
    ],
)
def test_load_config_rejects_bad_values(tmp_path, overrides):
    with pytest.raises(ConfigInvalidError):
        load_config(write_config(tmp_path, **overrides))


def test_load_config_rejects_bad_json(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    with pytest.raises(ConfigInvalidError):
        load_config(p)
    p.write_text('["a"]')
    with pytest.raises(ConfigInvalidError):
        load_config(p)


def test_validate_config_checks_paths(tmp_path):
    cfg = PipelineConfig(inputs=[tmp_path / "missing.tex"])
    with pytest.raises(ConfigInvalidError):
        validate_config(cfg)


@pytest.mark.parametrize(
    "endpoint", ["ftp://x/", "127.0.0.1:8080", "http://", "http://[::1/", "http://h:port/"]
)
def test_validate_config_checks_endpoint(endpoint):
    cfg = PipelineConfig(inputs=[DATA / "kls_mini.tex"], endpoint=endpoint)
    with pytest.raises(ConfigInvalidError):
        validate_config(cfg)


@pytest.mark.parametrize(
    "settings",
    [{"corpus_prefix": "K\x01"}, {"citation_key": "\ufffe"}, {"siteinfo": SiteInfo(sitename="a\x02")}],
)
def test_validate_config_checks_dump_text_of_a_config_built_in_code(settings):
    cfg = PipelineConfig(inputs=[DATA / "kls_mini.tex"], **settings)
    with pytest.raises(ConfigInvalidError, match="XML 1.0"):
        run_pipeline(cfg, write=False)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"endpoint": 5}, "endpoint must be a string"),
        ({"keywords": "abc"}, "keywords must be a list of strings"),
        ({"introducers": "where"}, "introducers must be a list of strings"),
        ({"workers": True}, "workers must be a positive integer"),
        ({"corpus_prefix": None}, "corpus_prefix must be a string"),
    ],
)
def test_validate_config_reads_every_setting_of_a_config_built_in_code(
    tmp_path, settings, message
):
    """A config built in code is read as a config file is: a value its
    key's reader refuses is a ConfigInvalidError, not a crash or a
    silent misreading, in convert and in replace."""
    cfg = PipelineConfig(inputs=[DATA / "kls_mini.tex"], **settings)
    with pytest.raises(ConfigInvalidError, match=message):
        run_pipeline(cfg, write=False)
    with pytest.raises(ConfigInvalidError, match=message):
        list(replace_files(cfg, tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_validate_config_keeps_what_the_readers_give(tmp_path):
    """Lists, strings and a siteinfo mapping set in code become what
    load_config would make of them, so the run reads them as it would
    read a config file's."""
    cfg = PipelineConfig(
        inputs=[str(DATA / "kls_mini.tex")],
        bibliography_path=str(DATA / "bib.json"),
        keywords=["Definition"],
        siteinfo={"sitename": "S"},
    )
    validate_config(cfg)
    assert cfg.bibliography_path == DATA / "bib.json"
    assert cfg.keywords == ("Definition",)
    assert cfg.siteinfo == SiteInfo(sitename="S")
    assert "<sitename>S</sitename>" in run_pipeline(cfg, write=False).dump


def test_expand_inputs(tmp_path):
    (tmp_path / "b.tex").write_text("")
    (tmp_path / "a.tex").write_text("")
    (tmp_path / "c.txt").write_text("")
    got = expand_inputs([tmp_path, DATA / "bib.json"])
    assert [p.name for p in got] == ["a.tex", "b.tex", "bib.json"]


# ----------------------------------------------------------------- full runs


def mini_config(**kw):
    base = dict(
        inputs=[DATA / "kls_mini.tex"],
        bibliography_path=DATA / "bib.json",
    )
    base.update(kw)
    return PipelineConfig(**base)


def test_run_pipeline_mini(tmp_path):
    cfg = mini_config(
        output_path=tmp_path / "dump.xml", report_path=tmp_path / "report.txt"
    )
    result = run_pipeline(cfg)
    assert result.exit_code == 0
    assert result.failures == []
    assert len(result.pages) == 28
    assert len(result.defs) == 2
    assert (tmp_path / "dump.xml").read_text() == result.dump
    assert (tmp_path / "report.txt").read_text() == result.report
    assert result.report.startswith("pages: 28\n")


@pytest.mark.parametrize(
    "single", [str(DATA / "kls_mini.tex"), DATA / "kls_mini.tex"], ids=["str", "Path"]
)
def test_a_single_input_path_is_one_input(single):
    cfg = PipelineConfig(inputs=single, bibliography_path=DATA / "bib.json")
    assert cfg.inputs == [DATA / "kls_mini.tex"]
    assert run_pipeline(cfg, write=False).dump == (DATA / "golden_dump.xml").read_text()
    assert PipelineConfig(inputs=(single, single)).inputs == [DATA / "kls_mini.tex"] * 2


class _FsPath:
    """An os.PathLike that is no pathlib.Path."""

    def __init__(self, path):
        self.path = os.fspath(path)

    def __fspath__(self):
        return self.path


def test_paths_set_after_construction_are_read_as_at_construction():
    """Any path may be a str or an os.PathLike, and inputs one path or a
    list or tuple of paths, whether given to PipelineConfig or set on it
    later."""
    golden = (DATA / "golden_dump.xml").read_text()
    built = PipelineConfig(
        inputs=(_FsPath(DATA / "kls_mini.tex"),),
        glossary_path=_FsPath(builtin_glossary_path()),
        bibliography_path=_FsPath(DATA / "bib.json"),
    )
    assert built.inputs == [DATA / "kls_mini.tex"]
    assert built.glossary_path == builtin_glossary_path()
    assert run_pipeline(built, write=False).dump == golden
    cfg = PipelineConfig()
    cfg.inputs = (str(DATA / "kls_mini.tex"),)
    cfg.glossary_path = _FsPath(builtin_glossary_path())
    cfg.bibliography_path = _FsPath(DATA / "bib.json")
    assert run_pipeline(cfg, write=False).dump == golden
    cfg.inputs = _FsPath(DATA / "kls_mini.tex")
    assert run_pipeline(cfg, write=False).dump == golden


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"inputs": 5}, "input must be a string or list of strings"),
        ({"inputs": [DATA / "kls_mini.tex", 5]}, "input must be a string or list of strings"),
        ({"inputs": (_FsPath(b"a.tex"),)}, "input must be a string or list of strings"),
        ({"glossary_path": 5}, "glossary must be a string"),
        ({"report_path": b"r.txt"}, "report must be a string"),
        ({"output_path": _FsPath(b"d.xml")}, "output must be a string"),
    ],
)
def test_a_path_setting_that_is_no_path_is_a_config_error(settings, message):
    with pytest.raises(ConfigInvalidError, match=f"^{message}$"):
        PipelineConfig(**settings)


def test_a_dump_of_several_slices_is_written_as_it_is_returned(tmp_path):
    rng = random.Random(29)
    rows = [
        f"\\[ {gen.formula(rng)} \\quad \\text{{f\u00fcr \u2019{k}\u2019}} \\label{{e.{k}}} \\]\n"
        for k in range(300)
    ]
    doc = tmp_path / "big.tex"
    doc.write_text("\\section{S}\n" + "".join(rows), encoding="utf-8")
    cfg = PipelineConfig(
        inputs=[doc], output_path=tmp_path / "dump.xml", report_path=tmp_path / "report.txt"
    )
    result = run_pipeline(cfg)
    # several slices, and characters that UTF-8 writes in more than a byte
    assert len(result.dump) > 3 * _WRITE_SLICE and "\u2019" in result.dump
    assert (tmp_path / "dump.xml").read_bytes() == result.dump.encode("utf-8")
    assert (tmp_path / "report.txt").read_bytes() == result.report.encode("utf-8")


def test_golden_outputs():
    result = run_pipeline(mini_config(), write=False)
    assert result.dump == (DATA / "golden_dump.xml").read_text()
    assert result.report == (DATA / "golden_report.txt").read_text()


def test_run_pipeline_is_deterministic():
    a = run_pipeline(mini_config(), write=False)
    b = run_pipeline(mini_config(), write=False)
    assert a.dump == b.dump
    assert a.report == b.report


def test_worker_count_does_not_change_output():
    inputs = [DATA / "kls_mini.tex", DATA / "mixed_errors.tex"]
    one = run_pipeline(PipelineConfig(inputs=inputs, bibliography_path=DATA / "bib.json", workers=1), write=False)
    eight = run_pipeline(PipelineConfig(inputs=inputs, bibliography_path=DATA / "bib.json", workers=8), write=False)
    assert one.dump == eight.dump
    assert one.report == eight.report


def test_files_are_converted_on_the_calling_thread(monkeypatch):
    import semtex.pipeline

    real = semtex.pipeline.extract_document
    threads = []

    def recording(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(semtex.pipeline, "extract_document", recording)
    inputs = [DATA / "kls_mini.tex", DATA / "mixed_errors.tex"]
    run_pipeline(
        PipelineConfig(inputs=inputs, bibliography_path=DATA / "bib.json", workers=4),
        write=False,
    )
    assert threads == [threading.get_ident()] * 2


def test_row_failure_keeps_run_alive():
    result = run_pipeline(
        PipelineConfig(inputs=[DATA / "mixed_errors.tex"], bibliography_path=DATA / "bib.json"),
        write=False,
    )
    assert result.exit_code == 0
    assert [f.id for f in result.formulae] == ["e.1", "e.3"]
    assert len(result.failures) == 1
    assert result.failures[0][0] == "e.2"
    assert "failures: 1" in result.report


def test_file_failure_sets_exit_code():
    result = run_pipeline(
        PipelineConfig(inputs=[DATA / "broken.tex"], bibliography_path=DATA / "bib.json"),
        write=False,
    )
    assert result.exit_code == 1
    assert result.pages == []
    assert "UnbalancedGroup" in result.failures[0][1]


def test_multiple_files_prefix_ids():
    inputs = [DATA / "kls_mini.tex", DATA / "mixed_errors.tex"]
    result = run_pipeline(
        PipelineConfig(inputs=inputs, bibliography_path=DATA / "bib.json"), write=False
    )
    ids = [f.id for f in result.formulae]
    assert "kls_mini:1.1.1" in ids
    assert "mixed_errors:e.1" in ids
    assert result.failures[0][0] == "mixed_errors:e.2"
    titles = [p.title for p in result.pages]
    assert len(titles) == len(set(titles)) == 30


def test_inputs_sharing_a_stem_prefix_ids_with_their_paths(tmp_path):
    files = {
        "a/ch.tex": "\\[ x+1 \\label{d} \\]\n",
        "b/ch.tex": "\\[ y+2 \\label{d} \\]\n\\[ \\left( z \\label{e} \\]\n",
        "b/sub/ch.tex": "\\[ z+3 \\label{d} \\]\n",
        "c/intro.tex": "\\[ w+4 \\label{d} \\]\n",
    }
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    result = run_pipeline(
        PipelineConfig(inputs=[tmp_path / name for name in files]), write=False
    )
    assert result.exit_code == 0
    assert [f.id for f in result.formulae] == ["a/ch:d", "b/ch:d", "b/sub/ch:d", "intro:d"]
    assert [fid for fid, _ in result.failures] == ["b/ch:e"]
    titles = [p.title for p in result.pages]
    assert len(set(titles)) == 4


def test_empty_input_list():
    result = run_pipeline(PipelineConfig(), write=False)
    assert result.exit_code == 0
    assert result.report.startswith("pages: 0\n")


def test_default_bibliography_is_stub():
    result = run_pipeline(PipelineConfig(inputs=[DATA / "mixed_errors.tex"]), write=False)
    assert result.exit_code == 0
    assert "Equation (e.1) of" in result.pages[0].wikitext


# ------------------------------------------------------------- text replace


def test_replace_text_touches_every_span(glossary):
    source = "Let $\\Gamma(z)$ satisfy\n\\[ \\sin z = y \\]\ndone."
    out, stats = replace_text(source, glossary)
    assert "\\EulerGamma@{z}" in out
    assert "\\sin@@{z}" in out
    assert out.startswith("Let $") and out.endswith("done.")
    assert stats.formulae == 2
    assert stats.total == 2


def test_replace_text_without_math_is_identity(glossary):
    source = "no math here at all\n"
    assert replace_text(source, glossary) == (source, stats_zero())


@pytest.mark.parametrize("eol", ["\r\n", "\n"])
def test_replace_keeps_the_line_endings_of_its_input(tmp_path, eol):
    source = eol.join(
        [
            "\\section{Gamma}",
            "Let $\\Gamma(z)$ hold, % a note",
            "\\begin{align}",
            "\\sin(x) \\label{a} \\\\",
            "\\cos(x) + 1 \\label{b}",
            "\\end{align}",
            "\\[ \\Gamma(z)",
            "+ 1 \\]",
            "",
            "done.",
            "",
        ]
    )
    doc = tmp_path / "doc.tex"
    doc.write_bytes(source.encode("utf-8"))
    done = list(replace_files(PipelineConfig(inputs=[doc]), tmp_path / "out"))
    assert [name for name, _ in done] == ["doc.tex"]
    written = (tmp_path / "out" / "doc.tex").read_bytes().decode("utf-8")

    def outside(text):
        cuts = [0, *(x for m in extract_math(text) for x in m.span), len(text)]
        return [text[a:b] for a, b in zip(cuts[::2], cuts[1::2])]

    assert written != source
    assert outside(written) == outside(source)


def stats_zero():
    return ReplacementStats.combine([])


def composed_replace(source, glossary):
    """replace_text as the public steps compose it: extract every span,
    canonicalize its body, naming the line:col of a \\left/\\right fault,
    then replace and render it in place."""
    parts, pieces, cursor = [], [], 0
    for ms in extract_math(source):
        try:
            tree = canonicalize(list(ms.body), glossary.settings)
        except MismatchedLeftRightError as exc:
            where = _line_col(source, ms.span[0] if exc.position is None else exc.position)
            raise MismatchedLeftRightError(exc.position, f"{exc} in the span at line {where}")
        sem, stats = replace_all(tree, glossary)
        parts.append(stats)
        pieces += [source[cursor : ms.span[0]], render(sem.nodes)]
        cursor = ms.span[1]
    pieces.append(source[cursor:])
    return "".join(pieces), ReplacementStats.combine(parts)


def outcome(rewrite, source, glossary):
    try:
        return rewrite(source, glossary)
    except SemtexError as exc:
        return type(exc), str(exc)


def mixed_documents(seed, count):
    """Documents of $...$, \\[...\\] and align rows with labels; some
    begin with a row holding a lone \\left, some end in an unterminated $."""
    rng = random.Random(seed)
    docs = []
    for _ in range(count):
        parts = []
        for _ in range(rng.randint(1, 5)):
            pick = rng.randrange(3)
            if pick == 0:
                parts.append(f"where ${gen.formula(rng)}$ holds.\n")
            elif pick == 1:
                parts.append(f"\\[ {gen.formula(rng)} \\label{{b.{rng.randrange(5)}}} \\]\n")
            else:
                rows = [f"{gen.formula(rng)} \\label{{a.{k}}}" for k in range(rng.randint(1, 3))]
                parts.append("\\begin{align}\n" + " \\\\\n".join(rows) + "\n\\end{align}\n")
        if rng.random() < 0.1:
            parts.insert(0, "\\[ \\left( x \\]\n")
        if rng.random() < 0.1:
            parts.append("and $x")
        docs.append("".join(parts))
    return docs


@pytest.mark.parametrize("name", ["kls_mini.tex", "mixed_errors.tex", "broken.tex"])
def test_replace_text_equals_the_public_composition_on_fixtures(glossary, name):
    source = (DATA / name).read_text(encoding="utf-8")
    got = outcome(replace_text, source, glossary)
    assert got == outcome(composed_replace, source, glossary)
    assert (got[0] is UnbalancedGroupError) == (name == "broken.tex")


def test_replace_text_equals_the_public_composition_on_mixed_documents(glossary):
    kinds = set()
    for source in mixed_documents(12, 200):
        got = outcome(replace_text, source, glossary)
        assert got == outcome(composed_replace, source, glossary), source
        kinds.add(got[0] if isinstance(got[0], type) else str)
    # an unterminated $ after a lone \left raises as extract_math does,
    # before any span is canonicalized
    assert kinds == {str, MismatchedLeftRightError, UnterminatedEnvironmentError}


def test_replace_text_lexes_only_math_and_mark_windows_once_and_builds_no_token(
    glossary, mini_source, lexed, monkeypatch
):
    import semtex.lexer

    def no_tokens(*args):
        raise AssertionError("the source was lexed to Tokens")

    monkeypatch.setattr(semtex.lexer, "_tokens", no_tokens)
    out, stats = replace_text(mini_source, glossary)
    assert stats.total == 56 and out != mini_source
    docs = [mini_source, prose_document(1), prose_document(10)]
    for source in docs[1:]:
        replace_text(source, glossary)
    for source in docs:
        assert_lexed_once_in_windows(source, lexed)
    assert list(lexed) == docs
    # however much prose a document holds, none of it is lexed
    assert len(lexed[docs[1]]) == len(lexed[docs[2]]) > 0


def test_replace_text_premarks_only_spans_that_may_hold_a_semantic_macro(
    glossary, mini_source, monkeypatch
):
    """The premark walk runs on a span only when its canonical tree holds
    an @ leaf: not for an @ in a comment or a label, nor for a glossary
    that spells \\lparen as @ where no \\lparen is.  The output and
    stats are those of the public composition either way."""
    import semtex.engine

    real = semtex.engine._walk
    calls = []
    depth = [0]

    def counting(nodes, *args):
        # the walks replace_text starts, not their recursive calls
        if not depth[0]:
            calls.append(nodes)
        depth[0] += 1
        try:
            return real(nodes, *args)
        finally:
            depth[0] -= 1

    data = json.loads(builtin_glossary_path().read_text(encoding="utf-8"))
    data["canonicalization"]["delimiter_classes"].append(
        {"canonical": "@", "variants": ["\\lparen"]}
    )
    at_glossary = loads_glossary(json.dumps(data))
    with_at = mini_source + "\\[ \\EulerGamma@{x} + \\Gamma(y) \\]\n"
    inert_at = mini_source + "\\[ x \\label{a@b} % c@d\n \\]\n"
    with_paren = mini_source + "\\[ f\\lparen x) \\]\n"
    assert "@" not in mini_source and "\\lparen" not in mini_source
    cases = [
        (mini_source, glossary, 0),
        (with_at, glossary, 1),
        (inert_at, glossary, 0),
        (mini_source, at_glossary, 0),
        (with_paren, at_glossary, 1),
    ]
    want = [outcome(composed_replace, source, g) for source, g, _ in cases]
    monkeypatch.setattr(semtex.engine, "_walk", counting)
    for (source, g, walks), expect in zip(cases, want):
        calls.clear()
        assert replace_text(source, g) == expect
        assert len(calls) == walks


def test_replace_text_is_a_fixpoint(glossary, mini_source):
    """A second pass over replace_text's output fires no rule and
    returns the same bytes, on the fixture and on mixed documents."""
    docs = [mini_source, "$\\Gamma(\\sin) z$"] + mixed_documents(13, 300)
    checked = 0
    for source in docs:
        try:
            once, _ = replace_text(source, glossary)
        except SemtexError:
            continue
        twice, again = replace_text(once, glossary)
        assert again.total == 0, source
        assert twice == once, source
        checked += 1
    assert checked >= 200


def test_gamma_of_sin_keeps_its_meaning_across_passes(glossary):
    once, stats = replace_text("$\\Gamma(\\sin) z$", glossary)
    assert (once, stats.total) == ("$\\EulerGamma@{\\sin}z$", 1)
    assert replace_text(once, glossary)[0] == "$\\EulerGamma@{\\sin}z$"


def test_replace_text_names_the_span_of_an_unknown_semantic_macro(glossary):
    with pytest.raises(UnknownSemanticMacroError, match=r"\\mystery in the span at line 2:5$"):
        replace_text("Let $x$ be\nso $\\mystery@{z}$ holds.", glossary)


def test_replace_text_names_the_line_of_a_span_that_fails_to_canonicalize(glossary):
    source = "Intro.\n\\[ x+1 \\]\n\\[ f(x)=\\left(1+x \\]\n"
    with pytest.raises(MismatchedLeftRightError) as info:
        replace_text(source, glossary)
    assert str(info.value) == (
        "mismatched \\left/\\right at offset 25 in the span at line 3:9"
    )
    assert info.value.position == 25


@pytest.mark.parametrize(
    "source, message",
    [
        (
            "\\begin{equation} x+1",
            "UnterminatedEnvironmentError: unterminated 'equation' starting at offset 0 "
            "at line 1:1",
        ),
        (
            "Intro.\n\\[ {x+1 \\]\n",
            "UnbalancedGroupError: unbalanced group at offset 10 at line 2:4",
        ),
    ],
)
def test_a_file_failure_names_the_line_of_its_fault(tmp_path, source, message):
    bad = tmp_path / "bad.tex"
    bad.write_text(source)
    result = run_pipeline(PipelineConfig(inputs=[bad, DATA / "kls_mini.tex"]), write=False)
    assert result.exit_code == 1
    assert result.failures == [(str(bad), message)]
    assert len(result.pages) == 28


_EDIT_PIECES = ("{", "}", "$", "\\[", "\\]", "\\begin", "\\end", "\\section", "\\left", "\\right", "@")


def _edited(rng, source):
    """source with one to three pieces inserted at, or deleted from,
    seeded places."""
    for _ in range(rng.randint(1, 3)):
        piece = rng.choice(_EDIT_PIECES)
        at = [m.start() for m in re.finditer(re.escape(piece), source)]
        if at and rng.random() < 0.5:
            i = rng.choice(at)
            source = source[:i] + source[i + len(piece) :]
        else:
            i = rng.randrange(len(source) + 1)
            source = source[:i] + piece + source[i:]
    return source


def test_edited_documents_fail_only_with_located_semtex_errors(tmp_path, glossary, mini_source):
    rng = random.Random(20261019)
    paths = []
    for k in range(200):
        source = _edited(rng, mini_source)
        try:
            replace_text(source, glossary)
        except SemtexError:
            pass
        paths.append(tmp_path / f"e{k:03d}.tex")
        paths[-1].write_text(source, encoding="utf-8")
    result = run_pipeline(PipelineConfig(inputs=paths), write=False)
    files = {str(p) for p in paths}
    failed_files = {where for where, _ in result.failures if where in files}
    assert result.exit_code == (1 if failed_files else 0)
    assert len(failed_files) > 50 and len(result.failures) > len(failed_files)
    for where, message in result.failures:
        assert re.search(r"\bline \d+:\d+\b", message), (where, message)


@pytest.mark.parametrize("attr", ["output_path", "report_path"])
def test_an_unwritable_output_path_is_a_config_error(tmp_path, attr):
    # a missing directory is refused before any input is read, a path
    # that is a directory when the file is written
    for target in (tmp_path / "missing" / "out.txt", tmp_path):
        cfg = PipelineConfig(inputs=[DATA / "kls_mini.tex"], **{attr: target})
        with pytest.raises(ConfigInvalidError, match=f"^cannot write {re.escape(str(target))}: "):
            run_pipeline(cfg)


# ------------------------------------------------------------ render client


@pytest.fixture(scope="module")
def mock_endpoint():
    server = start_server()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}/"
    server.shutdown()


def test_request_mathml(mock_endpoint):
    rendered = request_mathml(r"\EulerGamma@{z}", mock_endpoint)
    assert rendered.presentation.startswith("<math")
    assert 'xmlns="http://www.w3.org/1998/Math/MathML"' in rendered.presentation
    assert r"\EulerGamma@{z}" in rendered.presentation
    assert "<csymbol>" in rendered.content


def test_request_mathml_rejected(mock_endpoint):
    with pytest.raises(ServiceRejectedError):
        request_mathml("   ", mock_endpoint)


def test_request_mathml_unreachable():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    with pytest.raises(ServiceUnreachableError):
        request_mathml("x", f"http://127.0.0.1:{port}/")


@pytest.mark.parametrize("endpoint", ["http://127.0.0.1:port/", "http://a b/", "http://[::1/"])
def test_an_endpoint_that_is_no_http_url_is_unreachable(mini_extraction, endpoint):
    with pytest.raises(ServiceUnreachableError, match=f"^{re.escape(endpoint)}: "):
        request_mathml("x", endpoint)
    with pytest.raises(ServiceUnreachableError, match=f"^{re.escape(endpoint)}: "):
        verify_render(mini_extraction.formulae[:2], endpoint)


def test_verify_render_ok(mock_endpoint, mini_extraction):
    sample = mini_extraction.formulae[:3]
    got = verify_render(sample, mock_endpoint)
    assert got == [(f.id, "ok") for f in sample]


def test_verify_render_degrades_to_warnings(mini_extraction):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    got = verify_render(mini_extraction.formulae[:2], f"http://127.0.0.1:{port}/")
    assert len(got) == 2
    assert all(status.startswith("warning: service unreachable") for _, status in got)


def test_verify_render_reuses_one_connection(mini_extraction, monkeypatch):
    import semtex.mockserver

    connections = []
    real = semtex.mockserver._Handler.setup

    def counting(handler):
        connections.append(handler.client_address)
        real(handler)

    monkeypatch.setattr(semtex.mockserver._Handler, "setup", counting)
    server = start_server()
    try:
        sample = mini_extraction.formulae[:5]
        got = verify_render(sample, f"http://127.0.0.1:{server.server_address[1]}/")
    finally:
        server.shutdown()
        server.server_close()
    assert got == [(f.id, "ok") for f in sample]
    assert len(connections) == 1


class _Closing(BaseHTTPRequestHandler):
    """Answers a POST as the mock does, over HTTP/1.0: each connection
    carries one request and ends once the answer is sent."""

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        payload = response_for(data).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/xml; charset=utf-8")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt, *args):
        pass


def test_a_service_that_closes_each_connection_answers_every_request(mini_extraction):
    # the answer has no length: its body is what comes before the close
    sample = mini_extraction.formulae[:3]
    with serving(_Closing) as endpoint:
        assert r"\EulerGamma@{z}" in request_mathml(r"\EulerGamma@{z}", endpoint).presentation
        assert verify_render(sample, endpoint) == [(f.id, "ok") for f in sample]


def test_an_https_service_is_reached_once_its_certificate_is_trusted(mini_extraction, monkeypatch):
    sample = mini_extraction.formulae[:3]
    with serving(_Handler, tls=True) as endpoint:
        # the test certificate is in no system store
        with pytest.raises(ServiceUnreachableError, match="CERTIFICATE_VERIFY_FAILED"):
            request_mathml("x", endpoint)
        # OpenSSL reads the certificates to trust from SSL_CERT_FILE
        monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
        assert "<csymbol>x</csymbol>" in request_mathml("x", endpoint).content
        assert verify_render(sample, endpoint) == [(f.id, "ok") for f in sample]


class _Hanging(_Handler):
    """Answers a POST as the mock does, and then closes the connection
    without saying so."""

    connections = []

    def setup(self):
        self.connections.append(self.client_address)
        super().setup()

    def do_POST(self):
        super().do_POST()
        self.close_connection = True


@pytest.mark.parametrize("tls", [False, True], ids=["http", "https"])
def test_a_kept_connection_the_service_closed_is_opened_again(mini_extraction, monkeypatch, tls):
    monkeypatch.setattr(_Hanging, "connections", [])
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    sample = mini_extraction.formulae[:3]
    with serving(_Hanging, tls) as endpoint:
        got = verify_render(sample, endpoint)
    assert got == [(f.id, "ok") for f in sample]
    # each request after the first fails on the closed connection and is
    # sent again on a new one
    assert len(_Hanging.connections) == 3


def test_verify_render_posts_once_to_a_down_service(mini_extraction, monkeypatch):
    import semtex.pipeline

    # a listener that never answers: the kernel accepts each connection
    # into its backlog, where it is counted once the run is over
    monkeypatch.setattr(semtex.pipeline, "_RENDER_DEADLINE_S", 0.2)
    posts = []
    with socket.socket() as listener:
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        port = listener.getsockname()[1]
        got = verify_render(mini_extraction.formulae[:5], f"http://127.0.0.1:{port}/")
        listener.setblocking(False)
        with contextlib.suppress(BlockingIOError):
            while True:
                posts.append(listener.accept()[0])
    for conn in posts:
        conn.close()
    assert len(posts) == 1
    assert got[0][1].startswith("warning: service unreachable: ")
    assert [status for _, status in got[1:]] == ["warning: service unreachable (skipped)"] * 4


class _Trickle(BaseHTTPRequestHandler):
    """Answers a POST with one byte of its promised body every 50 ms,
    well inside any read timeout."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/xml; charset=utf-8")
        self.send_header("Content-Length", "100")
        self.end_headers()
        try:
            for _ in range(100):
                self.wfile.write(b" ")
                self.wfile.flush()
                time.sleep(0.05)
        except OSError:
            pass

    def log_message(self, fmt, *args):
        pass


def test_a_trickling_service_is_cut_off_at_the_request_deadline(mini_extraction, monkeypatch):
    import semtex.pipeline

    monkeypatch.setattr(semtex.pipeline, "_RENDER_DEADLINE_S", 0.3)
    with serving(_Trickle) as endpoint:
        began = time.monotonic()
        with pytest.raises(ServiceUnreachableError, match="no complete answer within 0.3 s"):
            request_mathml("x", endpoint)
        got = verify_render(mini_extraction.formulae[:3], endpoint)
        elapsed = time.monotonic() - began
    # the whole body would take 5 s to arrive
    assert elapsed < 2.5, elapsed
    assert got[0][1].startswith("warning: service unreachable: ")
    assert [status for _, status in got[1:]] == ["warning: service unreachable (skipped)"] * 2


class _HeaderTrickle(BaseHTTPRequestHandler):
    """Answers a POST with its status line and 40 headers, one line every
    50 ms, then the mock's body: the head alone takes 2 s."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        payload = response_for(data).encode("utf-8")
        head = ["HTTP/1.1 200 OK", "Content-Type: application/xml; charset=utf-8"]
        head += [f"X-Filler-{k}: {k}" for k in range(40)]
        head += [f"Content-Length: {len(payload)}", ""]
        try:
            for line in head:
                self.wfile.write(line.encode("ascii") + b"\r\n")
                self.wfile.flush()
                time.sleep(0.05)
            self.wfile.write(payload)
        except OSError:
            pass

    def log_message(self, fmt, *args):
        pass


@pytest.mark.parametrize("tls", [False, True], ids=["http", "https"])
def test_a_trickling_head_is_cut_off_at_the_request_deadline(monkeypatch, tls):
    import semtex.pipeline

    monkeypatch.setattr(semtex.pipeline, "_RENDER_DEADLINE_S", 0.3)
    monkeypatch.setenv("SSL_CERT_FILE", str(TLS_CERT))
    with serving(_HeaderTrickle, tls) as endpoint:
        began = time.monotonic()
        with pytest.raises(ServiceUnreachableError, match="no complete answer within 0.3 s"):
            request_mathml("x", endpoint)
        elapsed = time.monotonic() - began
    assert elapsed < 1.5, elapsed


def _encoded(coding, pack):
    """A handler that answers a POST as the mock does, with the body
    packed by pack and sent with the Content-Encoding coding."""

    class Encoded(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            data = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
            payload = pack(response_for(data).encode("utf-8"))
            self.send_response(200)
            self.send_header("Content-Type", "application/xml; charset=utf-8")
            self.send_header("Content-Encoding", coding)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            pass

    return Encoded


def _raw_deflate(data):
    pack = zlib.compressobj(wbits=-zlib.MAX_WBITS)
    return pack.compress(data) + pack.flush()


def test_request_mathml_decodes_a_gzipped_answer():
    with serving(_encoded("gzip", gzip.compress)) as endpoint:
        rendered = request_mathml(r"\EulerGamma@{z}", endpoint)
    assert r"\EulerGamma@{z}" in rendered.presentation
    assert "<csymbol>" in rendered.content


@pytest.mark.parametrize(
    "coding, pack",
    [("deflate", zlib.compress), ("deflate", _raw_deflate), ("x-gzip", gzip.compress)],
    ids=["zlib-wrapped deflate", "raw deflate", "x-gzip"],
)
def test_request_mathml_decodes_a_deflated_answer(coding, pack):
    seen = []

    class Handler(_encoded(coding, pack)):
        def do_POST(self):
            seen.append(self.headers["Accept-Encoding"])
            super().do_POST()

    with serving(Handler) as endpoint:
        rendered = request_mathml(r"\EulerGamma@{z}", endpoint)
    assert r"\EulerGamma@{z}" in rendered.presentation
    assert "<csymbol>" in rendered.content
    assert seen == ["gzip, deflate"]


def test_an_undecodable_answer_is_a_rejection_that_stops_nothing(mini_extraction):
    posts = []

    # a body said to be gzip that is not
    class Counting(_encoded("gzip", lambda data: data)):
        def do_POST(self):
            posts.append(self.path)
            super().do_POST()

    with serving(Counting) as endpoint:
        with pytest.raises(ServiceRejectedError):
            request_mathml(r"\EulerGamma@{z}", endpoint)
        posts.clear()
        got = verify_render(mini_extraction.formulae[:3], endpoint)
    rejected = "warning: service rejected: rendering service rejected request: HTTP 200"
    assert [status for _, status in got] == [rejected] * 3
    assert len(posts) == 3


def _canned(content_type, payload):
    """A handler that answers every POST with HTTP 200 and payload."""

    class Canned(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers["Content-Length"]))
            self.send_response(200)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, fmt, *args):
            pass

    return Canned


_XML = "application/xml; charset=utf-8"
_MATH = '<math xmlns="http://www.w3.org/1998/Math/MathML"><mi>z</mi></math>'
_LACKS = "response lacks presentation/content parts$"


@pytest.mark.parametrize(
    "content_type, payload, message",
    [
        ("text/plain", b"no XML <here", "unparseable response: "),
        (_XML, f"<latexml><presentation>{_MATH}</presentation></latexml>".encode(), _LACKS),
        (_XML, f"<latexml><content>{_MATH}</content></latexml>".encode(), _LACKS),
        (_XML, f"<latexml><presentation/><content>{_MATH}</content></latexml>".encode(), _LACKS),
    ],
    ids=["not XML", "no content", "no presentation", "empty presentation"],
)
def test_an_answer_without_both_islands_is_a_rejection(content_type, payload, message):
    with serving(_canned(content_type, payload)) as endpoint:
        with pytest.raises(ServiceRejectedError) as err:
            request_mathml("z", endpoint)
    assert err.value.status == 200
    assert re.match(message, err.value.body), err.value.body


def test_an_answer_in_an_unknown_charset_is_read_as_utf8():
    payload = response_for("\\alpha \u00e9").encode("utf-8")
    with serving(_canned("application/xml; charset=x-no-such-charset", payload)) as endpoint:
        rendered = request_mathml("x", endpoint)
    assert "<mtext>\\alpha \u00e9</mtext>" in rendered.presentation
    assert "<csymbol>\\alpha \u00e9</csymbol>" in rendered.content


class _GzipNameTrickle(BaseHTTPRequestHandler):
    """Answers a POST with a gzip body whose header carries an 80-byte
    file name, sent one byte every 50 ms: no text decodes before the
    name ends, 4 s after the body starts."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):
        data = self.rfile.read(int(self.headers["Content-Length"])).decode("utf-8")
        raw = response_for(data).encode("utf-8")
        deflated = _raw_deflate(raw)
        # magic, deflate, a file name follows, no mtime, no extra flags,
        # unknown OS; then the name, the data, its CRC and size
        head = b"\x1f\x8b\x08\x08" + bytes(4) + b"\x00\xff"
        name = b"n" * 80 + b"\0"
        tail = deflated + struct.pack("<II", zlib.crc32(raw), len(raw))
        self.send_response(200)
        self.send_header("Content-Type", "application/xml; charset=utf-8")
        self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Length", str(len(head) + len(name) + len(tail)))
        self.end_headers()
        try:
            self.wfile.write(head)
            for k in range(len(name)):
                self.wfile.write(name[k : k + 1])
                self.wfile.flush()
                time.sleep(0.05)
            self.wfile.write(tail)
        except OSError:
            pass

    def log_message(self, fmt, *args):
        pass


def test_a_trickling_gzip_header_is_cut_off_at_the_request_deadline(monkeypatch):
    import semtex.pipeline

    monkeypatch.setattr(semtex.pipeline, "_RENDER_DEADLINE_S", 0.3)
    with serving(_GzipNameTrickle) as endpoint:
        began = time.monotonic()
        with pytest.raises(ServiceUnreachableError, match="no complete answer within 0.3 s"):
            request_mathml("x", endpoint)
        elapsed = time.monotonic() - began
    # the whole name would take 4 s to arrive
    assert elapsed < 1.5, elapsed


# ------------------------------------------------------------ text and labels


@pytest.mark.parametrize(
    "body, semantic",
    [(r"\text{for all } n", r"\text{for all }n"), (r"\mbox{ for } n", r"\mbox{ for }n")],
)
def test_text_arguments_keep_their_spaces_in_pages_and_replace(tmp_path, body, semantic):
    doc = tmp_path / "t.tex"
    doc.write_text(f"\\section{{S}}\n\\[ y = x \\quad {body} \\label{{eq:t}} \\]\n")
    res = run_pipeline(PipelineConfig(inputs=[doc]), write=False)
    assert [f.source_semantic for f in res.formulae] == [f"y=x{semantic}"]
    assert f"&lt;math&gt;y=x{semantic}&lt;/math&gt;" in res.dump
    once, _ = replace_text(doc.read_text(), builtin_glossary())
    assert f"y=x{semantic}\\label{{eq:t}}" in once
    assert replace_text(once, builtin_glossary())[0] == once


def test_a_label_in_a_group_of_a_display_row_leaks_into_no_page(tmp_path):
    doc = tmp_path / "t.tex"
    doc.write_text("\\section{S}\n\\[ f(x)={x \\label{b}} \\label{a} \\]\n")
    res = run_pipeline(PipelineConfig(inputs=[doc]), write=False)
    # the row's first \label names it
    assert [(f.id, f.source_semantic) for f in res.formulae] == [("b", "f(x)=x")]
    assert "&lt;math&gt;f(x)=x&lt;/math&gt;" in res.dump
    # replace keeps every label
    once, _ = replace_text(doc.read_text(), builtin_glossary())
    assert "f(x)={x\\label{b}}\\label{a}" in once


@pytest.mark.parametrize(
    "source, written",
    [
        (r"\[ f(x)={x \label{b}} \label{a} \]", r"\[ f(x)={x\label{b}}\label{a} \]"),
        (
            r"\begin{equation}\label{b} \Gamma(z)\end{equation}",
            r"\begin{equation}\label{b}\EulerGamma@{z}\end{equation}",
        ),
        # a label argument is kept as its source text, braces and all
        (r"where $x \label {c}$ and $\label{{d}}$", r"where $x\label{c}$ and $\label{{d}}$"),
    ],
)
def test_replace_keeps_the_braces_of_a_one_character_label(source, written):
    once, _ = replace_text(source, builtin_glossary())
    assert once == written
    assert replace_text(once, builtin_glossary())[0] == once


@pytest.mark.parametrize("label", ["eq one", "a~b", " a ", "\\Gamma(z)"])
def test_replace_keeps_a_label_argument_verbatim(tmp_path, label):
    source = f"\\section{{S}}\n\\[ \\Gamma(z) \\label{{{label}}} \\]\n"
    once, _ = replace_text(source, builtin_glossary())
    assert once == f"\\section{{S}}\n\\[ \\EulerGamma@{{z}}\\label{{{label}}} \\]\n"
    assert replace_text(once, builtin_glossary())[0] == once
    # so convert names the page as it does from the source, by the
    # label without its surrounding spaces
    ids = []
    for k, text in enumerate((source, once)):
        doc = tmp_path / f"t{k}.tex"
        doc.write_text(text)
        ids.append([f.id for f in run_pipeline(PipelineConfig(inputs=[doc]), write=False).formulae])
    assert ids == [[label.strip()], [label.strip()]]
