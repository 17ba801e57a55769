"""End-to-end checks of the four CLI verbs."""

import gc
import json
import os
import shutil
import socket
import subprocess
import sys
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from xml.etree import ElementTree

import pytest

import semtex
import semtex.cli
import semtex.glossary
import semtex.pipeline
from conftest import DATA, serving
from semtex.cli import main
from semtex.mockserver import start_server

MINI = str(DATA / "kls_mini.tex")
BIB = str(DATA / "bib.json")
BROKEN_FAILURE = "UnbalancedGroupError: unbalanced group at offset 78 at line 5:9"


def test_convert(tmp_path, capsys):
    out = tmp_path / "dump.xml"
    report = tmp_path / "report.txt"
    rc = main(
        ["convert", "--input", MINI, "--bib", BIB, "--out", str(out), "--report", str(report)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("pages: 28\n")
    assert report.read_text() == printed
    assert out.read_text().startswith("<mediawiki")


def _rule_counts(report):
    """The per-rule lines of a report, rule name to count."""
    lines = report.split("per-rule replacement counts:\n", 1)[1].splitlines()
    return dict(line.strip().split(": ") for line in lines if line.startswith("  "))


@pytest.mark.parametrize("dropped", [None, "sin", "qPochhammer"])
def test_convert_reads_a_glossary_file(tmp_path, capsys, dropped):
    bundled = json.loads(semtex.glossary.builtin_glossary_path().read_text(encoding="utf-8"))
    bundled["rules"] = [r for r in bundled["rules"] if r["name"] != dropped]
    glossary = tmp_path / "glossary.json"
    glossary.write_text(json.dumps(bundled), encoding="utf-8")
    out, report = tmp_path / "dump.xml", tmp_path / "report.txt"
    argv = ["convert", "--input", MINI, "--bib", BIB, "--glossary", str(glossary)]
    assert main([*argv, "--out", str(out), "--report", str(report)]) == 0
    capsys.readouterr()
    if dropped is None:
        assert out.read_bytes() == (DATA / "golden_dump.xml").read_bytes()
        assert report.read_bytes() == (DATA / "golden_report.txt").read_bytes()
    else:
        expected = _rule_counts((DATA / "golden_report.txt").read_text(encoding="utf-8"))
        del expected[dropped]
        assert _rule_counts(report.read_text(encoding="utf-8")) == expected


def test_the_collector_is_paused_while_a_command_runs(tmp_path, capsys, monkeypatch):
    real = semtex.cli.run_pipeline
    seen = []

    def recording(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(semtex.cli, "run_pipeline", recording)
    assert gc.isenabled()
    assert main(["convert", "--input", MINI, "--out", str(tmp_path / "d.xml")]) == 0
    assert gc.isenabled()
    assert main(["stats", "--input", str(tmp_path / "nope.tex")]) == 2
    assert gc.isenabled()
    assert seen == [False, False]


def test_a_caller_that_paused_the_collector_finds_it_paused(tmp_path, capsys):
    gc.disable()
    try:
        assert main(["convert", "--input", MINI, "--out", str(tmp_path / "d.xml")]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_replace_names_the_line_of_a_span_that_fails_to_canonicalize(tmp_path, capsys):
    bad = tmp_path / "a.tex"
    bad.write_text("Intro.\n\\[ x+1 \\]\n\\[ f(x)=\\left(1+x \\]\n")
    rc = main(["replace", "--input", str(bad), "--input", MINI, "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{bad}: MismatchedLeftRightError: mismatched \\left/\\right at offset 25 "
        "in the span at line 3:9\n"
    )
    assert captured.out == "kls_mini.tex: 56 replacements\n"
    assert not (tmp_path / "o" / "a.tex").exists()


def test_convert_requires_output(capsys):
    rc = main(["convert", "--input", MINI])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_convert_reports_file_failures(tmp_path, capsys):
    rc = main(
        ["convert", "--input", str(DATA / "broken.tex"), "--out", str(tmp_path / "d.xml")]
    )
    assert rc == 1
    out = capsys.readouterr().out
    assert "failures: 1" in out
    assert f"  {DATA / 'broken.tex'}: {BROKEN_FAILURE}\n" in out


def test_convert_keeps_the_first_row_of_a_repeated_label(tmp_path, capsys):
    src = tmp_path / "dup.tex"
    src.write_text("\\[ x+1 \\label{d} \\]\n\\[ y+2 \\label{d} \\]\n")
    out = tmp_path / "d.xml"
    rc = main(["convert", "--prefix", "KLS", "--input", str(src), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert printed.startswith("pages: 1\n")
    assert (
        "failures: 1\n  d: DuplicateTitleError: row at line 2:4 repeats the "
        "label 'd' of the row at line 1:4\n"
    ) in printed
    dump = out.read_text()
    assert dump.count("<title>Formula:KLS:d</title>") == 1
    assert "x+1" in dump and "y+2" not in dump


def test_convert_reads_a_file_reached_twice_once(tmp_path, capsys):
    d = tmp_path / "d"
    d.mkdir()
    (d / "ch.tex").write_text("\\[ x+1 \\label{d} \\]\n")
    out = tmp_path / "o.xml"
    inputs = ["--input", str(d), "--input", str(d / "ch.tex")]
    rc = main(["convert", "--prefix", "KLS", *inputs, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out.startswith("pages: 1\n")
    assert out.read_text().count("<title>Formula:KLS:d</title>") == 1


def test_importing_the_cli_loads_no_network_stack():
    code = (
        "import sys, semtex.cli; "
        "print(sorted({'urllib.request', 'http.client', 'ssl', 'email', 'xml.etree.ElementTree'}"
        " & set(sys.modules)))"
    )
    src = str(Path(semtex.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout == "[]\n"


# standard-library modules a convert does without; importlib.resources
# would bring tempfile and zipfile
_HEAVY_MODULES = {
    "dataclasses", "inspect", "fractions", "decimal", "importlib.resources", "tempfile", "zipfile",
}


def test_a_conversion_loads_no_heavy_standard_modules(tmp_path):
    out = str(tmp_path / "dump.xml")
    code = (
        "import sys, semtex.cli; "
        f"rc = semtex.cli.main(['convert', '--input', {MINI!r}, '--out', {out!r}]); "
        f"print(rc, sorted({_HEAVY_MODULES!r} & set(sys.modules)))"
    )
    src = str(Path(semtex.__file__).resolve().parent.parent)
    # -S: no site-packages, whose start-up hooks could import these first
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    assert done.stdout.splitlines()[-1] == "0 []"


def test_stats(capsys):
    rc = main(["stats", "--input", MINI, "--bib", BIB])
    assert rc == 0
    out = capsys.readouterr().out
    assert "replacements: 55" in out
    assert "  littleqLaguerre: 14" in out


def test_replace(tmp_path, capsys):
    rc = main(["replace", "--input", MINI, "--out", str(tmp_path)])
    assert rc == 0
    assert capsys.readouterr().out == "kls_mini.tex: 56 replacements\n"
    rewritten = (tmp_path / "kls_mini.tex").read_text()
    assert "\\EulerGamma@{z}" in rewritten
    assert "\\section{Preliminaries}" in rewritten  # prose untouched


def test_replace_reports_broken_files(tmp_path, capsys):
    rc = main(
        ["replace", "--input", str(DATA / "broken.tex"), "--input", MINI, "--out", str(tmp_path)]
    )
    assert rc == 1
    captured = capsys.readouterr()
    # the line convert lists for the same file
    assert captured.err == f"{DATA / 'broken.tex'}: {BROKEN_FAILURE}\n"
    assert (tmp_path / "kls_mini.tex").exists()  # good file still converted


def test_convert_lists_an_undecodable_file_and_converts_the_rest(tmp_path, capsys):
    bad = tmp_path / "bad.tex"
    bad.write_bytes(b"\\[ x \\] \xff\n")
    out = tmp_path / "d.xml"
    rc = main(["convert", "--input", str(bad), "--input", MINI, "--out", str(out)])
    assert rc == 1
    printed = capsys.readouterr().out
    assert f"  {bad}: UnicodeDecodeError: " in printed
    assert out.read_text().count("<page>") == 28


def test_convert_lists_a_character_xml_forbids_and_converts_the_rest(tmp_path, capsys):
    bad = tmp_path / "bad.tex"
    bad.write_text("\\[ x = \\Gamma(z) \\text{a\x01b} \\]\n")
    out = tmp_path / "d.xml"
    rc = main(["convert", "--input", str(bad), "--input", MINI, "--out", str(out)])
    assert rc == 1
    assert (
        f"  {bad}: ForbiddenCharacterError: character U+0001 at line 1:25 "
        "is not allowed in XML\n"
    ) in capsys.readouterr().out
    assert len(ElementTree.parse(out).getroot()) == 29  # siteinfo and 28 pages


def test_inputs_that_share_a_stem_and_a_directory_are_a_config_error(tmp_path, capsys):
    for name in ("x.tex", "x.txt"):
        (tmp_path / name).write_text("$\\Gamma(z)$\n")
    inputs = ["--input", str(tmp_path / "x.tex"), "--input", str(tmp_path / "x.txt")]
    assert main(["convert", *inputs, "--out", str(tmp_path / "d.xml")]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: inputs {tmp_path / 'x.tex'} and {tmp_path / 'x.txt'} "
        "share the formula id prefix 'x'\n"
    )
    assert not (tmp_path / "d.xml").exists()
    assert main(["replace", *inputs, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().out == "x.tex: 1 replacements\nx.txt: 1 replacements\n"


def test_inputs_whose_prefixes_mediawiki_takes_for_one_are_a_config_error(tmp_path, capsys):
    for name in ("a b.tex", "a_b.tex"):
        (tmp_path / name).write_text("\\[ x+1 \\label{a} \\]\n")
    inputs = ["--input", str(tmp_path / "a b.tex"), "--input", str(tmp_path / "a_b.tex")]
    assert main(["convert", *inputs, "--out", str(tmp_path / "d.xml")]) == 2
    assert capsys.readouterr().err == (
        f"config error: inputs {tmp_path / 'a b.tex'} and {tmp_path / 'a_b.tex'} "
        "share the formula id prefix 'a_b'\n"
    )


def test_replace_reports_an_undecodable_file(tmp_path, capsys):
    bad = tmp_path / "bad.tex"
    bad.write_bytes(b"\xff")
    rc = main(["replace", "--input", str(bad), "--input", MINI, "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{bad}: UnicodeDecodeError: ")
    assert captured.out == "kls_mini.tex: 56 replacements\n"


def test_replace_keeps_inputs_that_share_a_name_apart(tmp_path, capsys):
    for d, body in (("a", "$\\Gamma(z)$"), ("b", "$\\sin z$ and $\\sin y$")):
        (tmp_path / d).mkdir()
        (tmp_path / d / "ch.tex").write_text(body)
    out = tmp_path / "out"
    args = ["replace", "--input", str(tmp_path / "a" / "ch.tex"), "--input", str(tmp_path / "b")]
    rc = main(args + ["--input", MINI, "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == (
        "a/ch.tex: 1 replacements\nb/ch.tex: 2 replacements\nkls_mini.tex: 56 replacements\n"
    )
    assert (out / "a" / "ch.tex").read_text() == "$\\EulerGamma@{z}$"
    assert (out / "b" / "ch.tex").read_text() == "$\\sin@@{z}$ and $\\sin@@{y}$"
    assert sorted(p.name for p in out.iterdir()) == ["a", "b", "kls_mini.tex"]


def test_replace_reports_an_unknown_semantic_macro_and_converts_the_rest(tmp_path, capsys):
    bad = tmp_path / "bad.tex"
    bad.write_text("\\[ \\EulerGamma@@{z} \\]\n")
    rc = main(["replace", "--input", str(bad), "--input", MINI, "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == (
        f"{bad}: UnknownSemanticMacroError: \\EulerGamma occurrence does not match "
        "its glossary signature in the span at line 1:4\n"
    )
    assert captured.out == "kls_mini.tex: 56 replacements\n"
    assert not (tmp_path / "o" / "bad.tex").exists()


def test_convert_fails_the_row_of_an_unknown_semantic_macro(tmp_path, capsys):
    src = tmp_path / "s.tex"
    src.write_text("\\[ \\mystery@{z} \\label{a} \\]\n\\[ \\Gamma(z) \\label{b} \\]\n")
    out = tmp_path / "d.xml"
    rc = main(["convert", "--input", str(src), "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert (
        "  a: UnknownSemanticMacroError: unknown semantic macro \\mystery "
        "for the row at line 1:4\n"
    ) in printed
    assert out.read_text().count("<page>") == 1


# a one-leaf group before the @ reads as a field as any other does
_GROUPS_THEN_AT = [
    ("\\Foo{x}@{y}", "unknown semantic macro \\Foo"),
    ("\\EulerGamma{x}@{y}", "\\EulerGamma occurrence does not match its glossary signature"),
    ("\\Foo{x+1}@{y}", "unknown semantic macro \\Foo"),
]


@pytest.mark.parametrize("row, message", _GROUPS_THEN_AT)
def test_convert_fails_the_row_of_groups_then_at_of_no_glossary_macro(
    tmp_path, capsys, row, message
):
    src = tmp_path / "s.tex"
    src.write_text(f"\\[ {row} \\label{{a}} \\]\n\\[ \\Gamma(z) \\label{{b}} \\]\n")
    out = tmp_path / "d.xml"
    assert main(["convert", "--input", str(src), "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert f"  a: UnknownSemanticMacroError: {message} for the row at line 1:4\n" in printed
    assert out.read_text().count("<page>") == 1


@pytest.mark.parametrize("row, message", _GROUPS_THEN_AT)
def test_replace_reports_groups_then_at_of_no_glossary_macro(tmp_path, capsys, row, message):
    bad = tmp_path / "bad.tex"
    bad.write_text(f"Let $x$ be\nso ${row}$ holds.\n")
    rc = main(["replace", "--input", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"{bad}: UnknownSemanticMacroError: {message} in the span at line 2:5\n"
    assert not (tmp_path / "o" / "bad.tex").exists()


def test_an_unwritable_output_is_a_config_error(tmp_path, capsys, monkeypatch):
    extracted = []
    monkeypatch.setattr(semtex.pipeline, "extract_document", lambda *a, **k: extracted.append(a))
    missing = tmp_path / "missing" / "d.xml"
    assert main(["convert", "--input", MINI, "--out", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(missing) in err
    assert extracted == []
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["replace", "--input", MINI, "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(taken) in err


def _snapshot(directory):
    """The bytes and mtime of every file under directory, by name."""
    return {
        p.relative_to(directory).as_posix(): (p.read_bytes(), p.stat().st_mtime_ns)
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


@pytest.mark.parametrize(
    "argv, clash",
    [
        (["convert", "--out", "a.tex"], "its input a.tex"),
        (["convert", "--out", "x.xml", "--report", "./a.tex"], "its input a.tex"),
        (["stats", "--report", "a.tex"], "its input a.tex"),
        (["convert", "--out", "g.json"], "its glossary g.json"),
        (["convert", "--out", "x.xml", "--report", "d/../b.json"], "its bibliography b.json"),
        (["convert", "--out", "same.txt", "--report", "same.txt"], "its output same.txt"),
        (["replace", "--out", "."], "its input a.tex"),
        (["replace", "--glossary", "a.tex", "--input", "d", "--out", "."], "its glossary a.tex"),
    ],
    ids=[
        "dump over input", "report over input", "stats report over input",
        "dump over glossary", "report over bibliography", "dump and report at one path",
        "replace over input", "replace over glossary",
    ],
)
def test_an_output_that_would_overwrite_a_file_of_the_run_is_a_config_error(
    tmp_path, capsys, monkeypatch, argv, clash
):
    monkeypatch.chdir(tmp_path)
    Path("d").mkdir()
    shutil.copy(MINI, "a.tex")
    shutil.copy(MINI, "d/a.tex")
    shutil.copy(semtex.glossary.builtin_glossary_path(), "g.json")
    shutil.copy(BIB, "b.json")
    Path("same.txt").write_text("kept\n")
    for p in tmp_path.rglob("*"):
        os.utime(p, ns=(10**18, 10**18))
    before = _snapshot(tmp_path)
    inputs = [] if "--input" in argv else ["--input", "a.tex"]
    settings = [] if argv[0] == "replace" else ["--glossary", "g.json", "--bib", "b.json"]
    assert main([*argv, *inputs, *settings]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    verb = "replace" if argv[0] == "replace" else "the run"
    assert captured.err == f"config error: {verb} would overwrite {clash}\n"
    assert _snapshot(tmp_path) == before


@pytest.mark.parametrize("given", ["directory", "file"])
@pytest.mark.parametrize("spelled", ["as given", "another way"])
def test_replace_into_its_own_input_is_a_config_error(tmp_path, capsys, given, spelled):
    d = tmp_path / "d"
    d.mkdir()
    doc = d / "a.tex"
    shutil.copy(MINI, doc)
    (tmp_path / "e").mkdir()
    out = d if spelled == "as given" else tmp_path / "e" / ".." / "d"
    given = d if given == "directory" else doc
    assert main(["replace", "--input", str(given), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: replace would overwrite its input {doc}\n"
    assert doc.read_bytes() == Path(MINI).read_bytes()
    assert list(d.iterdir()) == [doc]


@pytest.mark.parametrize(
    "flags, message",
    [
        (
            ["--glossary", "g.json"],
            "GlossaryParseError: glossary parse error: rule #1: not an object",
        ),
        (["--citation-key", "NOPE"], "MissingBibEntryError: missing bibliography entry 'NOPE'"),
    ],
    ids=["bad glossary", "missing bib key"],
)
def test_convert_exits_1_naming_a_run_error_and_writes_no_dump(
    tmp_path, capsys, monkeypatch, flags, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.json").write_text('{"rules": [7]}')
    args = ["convert", "--input", MINI, "--bib", BIB, "--out", "d.xml", "--report", "r.txt"]
    assert main(args + flags) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", message + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.json"]


@pytest.mark.parametrize("content", [b'{"KLS": ', b'{"KLS": 3}', b'["KLS"]', b'{"KLS": {"author": "\xff"}}'])
def test_a_malformed_bibliography_is_a_config_error(tmp_path, capsys, content):
    bib = tmp_path / "bib.json"
    bib.write_bytes(content)
    rc = main(["convert", "--input", MINI, "--bib", str(bib), "--out", str(tmp_path / "d.xml")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and str(bib) in err


def test_missing_input_is_a_config_error(tmp_path, capsys):
    rc = main(["stats", "--input", str(tmp_path / "nope.tex")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["convert", "replace"])
def test_an_input_directory_without_tex_files_is_a_config_error(tmp_path, capsys, verb):
    empty = tmp_path / "in"
    empty.mkdir()
    (empty / "notes.txt").write_text("\\[ x \\]")
    out = tmp_path / ("x.xml" if verb == "convert" else "out")
    rc = main([verb, "--input", str(empty), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == f"config error: input directory holds no *.tex file: {empty}\n"
    assert not out.exists()


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": MINI, "bibliography": BIB, "corpus_prefix": "WRONG"}))
    out = tmp_path / "dump.xml"
    rc = main(["convert", "--config", str(cfg), "--out", str(out), "--prefix", "KLS"])
    assert rc == 0
    assert "Formula:KLS:1.1.1" in out.read_text()
    assert "WRONG" not in out.read_text()


def test_a_prefix_that_xml_forbids_writes_no_dump(tmp_path, capsys):
    out = tmp_path / "dump.xml"
    assert main(["convert", "--input", MINI, "--out", str(out), "--prefix", "K\x01"]) == 2
    assert "corpus_prefix" in capsys.readouterr().err
    assert not out.exists()


def test_config_keywords_and_introducers_match_in_any_case(tmp_path, capsys):
    tex = tmp_path / "j.tex"
    tex.write_text(
        "\\section{Jacobi} The Generating function is \\[ x+1 \\label{a} \\]\n"
        "Where $0<q<1$ holds here. \\[ y=2 \\label{b} \\]\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"keywords": ["Generating function"], "introducers": ["WHERE"]}))
    out = tmp_path / "dump.xml"
    assert main(["convert", "--config", str(cfg), "--input", str(tex), "--out", str(out)]) == 0
    texts = [t.text for t in ElementTree.parse(out).iter() if t.tag.endswith("text")]
    assert texts[0].startswith("''Jacobi generating function''\n")
    assert "== Constraints ==\n:<math>0<q<1</math>" in texts[0]
    assert "== Notes ==" not in texts[1]


def test_workers_flag_is_checked_like_the_config_key(tmp_path, capsys):
    rc = main(["convert", "--input", MINI, "--out", str(tmp_path / "d.xml"), "--workers", "0"])
    assert rc == 2
    assert "config error: workers must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize(
    "verb, flag, key, value",
    [
        ("convert", "--workers", "workers", 0),
        ("stats", "--input", "input", "nope.tex"),
        ("convert", "--glossary", "glossary", "nope.json"),
        ("stats", "--bib", "bibliography", "nope.json"),
        ("convert", "--out", "output", "missing/d.xml"),
        ("stats", "--report", "report", "missing/r.txt"),
        ("verify-render", "--endpoint", "endpoint", "ftp://x/"),
        ("convert", "--prefix", "corpus_prefix", "K\x01"),
        ("stats", "--citation-key", "citation_key", "\x0b"),
    ],
)
def test_a_bad_flag_fails_as_its_config_key_does(
    tmp_path, capsys, monkeypatch, verb, flag, key, value
):
    monkeypatch.chdir(tmp_path)
    rest = [] if key == "input" else ["--input", MINI]
    if verb == "convert" and key != "output":
        rest += ["--out", "d.xml"]
    assert main([verb, *rest, flag, str(value)]) == 2
    by_flag = capsys.readouterr().err
    Path("cfg.json").write_text(json.dumps({key: value}))
    assert main([verb, *rest, "--config", "cfg.json"]) == 2
    assert capsys.readouterr().err == by_flag
    assert by_flag.startswith("config error: ") and by_flag.count("\n") == 1


def test_verify_render_rejects_a_negative_limit(capsys):
    rc = main(
        ["verify-render", "--input", MINI, "--endpoint", "http://127.0.0.1:1/", "--limit", "-1"]
    )
    assert rc == 2
    assert "config error: limit" in capsys.readouterr().err


@pytest.fixture(scope="module")
def mock_endpoint():
    server = start_server()
    port = server.server_address[1]
    yield f"http://127.0.0.1:{port}/"
    server.shutdown()


def test_verify_render(mock_endpoint, capsys):
    rc = main(
        ["verify-render", "--input", MINI, "--endpoint", mock_endpoint, "--limit", "3"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["1.1.1: ok", "1.1.2: ok", "1.1.3: ok"]
    assert lines[-1] == "checked 3 formulae, 0 warnings"


def test_verify_render_env_fallback(mock_endpoint, capsys, monkeypatch):
    monkeypatch.setenv("SEMTEX_ENDPOINT", mock_endpoint)
    rc = main(["verify-render", "--input", MINI, "--limit", "1"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "1.1.1: ok"


def test_verify_render_requires_endpoint(capsys, monkeypatch):
    monkeypatch.delenv("SEMTEX_ENDPOINT", raising=False)
    rc = main(["verify-render", "--input", MINI])
    assert rc == 2
    assert "SEMTEX_ENDPOINT" in capsys.readouterr().err


def test_verify_render_down_service_warns_but_passes(capsys):
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    rc = main(
        ["verify-render", "--input", MINI, "--endpoint", f"http://127.0.0.1:{port}/", "--limit", "2"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "checked 2 formulae, 2 warnings" in out


def test_verify_render_stops_posting_to_a_dead_service(capsys):
    attempts = []

    class HangUp(BaseHTTPRequestHandler):
        """Reads a POST and hangs up without an answer."""

        protocol_version = "HTTP/1.1"

        def do_POST(self):
            attempts.append(self.rfile.read(int(self.headers["Content-Length"])))
            self.close_connection = True

        def log_message(self, fmt, *args):
            pass

    with serving(HangUp) as endpoint:
        rc = main(["verify-render", "--input", MINI, "--endpoint", endpoint, "--limit", "3"])
    assert rc == 0
    assert len(attempts) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "1.1.2: warning: service unreachable (skipped)",
        "1.1.3: warning: service unreachable (skipped)",
        "checked 3 formulae, 3 warnings",
    ]


def test_verify_render_needs_no_third_party_package(mock_endpoint):
    # None in sys.modules makes an import of that name fail
    code = (
        "import sys; sys.modules['requests'] = sys.modules['urllib3'] = None; "
        "import semtex.cli; "
        f"rc = semtex.cli.main(['verify-render', '--input', {MINI!r}, '--endpoint', "
        f"{mock_endpoint!r}, '--limit', '5']); "
        "print(rc, sorted({'requests', 'urllib3'} & {m for m, v in sys.modules.items() if v}))"
    )
    src = str(Path(semtex.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    lines = done.stdout.splitlines()
    assert [line.split(": ", 1)[1] for line in lines[:5]] == ["ok"] * 5
    assert lines[5:] == ["checked 5 formulae, 0 warnings", "0 []"]


def test_console_script_installed():
    exe = shutil.which("semtex")
    assert exe, "semtex entry point not on PATH"
    done = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    for verb in ("convert", "replace", "stats", "verify-render"):
        assert verb in done.stdout
