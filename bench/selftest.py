"""Self-tests of the benchmark's generator, checks and tracer.

    python3 -m pytest -q bench/selftest.py

Not named test_*.py, so the repository's own test run does not collect it.
"""

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import corpus  # noqa: E402
import hostref  # noqa: E402
import tracing  # noqa: E402
from semtex import builtin_glossary  # noqa: E402
from semtex.lexer import extract_math  # noqa: E402
from semtex.pipeline import PipelineConfig, run_pipeline  # noqa: E402

DATA = ROOT / "tests" / "data"


def _small_dense(seed=3):
    return corpus.dense_unit(seed, rows=60, defs=8)


def _convert(c, tmp_path):
    for name, text in c.files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    run = run_pipeline(PipelineConfig(inputs=[tmp_path]), write=False)
    assert run.exit_code == 0 and not run.failures
    return checks.dump_pages(run.dump)


def test_generator_is_deterministic():
    for make in (
        lambda s: corpus.compendium(s, files=2, rows_per_file=30),
        lambda s: corpus.dense_unit(s, rows=60, defs=8),
    ):
        a, b, other = make(11), make(11), make(12)
        assert a.files == b.files
        assert a.defs == b.defs and a.rows == b.rows
        assert a.files != other.files


def test_golden_check_rejects_a_corrupted_dump_or_report():
    dump = (DATA / "golden_dump.xml").read_text(encoding="utf-8")
    report = (DATA / "golden_report.txt").read_text(encoding="utf-8")
    assert checks.golden(dump, report, dump, report) == []
    bad_dump = dump.replace("EulerGamma", "EulerGama", 1)
    bad_report = report.replace("pages: 28", "pages: 27")
    assert checks.golden(bad_dump, report, dump, report)
    assert checks.golden(dump, bad_report, dump, report)


def test_substitution_ground_truth_holds_and_catches_a_mismatch(tmp_path):
    c = _small_dense()
    pages = _convert(c, tmp_path)
    assert len(pages) == len(c.rows) - len(c.defs)
    assert checks.substitutions(pages, c) == []
    assert any(c.expected_substitutions().values())

    # the ground truth names one more def than the program should find
    more = copy.deepcopy(c)
    row = next(r for r in more.rows if not r.is_def)
    row.is_def = True
    more.defs[row.label] = (row.unit, "\\Nothing_1", ())
    assert checks.substitutions(pages, more)

    # a page lost one of its substitution annotations
    title, text = next((t, x) for t, x in pages.items() if "== Substitutions ==" in x)
    start = text.index("== Substitutions ==\n") + len("== Substitutions ==\n")
    line_end = text.index("\n", start) + 1
    assert checks.substitutions({**pages, title: text[:start] + text[line_end:]}, c)


def test_non_def_rows_never_parse_as_defs(tmp_path):
    c = corpus.compendium(5, files=1, rows_per_file=60)
    pages = _convert(c, tmp_path)
    assert checks.substitutions(pages, c) == []


def test_engine_sample_matches_oracle():
    c = corpus.compendium(4, files=1, rows_per_file=20)
    assert checks.engine_sample([r.body for r in c.rows], builtin_glossary()) == []


def test_tracer_counts_nested_tokenize():
    import semtex.lexer

    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        spans = semtex.lexer.extract_math("text $x$ and $y$")
    finally:
        tracer.uninstall()
    assert len(spans) == 2
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[2], []).append(s)
    (outer,) = by_name["lexer.extract_math"]
    (inner,) = by_name["lexer.tokenize"]
    assert inner[1] == outer[0]
    assert outer[3] <= inner[3] <= inner[4] <= outer[4]
    metrics = tracing.layer_metrics(tracer.spans, tracer.counts)
    assert metrics["lexer.tokenize.calls"] == 1
    assert metrics["lexer.tokens"] > 0
    assert semtex.lexer.extract_math.__module__ == "semtex.lexer"
    assert not hasattr(semtex.lexer.tokenize, "__wrapped__")


def test_tracer_counts_match_at_hits():
    import semtex.engine
    from semtex import canonicalize_string

    g = builtin_glossary()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        semtex.engine.replace_all(canonicalize_string("\\Gamma(z)+x", g.settings), g)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert counts["engine.match_at.hits"] == 1
    assert counts["engine.match_at.attempts"] > len(g.rules)


def test_rerun_changed_counts_spans():
    a = "x $a$ y $b$"
    assert checks.rerun_changed(a, a) == (2, 0)
    assert checks.rerun_changed(a, "x $a$ y $c$") == (2, 1)
    assert len(extract_math(a)) == 2


def test_host_reference_is_fixed_work():
    text = hostref._text()
    assert text == hostref._text()
    counts = {}
    once = hostref._render(hostref._parse(text), hostref._REPLACE, counts)
    assert "\\EulerGamma" in once and "\\Gamma" not in once
    assert hostref.reference(text[:2000], reps=1) > 0
