"""End-to-end checks of the four CLI verbs."""

import json
import shutil
import socket
import subprocess

import pytest

from conftest import DATA
from semtex.cli import main
from semtex.mockserver import start_server

MINI = str(DATA / "kls_mini.tex")
BIB = str(DATA / "bib.json")


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


def test_convert_requires_output(capsys):
    rc = main(["convert", "--input", MINI])
    assert rc == 2
    assert "--out" in capsys.readouterr().err


def test_convert_reports_file_failures(tmp_path, capsys):
    rc = main(
        ["convert", "--input", str(DATA / "broken.tex"), "--out", str(tmp_path / "d.xml")]
    )
    assert rc == 1
    assert "failures: 1" in capsys.readouterr().out


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
    assert "UnbalancedGroup" in captured.err
    assert (tmp_path / "kls_mini.tex").exists()  # good file still converted


def test_missing_input_is_a_config_error(tmp_path, capsys):
    rc = main(["stats", "--input", str(tmp_path / "nope.tex")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input": MINI, "bibliography": BIB, "corpus_prefix": "WRONG"}))
    out = tmp_path / "dump.xml"
    rc = main(["convert", "--config", str(cfg), "--out", str(out), "--prefix", "KLS"])
    assert rc == 0
    assert "Formula:KLS:1.1.1" in out.read_text()
    assert "WRONG" not in out.read_text()


def test_workers_flag_is_checked_like_the_config_key(tmp_path, capsys):
    rc = main(["convert", "--input", MINI, "--out", str(tmp_path / "d.xml"), "--workers", "0"])
    assert rc == 2
    assert "config error: workers must be a positive integer" in capsys.readouterr().err


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


def test_verify_render_stops_posting_to_a_dead_service(capsys, monkeypatch):
    import semtex.pipeline

    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    attempts = []
    real = semtex.pipeline.request_mathml

    def counting(latex, endpoint):
        attempts.append(latex)
        return real(latex, endpoint)

    monkeypatch.setattr(semtex.pipeline, "request_mathml", counting)
    rc = main(
        ["verify-render", "--input", MINI, "--endpoint", f"http://127.0.0.1:{port}/", "--limit", "3"]
    )
    assert rc == 0
    assert len(attempts) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1:] == [
        "1.1.2: warning: service unreachable (skipped)",
        "1.1.3: warning: service unreachable (skipped)",
        "checked 3 formulae, 3 warnings",
    ]


def test_console_script_installed():
    exe = shutil.which("semtex")
    assert exe, "semtex entry point not on PATH"
    done = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert done.returncode == 0
    for verb in ("convert", "replace", "stats", "verify-render"):
        assert verb in done.stdout
