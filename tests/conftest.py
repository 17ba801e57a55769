import contextlib
import ssl
import sys
import threading
from http.server import ThreadingHTTPServer
from pathlib import Path

import pytest

from semtex import builtin_glossary

DATA = Path(__file__).parent / "data"


# A self-signed certificate for 127.0.0.1 and localhost, valid 2000-2100,
# and its key: what a local https server in a test presents
TLS_CERT = DATA / "tls-test-cert.pem"
TLS_KEY = DATA / "tls-test-key.pem"


@contextlib.contextmanager
def serving(handler, tls=False):
    """The endpoint of a local server that answers with handler, over
    https with TLS_CERT when tls is true; it polls for shutdown every
    50 ms."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(TLS_CERT, TLS_KEY)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
    try:
        yield f"{'https' if tls else 'http'}://127.0.0.1:{server.server_address[1]}/"
    finally:
        server.shutdown()
        server.server_close()


@pytest.fixture(scope="session")
def glossary():
    return builtin_glossary()


@pytest.fixture(scope="session")
def mini_source():
    return (DATA / "kls_mini.tex").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def mini_extraction(glossary, mini_source):
    from semtex.metadata import extract_document

    return extract_document(mini_source, glossary, citation_key="KLS")


@pytest.fixture
def lexed(monkeypatch):
    """The (start, end) of every token the lexer gives during a test,
    keyed by the text lexed, in the order given.  Every lexing call in
    semtex.lexer goes through its _TOKEN_RE, which this stands in for."""
    import semtex.lexer

    real = semtex.lexer._TOKEN_RE
    spans: dict[str, list[tuple[int, int]]] = {}

    class Recording:
        def findall(self, text, pos=0, endpos=sys.maxsize):
            got = real.findall(text, pos, endpos)
            out = spans.setdefault(text, [])
            for t in got:
                out.append((pos, pos + len(t)))
                pos += len(t)
            return got

        def finditer(self, text, pos=0, endpos=sys.maxsize):
            out = spans.setdefault(text, [])
            for m in real.finditer(text, pos, endpos):
                out.append(m.span())
                yield m

    monkeypatch.setattr(semtex.lexer, "_TOKEN_RE", Recording())
    return spans


def lex_windows(source):
    """The source extents the scans of a document may lex, from its
    whole-document lex: each math environment, delimiters included, and
    the braces after each structural mark (past spaces and a *), or the
    one token after it that is no brace."""
    import lexing_oracle

    texts, starts = lexing_oracle.lex(source)
    marks = lexing_oracle.marks(source, texts, starts)
    n = len(texts)
    out = [outer for *_, outer in lexing_oracle.marked_row_ranges(texts, starts, marks)]
    for k in marks:
        j = k + 1
        while j < n and texts[j][0].isspace():
            j += 1
        if j < n and texts[j] == "*":
            j += 1
        got = lexing_oracle.group_text(texts, j, n)
        out.append((starts[k], starts[got[1] if got else min(j + 1, n)]))
    return out


def assert_lexed_once_in_windows(source, spans):
    """No character of source was lexed twice, and each token lexed lies
    in one of its lex_windows."""
    got = sorted(spans.get(source, ()))
    assert all(a[1] <= b[0] for a, b in zip(got, got[1:])), "a character was lexed twice"
    windows = lex_windows(source)
    for a, b in got:
        assert any(p <= a and b <= q for p, q in windows), (a, b, source[a:b])


def prose_document(times):
    """Headed rows and alignment rows between gaps of prose, each gap the
    same prose times over: comments, escaped signs, a sentence end in
    braces and control words, but no math."""
    prose = (
        "The weight is positive. Costs \\$5, or 50\\%, % a {note} $ \\[\n"
        "\\emph{see} {the.} table!\n"
    )
    parts = []
    for k in range(12):
        if k % 4 == 0:
            parts.append(f"\\subsection{{T{k}}}\n")
        parts.append(prose * times)
        parts.append(
            f"\\begin{{equation}}\\label{{e{k}}} x_{{{k}}} = \\frac{{a}}{{b}} \\end{{equation}}\n"
        )
    parts.append("\\begin{align} a &= b \\\\ c &= d \\end{align}\n")
    return "".join(parts)
