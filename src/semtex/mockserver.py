"""Stand-in for the external rendering service, for tests and demos.

POST a non-empty LaTeX string to any path and the server answers with
canned presentation and content MathML wrapping the input; empty bodies
get a 400.  Run directly with `python -m semtex.mockserver --port N`;
port 0 picks a free one, and the URL printed names it.
"""

from __future__ import annotations

import argparse
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from xml.sax.saxutils import escape

MATHML_NS = "http://www.w3.org/1998/Math/MathML"


def response_for(latex: str) -> str:
    body = escape(latex)
    return (
        "<latexml>"
        f'<presentation><math xmlns="{MATHML_NS}">'
        f"<mrow><mtext>{body}</mtext></mrow></math></presentation>"
        f'<content><math xmlns="{MATHML_NS}">'
        f"<apply><csymbol>{body}</csymbol></apply></math></content>"
        "</latexml>"
    )


class _Handler(BaseHTTPRequestHandler):
    # every response has a Content-Length, so a client may keep its
    # connection for the next request
    protocol_version = "HTTP/1.1"
    # the headers and the body are two writes: without this the body
    # waits for the client to acknowledge the headers
    disable_nagle_algorithm = True

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        data = self.rfile.read(length).decode("utf-8")
        if not data.strip():
            payload = b"empty input"
            self.send_response(400)
            self.send_header("Content-Type", "text/plain")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
            return
        payload = response_for(data).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/xml; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args) -> None:
        pass


class _Server(ThreadingHTTPServer):
    def shutdown(self) -> None:
        """Stop serving and free the listening socket."""
        super().shutdown()
        self.server_close()


def start_server(port: int = 0) -> ThreadingHTTPServer:
    """Start the mock on a background thread; caller shuts it down, which
    also closes its socket.  It polls for shutdown every 50 ms."""
    server = _Server(("127.0.0.1", port), _Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--port", type=int, default=8765)
    args = parser.parse_args(argv)
    server = ThreadingHTTPServer(("127.0.0.1", args.port), _Handler)
    # port 0 binds a free port, so the URL names the one bound
    print(f"mock rendering service on http://127.0.0.1:{server.server_address[1]}/", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
