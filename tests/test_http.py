"""The stdlib HTTP transport against loopback servers: keep-alive reuse,
stale-connection resends, gzip, redirects, timeouts, threads and proxies."""
from __future__ import annotations

import base64
import gzip
import json
import os
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

import pytest

import citeaudit
from citeaudit.report import EXIT_OK
from citeaudit.resolve import _new_session, _send
from citeaudit.transport import MAX_REDIRECTS

_PROXY_VARS = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    """Each test starts with no proxy variable set, whatever the host has."""
    for name in _PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "_Server"

    def setup(self) -> None:
        super().setup()
        # Header and body go out in separate writes; without this, Nagle's
        # algorithm and delayed ACKs add 40 ms to each reply.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        with self.server.lock:
            self.server.connections += 1

    def finish(self) -> None:
        # Runs once the client has closed the connection.
        super().finish()
        with self.server.lock:
            self.server.closed += 1

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass

    def _reply(self, status: int, body: bytes = b"", headers: dict | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def do_CONNECT(self) -> None:  # noqa: N802 - stdlib hook name
        self.server.log.append((self.requestline, dict(self.headers)))
        self._reply(502)
        self.close_connection = True

    def do_GET(self) -> None:  # noqa: N802 - stdlib hook name
        self.server.log.append((self.requestline, dict(self.headers)))
        url = urlsplit(self.path)
        query = parse_qs(url.query)
        if url.path == "/echo":
            self._reply(200, query["v"][0].encode(), {"Content-Type": "text/plain"})
        elif url.path == "/drop":
            # Replies as if keeping the connection, then closes it: an idle
            # connection the server times out.
            self._reply(200, b"dropped")
            self.close_connection = True
        elif url.path == "/hangup":
            self.close_connection = True  # no reply at all
        elif url.path == "/gzip":
            if "gzip" not in self.headers.get("Accept-Encoding", ""):
                return self._reply(406)
            body = gzip.compress(json.dumps({"ok": "zipped"}).encode())
            self._reply(200, body, {"Content-Encoding": "gzip"})
        elif url.path == "/no-codec":
            self._reply(200, "café".encode(), {"Content-Type": "text/plain; charset=x-no-such-codec"})
        elif url.path == "/deflate":
            self._reply(200, b"deflated", {"Content-Encoding": "deflate"})
        elif url.path == "/bad-gzip":
            self._reply(200, b"not gzip at all", {"Content-Encoding": "gzip"})
        elif url.path == "/redirect":
            self._reply(302, b"", {"Location": "/echo?v=landed"})
        elif url.path == "/loop":
            self._reply(301, b"", {"Location": "/loop"})
        elif url.path == "/slow":
            time.sleep(1.0)
            self._reply(200, b"late")
        elif url.path.startswith("/crossref/works/"):
            self._reply(200, json.dumps({"message": _CROSSREF_RECORD}).encode(),
                        {"Content-Type": "application/json"})
        else:
            self._reply(404)


class _Server(ThreadingHTTPServer):
    """Loopback server that logs each request line and counts connections."""

    daemon_threads = True

    def __init__(self):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.lock = threading.Lock()
        self.connections = 0
        self.closed = 0
        self.log: list[tuple[str, dict]] = []

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def handle_error(self, request, client_address) -> None:
        # A client that gave up (the timeout test) closed its end first.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def paths(self) -> list[str]:
        return [line.split()[1] for line, _ in self.log]


@contextmanager
def _serving():
    srv = _Server()
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    try:
        yield srv
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)


@pytest.fixture
def make_session():
    """Makes transport sessions, each closed when the test ends."""
    made = []

    def make():
        made.append(_new_session())
        return made[-1]

    yield make
    for session in made:
        session.close()


@pytest.fixture
def server():
    with _serving() as srv:
        yield srv


@pytest.fixture
def proxy_server():
    with _serving() as srv:
        yield srv


class TestKeepAlive:
    def test_sequential_gets_share_one_connection(self, make_session, server):
        session = make_session()
        for i in range(20):
            reply = session.get(f"{server.url}/echo", params={"v": f"n{i}"}, timeout=5)
            assert (reply.status_code, reply.text) == (200, f"n{i}")
        assert server.connections == 1

    def test_server_closed_idle_connection_is_sent_again_once(self, make_session, server):
        session = make_session()
        assert session.get(f"{server.url}/drop", timeout=5).text == "dropped"
        reply = session.get(f"{server.url}/echo?v=again", timeout=5)
        assert reply.text == "again"
        assert server.connections == 2
        assert server.paths() == ["/drop", "/echo?v=again"]

    def test_resend_happens_once(self, make_session, server):
        session = make_session()
        session.get(f"{server.url}/echo?v=warm", timeout=5)
        assert _send(session, f"{server.url}/hangup", 5) == "connection"
        # The reused connection's failure is sent once more; the new
        # connection's failure is not.
        assert server.paths() == ["/echo?v=warm", "/hangup", "/hangup"]

    def test_fresh_connection_is_never_resent(self, make_session, server):
        assert _send(make_session(), f"{server.url}/hangup", 5) == "connection"
        assert server.paths() == ["/hangup"]

    def test_threads_each_get_their_own_connection(self, make_session, server):
        session = make_session()
        barrier = threading.Barrier(4)
        results: dict[int, list[str]] = {}

        def worker(n: int) -> None:
            barrier.wait()
            results[n] = [
                session.get(f"{server.url}/echo", params={"v": f"t{n}-{j}"}, timeout=5).text
                for j in range(5)
            ]

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert results == {n: [f"t{n}-{j}" for j in range(5)] for n in range(4)}
        assert server.connections == 4

    def test_close_closes_the_connections_of_every_thread(self, make_session, server):
        session = make_session()
        # Each thread stays alive until all have sent, so each has its own id.
        barrier = threading.Barrier(3)

        def worker() -> None:
            session.get(f"{server.url}/echo?v=x", timeout=5)
            barrier.wait(timeout=10)

        threads = [threading.Thread(target=worker) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert (server.connections, server.closed) == (3, 0)
        session.close()
        deadline = time.monotonic() + 5
        while server.closed < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert server.closed == 3
        # The session stays usable: the next request opens a new connection.
        assert session.get(f"{server.url}/echo?v=again", timeout=5).text == "again"
        assert server.connections == 4


class TestReplies:
    def test_gzip_body_is_decoded(self, make_session, server):
        reply = make_session().get(f"{server.url}/gzip", timeout=5)
        assert reply.status_code == 200
        assert reply.json() == {"ok": "zipped"}

    def test_undecodable_gzip_is_connection(self, make_session, server):
        assert _send(make_session(), f"{server.url}/bad-gzip", 5) == "connection"

    def test_charset_with_no_codec_is_read_as_utf8(self, make_session, server):
        assert make_session().get(f"{server.url}/no-codec", timeout=5).text == "café"

    def test_unrequested_content_encoding_is_connection(self, make_session, server):
        assert _send(make_session(), f"{server.url}/deflate", 5) == "connection"
        assert server.paths() == ["/deflate"]

    def test_redirect_is_followed(self, make_session, server):
        reply = make_session().get(f"{server.url}/redirect", timeout=5)
        assert reply.text == "landed"
        assert server.paths() == ["/redirect", "/echo?v=landed"]

    def test_redirect_loop_is_connection(self, make_session, server):
        assert _send(make_session(), f"{server.url}/loop", 5) == "connection"
        assert server.paths() == ["/loop"] * (MAX_REDIRECTS + 1)

    def test_status_is_passed_through(self, make_session, server):
        assert make_session().get(f"{server.url}/missing", timeout=5).status_code == 404


class TestFailures:
    def test_slow_reply_is_timeout(self, make_session, server):
        assert _send(make_session(), f"{server.url}/slow", 0.2) == "timeout"

    def test_refused_port_is_connection(self, make_session):
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        assert _send(make_session(), f"http://127.0.0.1:{port}/", 5) == "connection"

    @pytest.mark.parametrize("url", ["ftp://example.org/x", "http:///no-host", "http://h:99999/"])
    def test_unsendable_url_is_connection(self, make_session, url):
        assert _send(make_session(), url, 5) == "connection"


class TestProxies:
    def test_http_proxy_gets_an_absolute_form_request(self, make_session, server, monkeypatch):
        proxy = server.url.replace("http://", "http://user:p%40ss@")
        monkeypatch.setenv("http_proxy", proxy)
        reply = make_session().get("http://works.example/echo?v=via-proxy", timeout=5)
        assert reply.text == "via-proxy"
        line, headers = server.log[0]
        assert line == "GET http://works.example/echo?v=via-proxy HTTP/1.1"
        assert headers["Host"] == "works.example"
        token = base64.b64encode(b"user:p@ss").decode()
        assert headers["Proxy-Authorization"] == f"Basic {token}"

    def test_no_proxy_bypasses_the_proxy(self, make_session, server, proxy_server, monkeypatch):
        monkeypatch.setenv("HTTP_PROXY", proxy_server.url)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1,localhost")
        assert make_session().get(f"{server.url}/echo?v=direct", timeout=5).text == "direct"
        assert server.paths() == ["/echo?v=direct"]
        assert proxy_server.log == []

    def test_socks_proxy_is_connection_and_sends_nothing(self, make_session, server, monkeypatch):
        monkeypatch.setenv("http_proxy", "socks5://127.0.0.1:1080")
        assert _send(make_session(), f"{server.url}/echo?v=x", 5) == "connection"
        assert server.log == []

    def test_https_proxy_tunnels_with_connect(self, make_session, server, monkeypatch):
        monkeypatch.setenv("https_proxy", server.url)
        # The test proxy refuses the tunnel, so the request fails.
        assert _send(make_session(), "https://works.example/x", 5) == "connection"
        assert [line for line, _ in server.log] == ["CONNECT works.example:443 HTTP/1.0"]


_CROSSREF_RECORD = {
    "title": ["Deep learning"],
    "container-title": ["Nature"],
    "author": [
        {"given": "Yann", "family": "LeCun"},
        {"given": "Yoshua", "family": "Bengio"},
        {"given": "Geoffrey", "family": "Hinton"},
    ],
    "issued": {"date-parts": [[2015, 5, 28]]},
    "DOI": "10.1038/nature14539",
}

_BIB = """@article{lecun2015deep,
  author = {Yann LeCun and Yoshua Bengio and Geoffrey Hinton},
  title = {Deep learning},
  journal = {Nature},
  year = {2015},
  doi = {10.1038/nature14539},
}
"""


def test_verify_runs_with_requests_blocked(server, tmp_path):
    # sys.modules["requests"] = None makes any import of requests fail.
    (tmp_path / "refs.bib").write_text(_BIB, encoding="utf-8")
    (tmp_path / "citeaudit.ini").write_text(
        "".join(
            f"[provider.{name}]\nendpoint = {server.url}/{name}{suffix}\n"
            for name, suffix in (("crossref", ""), ("arxiv", "/api/query"), ("openalex", ""))
        ),
        encoding="utf-8",
    )
    src = str(Path(citeaudit.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k.lower() not in _PROXY_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import sys; sys.modules['requests'] = None; from citeaudit.cli import main; "
        "sys.exit(main(['verify', 'refs.bib', '--config', 'citeaudit.ini']))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == EXIT_OK, result.stdout + result.stderr
    assert "verified 1, hallucinated 0, unverifiable 0" in result.stdout
    assert server.paths() == ["/crossref/works/10.1038%2Fnature14539"]
