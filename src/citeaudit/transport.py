"""Plain HTTP GETs over http.client, for the provider clients.

citeaudit.resolve imports this module when it builds an HTTP client, not at
start-up: offline runs never build one, and should pay neither for
http.client and ssl nor for compiling this module.
"""
from __future__ import annotations

import base64
import http.client
import json
import os
import ssl
import threading
import zlib
from urllib.parse import unquote, urlencode, urljoin, urlsplit

from . import __version__

# Redirect hops a request follows; one more fails it with cause "connection".
MAX_REDIRECTS = 10
_REDIRECT_STATUSES = frozenset({301, 302, 303, 307, 308})

# What HttpSession.get raises when a request fails. TimeoutError, an
# OSError, is the one failure the clients tell apart.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException, ValueError, zlib.error)

_tls_context: ssl.SSLContext | None = None


class Reply:
    """The parts of an HTTP reply the clients read."""

    def __init__(self, status_code: int, body: bytes, charset: str | None):
        self.status_code = status_code
        try:
            self.text = body.decode(charset or "utf-8", errors="replace")
        except LookupError:  # a charset with no Python codec
            self.text = body.decode("utf-8", errors="replace")

    def json(self):
        return json.loads(self.text)


class HttpSession:
    """GETs with one keep-alive connection per thread and host, until close().

    ``get`` follows up to MAX_REDIRECTS redirects and decodes a gzip body.
    It raises one of TRANSPORT_ERRORS when the request fails: TimeoutError,
    another OSError, http.client.HTTPException, ValueError (a URL it cannot
    send to) or zlib.error (a body that does not decode). A request on a
    reused connection that the server has closed meanwhile is sent once
    more, on a new connection; a request on a new connection never is. The
    http_proxy, https_proxy and no_proxy variables are read when the
    session is made.
    """

    def __init__(self):
        # By (thread id, netloc). A thread id is reused only once its thread
        # has ended, so no connection is ever used by two threads at once.
        self._connections: dict[tuple[int, str], http.client.HTTPConnection] = {}
        self._lock = threading.Lock()
        self._proxies = _env_proxies()
        self._headers = {
            "User-Agent": f"citeaudit/{__version__}",
            "Accept": "*/*",
            "Accept-Encoding": "gzip",
        }

    def get(self, url: str, params: dict | None = None, timeout: float | None = None) -> Reply:
        if params:
            url = f"{url}{'&' if '?' in url else '?'}{urlencode(params)}"
        for _ in range(MAX_REDIRECTS + 1):
            reply, location = self._fetch(url, timeout)
            if location is None:
                return reply
            url = urljoin(url, location)
        raise http.client.HTTPException(f"more than {MAX_REDIRECTS} redirects")

    def close(self) -> None:
        """Close every connection the session has opened. The session stays
        usable: a later request opens a new connection. Call it when no
        request is in flight."""
        with self._lock:
            connections = list(self._connections.values())
            self._connections.clear()
        for conn in connections:
            conn.close()

    def _fetch(self, url: str, timeout: float | None) -> tuple[Reply | None, str | None]:
        """One GET: the reply, or (None, Location) for a redirect."""
        parts = urlsplit(url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"cannot send a GET to {url!r}")
        proxy = self._proxy_for(parts)
        headers = self._headers
        if proxy is not None and parts.scheme == "http":
            # A plain-HTTP proxy takes the absolute URL as the request target.
            target = parts._replace(fragment="").geturl()
            headers = {**headers, **_proxy_auth(proxy)}
        else:
            target = parts.path or "/"
            if parts.query:
                target += f"?{parts.query}"
        key = (threading.get_ident(), parts.netloc)
        with self._lock:
            conn = self._connections.get(key)
        if conn is None:
            conn = _connection(parts, proxy)
            with self._lock:
                self._connections[key] = conn
        while True:
            reused = conn.sock is not None
            conn.timeout = timeout
            if reused:
                conn.sock.settimeout(timeout)
            try:
                conn.request("GET", target, headers=headers)
                response = conn.getresponse()
                body = response.read()
                break
            except BaseException as exc:
                conn.close()  # the next request on it opens a new connection
                if not (reused and isinstance(exc, (ConnectionResetError, BrokenPipeError))):
                    raise
                # The server closed the idle connection (RemoteDisconnected
                # is a ConnectionResetError): send once more, on a new one.
        location = response.getheader("Location")
        if response.status in _REDIRECT_STATUSES and location:
            return None, location
        encoding = (response.getheader("Content-Encoding") or "identity").strip().lower()
        if encoding in ("gzip", "x-gzip"):
            body = zlib.decompress(body, 16 + zlib.MAX_WBITS)
        elif encoding != "identity":
            raise http.client.HTTPException(f"unrequested Content-Encoding {encoding!r}")
        return Reply(response.status, body, response.headers.get_content_charset()), None

    def _proxy_for(self, parts):
        proxy = self._proxies.get(parts.scheme)
        if proxy is None:
            return None
        import urllib.request

        if urllib.request.proxy_bypass_environment(parts.hostname, self._proxies):
            return None
        proxy = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
        if proxy.scheme != "http" or not proxy.hostname:
            raise ValueError(f"unsupported {parts.scheme}_proxy {proxy.geturl()!r}")
        return proxy


def _env_proxies() -> dict[str, str]:
    """urllib's reading of the *_proxy variables, or {} when neither
    http_proxy nor https_proxy is set: urllib.request is a large import,
    made only when a proxy can apply."""
    if not any(name.lower() in ("http_proxy", "https_proxy") for name in os.environ):
        return {}
    import urllib.request

    return urllib.request.getproxies_environment()


def _proxy_auth(proxy) -> dict[str, str]:
    if proxy.username is None:
        return {}
    user_pass = f"{unquote(proxy.username)}:{unquote(proxy.password or '')}"
    return {"Proxy-Authorization": "Basic " + base64.b64encode(user_pass.encode()).decode()}


def _connection(parts, proxy) -> http.client.HTTPConnection:
    """An unopened connection to the URL's host, or through proxy: a
    CONNECT tunnel for HTTPS, absolute-form requests for HTTP."""
    port = parts.port or (443 if parts.scheme == "https" else 80)
    host, host_port = (parts.hostname, port) if proxy is None else (proxy.hostname, proxy.port or 80)
    if parts.scheme == "http":
        return http.client.HTTPConnection(host, host_port)
    conn = http.client.HTTPSConnection(host, host_port, context=_tls())
    if proxy is not None:
        conn.set_tunnel(parts.hostname, port, headers=_proxy_auth(proxy))
    return conn


def _tls() -> ssl.SSLContext:
    """One certificate-verifying context for the process, made on first
    HTTPS use: building it reads the system trust store (about 50 ms)."""
    global _tls_context
    if _tls_context is None:
        _tls_context = ssl.create_default_context()
    return _tls_context
