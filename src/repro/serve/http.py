"""Minimal HTTP/1.1 request parsing and response encoding over asyncio streams.

The result service deliberately depends on nothing beyond the standard
library, so this module implements the narrow slice of HTTP it needs:
GET/POST request lines, a bounded header block, ``Content-Length`` request
bodies (bounded, for the write-path endpoints), percent-decoded paths,
query strings, keep-alive, ``If-None-Match``/``ETag`` handling, and
chunked ``Transfer-Encoding`` responses for NDJSON result streams.
Anything outside that slice (chunked *request* bodies, upgrades) is
rejected up front with a 400/413/431 rather than half-parsed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AsyncIterator, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import parse_qs, unquote, urlsplit

import asyncio

from repro.core.exceptions import ServeError

#: Upper bound on one request line or header line, in bytes.
MAX_LINE_BYTES = 8192

#: Upper bound on the number of header lines in one request.
MAX_HEADER_COUNT = 100

#: Upper bound on a request body (job submissions and bulk-result
#: selections are small JSON documents; anything bigger is a client bug).
MAX_BODY_BYTES = 1 << 20

#: Reason phrases for every status the service emits.
REASON_PHRASES = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True)
class HttpRequest:
    """One parsed request: method, decoded path, query multi-dict, headers,
    and (for the write-path endpoints) the raw request body."""

    method: str
    target: str
    path: str
    query: Mapping[str, List[str]]
    version: str
    headers: Mapping[str, str]
    body: bytes = b""

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """A header value by case-insensitive name."""
        return self.headers.get(name.lower(), default)

    @property
    def keep_alive(self) -> bool:
        """Whether the connection should stay open after the response."""
        connection = (self.header("connection") or "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


@dataclass(frozen=True)
class HttpResponse:
    """One response ready to encode: status, JSON body, extra headers."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def encode(self, *, keep_alive: bool = True) -> bytes:
        """Serialize to wire bytes (status line, headers, blank line, body)."""
        reason = REASON_PHRASES.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}"]
        if self.status != 304:
            # A 304 must not carry Content-Type/Content-Length describing its
            # (empty) body — RFC 9110 reserves those slots for the selected
            # representation's metadata, which we don't re-derive.
            lines.append(f"Content-Type: {self.content_type}")
            lines.append(f"Content-Length: {len(self.body)}")
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        if self.status == 304:
            return head
        return head + self.body


@dataclass
class StreamingHttpResponse:
    """A response whose body arrives incrementally (NDJSON result streams).

    The body is an async iterator of byte chunks; the connection handler
    frames each chunk with HTTP/1.1 chunked ``Transfer-Encoding`` so the
    client can consume results as they are computed, without the server ever
    holding a whole sweep in memory.  Content-Length is unknowable up front,
    which is exactly what chunked framing exists for.
    """

    status: int
    chunks: AsyncIterator[bytes]
    content_type: str = "application/x-ndjson"
    headers: Tuple[Tuple[str, str], ...] = field(default_factory=tuple)

    def encode_head(self, *, keep_alive: bool = True) -> bytes:
        """The status line and headers announcing a chunked body."""
        reason = REASON_PHRASES.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"Content-Type: {self.content_type}",
            "Transfer-Encoding: chunked",
        ]
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        lines.append("Connection: " + ("keep-alive" if keep_alive else "close"))
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def encode_chunk(data: bytes) -> bytes:
    """One chunked-transfer frame (empty input encodes to nothing)."""
    if not data:
        return b""
    return f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n"


#: The terminating frame of a chunked response body.
LAST_CHUNK = b"0\r\n\r\n"


async def read_request(reader: asyncio.StreamReader) -> Optional[HttpRequest]:
    """Parse one request from the stream.

    Returns ``None`` on a clean end-of-stream before any byte of a request
    (the client closed a keep-alive connection), raises :class:`ServeError`
    on anything malformed.
    """
    try:
        raw_line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ServeError(400, "truncated request line") from error
    except asyncio.LimitOverrunError as error:
        raise ServeError(431, "request line too long") from error
    if len(raw_line) > MAX_LINE_BYTES:
        raise ServeError(431, "request line too long")
    request_line = raw_line.decode("latin-1").strip()
    if not request_line:
        raise ServeError(400, "empty request line")
    parts = request_line.split()
    if len(parts) != 3:
        raise ServeError(400, f"malformed request line: {request_line!r}")
    method, target, version = parts
    if version not in ("HTTP/1.0", "HTTP/1.1"):
        raise ServeError(400, f"unsupported protocol version {version!r}")

    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADER_COUNT + 1):
        try:
            raw_header = await reader.readuntil(b"\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError) as error:
            raise ServeError(400, "truncated header block") from error
        if len(raw_header) > MAX_LINE_BYTES:
            raise ServeError(431, "header line too long")
        line = raw_header.decode("latin-1").strip()
        if not line:
            break
        name, separator, value = line.partition(":")
        if not separator or not name.strip():
            raise ServeError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise ServeError(431, "too many header lines")

    if "transfer-encoding" in headers:
        # Chunked request bodies are outside this server's HTTP slice; a
        # half-parsed one would desynchronize the keep-alive stream.
        raise ServeError(400, "chunked request bodies are not supported")
    body = b""
    raw_length = headers.get("content-length")
    if raw_length is not None:
        try:
            length = int(raw_length)
        except ValueError:
            raise ServeError(400, f"malformed Content-Length: {raw_length!r}") from None
        if length < 0:
            raise ServeError(400, f"malformed Content-Length: {raw_length!r}")
        if length > MAX_BODY_BYTES:
            raise ServeError(
                413, f"request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise ServeError(400, "truncated request body") from error

    split = urlsplit(target)
    return HttpRequest(
        method=method,
        target=target,
        path=unquote(split.path),
        query=parse_qs(split.query, keep_blank_values=True),
        version=version,
        headers=headers,
        body=body,
    )


def etag_for(key: str) -> str:
    """The strong entity tag for a cache key (the quoted key itself)."""
    return f'"{key}"'


def if_none_match_matches(header_value: Optional[str], etag: str) -> bool:
    """Whether an ``If-None-Match`` header matches ``etag``.

    Implements the subset a cache-key ETag needs: ``*`` matches anything,
    otherwise the comma-separated candidates are compared after stripping
    any weak ``W/`` prefix (weak comparison is fine for 304 purposes).
    """
    if not header_value:
        return False
    if header_value.strip() == "*":
        return True
    bare = etag.strip('"')
    for candidate in header_value.split(","):
        candidate = candidate.strip()
        if candidate.startswith("W/"):
            candidate = candidate[2:].strip()
        if candidate.strip('"') == bare:
            return True
    return False
