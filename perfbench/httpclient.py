"""A minimal keep-alive HTTP/1.1 client for the serve workloads.

The benchmark carries its own client so that the client side of every
serve op is benchmark code: a change to the program's own load generator
can neither break nor speed up the measurement.  It speaks exactly what the
workloads need — one request at a time per connection, ``Content-Length``
bodies — and raises on anything else.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

#: Header that tags a request with its op id, so the traced run can
#: attribute server-side spans to the client op that caused them.  Sent on
#: every request, traced or not, so both runs put the same bytes on the wire.
OP_HEADER = "X-Perfbench-Op"


class HttpClient:
    """One keep-alive connection issuing sequential requests."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, host: str) -> None:
        self._reader = reader
        self._writer = writer
        self._host = host

    @classmethod
    async def connect(cls, host: str, port: int) -> "HttpClient":
        reader, writer = await asyncio.open_connection(host, port)
        return cls(reader, writer, f"{host}:{port}")

    async def close(self) -> None:
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    async def request(
        self, method: str, path: str, *, op: int = -1, document: Any = None
    ) -> Tuple[int, Dict[str, str], bytes]:
        """Send one request and read its whole response: (status, headers, body)."""
        body = b"" if document is None else json.dumps(document).encode("utf-8")
        head = f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n{OP_HEADER}: {op}\r\n"
        if method == "POST":
            head += f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
        self._writer.write(head.encode("latin-1") + b"\r\n" + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        parts = status_line.split(b" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ConnectionError(f"malformed status line {status_line!r}")
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if "transfer-encoding" in headers:
            raise ConnectionError("chunked responses are not expected here")
        length = int(headers.get("content-length", "0"))
        payload = await self._reader.readexactly(length) if length else b""
        return int(parts[1]), headers, payload

    async def json(self, method: str, path: str, *, document: Any = None) -> Dict[str, Any]:
        """A request whose 200 response is a JSON object (raises otherwise)."""
        status, _, body = await self.request(method, path, document=document)
        if status != 200:
            raise ConnectionError(f"{method} {path} answered {status}: {body[:200]!r}")
        return json.loads(body)
