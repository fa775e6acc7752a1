"""A minimal asyncio HTTP/1.1 client for the end-to-end server tests.

One keep-alive connection issuing sequential requests over stdlib streams,
like the server itself; it understands both ``Content-Length`` and chunked
response bodies.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.core.exceptions import ServeError


@dataclass(frozen=True)
class ClientResponse:
    """One response as the bench client sees it."""

    status: int
    headers: Mapping[str, str]
    body: bytes

    def header(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.headers.get(name.lower(), default)


class BenchClient:
    """One keep-alive connection issuing sequential requests."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "BenchClient":
        self._reader, self._writer = await asyncio.open_connection(self.host, self.port)
        return self

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):  # pragma: no cover
                pass
            self._writer = None
            self._reader = None

    async def get(
        self, path: str, headers: Optional[Mapping[str, str]] = None
    ) -> ClientResponse:
        """Issue one GET and read the full response."""
        return await self.request("GET", path, headers=headers)

    async def post(
        self,
        path: str,
        document: object,
        headers: Optional[Mapping[str, str]] = None,
    ) -> ClientResponse:
        """Issue one POST with a JSON body and read the full response."""
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        return await self.request("POST", path, headers=headers, body=body)

    async def request(
        self,
        method: str,
        path: str,
        *,
        headers: Optional[Mapping[str, str]] = None,
        body: bytes = b"",
    ) -> ClientResponse:
        """Issue one request and read the full response (chunked or not)."""
        if self._reader is None or self._writer is None:
            raise ServeError(500, "client connection is not open")
        lines = [f"{method} {path} HTTP/1.1", f"Host: {self.host}:{self.port}"]
        for name, value in (headers or {}).items():
            lines.append(f"{name}: {value}")
        if body or method == "POST":
            lines.append("Content-Type: application/json")
            lines.append(f"Content-Length: {len(body)}")
        self._writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await self._writer.drain()

        status_line = (await self._reader.readline()).decode("latin-1").strip()
        parts = status_line.split(" ", 2)
        if len(parts) < 2 or not parts[1].isdigit():
            raise ServeError(500, f"malformed status line from server: {status_line!r}")
        status = int(parts[1])
        response_headers: Dict[str, str] = {}
        while True:
            line = (await self._reader.readline()).decode("latin-1").strip()
            if not line:
                break
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        if response_headers.get("transfer-encoding", "").lower() == "chunked":
            payload = await self._read_chunked_body()
        else:
            length = int(response_headers.get("content-length", "0"))
            payload = await self._reader.readexactly(length) if length else b""
        return ClientResponse(status=status, headers=response_headers, body=payload)

    async def _read_chunked_body(self) -> bytes:
        """Decode a chunked ``Transfer-Encoding`` response body."""
        assert self._reader is not None
        chunks: List[bytes] = []
        while True:
            size_line = (await self._reader.readline()).decode("latin-1").strip()
            try:
                size = int(size_line.split(";", 1)[0], 16)
            except ValueError:
                raise ServeError(
                    500, f"malformed chunk size from server: {size_line!r}"
                ) from None
            if size == 0:
                # Trailer section: read lines until the terminating blank one.
                while (await self._reader.readline()).strip():
                    pass
                return b"".join(chunks)
            chunks.append(await self._reader.readexactly(size))
            await self._reader.readexactly(2)  # the chunk's trailing CRLF
