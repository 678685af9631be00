"""Minimal HTTP message model for the simulated network."""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field
from urllib.parse import urlparse

__all__ = ["HttpRequest", "HttpResponse", "HttpStatus", "split_url"]


class HttpStatus(enum.IntEnum):
    OK = 200
    NOT_FOUND = 404
    INTERNAL_SERVER_ERROR = 500
    SERVICE_UNAVAILABLE = 503


@dataclass(frozen=True)
class HttpRequest:
    method: str
    url: str
    body: bytes = b""
    headers: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in ("GET", "POST"):
            raise ValueError(f"unsupported HTTP method {self.method!r}")

    @property
    def host(self) -> str:
        return split_url(self.url)[0]

    @property
    def path(self) -> str:
        return split_url(self.url)[1]


@dataclass(frozen=True)
class HttpResponse:
    status: HttpStatus
    body: bytes = b""
    headers: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == HttpStatus.OK


@functools.lru_cache(maxsize=8192)
def split_url(url: str) -> tuple[str, str]:
    """Return (host, path) of an http[s] URL.

    Memoised (bounded): every request and fault decision splits its URL,
    and a few thousand URLs recur -- one ``paper-sweep`` benchmark pass
    splits 145,784 URLs of 2,540 distinct, one ``serve-fleet`` pass
    213,087 of 5,354 (docs/PERFORMANCE.md).  The bound holds a whole
    fleet pass, so nothing there is evicted.  Non-HTTP URLs raise on
    every call, since failures are never cached.
    """
    parsed = urlparse(url)
    if parsed.scheme not in ("http", "https"):
        raise ValueError(f"not an http[s] URL: {url!r}")
    return parsed.netloc, parsed.path or "/"
