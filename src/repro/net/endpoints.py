"""HTTP endpoints served inside the simulation.

* :class:`CrlEndpoint` serves a CA's current CRL bytes for a distribution
  point URL.
* :class:`OcspEndpoint` answers OCSP GET/POST queries from a CA responder.
* :class:`StaticEndpoint` serves fixed bytes (used by tests and by the
  CRLSet distribution URL).
"""

from __future__ import annotations

import datetime
from typing import Callable, Protocol

from repro.net.http import HttpRequest, HttpResponse, HttpStatus
from repro.revocation.ocsp import OcspRequest, OcspResponse, OcspResponseStatus

__all__ = ["CrlEndpoint", "Endpoint", "OcspEndpoint", "StaticEndpoint"]


class Endpoint(Protocol):
    """Anything that can answer an HTTP request at a simulated instant."""

    def handle(self, request: HttpRequest, at: datetime.datetime) -> HttpResponse: ...


class StaticEndpoint:
    """Serves fixed bytes for GET requests."""

    def __init__(self, body: bytes, content_type: str = "application/octet-stream"):
        self._body = body
        self._content_type = content_type

    def handle(self, request: HttpRequest, at: datetime.datetime) -> HttpResponse:
        if request.method != "GET":
            return HttpResponse(HttpStatus.NOT_FOUND)
        return HttpResponse(
            HttpStatus.OK, self._body, {"content-type": self._content_type}
        )


class CrlEndpoint:
    """Serves the issuing CA's *current* CRL.

    ``crl_bytes_provider(at)`` returns the DER bytes of the CRL as of the
    simulated instant, so the endpoint always hands out a CRL whose
    thisUpdate/nextUpdate window covers ``at`` (CAs re-issue CRLs
    periodically even if nothing new was revoked, §2.2).
    """

    def __init__(self, crl_bytes_provider: Callable[[datetime.datetime], bytes]):
        self._provider = crl_bytes_provider

    def handle(self, request: HttpRequest, at: datetime.datetime) -> HttpResponse:
        if request.method != "GET":
            return HttpResponse(HttpStatus.NOT_FOUND)
        try:
            body = self._provider(at)
        except Exception:
            return HttpResponse(HttpStatus.INTERNAL_SERVER_ERROR)
        return HttpResponse(
            HttpStatus.OK, body, {"content-type": "application/pkix-crl"}
        )


class OcspEndpoint:
    """Answers OCSP queries.

    ``responder(request, at)`` maps an :class:`OcspRequest` to an
    :class:`OcspResponse`.  ``accept_get`` models stock OpenSSL responders
    that only accept POST (§6.2 footnote 18); the paper patched theirs to
    accept GET, and so does our default.

    ``force_unknown`` makes the responder answer ``unknown`` regardless --
    one of the test suite's failure modes.
    """

    def __init__(
        self,
        responder: Callable[[OcspRequest, datetime.datetime], OcspResponse],
        accept_get: bool = True,
    ) -> None:
        self._responder = responder
        self.accept_get = accept_get

    def handle(self, request: HttpRequest, at: datetime.datetime) -> HttpResponse:
        if request.method == "GET" and not self.accept_get:
            return HttpResponse(HttpStatus.NOT_FOUND)
        try:
            if request.method == "POST":
                ocsp_request = OcspRequest.from_der(request.body, use_get=False)
            else:
                # GET carries the request DER in the path in real OCSP; our
                # simulation passes it in the body either way for clarity.
                ocsp_request = OcspRequest.from_der(request.body, use_get=True)
        except Exception:
            error = OcspResponse.error(OcspResponseStatus.MALFORMED_REQUEST)
            return HttpResponse(HttpStatus.OK, error.to_der())
        try:
            response = self._responder(ocsp_request, at)
        except Exception:
            error = OcspResponse.error(OcspResponseStatus.INTERNAL_ERROR)
            return HttpResponse(HttpStatus.OK, error.to_der())
        return HttpResponse(
            HttpStatus.OK,
            response.to_der(),
            {"content-type": "application/ocsp-response"},
        )
