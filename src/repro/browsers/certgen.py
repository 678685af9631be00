"""Per-test PKI fixtures for the browser test suite (§6.1-6.2).

For each test the paper generated a unique chain (root installed as
trusted, intermediates, leaf), a dedicated web server, CRLs, and OCSP
responders.  :class:`TestPki` builds the equivalent inside the simulation:
real signed certificates, a private :class:`~repro.net.transport.Network`
with CRL/OCSP endpoints, failure injection for the four unavailability
modes, and OCSP staples served through an nginx-like cache modified (as
the paper modified nginx) to staple any status.

Building a PKI (key generation and certificate signing) is the expensive
part, so one instance can serve many client runs: :meth:`TestPki.checker`
hands every run a fresh client, and :meth:`TestPki.restart_servers` puts
the server side back to its just-built state between runs.

Replayed runs mostly see the same wire artefacts, so none is derived
twice: the CA's CRL publishers and OCSP responders memoise each signed
response (and its DER), every run's fetcher shares this PKI's memo of
parsed responses, and certificates cache their decoded extensions.  Each
memo is keyed by all the inputs of what it holds (every signed field;
the exact response bytes), so a scenario change -- :meth:`TestPki.revoke`,
:meth:`TestPki.make_unavailable`, :meth:`TestPki.set_staple` -- makes new
keys rather than stale hits, and nothing needs invalidating.  The memos
live and die with their publisher, responder, PKI or certificate.
"""

from __future__ import annotations

import datetime

from repro.ca.authority import CertificateAuthority
from repro.net.cache import ClientCache
from repro.net.endpoints import CrlEndpoint, OcspEndpoint
from repro.net.fetcher import NetworkFetcher
from repro.net.transport import FailureMode, Network
from repro.net.tls import TlsServer
from repro.pki.certificate import Certificate
from repro.pki.keys import KeyPair
from repro.revocation.checker import RevocationChecker
from repro.revocation.ocsp import CertStatus, OcspResponse
from repro.revocation.reason import ReasonCode
from repro.revocation.stapling import StapleCache, StaplePolicy

__all__ = ["TestPki"]

_UTC = datetime.timezone.utc
_NOW = datetime.datetime(2015, 3, 31, 12, 0, tzinfo=_UTC)
_NOT_BEFORE = datetime.datetime(2014, 6, 1, tzinfo=_UTC)
_NOT_AFTER = datetime.datetime(2016, 6, 1, tzinfo=_UTC)

_FAILURE_MODES = {
    "nxdomain": FailureMode.NXDOMAIN,
    "http404": FailureMode.HTTP_404,
    "no_response": FailureMode.NO_RESPONSE,
}


class TestPki:
    """One test's certificates, network, and revocation services.

    ``protocols`` is the chain-wide pointer set (§6.1: "for each chain,
    all certificates contain either CRL distribution points or OCSP
    responders", or both): a subset of {"crl", "ocsp"}.
    """

    __test__ = False  # "Test" prefix is domain naming, not a pytest class

    def __init__(
        self,
        test_id: str,
        n_intermediates: int,
        protocols: frozenset[str] | set[str],
        ev: bool,
        now: datetime.datetime = _NOW,
    ) -> None:
        if not 0 <= n_intermediates <= 5:
            raise ValueError("n_intermediates out of range")
        protocols = frozenset(protocols)
        if not protocols <= {"crl", "ocsp"}:
            raise ValueError(f"unknown protocols: {protocols}")
        self.test_id = test_id
        self.protocols = protocols
        self.now = now
        self.network = Network()
        self._domain = f"test-{test_id}.example"

        # Build the CA hierarchy: root -> intN -> ... -> int1 (signs leaf).
        self.cas: list[CertificateAuthority] = []
        root = CertificateAuthority.create_root(
            common_name=f"Test Root {test_id}",
            seed=f"suite/{test_id}/root",
            not_before=_NOT_BEFORE,
            not_after=_NOT_AFTER,
            **self._channel_kwargs("root"),
        )
        self._wire_endpoints(root, "root")
        self.cas.append(root)
        parent = root
        for depth in range(n_intermediates, 0, -1):
            label = f"int{depth}"
            child = parent.create_intermediate(
                common_name=f"Test Intermediate {depth} {test_id}",
                seed=f"suite/{test_id}/{label}",
                not_before=_NOT_BEFORE,
                not_after=_NOT_AFTER,
                include_crl="crl" in protocols,
                include_ocsp="ocsp" in protocols,
                **self._channel_kwargs(label),
            )
            self._wire_endpoints(child, label)
            self.cas.append(child)
            parent = child

        leaf_keys = KeyPair.generate(f"suite/{test_id}/leaf")
        self.leaf: Certificate = parent.issue_leaf(
            common_name=self._domain,
            public_key=leaf_keys.public_key,
            not_before=_NOT_BEFORE,
            not_after=_NOT_AFTER,
            ev=ev,
            include_crl="crl" in protocols,
            include_ocsp="ocsp" in protocols,
        )
        #: chain as presented in the handshake: [leaf, int1, ..., root].
        self.chain: list[Certificate] = [self.leaf] + [
            ca.certificate for ca in reversed(self.cas)
        ]
        self.trusted_roots = frozenset({root.certificate.fingerprint})
        self._staple: OcspResponse | None = None
        #: the web server, started by the first handshake.
        self.tls_server: TlsServer | None = None
        #: (kind[, url], response bytes) -> parsed response, shared by
        #: every run's fetcher (see :meth:`checker`).
        self._decoded: dict = {}

    # -- construction helpers ---------------------------------------------

    def _channel_kwargs(self, label: str) -> dict:
        kwargs: dict = {}
        if "crl" in self.protocols:
            kwargs["crl_base_url"] = f"http://crl-{label}.{self._domain}"
        if "ocsp" in self.protocols:
            kwargs["ocsp_url"] = f"http://ocsp-{label}.{self._domain}/q"
        return kwargs

    def _wire_endpoints(self, ca: CertificateAuthority, label: str) -> None:
        if ca.crl_publisher is not None:
            for url in ca.crl_publisher.urls:
                publisher = ca.crl_publisher
                self.network.register(
                    url,
                    CrlEndpoint(
                        lambda at, publisher=publisher, url=url: publisher.encode(
                            url, at
                        ).to_der()
                    ),
                )
        if ca.ocsp_responder is not None:
            responder = ca.ocsp_responder
            self.network.register(ca.ocsp_url, OcspEndpoint(responder.respond))

    # -- element addressing --------------------------------------------------

    def element(self, index: int) -> Certificate:
        """0 = leaf, 1 = int1 (signed the leaf), ..., len-1 = root."""
        return self.chain[index]

    def issuer_ca_of(self, index: int) -> CertificateAuthority:
        """The CA that issued chain element ``index``."""
        if index >= len(self.chain) - 1:
            raise ValueError("the root has no issuer")
        # cas is [root, intN, ..., int1]; element i is issued by the CA
        # whose certificate is chain[i + 1].
        issuer_cert = self.chain[index + 1]
        for ca in self.cas:
            if ca.certificate.fingerprint == issuer_cert.fingerprint:
                return ca
        raise LookupError("issuer CA not found")

    # -- scenario controls ----------------------------------------------------

    def revoke(self, index: int, reason: ReasonCode | None = None) -> None:
        certificate = self.element(index)
        issuer = self.issuer_ca_of(index)
        issuer.revoke(
            certificate.serial_number,
            self.now - datetime.timedelta(days=10),
            reason,
        )

    def make_unavailable(self, index: int, protocol: str, mode: str) -> None:
        """Apply one of §6.1's failure modes to the element's revocation
        URL(s) for ``protocol``."""
        certificate = self.element(index)
        if mode == "unknown":
            self.issuer_ca_of(index).ocsp_responder.force_unknown = True
            return
        failure = _FAILURE_MODES[mode]
        urls = certificate.crl_urls if protocol == "crl" else certificate.ocsp_urls
        for url in urls:
            self.network.set_failure(url, failure)

    def set_staple(
        self, status: CertStatus, firewall_responder: bool = False
    ) -> None:
        """Configure the web server to staple a response with ``status``.

        ``firewall_responder`` blocks the leaf's OCSP responder from the
        client, as in the paper's stapling tests (footnote 15), making the
        staple the only available revocation information.
        """
        issuer = self.issuer_ca_of(0)
        self._staple = OcspResponse.build(
            responder_keys=issuer.keys,
            cert_status=status,
            issuer_key_hash=issuer.issuer_key_hash,
            serial_number=self.leaf.serial_number,
            this_update=self.now - datetime.timedelta(hours=2),
            next_update=self.now + datetime.timedelta(days=3),
            revocation_time=(
                self.now - datetime.timedelta(days=10)
                if status is CertStatus.REVOKED
                else None
            ),
        )
        self.tls_server = None  # the next handshake staples
        if firewall_responder:
            for url in self.leaf.ocsp_urls:
                self.network.set_failure(url, FailureMode.NO_RESPONSE)

    def restart_servers(self) -> None:
        """Put every server back to its just-built state.

        The next client run then sees the same bytes as against a fresh
        PKI with the same id and scenario: CRL numbers (which the served
        CRLs encode) start again at 1, and the web server restarts with
        a newly warmed staple cache.
        """
        for ca in self.cas:
            if ca.crl_publisher is not None:
                ca.crl_publisher.restart_numbering()
        self.tls_server = None

    def _start_server(self) -> TlsServer:
        if self._staple is None:
            return TlsServer(chain=self.chain, stapling_enabled=False)
        cache = StapleCache(policy=StaplePolicy.ANY_STATUS)
        cache.warm(self._staple)
        return TlsServer(chain=self.chain, stapling_enabled=True, staple_cache=cache)

    # -- client side ------------------------------------------------------------

    def handshake(self, status_request: bool):
        """Serve the connection; returns (chain, staple or None)."""
        if self.tls_server is None:
            self.tls_server = self._start_server()
        result = self.tls_server.handshake(self.now, status_request=status_request)
        return result.chain, result.staple

    def checker(self) -> RevocationChecker:
        """A fresh client: its own cache, negative cache, breaker, stats
        and RNG.  Only the parse of identical response bytes is shared
        with earlier runs."""
        fetcher = NetworkFetcher(
            self.network,
            clock_now=lambda: self.now,
            cache=ClientCache(),
            decoded=self._decoded,
        )
        #: kept for trace capture (§6.2: "we also capture network traces").
        self.last_fetcher = fetcher
        return RevocationChecker(fetcher)
