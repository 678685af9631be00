"""The CRL publisher and OCSP responder sign each distinct response once.

Their memos are keyed by every signed input, so a state change -- a
recorded revocation, ``force_unknown`` -- yields different bytes at the
same instant, and an unchanged state replays the same response.
"""

from __future__ import annotations

import datetime

import pytest

from repro.ca.crl_publisher import CrlPublisher
from repro.ca.ocsp_responder import OcspResponder
from repro.ca.signed_memo import LIMIT, SignedMemo
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.ocsp import CertStatus, OcspRequest
from repro.revocation.reason import ReasonCode

UTC = datetime.timezone.utc
NOW = datetime.datetime(2015, 3, 1, 10, 30, tzinfo=UTC)
REVOKED_AT = NOW - datetime.timedelta(days=2)
NOT_AFTER = NOW + datetime.timedelta(days=300)


class TestSignedMemo:
    def test_signs_each_key_once(self):
        memo, signed = SignedMemo(), []
        for key in ("a", "b", "a", "b", "a"):
            memo.get(key, lambda key=key: signed.append(key) or key.upper())
        assert signed == ["a", "b"]
        assert memo.get("a", lambda: pytest.fail("re-signed")) == "A"

    def test_starts_over_when_full(self):
        memo = SignedMemo()
        for key in range(LIMIT):
            memo.get(key, lambda key=key: key)
        assert len(memo) == LIMIT
        memo.get(LIMIT, lambda: LIMIT)
        assert len(memo) == 1
        assert memo.get(0, lambda: "signed again") == "signed again"

    def test_a_failed_signing_is_not_remembered(self):
        memo = SignedMemo()

        def fail():
            raise ValueError("no key")

        for _ in range(2):
            with pytest.raises(ValueError):
                memo.get("k", fail)
        assert len(memo) == 0
        assert memo.get("k", lambda: "ok") == "ok"


@pytest.fixture()
def publisher():
    publisher = CrlPublisher(
        issuer_name=Name.make("Memo CA"),
        issuer_keys=KeyPair.generate("memo-ca"),
        base_url="http://crl.memo.example",
    )
    for serial in (5, 6, 7):
        publisher.assign(serial)
    return publisher


class TestCrlPublisher:
    def test_replay_returns_the_same_signed_crl(self, publisher):
        url = publisher.urls[0]
        first = publisher.encode(url, NOW)
        publisher.restart_numbering()
        again = publisher.encode(url, NOW)
        assert again is first
        assert again.to_der() is first.to_der()

    def test_next_number_is_a_new_crl(self, publisher):
        url = publisher.urls[0]
        first = publisher.encode(url, NOW)
        second = publisher.encode(url, NOW)
        assert (first.crl_number, second.crl_number) == (1, 2)
        assert first.to_der() != second.to_der()

    @pytest.mark.parametrize("reason", [None, ReasonCode.KEY_COMPROMISE])
    def test_revocation_changes_the_bytes_at_the_same_instant(self, publisher, reason):
        url = publisher.urls[0]
        before = publisher.encode(url, NOW).to_der()
        publisher.restart_numbering()
        publisher.record_revocation(6, REVOKED_AT, reason, NOT_AFTER)
        after = publisher.encode(url, NOW)
        assert after.crl_number == 1
        assert after.to_der() != before
        assert after.is_revoked(6)
        assert after.entry_for(6).reason == reason

    def test_second_revocation_changes_the_bytes_again(self, publisher):
        url = publisher.urls[0]
        publisher.record_revocation(5, REVOKED_AT, None, NOT_AFTER)
        one = publisher.encode(url, NOW).to_der()
        publisher.restart_numbering()
        publisher.record_revocation(7, REVOKED_AT, None, NOT_AFTER)
        two = publisher.encode(url, NOW)
        assert two.to_der() != one
        assert two.serial_numbers() == {5, 7}

    def test_new_window_is_a_new_crl(self, publisher):
        url = publisher.urls[0]
        today = publisher.encode(url, NOW)
        publisher.restart_numbering()
        tomorrow = publisher.encode(url, NOW + datetime.timedelta(days=1))
        assert tomorrow.this_update == today.next_update
        assert tomorrow.to_der() != today.to_der()

    def test_memo_is_bounded(self, publisher):
        url = publisher.urls[0]
        for _ in range(1000):
            publisher.encode(url, NOW)
        assert publisher.encode(url, NOW).crl_number == 1001
        assert len(publisher._signed) <= LIMIT


@pytest.fixture()
def responder_setup():
    keys = KeyPair.generate("memo-resp")
    ledger = {5: (None, None)}
    responder = OcspResponder(
        responder_keys=keys,
        issuer_key_hash=keys.key_id,
        status_lookup=ledger.get,
    )
    return responder, OcspRequest(keys.key_id, 5), ledger


class TestOcspResponder:
    def test_replay_returns_the_same_signed_response(self, responder_setup):
        responder, request, _ = responder_setup
        first = responder.respond(request, NOW)
        again = responder.respond(request, NOW)
        assert again is first
        assert responder.queries_served == 2

    def test_revocation_changes_the_bytes_at_the_same_instant(self, responder_setup):
        responder, request, ledger = responder_setup
        good = responder.respond(request, NOW)
        ledger[5] = (REVOKED_AT, ReasonCode.SUPERSEDED)
        revoked = responder.respond(request, NOW)
        assert revoked.cert_status is CertStatus.REVOKED
        assert revoked.to_der() != good.to_der()
        ledger[5] = (REVOKED_AT, ReasonCode.KEY_COMPROMISE)
        rekeyed = responder.respond(request, NOW)
        assert rekeyed.revocation_reason is ReasonCode.KEY_COMPROMISE
        assert rekeyed.to_der() != revoked.to_der()

    def test_force_unknown_changes_the_bytes_at_the_same_instant(
        self, responder_setup
    ):
        responder, request, _ = responder_setup
        good = responder.respond(request, NOW)
        responder.force_unknown = True
        unknown = responder.respond(request, NOW)
        assert unknown.cert_status is CertStatus.UNKNOWN
        assert unknown.to_der() != good.to_der()
        responder.force_unknown = False
        assert responder.respond(request, NOW).to_der() == good.to_der()

    def test_validity_change_is_a_new_response(self, responder_setup):
        responder, request, _ = responder_setup
        short = responder.respond(request, NOW)
        responder.validity_period = datetime.timedelta(days=1)
        assert responder.respond(request, NOW).next_update != short.next_update

    def test_memo_is_bounded(self, responder_setup):
        responder, _, ledger = responder_setup
        keys_id = responder.issuer_key_hash
        for serial in range(1000):
            ledger[serial] = (None, None)
            responder.respond(OcspRequest(keys_id, serial), NOW)
        assert len(responder._signed) <= LIMIT
