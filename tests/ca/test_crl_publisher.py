"""CRL publisher tests: sharding, views, publication windows."""

from __future__ import annotations

import datetime

import pytest

from repro.ca.crl_publisher import CrlPublisher
from repro.pki.keys import KeyPair
from repro.pki.name import Name
from repro.revocation.reason import ReasonCode

UTC = datetime.timezone.utc
NOW = datetime.datetime(2015, 3, 1, 10, 30, tzinfo=UTC)


@pytest.fixture()
def publisher():
    return CrlPublisher(
        issuer_name=Name.make("Pub CA"),
        issuer_keys=KeyPair.generate("pub-ca"),
        base_url="http://crl.pub.example",
        shard_count=4,
    )


class TestSharding:
    def test_shard_count(self, publisher):
        assert len(publisher.urls) == 4
        assert len(set(publisher.urls)) == 4

    def test_assignment_balances(self, publisher):
        for serial in range(100):
            publisher.assign(serial)
        sizes = [len(s.assigned_serials) for s in publisher.shards]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_for(self, publisher):
        url = publisher.assign(42)
        assert publisher.shard_for(42).url == url
        assert publisher.shard_for(999) is None

    def test_shard_count_floor(self):
        with pytest.raises(ValueError):
            CrlPublisher(
                Name.make("x"), KeyPair.generate("x"), "http://x", shard_count=0
            )


class TestRevocationVisibility:
    def test_record_and_view(self, publisher):
        url = publisher.assign(7)
        not_after = NOW + datetime.timedelta(days=200)
        publisher.record_revocation(7, NOW, ReasonCode.UNSPECIFIED, not_after)
        view = publisher.view(url, NOW + datetime.timedelta(days=1))
        assert view.is_revoked(7)
        assert view.entry_count == 1

    def test_entry_not_visible_before_revocation(self, publisher):
        url = publisher.assign(7)
        publisher.record_revocation(
            7, NOW, None, NOW + datetime.timedelta(days=200)
        )
        early = publisher.view(url, NOW - datetime.timedelta(days=1))
        assert not early.is_revoked(7)

    def test_entry_dropped_after_cert_expiry(self, publisher):
        url = publisher.assign(7)
        not_after = NOW + datetime.timedelta(days=10)
        publisher.record_revocation(7, NOW, None, not_after)
        late = publisher.view(url, not_after + datetime.timedelta(days=1))
        assert not late.is_revoked(7)

    def test_unassigned_serial_raises(self, publisher):
        with pytest.raises(KeyError):
            publisher.record_revocation(123, NOW, None, NOW)


class TestPublication:
    def test_window_covers_now(self, publisher):
        this_update, next_update = publisher.window(NOW)
        assert this_update <= NOW < next_update
        assert next_update - this_update == publisher.reissue_period

    def test_encode_real_crl(self, publisher):
        url = publisher.assign(5)
        publisher.record_revocation(5, NOW, None, NOW + datetime.timedelta(days=90))
        crl = publisher.encode(url, NOW + datetime.timedelta(hours=1))
        assert crl.is_revoked(5)
        assert not crl.is_expired(NOW + datetime.timedelta(hours=1))
        assert crl.verify_signature(publisher._keys.public_key)

    def test_crl_number_increments(self, publisher):
        url = publisher.urls[0]
        first = publisher.encode(url, NOW)
        second = publisher.encode(url, NOW + datetime.timedelta(days=1))
        assert second.crl_number == first.crl_number + 1

    def test_encode_all(self, publisher):
        crls = publisher.encode_all(NOW)
        assert len(crls) == 4
        assert {crl.url for crl in crls} == set(publisher.urls)

    def test_sharding_reduces_per_crl_size(self):
        """The §5.2/§9 point: more shards, smaller per-client downloads.
        With 3,000 revocations, sharding divides the largest CRL almost
        linearly (§9: "CAs can simply maintain more, smaller CRLs")."""
        keys = KeyPair.generate("shard-size")
        name = Name.make("Shard CA")

        def max_crl_size(shards: int, revocations: int) -> int:
            publisher = CrlPublisher(name, keys, "http://c.example", shard_count=shards)
            for serial in range(revocations):
                publisher.assign(serial)
                publisher.record_revocation(
                    serial, NOW, None, NOW + datetime.timedelta(days=365)
                )
            return max(
                crl.encoded_size
                for crl in publisher.encode_all(NOW + datetime.timedelta(hours=1))
            )

        assert max_crl_size(10, 300) < max_crl_size(1, 300) / 4
        assert max_crl_size(64, 3000) < max_crl_size(1, 3000) / 30
