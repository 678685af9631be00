"""DER encoder/decoder unit and property tests."""

from __future__ import annotations

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asn1 import der

UTC = datetime.timezone.utc


class TestLengthEncoding:
    def test_short_form(self):
        assert der.encode_length(0) == b"\x00"
        assert der.encode_length(127) == b"\x7f"

    def test_long_form_one_byte(self):
        assert der.encode_length(128) == b"\x81\x80"
        assert der.encode_length(255) == b"\x81\xff"

    def test_long_form_two_bytes(self):
        assert der.encode_length(256) == b"\x82\x01\x00"

    def test_negative_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.encode_length(-1)


class TestInteger:
    def test_zero(self):
        assert der.encode_integer(0) == b"\x02\x01\x00"

    def test_small_positive(self):
        assert der.encode_integer(127) == b"\x02\x01\x7f"

    def test_sign_bit_padding(self):
        # 128 needs a leading 0x00 so it is not read as negative.
        assert der.encode_integer(128) == b"\x02\x02\x00\x80"

    def test_negative(self):
        assert der.encode_integer(-1) == b"\x02\x01\xff"

    def test_large_serial_roundtrip(self):
        serial = 2**160 - 12345
        node = der.decode_all(der.encode_integer(serial))
        assert node.as_integer() == serial

    @given(st.integers(min_value=-(2**256), max_value=2**256))
    def test_roundtrip_property(self, value):
        node = der.decode_all(der.encode_integer(value))
        assert node.as_integer() == value

    @given(st.integers(min_value=0, max_value=2**256))
    def test_minimal_encoding_no_redundant_bytes(self, value):
        body = der.decode_all(der.encode_integer(value)).value
        if len(body) > 1:
            # No redundant leading 0x00 (unless needed for the sign bit).
            assert not (body[0] == 0x00 and body[1] < 0x80)


class TestOid:
    def test_known_oid(self):
        # 2.5.29.31 (cRLDistributionPoints) has a well-known encoding.
        assert der.encode_oid("2.5.29.31") == b"\x06\x03\x55\x1d\x1f"

    def test_multibyte_arc(self):
        # 1.3.6.1.5.5.7.48.1: arc 48 < 128 single byte; check roundtrip.
        node = der.decode_all(der.encode_oid("1.3.6.1.5.5.7.48.1"))
        assert node.as_oid() == "1.3.6.1.5.5.7.48.1"

    def test_large_arc_roundtrip(self):
        dotted = "2.16.840.1.113733.1.7.23.6"  # Verisign EV policy
        assert der.decode_all(der.encode_oid(dotted)).as_oid() == dotted

    def test_invalid_oid_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.encode_oid("5.1.2")
        with pytest.raises(der.Asn1Error):
            der.encode_oid("x.y")

    @given(
        st.lists(st.integers(min_value=0, max_value=2**28), min_size=1, max_size=8)
    )
    def test_roundtrip_property(self, arcs):
        dotted = "1.3." + ".".join(str(a) for a in arcs)
        assert der.decode_all(der.encode_oid(dotted)).as_oid() == dotted


class TestStringsAndTimes:
    def test_boolean_roundtrip(self):
        assert der.decode_all(der.encode_boolean(True)).as_boolean() is True
        assert der.decode_all(der.encode_boolean(False)).as_boolean() is False

    def test_null(self):
        assert der.encode_null() == b"\x05\x00"

    def test_octet_string(self):
        node = der.decode_all(der.encode_octet_string(b"\x01\x02"))
        assert node.value == b"\x01\x02"

    def test_bit_string_strips_pad_byte(self):
        node = der.decode_all(der.encode_bit_string(b"\xaa\xbb"))
        assert node.as_bit_string() == b"\xaa\xbb"

    def test_bit_string_bad_unused_bits(self):
        with pytest.raises(der.Asn1Error):
            der.encode_bit_string(b"x", unused_bits=8)

    def test_utf8_string_roundtrip(self):
        node = der.decode_all(der.encode_utf8_string("café"))
        assert node.as_string() == "café"

    def test_printable_string_roundtrip(self):
        node = der.decode_all(der.encode_printable_string("example.com"))
        assert node.as_string() == "example.com"

    def test_ia5_string_roundtrip(self):
        node = der.decode_all(der.encode_ia5_string("http://crl.example/x"))
        assert node.as_string() == "http://crl.example/x"
        assert node.tag == der.Tag.IA5_STRING

    def test_utc_time_roundtrip(self):
        when = datetime.datetime(2015, 3, 31, 12, 30, 45, tzinfo=UTC)
        assert der.decode_all(der.encode_utc_time(when)).as_datetime() == when

    def test_utc_time_rejects_out_of_range_year(self):
        with pytest.raises(der.Asn1Error):
            der.encode_utc_time(datetime.datetime(2060, 1, 1, tzinfo=UTC))

    def test_generalized_time_roundtrip(self):
        when = datetime.datetime(2055, 1, 2, 3, 4, 5, tzinfo=UTC)
        node = der.decode_all(der.encode_generalized_time(when))
        assert node.as_datetime() == when

    @given(
        st.datetimes(
            min_value=datetime.datetime(1950, 1, 1),
            max_value=datetime.datetime(2049, 12, 31),
        )
    )
    def test_utc_time_roundtrip_property(self, when):
        when = when.replace(microsecond=0, tzinfo=UTC)
        assert der.decode_all(der.encode_utc_time(when)).as_datetime() == when


def _strptime_reference(tag: int, content: bytes) -> datetime.datetime:
    """The decoder's former ``strptime`` path, kept as an oracle for the
    values both accept."""
    text = content.decode("ascii")
    if tag == der.Tag.UTC_TIME:
        two_digit = int(text[:2])
        century = 2000 if two_digit < 50 else 1900
        text = f"{century + two_digit:04d}{text[2:]}"
    parsed = datetime.datetime.strptime(text, "%Y%m%d%H%M%SZ")
    return parsed.replace(tzinfo=UTC)


def _time_node(tag: int, content: bytes) -> der.DecodedValue:
    return der.decode_all(der.encode_tlv(tag, content))


UTC_TIME, GENERALIZED_TIME = der.Tag.UTC_TIME, der.Tag.GENERALIZED_TIME


class TestStrictTime:
    """``as_datetime`` reads exactly the DER forms, fixed width, and
    rejects everything else with ``Asn1Error``."""

    @given(
        st.datetimes(
            min_value=datetime.datetime(1950, 1, 1),
            max_value=datetime.datetime(2049, 12, 31, 23, 59, 59),
        )
    )
    @settings(max_examples=300)
    def test_every_utc_time_matches_strptime(self, when):
        when = when.replace(microsecond=0, tzinfo=UTC)
        node = der.decode_all(der.encode_utc_time(when))
        assert node.as_datetime() == _strptime_reference(UTC_TIME, node.value)
        assert node.as_datetime() == when

    @given(
        st.datetimes(
            min_value=datetime.datetime(1000, 1, 1),
            max_value=datetime.datetime(9999, 12, 31, 23, 59, 59),
        )
    )
    @settings(max_examples=300)
    def test_every_generalized_time_matches_strptime(self, when):
        when = when.replace(microsecond=0, tzinfo=UTC)
        node = der.decode_all(der.encode_generalized_time(when))
        assert node.as_datetime() == _strptime_reference(GENERALIZED_TIME, node.value)
        assert node.as_datetime() == when

    @pytest.mark.parametrize(
        "content, expected",
        [
            (b"491231235959Z", datetime.datetime(2049, 12, 31, 23, 59, 59)),
            (b"500101000000Z", datetime.datetime(1950, 1, 1)),
            (b"000229000000Z", datetime.datetime(2000, 2, 29)),
        ],
    )
    def test_utc_time_century_pivot(self, content, expected):
        assert _time_node(UTC_TIME, content).as_datetime() == expected.replace(
            tzinfo=UTC
        )

    @pytest.mark.parametrize(
        "tag, content",
        [
            # wrong length; strptime read this one and the first
            # single-digit case below as 2015-03-31 12:00 UTC
            (UTC_TIME, b"1503311200Z"),
            (UTC_TIME, b"15033112000000Z"),
            (UTC_TIME, b""),
            (GENERALIZED_TIME, b"150331120000Z"),
            (GENERALIZED_TIME, b"201503311200Z"),
            (GENERALIZED_TIME, b"2015331120000Z"),
            # single-digit fields: short, or padded back to width with a
            # space or a sign (which int() would accept)
            (UTC_TIME, b"15331120000Z"),
            (UTC_TIME, b"15 331120000Z"),
            (UTC_TIME, b"150331 20000Z"),
            (UTC_TIME, b"+50331120000Z"),
            (GENERALIZED_TIME, b"2015 331120000Z"),
            # non-digits
            (UTC_TIME, b"15O331120000Z"),
            (UTC_TIME, b"1503311200-0Z"),
            (GENERALIZED_TIME, b"2015033112000xZ"),
            # fractional seconds
            (UTC_TIME, b"150331120000.5Z"),
            (GENERALIZED_TIME, b"20150331120000.5Z"),
            (GENERALIZED_TIME, b"2015033112000.5Z"),
            # offsets instead of Z
            (UTC_TIME, b"150331120000+0000"),
            (GENERALIZED_TIME, b"20150331120000+0000"),
            (UTC_TIME, b"1503311200+00Z"),
            # missing or wrong terminator
            (UTC_TIME, b"150331120000"),
            (UTC_TIME, b"1503311200000"),
            (UTC_TIME, b"150331120000z"),
            (GENERALIZED_TIME, b"20150331120000"),
            (GENERALIZED_TIME, b"201503311200000"),
            # impossible dates and times
            (UTC_TIME, b"151331120000Z"),
            (UTC_TIME, b"150001120000Z"),
            (UTC_TIME, b"150332120000Z"),
            (UTC_TIME, b"150300120000Z"),
            (UTC_TIME, b"150229120000Z"),
            (UTC_TIME, b"150331240000Z"),
            (UTC_TIME, b"150331126000Z"),
            (UTC_TIME, b"150331120060Z"),
            (GENERALIZED_TIME, b"20151331120000Z"),
            (GENERALIZED_TIME, b"20150332120000Z"),
            (GENERALIZED_TIME, b"20150229120000Z"),
            (GENERALIZED_TIME, b"21000229120000Z"),
            (GENERALIZED_TIME, b"20150331240000Z"),
            (GENERALIZED_TIME, b"00000101000000Z"),
            # non-ASCII
            (UTC_TIME, b"\xb950331120000Z"),
        ],
    )
    def test_rejects_non_der_time(self, tag, content):
        with pytest.raises(der.Asn1Error):
            _time_node(tag, content).as_datetime()

    def test_rejects_non_time_tag(self):
        with pytest.raises(der.Asn1Error):
            _time_node(der.Tag.PRINTABLE_STRING, b"150331120000Z").as_datetime()


class TestComposite:
    def test_sequence_children(self):
        encoded = der.encode_sequence(der.encode_integer(1), der.encode_null())
        node = der.decode_all(encoded)
        assert node.tag == der.Tag.SEQUENCE
        assert len(node.children) == 2
        assert node.children[0].as_integer() == 1

    def test_nested_sequences(self):
        inner = der.encode_sequence(der.encode_integer(7))
        node = der.decode_all(der.encode_sequence(inner, inner))
        assert node.children[0].children[0].as_integer() == 7

    def test_set_sorts_children(self):
        a = der.encode_integer(2)
        b = der.encode_integer(1)
        assert der.encode_set(a, b) == der.encode_set(b, a)

    def test_context_tag_number(self):
        node = der.decode_all(der.encode_context(3, der.encode_integer(1)))
        assert node.context_number == 3
        assert node.is_constructed

    def test_primitive_context_tag(self):
        node = der.decode_all(der.encode_context(6, b"abc", constructed=False))
        assert node.context_number == 6
        assert not node.is_constructed
        assert node.value == b"abc"

    def test_context_tag_out_of_range(self):
        with pytest.raises(der.Asn1Error):
            der.encode_context(31, b"")


class TestDecodeErrors:
    def test_truncated_value(self):
        with pytest.raises(der.Asn1Error):
            der.decode_all(b"\x02\x05\x01")

    def test_trailing_bytes(self):
        with pytest.raises(der.Asn1Error):
            der.decode_all(der.encode_null() + b"\x00")

    def test_empty_input(self):
        with pytest.raises(der.Asn1Error):
            der.decode_all(b"")

    def test_indefinite_length_rejected(self):
        with pytest.raises(der.Asn1Error):
            der.decode_all(b"\x30\x80\x00\x00")

    def test_wrong_type_accessors(self):
        node = der.decode_all(der.encode_null())
        with pytest.raises(der.Asn1Error):
            node.as_integer()
        with pytest.raises(der.Asn1Error):
            node.as_oid()

    @given(st.binary(max_size=64))
    @settings(max_examples=200)
    def test_decoder_never_crashes_unexpectedly(self, blob):
        """Arbitrary bytes either decode or raise Asn1Error -- nothing else."""
        try:
            der.decode_all(blob)
        except der.Asn1Error:
            pass
