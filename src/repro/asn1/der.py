"""DER (Distinguished Encoding Rules) primitives.

Implements the subset of ITU-T X.690 needed to encode and decode RFC 5280
certificates, CRLs, and OCSP messages: definite-length encoding of
INTEGER, BOOLEAN, NULL, OBJECT IDENTIFIER, BIT STRING, OCTET STRING,
PrintableString, UTF8String, UTCTime, GeneralizedTime, SEQUENCE, SET, and
context-specific tags.

The encoder works on ``bytes``; composite encoders take pre-encoded
children.  The decoder produces :class:`DecodedValue` trees.
"""

from __future__ import annotations

import datetime
import functools
from dataclasses import dataclass, field

__all__ = [
    "Asn1Error",
    "DecodedValue",
    "SequenceAssembler",
    "Tag",
    "decode",
    "decode_all",
    "encode_bit_string",
    "encode_boolean",
    "encode_context",
    "encode_generalized_time",
    "encode_integer",
    "encode_length",
    "encode_null",
    "encode_octet_string",
    "encode_oid",
    "encode_printable_string",
    "encode_sequence",
    "encode_sequence_many",
    "encode_set",
    "encode_tlv",
    "encode_utc_time",
    "encode_utf8_string",
]


class Asn1Error(ValueError):
    """Raised on malformed DER input or unencodable values."""


class Tag:
    """Universal tag numbers and class/constructed masks used by RFC 5280."""

    BOOLEAN = 0x01
    INTEGER = 0x02
    BIT_STRING = 0x03
    OCTET_STRING = 0x04
    NULL = 0x05
    OID = 0x06
    ENUMERATED = 0x0A
    UTF8_STRING = 0x0C
    PRINTABLE_STRING = 0x13
    IA5_STRING = 0x16
    UTC_TIME = 0x17
    GENERALIZED_TIME = 0x18
    SEQUENCE = 0x30  # constructed bit already set
    SET = 0x31  # constructed bit already set

    CONSTRUCTED = 0x20
    CONTEXT = 0x80


def encode_length(length: int) -> bytes:
    """Encode a definite length per X.690 section 8.1.3."""
    if length < 0:
        raise Asn1Error(f"negative length: {length}")
    if length < 0x80:
        return bytes([length])
    body = length.to_bytes((length.bit_length() + 7) // 8, "big")
    return bytes([0x80 | len(body)]) + body


def encode_tlv(tag: int, value: bytes) -> bytes:
    """Encode a tag-length-value triple."""
    if not 0 <= tag <= 0xFF:
        raise Asn1Error(f"tag out of range: {tag}")
    return bytes([tag]) + encode_length(len(value)) + value


#: Complete TLV encodings for the small non-negative INTEGERs that dominate
#: CRL bodies (version numbers, CRL numbers, short serials).
_SMALL_INTEGERS = tuple(
    bytes([Tag.INTEGER, 1, value]) for value in range(0x80)
)


def encode_integer(value: int, tag: int = Tag.INTEGER) -> bytes:
    """Encode a (possibly large) two's-complement INTEGER."""
    if tag == Tag.INTEGER and 0 <= value < 0x80:
        return _SMALL_INTEGERS[value]
    if value == 0:
        return encode_tlv(tag, b"\x00")
    nbytes = (value.bit_length() + 8) // 8  # +8 guarantees a sign bit
    body = value.to_bytes(nbytes, "big", signed=True)
    # Strip redundant leading bytes while preserving the sign bit.
    while len(body) > 1 and (
        (body[0] == 0x00 and body[1] < 0x80) or (body[0] == 0xFF and body[1] >= 0x80)
    ):
        body = body[1:]
    return encode_tlv(tag, body)


def encode_boolean(value: bool) -> bytes:
    return encode_tlv(Tag.BOOLEAN, b"\xff" if value else b"\x00")


def encode_null() -> bytes:
    return encode_tlv(Tag.NULL, b"")


@functools.lru_cache(maxsize=256)
def encode_oid(dotted: str) -> bytes:
    """Encode a dotted-decimal OBJECT IDENTIFIER string.

    Memoised (bounded): certificates, CRLs and OCSP responses reuse a
    handful of OIDs hundreds of thousands of times per sweep.  Invalid
    OIDs raise on every call, since failures are never cached.
    """
    try:
        arcs = [int(part) for part in dotted.split(".")]
    except ValueError as exc:
        raise Asn1Error(f"invalid OID {dotted!r}") from exc
    if len(arcs) < 2 or arcs[0] > 2 or (arcs[0] < 2 and arcs[1] > 39):
        raise Asn1Error(f"invalid OID {dotted!r}")
    body = bytearray([arcs[0] * 40 + arcs[1]])
    for arc in arcs[2:]:
        if arc < 0:
            raise Asn1Error(f"negative arc in OID {dotted!r}")
        chunk = bytearray([arc & 0x7F])
        arc >>= 7
        while arc:
            chunk.append(0x80 | (arc & 0x7F))
            arc >>= 7
        body.extend(reversed(chunk))
    return encode_tlv(Tag.OID, bytes(body))


def encode_octet_string(value: bytes) -> bytes:
    return encode_tlv(Tag.OCTET_STRING, value)


def encode_bit_string(value: bytes, unused_bits: int = 0) -> bytes:
    if not 0 <= unused_bits <= 7:
        raise Asn1Error(f"unused_bits out of range: {unused_bits}")
    return encode_tlv(Tag.BIT_STRING, bytes([unused_bits]) + value)


def encode_printable_string(value: str) -> bytes:
    return encode_tlv(Tag.PRINTABLE_STRING, value.encode("ascii"))


def encode_utf8_string(value: str) -> bytes:
    return encode_tlv(Tag.UTF8_STRING, value.encode("utf-8"))


def encode_ia5_string(value: str) -> bytes:
    return encode_tlv(Tag.IA5_STRING, value.encode("ascii"))


#: UTCTime content is always 13 octets, so the TLV header is a constant.
_UTC_TIME_HEADER = bytes([Tag.UTC_TIME, 13])
#: GeneralizedTime content (as emitted here) is always 15 octets.
_GENERALIZED_TIME_HEADER = bytes([Tag.GENERALIZED_TIME, 15])


def encode_utc_time(when: datetime.datetime) -> bytes:
    """Encode a UTCTime (two-digit year; valid for 1950-2049)."""
    if not 1950 <= when.year <= 2049:
        raise Asn1Error(f"UTCTime cannot represent year {when.year}")
    text = (
        f"{when.year % 100:02d}{when.month:02d}{when.day:02d}"
        f"{when.hour:02d}{when.minute:02d}{when.second:02d}Z"
    )
    return _UTC_TIME_HEADER + text.encode("ascii")


def encode_generalized_time(when: datetime.datetime) -> bytes:
    """Encode a GeneralizedTime (four-digit year)."""
    text = (
        f"{when.year:04d}{when.month:02d}{when.day:02d}"
        f"{when.hour:02d}{when.minute:02d}{when.second:02d}Z"
    )
    return _GENERALIZED_TIME_HEADER + text.encode("ascii")


def encode_sequence(*children: bytes) -> bytes:
    return encode_tlv(Tag.SEQUENCE, b"".join(children))


def encode_sequence_many(children) -> bytes:
    """Encode a SEQUENCE from an iterable of pre-encoded children.

    Bulk path for large bodies (CRL entry lists): children are gathered
    into a single :class:`bytearray` and the TLV header is prepended once,
    avoiding the per-call tuple packing and intermediate joins of
    :func:`encode_sequence`.  Byte-identical to
    ``encode_sequence(*children)``.
    """
    body = bytearray()
    for child in children:
        body += child
    out = bytearray([Tag.SEQUENCE])
    out += encode_length(len(body))
    out += body
    return bytes(out)


class SequenceAssembler:
    """Incrementally assemble one SEQUENCE body on a single bytearray.

    Use for hot loops that build large constructed values: ``append()``
    pre-encoded children, then ``finish()`` to get the TLV.  The running
    ``content_length`` is exposed so callers can track encoded sizes
    without materialising the value.
    """

    __slots__ = ("_body",)

    def __init__(self) -> None:
        self._body = bytearray()

    def append(self, child: bytes) -> None:
        self._body += child

    @property
    def content_length(self) -> int:
        return len(self._body)

    def finish(self, tag: int = Tag.SEQUENCE) -> bytes:
        out = bytearray([tag])
        out += encode_length(len(self._body))
        out += self._body
        return bytes(out)


def encode_set(*children: bytes) -> bytes:
    """Encode a SET OF; DER requires children sorted by encoding."""
    return encode_tlv(Tag.SET, b"".join(sorted(children)))


def encode_context(number: int, value: bytes, constructed: bool = True) -> bytes:
    """Encode a context-specific tag [number]."""
    if not 0 <= number <= 30:
        raise Asn1Error(f"context tag out of range: {number}")
    tag = Tag.CONTEXT | number
    if constructed:
        tag |= Tag.CONSTRUCTED
    return encode_tlv(tag, value)


@dataclass
class DecodedValue:
    """A decoded TLV node.

    ``children`` is populated for constructed encodings; ``value`` holds the
    raw content octets either way.
    """

    tag: int
    value: bytes
    children: list["DecodedValue"] = field(default_factory=list)

    @property
    def is_constructed(self) -> bool:
        return bool(self.tag & Tag.CONSTRUCTED)

    @property
    def context_number(self) -> int | None:
        """The [n] of a context-specific tag, else ``None``."""
        if self.tag & 0xC0 == Tag.CONTEXT:
            return self.tag & 0x1F
        return None

    def as_integer(self) -> int:
        if self.tag not in (Tag.INTEGER, Tag.ENUMERATED):
            raise Asn1Error(f"tag 0x{self.tag:02x} is not INTEGER")
        if not self.value:
            raise Asn1Error("empty INTEGER")
        return int.from_bytes(self.value, "big", signed=True)

    def as_boolean(self) -> bool:
        if self.tag != Tag.BOOLEAN or len(self.value) != 1:
            raise Asn1Error("not a BOOLEAN")
        return self.value != b"\x00"

    def as_oid(self) -> str:
        if self.tag != Tag.OID or not self.value:
            raise Asn1Error("not an OID")
        arcs = [self.value[0] // 40, self.value[0] % 40]
        # First octet packs the first two arcs; values >= 80 mean arc0 == 2.
        if arcs[0] > 2:
            arcs = [2, self.value[0] - 80]
        current = 0
        for byte in self.value[1:]:
            current = (current << 7) | (byte & 0x7F)
            if not byte & 0x80:
                arcs.append(current)
                current = 0
        if current:
            raise Asn1Error("truncated OID arc")
        return ".".join(str(a) for a in arcs)

    def as_string(self) -> str:
        if self.tag == Tag.UTF8_STRING:
            return self.value.decode("utf-8")
        if self.tag in (Tag.PRINTABLE_STRING, Tag.IA5_STRING):
            return self.value.decode("ascii")
        raise Asn1Error(f"tag 0x{self.tag:02x} is not a string type")

    def as_datetime(self) -> datetime.datetime:
        """Decode a DER UTCTime (``YYMMDDHHMMSSZ``) or GeneralizedTime
        (``YYYYMMDDHHMMSSZ``).

        DER fixes both forms to whole seconds in UTC, so anything else --
        another length, a non-digit, fractional seconds, an offset, a
        missing ``Z``, or an impossible date -- raises :class:`Asn1Error`.
        """
        value = self.value
        if self.tag == Tag.UTC_TIME:
            width = 13
        elif self.tag == Tag.GENERALIZED_TIME:
            width = 15
        else:
            raise Asn1Error(f"tag 0x{self.tag:02x} is not a time type")
        if len(value) != width or value[-1] != 0x5A or not value[:-1].isdigit():
            raise Asn1Error(f"not a DER time: {value!r}")
        if width == 13:
            # RFC 5280 4.1.2.5.1: two-digit years 00-49 are 20xx and
            # 50-99 are 19xx.
            year = int(value[:2])
            year += 2000 if year < 50 else 1900
        else:
            year = int(value[:4])
        fields = value[width - 11 : -1]  # MMDDHHMMSS
        try:
            return datetime.datetime(
                year,
                int(fields[0:2]),
                int(fields[2:4]),
                int(fields[4:6]),
                int(fields[6:8]),
                int(fields[8:10]),
                tzinfo=datetime.timezone.utc,
            )
        except ValueError as exc:
            raise Asn1Error(f"not a DER time: {value!r}: {exc}") from exc

    def as_bit_string(self) -> bytes:
        if self.tag != Tag.BIT_STRING or not self.value:
            raise Asn1Error("not a BIT STRING")
        return self.value[1:]


def _decode_length(data: bytes, offset: int) -> tuple[int, int]:
    """Return (length, offset after the length octets)."""
    if offset >= len(data):
        raise Asn1Error("truncated length")
    first = data[offset]
    offset += 1
    if first < 0x80:
        return first, offset
    nbytes = first & 0x7F
    if nbytes == 0:
        raise Asn1Error("indefinite length is not DER")
    if offset + nbytes > len(data):
        raise Asn1Error("truncated long-form length")
    length = int.from_bytes(data[offset : offset + nbytes], "big")
    if nbytes > 1 and length < 0x80:
        raise Asn1Error("non-minimal length encoding")
    return length, offset + nbytes


def decode(data: bytes, offset: int = 0) -> tuple[DecodedValue, int]:
    """Decode one TLV starting at ``offset``; return (node, next offset)."""
    if offset >= len(data):
        raise Asn1Error("truncated tag")
    tag = data[offset]
    if tag & 0x1F == 0x1F:
        raise Asn1Error("multi-byte tags are not supported")
    length, body_start = _decode_length(data, offset + 1)
    body_end = body_start + length
    if body_end > len(data):
        raise Asn1Error("truncated value")
    body = data[body_start:body_end]
    node = DecodedValue(tag=tag, value=body)
    if tag & Tag.CONSTRUCTED:
        inner = 0
        while inner < len(body):
            child, inner = decode(body, inner)
            node.children.append(child)
    return node, body_end


def decode_all(data: bytes) -> DecodedValue:
    """Decode exactly one TLV spanning all of ``data``."""
    node, end = decode(data)
    if end != len(data):
        raise Asn1Error(f"{len(data) - end} trailing bytes after DER value")
    return node
