"""CRLSet serialization.

A CRLSet (paper §7.1) is a list of key/value pairs: the key is the SHA-256
of the issuing certificate's public key (the *parent*), the values are the
serial numbers of revoked certificates signed by that parent.  A small
auxiliary list of *blocked SPKIs* blocks specific leaves by public key.

The wire format here mirrors Chrome's in spirit (sequence number, parent
blocks with length-prefixed serials) without replicating its exact JSON
header; what matters for the study is faithful byte-size accounting
against the 250 KB cap.
"""

from __future__ import annotations

import datetime
import struct
from dataclasses import dataclass, field

__all__ = [
    "CrlSetSnapshot",
    "serial_length",
    "serial_to_bytes",
    "serialized_size",
]

_MAGIC = b"CRLS"


def serial_length(serial: int) -> int:
    """Length of :func:`serial_to_bytes`' encoding, without building it."""
    if serial < 0:
        raise ValueError("serial numbers are non-negative")
    return max(1, (serial.bit_length() + 7) // 8)


def serial_to_bytes(serial: int) -> bytes:
    """Minimal big-endian encoding of a serial number."""
    return serial.to_bytes(serial_length(serial), "big")


def serialized_size(parents: dict[bytes, set[int]]) -> int:
    """Exact byte size the snapshot would serialise to (cheap, no I/O)."""
    size = len(_MAGIC) + 4 + 4 + 4 + 4  # magic, sequence, date, #parents, #spkis
    for parent, serials in parents.items():
        size += 32 + 4
        for serial in serials:
            size += 1 + serial_length(serial)
    return size


@dataclass(frozen=True)
class CrlSetSnapshot:
    """One published CRLSet."""

    sequence: int
    date: datetime.date
    #: parent SPKI hash -> revoked serials under that parent.
    parents: dict[bytes, frozenset[int]]
    #: leaf certificates blocked outright by SPKI hash.
    blocked_spkis: frozenset[bytes] = field(default_factory=frozenset)

    @property
    def entry_count(self) -> int:
        return sum(len(serials) for serials in self.parents.values())

    @property
    def parent_count(self) -> int:
        return len(self.parents)

    def covers(self, parent_spki_hash: bytes) -> bool:
        return parent_spki_hash in self.parents

    def is_revoked(self, parent_spki_hash: bytes, serial: int) -> bool:
        serials = self.parents.get(parent_spki_hash)
        return serials is not None and serial in serials

    def is_blocked_spki(self, spki_hash: bytes) -> bool:
        return spki_hash in self.blocked_spkis

    def entries(self) -> set[tuple[bytes, int]]:
        return {
            (parent, serial)
            for parent, serials in self.parents.items()
            for serial in serials
        }

    # -- wire format ---------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(_MAGIC)
        out += struct.pack(">I", self.sequence)
        out += struct.pack(">I", self.date.toordinal())
        out += struct.pack(">I", len(self.parents))
        out += struct.pack(">I", len(self.blocked_spkis))
        for parent in sorted(self.parents):
            serials = self.parents[parent]
            out += parent
            out += struct.pack(">I", len(serials))
            for serial in sorted(serials):
                encoded = serial_to_bytes(serial)
                if len(encoded) > 255:
                    raise ValueError("serial too large for CRLSet encoding")
                out += bytes([len(encoded)]) + encoded
        for spki in sorted(self.blocked_spkis):
            out += spki
        return bytes(out)

    @classmethod
    def from_bytes(cls, data: bytes) -> "CrlSetSnapshot":
        if data[:4] != _MAGIC:
            raise ValueError("bad CRLSet magic")
        sequence, ordinal, n_parents, n_spkis = struct.unpack_from(">IIII", data, 4)
        offset = 20
        parents: dict[bytes, frozenset[int]] = {}
        for _ in range(n_parents):
            parent = data[offset : offset + 32]
            offset += 32
            (count,) = struct.unpack_from(">I", data, offset)
            offset += 4
            serials = set()
            for _ in range(count):
                length = data[offset]
                offset += 1
                serials.add(int.from_bytes(data[offset : offset + length], "big"))
                offset += length
            parents[parent] = frozenset(serials)
        blocked = set()
        for _ in range(n_spkis):
            blocked.add(data[offset : offset + 32])
            offset += 32
        if offset != len(data):
            raise ValueError("trailing bytes in CRLSet encoding")
        return cls(
            sequence=sequence,
            date=datetime.date.fromordinal(ordinal),
            parents=parents,
            blocked_spkis=frozenset(blocked),
        )

    @property
    def size_bytes(self) -> int:
        return serialized_size(
            {parent: set(serials) for parent, serials in self.parents.items()}
        ) + 32 * len(self.blocked_spkis)
