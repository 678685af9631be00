"""The bounded memo of signed responses a CRL publisher or OCSP responder
keeps.

A publisher or responder asked for the same response twice -- the
browser suite replays every test PKI once per browser policy -- signs it
once.
The key is every signed input, so a change to what would be signed (a
recorded revocation, ``force_unknown``, a new window or CRL number) is a
new key and nothing is ever invalidated.
"""

from __future__ import annotations

from typing import Callable, Hashable

__all__ = ["SignedMemo"]

#: Signed objects one memo holds before it starts over.
LIMIT = 64


class SignedMemo:
    """Signed objects by every input of their signature, at most
    :data:`LIMIT` of them; when full it starts over.

    A signing that raises is not remembered.
    """

    def __init__(self) -> None:
        self._signed: dict[Hashable, object] = {}

    def __len__(self) -> int:
        return len(self._signed)

    def get(self, key: Hashable, sign: Callable[[], object]):
        """The object signed for ``key``, calling ``sign()`` on a miss."""
        signed = self._signed.get(key)
        if signed is None:
            if len(self._signed) >= LIMIT:
                self._signed.clear()
            signed = self._signed[key] = sign()
        return signed
