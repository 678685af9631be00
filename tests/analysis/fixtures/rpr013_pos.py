"""RPR013 positive: host-read values feeding digests, seeds and names.

The digest inputs are what the paper's replayable corpus hashes over,
so a value read from the host (clock or process entropy) makes two
"identical" runs produce different fingerprints.  An object's ``id()``
is a memory address: put into a generated name or key seed it changes
the certificates (and their DER sizes) from one process to the next.
"""
import hashlib
import os
import random

from repro.browsers.certgen import TestPki


def fingerprint(payload: bytes) -> str:
    salt = os.urandom(8)
    digest = hashlib.sha256()
    digest.update(payload)
    digest.update(salt)
    return digest.hexdigest()


def build_pki(case, browser):
    return TestPki(
        test_id=f"{case.test_id}-{id(browser) % 10_000}",
        n_intermediates=case.n_intermediates,
        protocols=case.protocols,
        ev=case.ev,
    )


def jitter_rng(name: str) -> random.Random:
    return random.Random(seed=hash(name))
