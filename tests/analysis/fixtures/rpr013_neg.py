"""RPR013 negative: digest inputs, seeds and names derived from the seed.

A seeded ``random.Random`` and caller-supplied timestamps are
replayable, so hashing over them is fine.  ``id()`` used only as a
dict key (the Table 2 per-model dedup) looks objects up; the keys and
names built from the deduplicated models never see the address.
"""
import hashlib
import random

from repro.browsers.certgen import TestPki
from repro.pki.keys import KeyPair


def fingerprint(payload: bytes, seed: int, stamp: float) -> str:
    rng = random.Random(seed)
    salt = rng.getrandbits(64)
    digest = hashlib.sha256()
    digest.update(payload)
    digest.update(f"{salt}:{stamp}".encode())
    return digest.hexdigest()


def model_keys(outcomes):
    models = {id(m): m for m, _ in outcomes}.values()
    return [KeyPair.generate(f"model/{m.label}") for m in models]


def build_pki(case, builds):
    builds[id(case)] = builds.get(id(case), 0) + 1
    return TestPki(
        test_id=case.test_id,
        n_intermediates=case.n_intermediates,
        protocols=case.protocols,
        ev=case.ev,
    )
