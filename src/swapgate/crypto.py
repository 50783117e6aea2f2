"""Hashing and the oracle signature scheme.

The scheme is a deterministic keyed MAC: sign(secret, m) =
SHA-256(secret || m), with the verification key equal to the secret. It is
unforgeable for any party that does not hold the secret, which is exactly
the adversary model simulated here, and it keeps runs reproducible.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for tx digests and trace records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def json_digest(obj: Any) -> bytes:
    return sha256(canonical_json(obj).encode("utf-8"))


class HashMacScheme:
    """signature = SHA-256(secret || message); verification key = secret."""

    def sign(self, secret: bytes, message: bytes) -> bytes:
        return sha256(secret + message)

    def verify(self, key: bytes, message: bytes, signature: bytes) -> bool:
        return signature == sha256(key + message)


DEFAULT_SCHEME = HashMacScheme()


def oracle_secret(index: int, seed: int) -> bytes:
    """Deterministic per-run oracle key material."""
    return sha256(b"oracle-secret:%d:%d" % (index, seed))
