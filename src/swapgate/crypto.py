"""Hashing and the oracle signature scheme.

The scheme is a deterministic keyed MAC: sign(secret, m) =
SHA-256(secret || m), with the verification key equal to the secret. It is
unforgeable for any party that does not hold the secret, which is exactly
the adversary model simulated here, and it keeps runs reproducible.
"""

from __future__ import annotations

import hashlib
import json
from functools import wraps
from typing import Any, Callable, TypeVar

T = TypeVar("T")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# json.dumps would build an encoder per call; the records are trees, never
# cyclic, so the cycle check is skipped too
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for tx digests and trace records: the bytes
    of json.dumps(obj, sort_keys=True, separators=(",", ":"))."""
    return _ENCODER.encode(obj)


def json_digest(obj: Any) -> bytes:
    return sha256(canonical_json(obj).encode("utf-8"))


def built_once(method: Callable[[Any], T]) -> Callable[[Any], T]:
    """A frozen value's derived form (its JSON dict, its packed bytes, its
    hex string), built on the first call and kept on the instance: every
    later call returns that same object, so each trace record, receipt,
    digest and payload that holds the value shares one copy. Callers read
    it and never change it. A call that raises keeps nothing, so it raises
    again on the next call.

    The form is stored as an attribute, not through `__dict__`: reading
    `__dict__` would give every instance its own attribute dict, which
    costs memory and slows each later attribute read."""
    key = "_built_" + method.__name__

    @wraps(method)
    def once(self) -> T:
        built = getattr(self, key, None)
        if built is None:
            built = method(self)
            object.__setattr__(self, key, built)   # past a frozen __setattr__
        return built
    return once


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
