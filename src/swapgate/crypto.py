"""Hashing, canonical JSON and the oracle signature scheme.

The scheme is a deterministic keyed MAC: sign(secret, m) =
SHA-256(secret || m), with the verification key equal to the secret. It is
unforgeable for any party that does not hold the secret, which is exactly
the adversary model simulated here, and it keeps runs reproducible.

Canonical JSON, the form of tx digests and trace lines, is defined as the
bytes of json.dumps(obj, sort_keys=True, separators=(",", ":")), and a
line reads as json.loads reads it. orjson is only a faster way to write
and read those bytes: `canonical_bytes` keeps orjson's output when it is
the same text, and `parse_json` keeps orjson's value when the line is
exactly what orjson would write for it; anything else goes through the
stdlib, which gives the reference bytes, value or error. The domain holds
no floats (every number in a scenario passes `scenario._int`), and that
matters: orjson writes 1e16 and NaN as `1e16` and `null`, where json
writes `1e+16` and `NaN`, so a float is the one JSON value whose bytes the
guard below does not make equal. orjson also writes a few types that json
refuses, an Enum or a UUID; no record holds one.
"""

from __future__ import annotations

import hashlib
import json
from functools import wraps
from typing import Any, Callable, TypeVar

import orjson

T = TypeVar("T")


def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# json.dumps would build an encoder per call; the records are trees, never
# cyclic, so the cycle check is skipped too
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                            check_circular=False)


# a dataclass or a datetime makes orjson raise, as json does, instead of
# being written
_ORJSON_OPTIONS = (orjson.OPT_SORT_KEYS | orjson.OPT_PASSTHROUGH_DATACLASS
                   | orjson.OPT_PASSTHROUGH_DATETIME)


def canonical_bytes(obj: Any) -> bytes:
    """The canonical JSON of `obj`: the bytes of json.dumps(obj,
    sort_keys=True, separators=(",", ":")).

    orjson's output is kept when it is ASCII without DEL: json escapes
    every other character as \\uXXXX, orjson writes it raw. An int beyond
    64 bits, a key that is not a str, a lone surrogate or deep nesting
    makes orjson raise; the stdlib encoder writes those, or raises its own
    error."""
    try:
        raw = orjson.dumps(obj, option=_ORJSON_OPTIONS)
    except orjson.JSONEncodeError:
        pass
    else:
        if raw.isascii() and b"\x7f" not in raw:
            return raw
    return _ENCODER.encode(obj).encode("ascii")


def canonical_json(obj: Any) -> str:
    """`canonical_bytes` as text: the line of a trace record."""
    return canonical_bytes(obj).decode("ascii")


def json_digest(obj: Any) -> bytes:
    return sha256(canonical_bytes(obj))


# a longer line goes to json.loads: its round trip would hold three or
# four more copies of it at once, and a trace's longest line, a tick's
# record, grows with the swaps that tick moves (6.5 MB at 12,800 swaps)
_ROUND_TRIP_MAX = 1 << 16


def parse_json(line: str) -> Any:
    """json.loads(line): the same value, or the same error.

    orjson's value is kept only if orjson writes it back as exactly `line`
    (sorted keys, no whitespace, no escape that orjson would not write,
    no number that it would write otherwise, such as an int beyond 64 bits
    that it reads as a float). Every line of at most _ROUND_TRIP_MAX
    characters that `canonical_json` writes without the fallback is such
    a line. Any other line is parsed by json.loads."""
    if len(line) <= _ROUND_TRIP_MAX:
        try:
            value = orjson.loads(line)
            written = orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
            if written == line.encode():
                return value
        except (orjson.JSONDecodeError, orjson.JSONEncodeError):
            pass
    return json.loads(line)


def built_once(method: Callable[[Any], T]) -> Callable[[Any], T]:
    """The derived form of a frozen value or of a state its chain has
    stored (its JSON dict, its packed bytes, its hex string, a state's
    accounting), built on the first call and kept on the instance: every
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
