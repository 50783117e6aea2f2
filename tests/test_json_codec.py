"""Canonical JSON written and read through orjson against the stdlib codec
that defines it: `canonical_json` must give json.dumps's bytes and
`parse_json` json.loads's value or error, whatever orjson does."""

import json

import orjson
from hypothesis import example, given, strategies as st

from swapgate.crypto import canonical_json, parse_json

# printable ASCII, DEL and control characters, non-ASCII and lone
# surrogates, which orjson refuses
CHARS = st.one_of(st.characters(max_codepoint=0x7f),
                  st.characters(exclude_categories=()))
TEXT = st.text(CHARS, max_size=8)
INTS = st.one_of(st.integers(), st.integers(-2**70, 2**70),
                 st.sampled_from([2**63, 2**64 - 1, 2**64, -2**63,
                                  -2**63 - 1]))
SCALARS = st.one_of(st.none(), st.booleans(), INTS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20)
DEEP = [[]]
for _ in range(300):    # deeper than orjson writes
    DEEP = [DEEP]


def outcome(function, *args):
    """What `function(*args)` gives: ("value", its repr), which tells 1
    from 1.0 and True and orders keys, or ("error", type, message)."""
    try:
        return "value", repr(function(*args))
    except Exception as exc:    # compared, not hidden
        return "error", type(exc), str(exc)


@given(VALUES)
@example({"b": 1, "a": "\x7f"})
@example(["\ud800", "é", 2**64])
@example(DEEP)
def test_canonical_json_is_json_dumps(value):
    assert canonical_json(value) == json.dumps(
        value, sort_keys=True, separators=(",", ":"))


# what a line may hold: floats (NaN and infinity too), which orjson writes
# otherwise, and ints beyond 64 bits, which it reads as floats
LINE_VALUES = st.recursive(
    st.one_of(SCALARS, st.floats()),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXT, children, max_size=4),
    max_leaves=20)


def _orjson_line(value):
    try:
        return orjson.dumps(value, option=orjson.OPT_SORT_KEYS).decode()
    except orjson.JSONEncodeError:
        return json.dumps(value)


def _pairs_line(pairs):
    """An object written pair by pair, so that a key may repeat."""
    return "{" + ",".join(f"{json.dumps(k)}:{json.dumps(v)}"
                          for k, v in pairs) + "}"


LINES = st.one_of(
    LINE_VALUES.map(json.dumps),
    LINE_VALUES.map(lambda v: json.dumps(v, sort_keys=True)),
    LINE_VALUES.map(lambda v: json.dumps(v, sort_keys=True,
                                         separators=(",", ":"))),
    LINE_VALUES.map(lambda v: json.dumps(v, ensure_ascii=False)),
    LINE_VALUES.map(_orjson_line),
    st.lists(st.tuples(st.sampled_from("ab"), SCALARS),
             max_size=4).map(_pairs_line),
)


@given(LINES, st.integers(0, 40), st.sampled_from(["as is", "cut", "spaced"]))
@example('{"a":1,"a":2}', 0, "as is")
@example('{"a":"\\u00e9\\u007f\\ud800"}', 0, "as is")
@example("18446744073709551616", 0, "as is")
@example("[1e16,1e+16,NaN,-Infinity,-0]", 0, "as is")
@example("[" * 5000 + "]" * 5000, 0, "as is")
@example(json.dumps(["x" * 70000, 2**64]), 0, "as is")   # past the round trip
def test_parse_json_is_json_loads(line, where, fault):
    """The same value or the same error, also for a line cut short or with
    whitespace put in."""
    if fault == "cut":
        line = line[:where]
    elif fault == "spaced":
        line = line[:where] + " " + line[where:]
    assert outcome(parse_json, line) == outcome(json.loads, line)
