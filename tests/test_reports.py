"""``reports.dumps`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` and a line break, for any document of string keys and no
float that ``json.dumps`` takes, and refuses the rest; ``reports.to_jsonable``
turns library records into the values those documents hold."""

import enum
import json
from dataclasses import dataclass

import pytest
from hypothesis import example, given, strategies as st

from rcv_forensics.reports import dumps, to_jsonable


def reference_dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


SCALARS = st.none() | st.booleans() | st.integers() | st.text()
DOCUMENTS = st.recursive(
    SCALARS,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(st.text(), children, max_size=4)
    ),
    max_leaves=30,
)


@given(st.dictionaries(st.text(), DOCUMENTS, max_size=5))
@example({})
@example({"a": [], "b": {}, "c": [[], {}, ()], "d": [[[{"e": {}}]]]})
@example(
    {
        "true": True, "1": 1, "false": False, "0": 0, "big": 10**30,
        "list": [True, 1, False, 0, None],
    }
)
@example({"José": "候选 \U0001f5f3 \ud800", 'q"': "\\\n\x00\x1f\x7f", "": ""})
def test_dumps_matches_json_dumps(doc):
    assert dumps(doc) == reference_dumps(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {
            "nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "-0": -0.0,
            "true": True, "1": 1, "false": False, "0": 0, "big": 10**30, "tiny": 1e-7,
            "1.0": 1.0, "list": [True, 1, False, 0, 1.0, None],
        },
        {"m": {2: "b", 10: "a", -1: "c"}},
        {"m": {1.5: 0, 0.25: 1, float("inf"): 2}},
        {"m": {True: 1, 2: 3}},
        {"m": {None: 1}},
        {"m": {False: 0}},
    ],
    ids=["floats", "int", "float", "bool-and-int", "none", "false"],
)
def test_floats_and_non_string_keys_refused(doc):
    """No report holds a float or a key that is not a string, so ``dumps``
    refuses both, where ``json.dumps`` would write them."""
    reference_dumps(doc)
    with pytest.raises(TypeError):
        dumps(doc)


@pytest.mark.parametrize(
    "doc", [{"x": object()}, {"x": {(1, 2): 0}}, {"x": {1: 0, "a": 1}}, {"x": {1, 2}}],
    ids=["object", "tuple-key", "unorderable-keys", "set"],
)
def test_unencodable_document_refused_as_json_dumps(doc):
    with pytest.raises(TypeError):
        reference_dumps(doc)
    with pytest.raises(TypeError):
        dumps(doc)


class _Kind(enum.Enum):
    SHIFT = "shift"


class _Level(enum.IntEnum):
    HIGH = 2


class _Name(str):
    pass


@dataclass(frozen=True)
class _Leaf:
    name: str
    size: int
    ok: bool
    note: object


@dataclass(frozen=True)
class _Node:
    kind: _Kind
    level: _Level
    leaves: tuple


@pytest.mark.parametrize(
    "value, expected",
    [
        (True, True), (False, False), (None, None), (0, 0), (-7, -7), ("", ""),
        (_Kind.SHIFT, "shift"), (_Level.HIGH, 2), (_Name("H"), _Name("H")),
        ((1, ("a", None)), [1, ["a", None]]),
        (
            (
                _Node(
                    _Kind.SHIFT,
                    _Level.HIGH,
                    (_Leaf("H", 3, True, None), _Leaf("M", 0, False, (1,))),
                ),
            ),
            [
                {
                    "kind": "shift",
                    "level": 2,
                    "leaves": [
                        {"name": "H", "size": 3, "ok": True, "note": None},
                        {"name": "M", "size": 0, "ok": False, "note": [1]},
                    ],
                }
            ],
        ),
    ],
    ids=[
        "true", "false", "none", "zero", "int", "str", "enum", "int-enum", "str-subclass",
        "tuple", "records",
    ],
)
def test_to_jsonable_values(value, expected):
    """Leaves come back as they are (a ``str`` subclass too), enums as their
    values (an ``IntEnum`` as its plain int), tuples as lists and dataclass
    records as dicts in field order. Types are compared as well, since
    ``True == 1`` and ``_Level.HIGH == 2``."""
    got = to_jsonable(value)
    assert got == expected
    assert _shape(got) == _shape(expected)


def _shape(value):
    """value with every leaf replaced by its type, and dict keys kept in order."""
    if isinstance(value, dict):
        return [(key, _shape(item)) for key, item in value.items()]
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return type(value)
