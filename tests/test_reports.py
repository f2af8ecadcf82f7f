"""``reports.dumps`` writes the bytes of ``json.dumps(doc, indent=2,
sort_keys=True)`` and a line break, for any document of string keys and no
float that ``json.dumps`` takes, and refuses the rest."""

import json

import pytest
from hypothesis import example, given, strategies as st

from rcv_forensics.reports import dumps


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
