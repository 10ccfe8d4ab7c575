"""The CLI's JSON writer against ``json.dumps(value, indent=2, sort_keys=True)``,
with the suite's fixed derandomized Hypothesis profile.

``cli._json_text`` writes every JSON output of the CLI (the stats document
of ``simulate --stats`` and the report of ``analyze --report``), so its text
must be the one ``json`` gives, byte for byte, for every value it accepts.
"""

from __future__ import annotations

import enum
import json
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, seed  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from pingpong_eve.cli import _json_text  # noqa: E402
from pingpong_eve.engine import BellOutcome, Occupation  # noqa: E402
from test_sampler_properties import DETERMINISTIC  # noqa: E402


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Strings with quotes, backslashes, control characters and non-ASCII text,
# beside whatever text Hypothesis draws.
TRICKY_TEXT = ['"', "\\", '\\"', "\x00\x01\x1f\x7f", "\t\n\r", "café", " ", "\U0001f600"]
# The floats json writes in its own way (NaN, Infinity) or at the edges of
# repr's formats.
TRICKY_FLOATS = [-0.0, 0.0, 1e-300, 5e-324, 1e16, 1e22, -1e16, 0.1, math.nan, math.inf, -math.inf]
# Big and negative integers, which json writes with int.__repr__.
TRICKY_INTS = [0, -1, 2**53 + 1, -(2**63) - 1, 2**64, 10**30, -(10**40)]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(TRICKY_INTS)
    | st.floats()
    | st.sampled_from(TRICKY_FLOATS)
    | st.text()
    | st.sampled_from(TRICKY_TEXT)
)
keys = st.text() | st.sampled_from(TRICKY_TEXT)
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(keys, children, max_size=5)
    ),
    max_leaves=30,
)

# Pinned to the seed its source gave when it was pinned, so that it keeps
# those 40 examples whatever later edits of its body (see
# test_sampler_properties).
JSON_TEXT_SEED = int(
    "9835325136618497492697006102914370520030141570278100788996"
    "078574440273592918371554493242539289244951991145665598815"
)


@DETERMINISTIC
@seed(JSON_TEXT_SEED)
@given(values)
def test_json_text_equals_json_dumps(value):
    assert _json_text(value) == dumps(value)


def test_json_text_of_every_tricky_scalar():
    tricky = [None, True, False, *TRICKY_INTS, *TRICKY_FLOATS, *TRICKY_TEXT]
    for value in tricky:
        assert _json_text(value) == dumps(value), value
    document = {text: tricky for text in TRICKY_TEXT}
    assert _json_text(document) == dumps(document)


def test_json_text_of_empty_and_nested_containers():
    for value in ({}, [], (), {"a": {}}, [[]], {"b": [{}, [], ()]}, [[[1]]]):
        assert _json_text(value) == dumps(value), value


class Label(str, enum.Enum):
    A = "a"


def test_json_text_writes_subclasses_as_their_base_type():
    # json writes a subclass of str, int or float as its base type: a numpy
    # float64 as its float repr, an IntEnum as its integer.
    value = {"f": np.float64(0.1), "i": Occupation.POL1, "s": Label.A, "nan": np.float64("nan")}
    assert _json_text(value) == dumps(value)


@pytest.mark.parametrize(
    "value",
    [
        {1, 2},
        b"bytes",
        1j,
        np.int64(1),
        np.bool_(True),
        np.array([1.0]),
        object(),
        BellOutcome.PSI_PLUS,
        [{"nested": {0.5}}],
    ],
    ids=lambda value: type(value).__name__,
)
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        _json_text(value)
    with pytest.raises(TypeError):
        dumps(value)


@pytest.mark.parametrize("key", [1, 0.5, True, None])
def test_json_text_refuses_keys_that_are_not_strings(key):
    # json turns such a key into a string; no output of the CLI has one, so
    # the writer refuses it instead of guessing json's conversion.
    dumps({key: 0})
    with pytest.raises(TypeError, match="keys must be strings"):
        _json_text({key: 0})
