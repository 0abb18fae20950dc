"""Cache-key differential suite: the library renderer vs the seed oracle.

``repro.exec.cachekey`` dispatches on exact type, renders each dataclass
through a plan compiled per class, and lets a sweep share one memo of
sub-object texts. ``tests/differential/key_oracle.py`` keeps the seed's
recursive ``isinstance`` ladder. A text that moves moves its key, and
every warm cache turns cold, so this module holds the library to the
oracle byte for byte:

* random nested values give the oracle's text, or raise the oracle's
  ``TypeError`` with the same message, with a fresh memo and with one
  memo shared across a batch whose values share sub-objects;
* the differential minis and the D8 batch key like the oracle, one at a
  time and through one memo.

The six study minis' submissions are compared in
``tests/integration/test_studies.py``, which already runs them.

Run just this suite with::

    PYTHONPATH=src python -m pytest tests/differential/test_cachekey_differential.py -q
"""

from __future__ import annotations

import collections
import dataclasses
import enum
import math
import typing

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.d8_online import OnlineControlSettings, build_scenarios
from repro.exec.cachekey import canonical_text, scenario_key

from tests.differential.key_oracle import oracle_key, oracle_text
from tests.differential.scenarios import MINI_BUILDERS


# ----------------------------------------------------------------------
# Value shapes. Module-level, so their qualified names are stable.
# ----------------------------------------------------------------------
class Color(enum.Enum):
    RED = 1
    BLUE = 2


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class MyInt(int):
    pass


class LoudInt(int):
    def __str__(self) -> str:
        return "loud"

    def __format__(self, spec: str) -> str:
        return "formatted"


class MyFloat(float):
    def __repr__(self) -> str:
        return "my-float"


class MyStr(str):
    def __str__(self) -> str:
        return "other"


class MyBytes(bytes):
    pass


class MyList(list):
    pass


class Pair(tuple):
    pass


class MyDict(dict):
    pass


Point = collections.namedtuple("Point", "x y")


@dataclasses.dataclass
class Leaf:
    b: object = None
    a: object = 0


@dataclasses.dataclass(frozen=True)
class FrozenLeaf:
    y: object = 0
    x: object = 0


@dataclasses.dataclass
class SubLeaf(Leaf):
    """A dataclass subclass: its own tag, its parent's fields too."""

    c: object = None


class PlainSubLeaf(Leaf):
    """Not a dataclass itself, but inherits one's fields."""


@dataclasses.dataclass
class Node:
    children: list
    leaf: object


@dataclasses.dataclass(eq=False)
class TaggedInt(int):
    """A dataclass that is an int: the ladder renders the int."""

    note: object = None


@dataclasses.dataclass(eq=False)
class TupleData(tuple):
    """A dataclass that is a tuple: the ladder renders the dataclass."""

    label: object = None


@dataclasses.dataclass
class WithClassVar:
    """A ``ClassVar`` pseudo-field renders nowhere."""

    shared: typing.ClassVar[int] = 3
    value: object = 0


class Plain:
    """A plain configuration object: class identity + sorted attributes."""

    def __init__(self, **attrs) -> None:
        self.__dict__.update(attrs)


class CallablePlain(Plain):
    def __call__(self) -> None:
        pass


class Slotted:
    __slots__ = ("a",)

    def __init__(self) -> None:
        self.a = 1


def _function() -> None:
    pass


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
_INTS = st.integers(-(10**12), 10**12) | st.sampled_from([0, 1, -1])
_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf, 0.1, 1e300]
)
_TEXT = st.text(max_size=6) | st.sampled_from(["", ";", "a;b}:c", "[,]", "é"])

_HASHABLE_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    _INTS,
    _FLOATS,
    _TEXT,
    st.binary(max_size=6),
    st.sampled_from(list(Color) + list(Level)),
    _INTS.map(MyInt),
    _INTS.map(LoudInt),
    _FLOATS.map(MyFloat),
    _TEXT.map(MyStr),
    st.binary(max_size=4).map(MyBytes),
)
#: Not in sets or dict keys: numpy compares an int64 with bytes by
#: parsing the bytes, which raises where the hashes collide.
_NUMPY_SCALARS = st.one_of(
    _FLOATS.map(np.float64),
    st.integers(-100, 100).map(np.int64),
    st.booleans().map(np.bool_),
)
_HASHABLE = st.recursive(
    _HASHABLE_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(Pair),
        st.builds(Point, inner, inner),
        st.builds(FrozenLeaf, inner, inner),
        st.frozensets(inner, max_size=3),
    ),
    max_leaves=6,
)
_UNSUPPORTED = st.sampled_from(
    [_function, len, lambda: None, Leaf, Slotted(), CallablePlain(a=1), np.float32(1.5)]
)
_NAMES = st.sampled_from(["a", "b", "limits", "weights", "z_last", "_private"])


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(MyList),
        st.lists(children, max_size=3).map(Pair),
        st.builds(Point, children, children),
        st.dictionaries(_HASHABLE, children, max_size=4),
        st.dictionaries(_HASHABLE, children, max_size=3).map(MyDict),
        st.sets(_HASHABLE, max_size=4),
        st.frozensets(_HASHABLE, max_size=3),
        st.builds(Leaf, children, children),
        st.builds(SubLeaf, children, children, children),
        st.builds(PlainSubLeaf, children, children),
        st.builds(Node, st.lists(children, max_size=3), children),
        st.builds(TaggedInt, _INTS),
        st.builds(TupleData, st.lists(children, max_size=3)),
        st.builds(WithClassVar, value=children),
        st.dictionaries(_NAMES, children, max_size=3).map(lambda attrs: Plain(**attrs)),
    )


VALUES = st.recursive(
    st.one_of(_HASHABLE, _NUMPY_SCALARS, _UNSUPPORTED), _containers, max_leaves=16
)


def _outcome(render, value):
    """The text ``render`` gives ``value``, or the TypeError it raises."""
    try:
        return render(value)
    except TypeError as exc:
        return ("TypeError", str(exc))


# ----------------------------------------------------------------------
# Random values
# ----------------------------------------------------------------------
class TestRandomValues:
    @settings(max_examples=400, deadline=None)
    @given(VALUES)
    @example(True)
    @example([True, 1, False, 0, 1.0, Level.LOW, MyInt(1), np.int64(1)])
    @example({1: "int", "1": "str", (1,): "tuple", Color.RED: "enum", b"1": "bytes"})
    @example([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, MyFloat(math.inf)])
    @example(Node(children=[Leaf(), SubLeaf(), PlainSubLeaf()], leaf=TaggedInt(7)))
    # Two nan keys tie on their text, so their values decide the order,
    # or raise where they do not compare.
    @example({math.nan: 2, float("nan"): 1})
    @example({math.nan: Leaf(a=1), float("nan"): Leaf(a=2)})
    @example(Plain(weights={"/a": 1}, limits=None))
    def test_text_matches_the_oracle(self, value):
        assert _outcome(canonical_text, value) == _outcome(oracle_text, value)

    @settings(max_examples=200, deadline=None)
    @given(VALUES, st.lists(VALUES, min_size=1, max_size=4))
    def test_one_memo_over_a_batch_matches_the_oracle(self, shared, tails):
        # Every batch member holds the same ``shared`` object twice and
        # its own tail, as a sweep's scenarios share app lists and models.
        batch = [Node(children=[shared, tail, shared], leaf=[shared]) for tail in tails]
        memo: dict = {}
        for value in batch:
            assert _outcome(lambda v: canonical_text(v, memo), value) == _outcome(
                oracle_text, value
            )


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _d8_batch() -> list:
    settings_ = OnlineControlSettings(
        patterns=("flash-crowd-gc", "steady"), duration_s=0.8, warmup_s=0.2, seed=42
    )
    return build_scenarios(settings_)[0]


class TestScenarios:
    @pytest.mark.parametrize("case", MINI_BUILDERS)
    def test_mini_keys_like_the_oracle(self, case):
        scenario = MINI_BUILDERS[case]()
        assert canonical_text(scenario) == oracle_text(scenario)
        assert scenario_key(scenario) == oracle_key(scenario)

    def test_d8_batch_through_one_memo_keys_like_the_oracle(self):
        batch = _d8_batch()
        memo: dict = {}
        assert [scenario_key(scenario, memo) for scenario in batch] == [
            oracle_key(scenario) for scenario in batch
        ]
