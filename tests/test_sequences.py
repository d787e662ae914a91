"""Multiset normal form and the text format."""

from __future__ import annotations

import copy
import operator
import pickle
import random

import pytest

from zerosum.sequences import GSequence, SequenceError

from conftest import grp


def test_normal_form_is_order_free():
    g = grp("D:3")
    a = GSequence.from_indices(g, [4, 1, 1])
    b = GSequence.from_indices(g, [1, 4, 1])
    assert a == b
    assert a.items == (1, 1, 4)
    assert a.length == 3


def test_text_round_trip_examples():
    g = grp("D:4")
    s = GSequence.from_text(g, "[y, y, x*y^2]")
    assert s.format(g) == "[y, y, x*y^2]"
    assert GSequence.from_text(g, " [ y ,y,   x*y^2 ]") == s
    empty = GSequence.from_text(g, "[]")
    assert empty.length == 0
    assert empty.format(g) == "[]"
    assert GSequence.from_text(g, empty.format(g)) == empty


@pytest.mark.parametrize("spec", ["C:9", "D:5", "Q:3", "M:5,4,2", "CxC:2,3,4"])
def test_text_round_trip_random(spec):
    g = grp(spec)
    rng = random.Random(1729)
    for _ in range(50):
        items = [rng.randrange(g.order) for _ in range(rng.randint(0, 8))]
        s = GSequence.from_indices(g, items)
        assert GSequence.from_text(g, s.format(g)) == s


def test_text_errors():
    g = grp("C:5")
    with pytest.raises(SequenceError, match="bracket"):
        GSequence.from_text(g, "y, y")
    with pytest.raises(Exception, match="'q'"):
        GSequence.from_text(g, "[q]")
    with pytest.raises(SequenceError, match="out of range"):
        GSequence.from_indices(g, [7])


def test_gsequence_is_an_immutable_value():
    s = GSequence("D:5", (1, 2))
    same = GSequence(group_key="D:5", items=(1, 2))
    assert s == same and hash(s) == hash(same) and s is not same
    assert s != GSequence("D:6", (1, 2)) and s != GSequence("D:5", (1, 3))
    # Not equal to a tuple of its fields or of its items.
    assert s != ("D:5", (1, 2)) and s != (1, 2)
    assert len({s, same, GSequence("D:5", (2,))}) == 2
    assert repr(s) == "GSequence(group_key='D:5', items=(1, 2))"
    assert tuple(s) == (1, 2) and len(s) == 2 and list(s) == [1, 2]
    with pytest.raises(AttributeError):
        s.items = (3,)
    with pytest.raises(AttributeError):
        del s.group_key
    with pytest.raises(AttributeError):
        s.extra = 1
    assert pickle.loads(pickle.dumps(s)) == s
    assert copy.deepcopy(s) == s and copy.copy(s) == s


def test_gsequence_orders_by_group_key_then_items():
    a, b, c = (GSequence("D:5", (2,)), GSequence("D:4", (3,)),
               GSequence("D:5", (1, 9)))
    assert sorted([a, b, c]) == [b, c, a]
    assert c < a and c <= a and c <= c and not c < c
    assert a > c and a >= c and a >= a and not a > a
    assert max([a, b, c]) is a and min([a, b, c]) is b


@pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt,
                                operator.ge])
@pytest.mark.parametrize("other", [("D:5", (1, 2)), (1, 2), "D:5", 0])
def test_gsequence_orders_only_against_gsequences(op, other):
    s = GSequence("D:5", (1, 2))
    with pytest.raises(TypeError):
        op(s, other)
    with pytest.raises(TypeError):
        op(other, s)
