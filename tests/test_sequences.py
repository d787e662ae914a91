"""Multiset normal form and the text format."""

from __future__ import annotations

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


