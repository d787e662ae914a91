"""Max-free-length search, Davenport constants and the regression roster."""

from __future__ import annotations

import sys

import pytest

from zerosum.davenport import (
    ConstantCheck,
    SearchResult,
    davenport,
    known_constant_roster,
    max_free_length,
    verify_known_constants,
)
from zerosum.engine import BudgetExhaustedError, is_product1_free
from zerosum.sequences import GSequence

from conftest import grp


@pytest.mark.parametrize("spec,expected", [
    ("C:1", 1), ("C:2", 2), ("C:6", 6),
    ("CxC:2,4", 5), ("CxC:2,2,2", 4),
    ("D:2", 3), ("D:3", 4), ("D:5", 6),
    ("Q:2", 5), ("Q:3", 7),
    ("M:3,2,2", 4), ("M:5,2,4", 6),
])
def test_known_values(spec, expected):
    assert davenport(grp(spec)) == expected


def test_witness_is_valid_and_lex_least():
    g = grp("D:5")
    res = max_free_length(g)
    assert res.max_free_length == 5
    assert res.davenport == 6
    assert res.witness.length == 5
    assert is_product1_free(g, res.witness)
    # lexicographically least extremal multiset: (y)^4 (x)
    assert res.witness.items == (1, 1, 1, 1, 5)


@pytest.mark.parametrize("spec", ["C:8", "CxC:2,4", "D:3", "D:4", "Q:2",
                                  "M:5,2,4", "CxC:2,2,2", "C:16", "D:8", "Q:4"])
def test_witness_tightness_small_groups(spec):
    # |G| <= 16: appending any element to the witness breaks freeness
    g = grp(spec)
    assert g.order <= 16
    res = max_free_length(g)
    for e in g.elements():
        extended = GSequence.from_indices(g, res.witness.items + (e,))
        assert not is_product1_free(g, extended)


def test_search_result_is_a_named_tuple():
    res = max_free_length(grp("D:3"))
    assert SearchResult._fields == (
        "group_key", "max_free_length", "davenport", "witness",
        "nodes_expanded", "elapsed", "complete")
    assert SearchResult._field_defaults == {}
    assert res == SearchResult(*res) == SearchResult(**res._asdict())
    assert res[:3] == ("D:3", 3, 4) and res.complete is True
    moved = res._replace(elapsed=-1.0)
    assert moved.elapsed == -1.0 and moved[:5] == res[:5]
    assert repr(res).startswith("SearchResult(group_key='D:3', max_free_length=3, ")
    with pytest.raises(AttributeError):
        res.davenport = 5


def test_constant_check_is_a_named_tuple():
    assert ConstantCheck._fields == (
        "group", "formula", "expected", "computed", "ok", "nodes", "millis")
    assert ConstantCheck._field_defaults == {}
    check = ConstantCheck(group="C:4", formula="D(C_n) = n", expected=4,
                          computed=4, ok=True, nodes=3, millis=0.5)
    assert check == ("C:4", "D(C_n) = n", 4, 4, True, 3, 0.5)
    assert check._replace(ok=False, computed=None) == (
        "C:4", "D(C_n) = n", 4, None, False, 3, 0.5)
    [first] = verify_known_constants(roster=[("C:4", 4, "D(C_n) = n")])
    assert first._replace(millis=0.5, nodes=3) == check


def test_determinism():
    g = grp("Q:4")
    a = max_free_length(g)
    b = max_free_length(g)
    assert a._replace(elapsed=0.0) == b._replace(elapsed=0.0)


def test_davenport_submodule_is_not_shadowed():
    import zerosum.davenport as m
    assert m is sys.modules["zerosum.davenport"]
    assert m.davenport(grp("D:5")) == 6


def test_budget_exhaustion_is_explicit():
    g = grp("D:8")
    res = max_free_length(g, budget=3)
    assert not res.complete
    assert res.davenport is None
    assert res.max_free_length >= 3  # greedy floor is already known
    with pytest.raises(BudgetExhaustedError, match="unknown above length"):
        davenport(g, budget=3)


def test_roster_contents():
    roster = dict((spec, exp) for spec, exp, _ in known_constant_roster())
    assert roster["C:30"] == 30
    assert roster["CxC:2,16"] == 17
    assert roster["CxC:6,6"] == 11
    assert roster["CxC:2,2,2,2,2"] == 6
    assert roster["CxC:3,3,3"] == 7
    assert roster["D:10"] == 11
    assert roster["Q:6"] == 13
    assert roster["M:7,3,2"] == 9
    specs = [spec for spec, _, _ in known_constant_roster()]
    assert len(specs) == len(set(specs))  # dedupe across overlapping families


def test_verify_known_constants_spot():
    # full roster runs in the acceptance suite; spot-check the plumbing here
    sub = [e for e in known_constant_roster()
           if e[0] in ("C:5", "D:4", "Q:2", "M:3,2,2")]
    rows = verify_known_constants(budget=10 ** 6, roster=sub)
    assert len(rows) == 4
    assert all(r.ok for r in rows)
    assert all(r.computed == r.expected for r in rows)
