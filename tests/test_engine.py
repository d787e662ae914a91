"""Reachability engine vs. the permutation oracle, and the engine's laws."""

from __future__ import annotations

import os
import random
from itertools import combinations_with_replacement, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zerosum.engine import (
    EngineError,
    EngineLimitError,
    has_product_in,
    is_product1_free,
    oracle_reachable,
    reachable_products,
)
from zerosum.groups import automorphisms
from zerosum.sequences import GSequence

from conftest import grp


def seq(g, text):
    return GSequence.from_text(g, text)


def rand_seq(g, rng, max_len=7, min_len=1):
    return GSequence.from_indices(
        g, [rng.randrange(g.order) for _ in range(rng.randint(min_len, max_len))])


def test_reachable_examples():
    d6 = grp("D:3")
    r = reachable_products(d6, seq(d6, "[x, x*y]"))
    assert {d6.names[i] for i in r} == {"y", "y^2", "x", "x*y"}

    c4 = grp("C:4")
    r = reachable_products(c4, seq(c4, "[y, y, y]"))
    assert {c4.names[i] for i in r} == {"y", "y^2", "y^3"}

    for spec in ["C:5", "Q:3", "M:5,2,4"]:
        g = grp(spec)
        for a in range(1, g.order):
            r = reachable_products(g, GSequence.from_indices(g, [a]))
            assert set(r) == {a}


def test_freeness_examples():
    d10 = grp("D:5")
    assert is_product1_free(d10, seq(d10, "[y, y, y, y, x*y^2]"))
    for spec in ["C:7", "D:4", "Q:3"]:
        g = grp(spec)
        for a in range(1, g.order):
            pair = GSequence.from_indices(g, [a, g.inverse(a)])
            assert not is_product1_free(g, pair)
    q8 = grp("Q:2")
    assert is_product1_free(q8, seq(q8, "[x, x]"))       # x*x = y^2 != 1
    assert not is_product1_free(q8, seq(q8, "[x, x, y^2]"))
    assert is_product1_free(q8, GSequence(q8.key, ()))   # vacuous
    # a sequence containing the identity is never free
    assert not is_product1_free(q8, seq(q8, "[1, x]"))


def test_has_product_in():
    q12 = grp("Q:3")
    y3 = q12.element_from_word("y^3")
    assert has_product_in(q12, seq(q12, "[y, y, y]"), {0, y3})
    g = grp("D:4")
    s = seq(g, "[y]")
    assert has_product_in(g, s, set(g.elements()))
    q8 = grp("Q:2")
    pair = seq(q8, "[x, x*y]")
    oracle = set(oracle_reachable(q8, pair))
    targets = {0, q8.element_from_word("y^2")}
    assert has_product_in(q8, pair, targets) == bool(oracle & targets)
    assert not has_product_in(q8, GSequence(q8.key, ()), targets)
    with pytest.raises(EngineError, match="nonempty"):
        has_product_in(q8, pair, set())


@pytest.mark.parametrize("spec", ["D:3", "Q:2"])
def test_oracle_equivalence_exhaustive_len3(spec):
    g = grp(spec)
    for items in combinations_with_replacement(range(g.order), 3):
        s = GSequence.from_indices(g, items)
        assert reachable_products(g, s).mask == oracle_reachable(g, s).mask


def test_oracle_equivalence_random():
    rng = random.Random(1729)
    for spec in ["C:16", "CxC:4,4", "D:6", "D:8", "Q:4", "M:5,2,4"]:
        g = grp(spec)
        for _ in range(40):
            s = rand_seq(g, rng)
            assert reachable_products(g, s).mask == oracle_reachable(g, s).mask


# Small groups in which a multiset of length <= 8 often reaches every
# element, so the kernels' full-group exit is exercised.
DENSE_SPECS = ["Q:2", "D:3", "D:4", "CxC:2,2", "M:3,2,2"]
LANES = ("1", "0")  # ZEROSUM_PURE_KERNEL: the pure, then the default lane


@st.composite
def dense_multiset(draw, min_size):
    g = grp(draw(st.sampled_from(DENSE_SPECS)))
    items = draw(st.lists(st.integers(0, g.order - 1), min_size=min_size,
                          max_size=8))
    return g, GSequence.from_indices(g, items)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dense_multiset(min_size=1))
def test_reachable_matches_oracle_property(case):
    g, s = case
    want = oracle_reachable(g, s).mask
    for lane in LANES:
        with mock.patch.dict(os.environ, {"ZEROSUM_PURE_KERNEL": lane}):
            assert reachable_products(g, s).mask == want, lane


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dense_multiset(min_size=0))
def test_freeness_invariant_under_inversion_property(case):
    g, s = case
    inverse = GSequence.from_indices(g, (g.inverse(a) for a in s))
    for lane in LANES:
        with mock.patch.dict(os.environ, {"ZEROSUM_PURE_KERNEL": lane}):
            assert is_product1_free(g, s) == is_product1_free(g, inverse)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dense_multiset(min_size=0))
def test_freeness_invariant_under_automorphisms_property(case):
    # The premise of Group.orbit_roots: an automorphism maps free multisets
    # to free multisets, and non-free ones to non-free ones.
    g, s = case
    images = [GSequence.from_indices(g, (phi[a] for a in s))
              for phi in automorphisms(g)]
    for lane in LANES:
        with mock.patch.dict(os.environ, {"ZEROSUM_PURE_KERNEL": lane}):
            free = is_product1_free(g, s)
            for image in images:
                assert is_product1_free(g, image) == free, (lane, image)


def test_short_circuit_soundness():
    rng = random.Random(42)
    for spec in ["D:5", "Q:3"]:
        g = grp(spec)
        for _ in range(60):
            s = rand_seq(g, rng)
            assert is_product1_free(g, s) == (0 not in reachable_products(g, s))


def test_abelian_collapse():
    # for abelian groups the reachable set is the plain subset-product set
    rng = random.Random(5)
    for spec in ["C:12", "CxC:2,8", "CxC:3,3"]:
        g = grp(spec)
        for _ in range(30):
            s = rand_seq(g, rng, max_len=6)
            # every nonempty sub-multiset, as one count per distinct element
            cnt = s.counts()
            expected = set()
            for picks in product(*(range(c + 1) for c in cnt.values())):
                if any(picks):
                    prod = 0
                    for a, k in zip(cnt, picks):
                        prod = g.mul(prod, g.power(a, k))
                    expected.add(prod)
            assert set(reachable_products(g, s)) == expected


def test_monotonicity():
    rng = random.Random(9)
    for spec in ["D:6", "Q:3", "CxC:2,6"]:
        g = grp(spec)
        for _ in range(40):
            s = rand_seq(g, rng, max_len=6)
            t = GSequence.from_indices(
                g, s.items + rand_seq(g, rng, max_len=3).items)
            assert reachable_products(g, s).mask & ~reachable_products(g, t).mask == 0


def test_inverse_closure_of_freeness():
    # reversal of an ordered product inverts it, so R(S^-1) = R(S)^-1
    rng = random.Random(13)
    for spec in ["D:5", "Q:4", "M:5,4,2"]:
        g = grp(spec)
        for _ in range(40):
            s = rand_seq(g, rng, max_len=6)
            r = reachable_products(g, s)
            inverse = GSequence.from_indices(g, (g.inverse(a) for a in s))
            r_inv = reachable_products(g, inverse)
            assert set(r_inv) == {g.inverse(a) for a in r}
            assert is_product1_free(g, s) == is_product1_free(g, inverse)


def test_guards():
    g = grp("C:30")
    distinct26 = GSequence.from_indices(g, range(1, 27))
    with pytest.raises(EngineLimitError, match="24"):
        reachable_products(g, distinct26)
    with pytest.raises(EngineError, match="nonempty"):
        reachable_products(g, GSequence(g.key, ()))
    with pytest.raises(EngineLimitError, match="length 8"):
        oracle_reachable(g, GSequence.from_indices(g, [1] * 9))
    # state-space estimate guard: 20 distinct elements, multiplicity 3 each
    # gives 4^20 > 1e8 potential states
    big = GSequence.from_indices(g, sorted(list(range(1, 21)) * 3))
    with pytest.raises(EngineLimitError, match="state space"):
        reachable_products(g, big)


def test_reachable_set_container():
    g = grp("C:6")
    r = reachable_products(g, seq(g, "[y, y]"))
    assert 1 in r and 2 in r and 0 not in r
    assert len(r) == 2
    assert sorted(r) == [1, 2]


@pytest.mark.parametrize("spec", ["C:6", "D:3", "Q:2", "M:3,2,2", "CxC:2,4"])
def test_enumeration_matches_brute_force_filter(spec):
    # the canonical DFS must find exactly the free multisets that a plain
    # generate-and-filter pass finds
    import zerosum.engine as engine
    g = grp(spec)
    for length in range(1, 5):
        dfs = {tuple(t) for t in
               engine.enumerate_free(g, length, budget=10 ** 7)["found"]}
        brute = set()
        for items in combinations_with_replacement(range(g.order), length):
            if is_product1_free(g, GSequence.from_indices(g, items)):
                brute.add(items)
        assert dfs == brute


@pytest.mark.parametrize("spec", ["C:7", "D:3", "Q:2", "M:3,2,2"])
def test_max_search_matches_brute_force(spec):
    import zerosum.engine as engine
    g = grp(spec)
    res = engine.max_free_search(g, budget=10 ** 7)
    best = 0
    length = 1
    while True:
        found = engine.enumerate_free(g, length, budget=10 ** 7)["found"]
        if not found:
            break
        best = length
        length += 1
    assert res["max_len"] == best and res["complete"]


def test_budget_exhaustion_marks_search_incomplete():
    import zerosum.engine as engine
    g = grp("D:9")
    for budget in (7, 60, 400):
        assert (engine.max_free_search(g, budget=budget)
                == engine.max_free_search(g, budget=budget))
    assert not engine.max_free_search(g, budget=7)["complete"]


def test_pure_search_depth_is_not_bounded_by_recursion_limit():
    # C:70 runs on the pure lane, and its extremal paths have 69 elements;
    # the DFS must not need a Python frame per path element.
    import inspect
    import sys

    import zerosum.engine as engine
    g = grp("C:70")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        res = engine.enumerate_free(g, 69, budget=10 ** 7)
    finally:
        sys.setrecursionlimit(limit)
    assert res["complete"] and res["nodes"] == 55_833
    assert len(res["found"]) == 24  # g^69 for each of the phi(70) generators
