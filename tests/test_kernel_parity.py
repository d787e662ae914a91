"""Compiled and pure kernels must agree bit for bit, node counts included."""

from __future__ import annotations

import random

import pytest

import zerosum.engine as engine
from zerosum.sequences import GSequence

from conftest import KERNEL_SKIP_REASON, grp

pytestmark = pytest.mark.skipif(KERNEL_SKIP_REASON is not None,
                                reason=KERNEL_SKIP_REASON or "")

PARITY_SPECS = ["C:12", "C:31", "CxC:2,8", "CxC:4,4", "CxC:2,2,3",
                "D:3", "D:7", "D:9", "Q:2", "Q:5", "M:5,4,2", "M:7,2,6"]
# Order 64 fills the whole bitset word (bit 63).  A full search of these
# runs for minutes even compiled, and the pure lane expands only a few
# thousand nodes/s on D:32 and Q:16, so they take small per-root budgets.
WORD_SPECS = ["C:64", "CxC:8,8", "D:32", "Q:16"]
WORD_BUDGETS = (1, 5, 50)


@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_search_parity(spec):
    g = grp(spec)
    a = engine.max_free_search(g, budget=10 ** 7, kernel="pure")
    b = engine.max_free_search(g, budget=10 ** 7, kernel="compiled")
    assert a == b


@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_enum_parity(spec):
    g = grp(spec)
    top = engine.max_free_search(g, budget=10 ** 7, kernel="compiled")
    a = engine.enumerate_free(g, top["max_len"], budget=10 ** 7, kernel="pure")
    b = engine.enumerate_free(g, top["max_len"], budget=10 ** 7, kernel="compiled")
    assert a == b


def test_greedy_parity():
    for spec in PARITY_SPECS + WORD_SPECS:
        g = grp(spec)
        pure = engine.available_kernels()["pure"]
        comp = engine.available_kernels()["compiled"]
        assert pure.greedy(engine._context(g, pure)) \
            == comp.greedy(engine._context(g, comp))


def test_reachable_parity_random():
    rng = random.Random(99)
    for spec in ["D:6", "Q:4", "M:5,2,4", "C:20", "CxC:3,6"] + WORD_SPECS:
        g = grp(spec)
        for _ in range(150):
            s = GSequence.from_indices(
                g, [rng.randrange(g.order) for _ in range(rng.randint(1, 8))])
            a = engine.reachable_products(g, s, kernel="pure")
            b = engine.reachable_products(g, s, kernel="compiled")
            assert a.mask == b.mask
            assert engine.is_product1_free(g, s, kernel="pure") \
                == engine.is_product1_free(g, s, kernel="compiled")


def test_budget_abort_parity():
    cases = [("D:9", (1, 5, 50, 500))] + [(s, WORD_BUDGETS) for s in WORD_SPECS]
    for spec, budgets in cases:
        g = grp(spec)
        for budget in budgets:
            a = engine.max_free_search(g, budget=budget, kernel="pure")
            b = engine.max_free_search(g, budget=budget, kernel="compiled")
            assert a == b, (spec, budget)


def test_large_groups_route_to_pure():
    g = grp("C:100")  # beyond the compiled kernel's 64-bit bitsets
    res = engine.max_free_search(g, budget=10 ** 6, kernel="compiled")
    assert res["max_len"] == 99 and res["complete"]


def test_enum_parity_under_budget_aborts():
    cases = [("Q:4", (3, 25, 300))] + [(s, WORD_BUDGETS) for s in WORD_SPECS]
    for spec, budgets in cases:
        g = grp(spec)
        for budget in budgets:
            for length in (4, 6, 8):
                a = engine.enumerate_free(g, length, budget=budget, kernel="pure")
                b = engine.enumerate_free(g, length, budget=budget,
                                          kernel="compiled")
                assert a == b, (spec, budget, length)


def test_parity_fuzz_mixed_workload():
    rng = random.Random(2024)
    for _ in range(30):
        spec = rng.choice(PARITY_SPECS)
        g = grp(spec)
        top = engine.max_free_search(g, budget=10 ** 6, kernel="compiled")
        length = rng.randint(1, max(1, top["max_len"]))
        a = engine.enumerate_free(g, length, budget=10 ** 6, kernel="pure")
        b = engine.enumerate_free(g, length, budget=10 ** 6, kernel="compiled")
        assert a == b

