"""Compiled and pure kernels must agree bit for bit, node counts included.

The lanes are compared through the kernel modules themselves, never through
the engine's lane choice, so ``ZEROSUM_PURE_KERNEL`` does not change what is
compared.
"""

from __future__ import annotations

import random

import pytest

import zerosum.engine as engine
from zerosum import _pykernel
from zerosum.engine import STATE_LIMIT
from zerosum.sequences import GSequence

from conftest import KERNEL_SKIP_REASON, grp

pytestmark = pytest.mark.skipif(KERNEL_SKIP_REASON is not None,
                                reason=KERNEL_SKIP_REASON or "")

# The compiled kernel; None only when the module is skipped.
_kernel = engine._compiled
LANES = (_pykernel, _kernel)

PARITY_SPECS = ["C:12", "C:31", "CxC:2,8", "CxC:4,4", "CxC:2,2,3",
                "D:3", "D:7", "D:9", "Q:2", "Q:5", "M:5,4,2", "M:7,2,6"]
# Order 64 fills the whole bitset word (bit 63).  A full search of these
# runs for minutes even compiled, and the pure lane expands only a few
# thousand nodes/s on D:32 and Q:16, so they take small per-root budgets.
WORD_SPECS = ["C:64", "CxC:8,8", "D:32", "Q:16"]
WORD_BUDGETS = (1, 5, 50)


def on_both(g, call):
    """``call(kern, ctx)`` on the pure and then the compiled kernel."""
    return [call(kern, engine._context(g, kern)) for kern in LANES]


def max_search(kern, ctx, budget):
    """Greedy floor, then the max-length DFS above it (as the engine runs)."""
    floor = kern.greedy(ctx)
    return floor, kern.search(ctx, "max", 0, floor[0], budget, STATE_LIMIT)


def enum_search(kern, ctx, length, budget):
    return kern.search(ctx, "enum", length, 0, budget, STATE_LIMIT)


def max_len(g, budget):
    ctx = engine._context(g, _kernel)
    return max_search(_kernel, ctx, budget)[1]["best_len"]


@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_search_parity(spec):
    a, b = on_both(grp(spec), lambda k, c: max_search(k, c, 10 ** 7))
    assert a == b


@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_enum_parity(spec):
    g = grp(spec)
    length = max_len(g, 10 ** 7)
    a, b = on_both(g, lambda k, c: enum_search(k, c, length, 10 ** 7))
    assert a == b


def test_greedy_parity():
    for spec in PARITY_SPECS + WORD_SPECS:
        a, b = on_both(grp(spec), lambda k, c: k.greedy(c))
        assert a == b, spec


def test_reachable_parity_random():
    rng = random.Random(99)
    for spec in ["D:6", "Q:4", "M:5,2,4", "C:20", "CxC:3,6"] + WORD_SPECS:
        g = grp(spec)
        for _ in range(150):
            s = GSequence.from_indices(
                g, [rng.randrange(g.order) for _ in range(rng.randint(1, 8))])
            elems, counts = engine._counts_of(s)
            a, b = on_both(g, lambda k, c: k.reachable(c, elems, counts, 0,
                                                       STATE_LIMIT))
            assert a == b
            # An early exit returns a partial mask that depends on the
            # lane's state order; only the hit flag is part of the contract.
            one = 1 << g.identity
            a, b = on_both(g, lambda k, c: k.reachable(c, elems, counts, one,
                                                       STATE_LIMIT))
            assert a[1] == b[1]
            if not a[1]:
                assert a == b


def test_budget_abort_parity():
    cases = [("D:9", (1, 5, 50, 500))] + [(s, WORD_BUDGETS) for s in WORD_SPECS]
    for spec, budgets in cases:
        g = grp(spec)
        for budget in budgets:
            a, b = on_both(g, lambda k, c: max_search(k, c, budget))
            assert a == b, (spec, budget)


def test_large_groups_route_to_pure():
    g = grp("C:100")  # beyond the compiled kernel's 64-bit bitsets
    assert engine._kernel_for(g) is _pykernel
    res = engine.max_free_search(g, budget=10 ** 6)
    assert res["max_len"] == 99 and res["complete"]


def test_pure_kernel_env_forces_pure_lane(monkeypatch):
    g = grp("D:5")
    monkeypatch.delenv("ZEROSUM_PURE_KERNEL", raising=False)
    assert engine._kernel_for(g) is _kernel
    monkeypatch.setenv("ZEROSUM_PURE_KERNEL", "1")
    assert engine._kernel_for(g) is _pykernel
    assert engine.max_free_search(g, budget=10 ** 6)["max_len"] == 5


def test_enum_parity_under_budget_aborts():
    cases = [("Q:4", (3, 25, 300))] + [(s, WORD_BUDGETS) for s in WORD_SPECS]
    for spec, budgets in cases:
        g = grp(spec)
        for budget in budgets:
            for length in (4, 6, 8):
                a, b = on_both(g, lambda k, c: enum_search(k, c, length, budget))
                assert a == b, (spec, budget, length)


def test_parity_fuzz_mixed_workload():
    rng = random.Random(2024)
    for _ in range(30):
        g = grp(rng.choice(PARITY_SPECS))
        length = rng.randint(1, max(1, max_len(g, 10 ** 6)))
        a, b = on_both(g, lambda k, c: enum_search(k, c, length, 10 ** 6))
        assert a == b
