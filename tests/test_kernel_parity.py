"""Compiled and pure kernels must agree bit for bit, node counts included.

The lanes are compared through the kernel modules themselves, never through
the engine's lane choice, so ``ZEROSUM_PURE_KERNEL`` does not change what is
compared.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerosum.engine as engine
from zerosum import _pykernel
from zerosum.engine import STATE_LIMIT, EngineLimitError
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
# Orders 65 .. 155: bitsets of two or three words, with a partial last word.
MULTIWORD_SPECS = ["C:65", "C:130", "D:50", "Q:20", "M:31,5,2"]
# Bits either side of the first and second word boundaries.
BOUNDARY_BITS = (63, 64, 127, 128)


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
    for spec in PARITY_SPECS + WORD_SPECS + MULTIWORD_SPECS:
        a, b = on_both(grp(spec), lambda k, c: k.greedy(c))
        assert a == b, spec


def assert_reachable_parity(g, items, until_masks):
    elems, counts = engine._counts_of(GSequence.from_indices(g, items))
    a, b = on_both(g, lambda k, c: k.reachable(c, elems, counts, 0, STATE_LIMIT))
    assert a == b
    for until in until_masks:
        # An early exit returns a partial mask that depends on the lane's
        # state order; only the hit flag is part of the contract.
        a, b = on_both(g, lambda k, c: k.reachable(c, elems, counts, until,
                                                   STATE_LIMIT))
        assert a[1] == b[1]
        if not a[1]:
            assert a == b


def test_reachable_parity_random():
    rng = random.Random(99)
    for spec in (["D:6", "Q:4", "M:5,2,4", "C:20", "CxC:3,6"] + WORD_SPECS
                 + MULTIWORD_SPECS):
        g = grp(spec)
        untils = [1 << g.identity] + [1 << b for b in BOUNDARY_BITS if b < g.order]
        for _ in range(150):
            items = [rng.randrange(g.order) for _ in range(rng.randint(1, 8))]
            assert_reachable_parity(g, items, untils)


@st.composite
def group_and_multiset(draw):
    """A group of order <= 200, a multiset of it and one target element."""
    spec = draw(st.one_of(
        st.integers(1, 200).map(lambda n: f"C:{n}"),
        st.integers(2, 100).map(lambda n: f"D:{n}"),
        st.integers(2, 50).map(lambda n: f"Q:{n}"),
        st.sampled_from(["M:5,4,2", "M:7,2,6", "M:11,5,3", "M:13,4,5",
                         "M:31,5,2"]),
        st.tuples(st.integers(2, 14), st.integers(2, 14))
        .filter(lambda t: t[0] * t[1] <= 200)
        .map(lambda t: f"CxC:{t[0]},{t[1]}")))
    g = grp(spec)
    items = draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=8))
    return g, items, draw(st.integers(0, g.order - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(group_and_multiset())
def test_reachable_parity_property(case):
    g, items, target = case
    assert_reachable_parity(g, items, [1 << g.identity, 1 << target])


def merged(elems, counts):
    """The multiset ``elems``/``counts`` as sorted distinct elements with
    nonzero counts."""
    total = Counter()
    for e, c in zip(elems, counts):
        total[e] += c
    keep = sorted(e for e in total if total[e])
    return keep, [total[e] for e in keep]


@pytest.mark.parametrize("spec", ["CxC:2,4", "D:4"])
def test_reachable_input_shapes(spec):
    """Unsorted, repeated and zero-count entries give exactly the mask and
    hit of the merged, sorted multiset, early exits included; no entries
    give (0, False)."""
    g = grp(spec)
    shapes = [([5, 3, 5], [1, 2, 1]), ([6, 3, 1], [1, 0, 2]),
              ([7, 2, 7, 2], [0, 1, 2, 1]), ([4], [0])]
    untils = [0] + [1 << t for t in range(g.order)]
    for kern in LANES:
        ctx = engine._context(g, kern)
        for until in untils:
            assert kern.reachable(ctx, [], [], until, STATE_LIMIT) == (0, False)
        for elems, counts in shapes:
            m_elems, m_counts = merged(elems, counts)
            items = [e for e, c in zip(m_elems, m_counts) for _ in range(c)]
            if items:
                oracle = engine.oracle_reachable(
                    g, GSequence.from_indices(g, items)).mask
                assert kern.reachable(ctx, m_elems, m_counts, 0,
                                      STATE_LIMIT) == (oracle, False)
            for until in untils:
                got = kern.reachable(ctx, elems, counts, until, STATE_LIMIT)
                want = kern.reachable(ctx, m_elems, m_counts, until, STATE_LIMIT)
                assert got == want, (kern.LANE, elems, counts, until)


@pytest.mark.parametrize("spec, elems, counts",
                         [("D:3", [1, 3], [7, 7]), ("C:5", [1], [12])])
def test_reachable_longer_than_group_order(spec, elems, counts):
    """A multiset longer than the group order reaches the whole group."""
    g = grp(spec)
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert kern.reachable(ctx, elems, counts, 0, STATE_LIMIT) == (
            (1 << g.order) - 1, False)


@pytest.mark.parametrize("spec", ["Q:5", "C:64", "C:65", "C:130"])
def test_until_mask_out_of_range_raises(spec):
    g = grp(spec)
    for kern in LANES:
        ctx = engine._context(g, kern)
        top = 1 << (g.order - 1)
        assert kern.reachable(ctx, [1], [1], top, STATE_LIMIT) == (1 << 1, False)
        for bad in (-1, top << 1, top << 64):
            with pytest.raises(ValueError, match="until_mask"):
                kern.reachable(ctx, [1], [1], bad, STATE_LIMIT)


def test_state_cap_counts_words(monkeypatch):
    """24 distinct elements of CxC:32,32 make 2^24 states of 16 words each:
    below STATE_LIMIT as states, above it as words.  Both lanes and the
    engine refuse before allocating the table."""
    g = grp("CxC:32,32")
    elems = list(range(1, 25))
    seq = GSequence.from_indices(g, elems)

    def no_context(group, kern):
        raise AssertionError("the guard must refuse before building a context")

    for lane in ("1", "0"):
        monkeypatch.setenv("ZEROSUM_PURE_KERNEL", lane)
        with monkeypatch.context() as m:
            m.setattr(engine, "_context", no_context)
            with pytest.raises(EngineLimitError, match="state space"):
                engine.reachable_products(g, seq)
    for kern in LANES:
        ctx = engine._context(g, kern)
        tracemalloc.start()
        try:
            with pytest.raises(_pykernel.LimitExceeded):
                kern.reachable(ctx, elems, [1] * 24, 0, STATE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (kern.LANE, peak)


def test_search_state_cap_counts_words():
    """Under a per-root budget of 5, D:50 (two-word bitsets) needs 32 DP
    states: a cap of 63 words refuses it on both lanes, 64 admits it."""
    g = grp("D:50")
    for kern in LANES:
        with pytest.raises(_pykernel.LimitExceeded):
            kern.search(engine._context(g, kern), "max", 0, 0, 5, 63)
    a, b = on_both(g, lambda k, c: k.search(c, "max", 0, 0, 5, 64))
    assert a == b


def test_budget_abort_parity():
    cases = [("D:9", (1, 5, 50, 500))] + [
        (s, WORD_BUDGETS) for s in WORD_SPECS + MULTIWORD_SPECS]
    for spec, budgets in cases:
        g = grp(spec)
        for budget in budgets:
            a, b = on_both(g, lambda k, c: max_search(k, c, budget))
            assert a == b, (spec, budget)


def test_large_groups_run_compiled(monkeypatch):
    g = grp("C:100")  # bitsets of two words
    monkeypatch.delenv("ZEROSUM_PURE_KERNEL", raising=False)
    assert engine._kernel_for(g) is _kernel
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
    cases = [("Q:4", (3, 25, 300))] + [
        (s, WORD_BUDGETS) for s in WORD_SPECS + MULTIWORD_SPECS]
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
