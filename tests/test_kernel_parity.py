"""Compiled and pure kernels must agree bit for bit, node counts included.

The lanes are compared through the kernel modules themselves, never through
the engine's lane choice, so ``ZEROSUM_PURE_KERNEL`` does not change what is
compared.
"""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zerosum.engine as engine
from zerosum import _pykernel
from zerosum.davenport import known_constant_roster
from zerosum.engine import STATE_LIMIT, EngineLimitError
from zerosum.groups import orbit_closure
from zerosum.sequences import GSequence

from conftest import KERNEL_SKIP_REASON, grp, source_digest

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
# Budgets that abort each search at every node, inside its parent's loop of
# children: on CxC:2,4 (abelian) and D:3 (non-abelian) up to the largest node
# count of any full search there (max 94 and 22 nodes), on C:70 the first
# 200 nodes of each root.  D:50 takes its first 20: the pure lane needs
# minutes for the first 200 (about 270 s for max, 200 s for enum at
# length 8).
EVERY_NODE_BUDGETS = [("CxC:2,4", range(1, 95)), ("D:3", range(1, 23)),
                      ("C:70", range(1, 201)), ("D:50", range(1, 21))]
# Bits either side of the first and second word boundaries.
BOUNDARY_BITS = (63, 64, 127, 128)


def test_compiled_kernel_is_built_from_the_source():
    """The compiled lane under test is a build of this checkout's own
    _kernel.c, not one left next to the package from other sources."""
    assert _kernel.SOURCE_SHA256 == source_digest()


def on_both(g, call):
    """``call(kern, ctx)`` on the pure and then the compiled kernel."""
    return [call(kern, engine._context(g, kern)) for kern in LANES]


def max_search(kern, ctx, budget):
    """Greedy floor, then the max-length DFS above it (as the engine runs)."""
    floor = kern.greedy(ctx, STATE_LIMIT)
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
        a, b = on_both(grp(spec), lambda k, c: k.greedy(c, STATE_LIMIT))
        assert a == b, spec


def assert_reachable_parity(g, items, until_masks):
    """Both lanes give one (mask, hit), early exits included: each stops
    after the same append, holding the products of the copies so far."""
    for until in [0, *until_masks]:
        a, b = on_both(g, lambda k, c: k.reachable(c, items, until,
                                                   STATE_LIMIT))
        assert a == b, (items, until)


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


@pytest.mark.parametrize("spec", ["CxC:2,4", "D:4"])
def test_reachable_input_shapes(spec):
    """Unsorted and repeated items give exactly the mask and hit of the
    sorted multiset, early exits included, and the oracle's mask; no items
    give (0, False)."""
    g = grp(spec)
    shapes = [[5, 3, 3, 5], [6, 1, 3, 1], [7, 2, 7, 7, 2], [4]]
    untils = [0] + [1 << t for t in range(g.order)]
    for kern in LANES:
        ctx = engine._context(g, kern)
        for until in untils:
            assert kern.reachable(ctx, [], until, STATE_LIMIT) == (0, False)
        for items in shapes:
            oracle = engine.oracle_reachable(
                g, GSequence.from_indices(g, items)).mask
            assert kern.reachable(ctx, sorted(items), 0,
                                  STATE_LIMIT) == (oracle, False)
            for until in untils:
                got = kern.reachable(ctx, items, until, STATE_LIMIT)
                want = kern.reachable(ctx, sorted(items), until, STATE_LIMIT)
                assert got == want, (kern.LANE, items, until)


@pytest.mark.parametrize("spec", ["CxC:4,4", "D:7", "D:50"])
def test_reachable_shuffled_items_parity(spec):
    """A shuffled items list with repeats gives the (mask, hit) of its
    sorted form, and the same pair on both lanes, with and without
    until_mask: on a one-word abelian group, a one-word non-abelian group
    and a two-word group."""
    g = grp(spec)
    rng = random.Random(32)
    untils = [0, 1 << g.identity] + [1 << rng.randrange(g.order)
                                     for _ in range(4)]
    for _ in range(25):
        distinct = rng.sample(range(g.order), rng.randint(1, 5))
        items = [e for e in distinct for _ in range(rng.randint(1, 3))]
        rng.shuffle(items)
        for until in untils:
            a, b = on_both(g, lambda k, c: k.reachable(c, items, until,
                                                       STATE_LIMIT))
            want = on_both(g, lambda k, c: k.reachable(c, sorted(items), until,
                                                       STATE_LIMIT))
            assert a == b == want[0] == want[1], (items, until)


@pytest.mark.parametrize("spec, elems, counts",
                         [("D:3", [1, 3], [7, 7]), ("C:5", [1], [12])])
def test_reachable_longer_than_group_order(spec, elems, counts):
    """A multiset longer than the group order, ``counts`` copies of each of
    ``elems``, reaches the whole group."""
    g = grp(spec)
    items = [e for e, c in zip(elems, counts) for _ in range(c)]
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert kern.reachable(ctx, items, 0, STATE_LIMIT) == (
            (1 << g.order) - 1, False)


# Twelve distinct elements of Q:6 (order 24); in increasing index order the
# first seven already reach the whole group.
Q6_FILLING = ("y, y^2, y^3, x, x*y, x*y^2, x*y^3, x*y^4, x*y^5, y^4, y^5, "
              "y^6")


def filling_multiset(g, words, fill_at):
    """The sorted indices of ``words``, checked to reach the whole group
    after exactly ``fill_at`` of them, on both lanes."""
    elems = sorted(g.element_from_word(w) for w in words.split(","))
    full = (1 << g.order) - 1
    for kern in LANES:
        ctx = engine._context(g, kern)
        for k, filled in ((fill_at - 1, False), (fill_at, True)):
            mask, _ = kern.reachable(ctx, elems[:k], 0, STATE_LIMIT)
            assert (mask == full) == filled, (kern.LANE, k)
    return elems


def test_reachable_stops_once_the_group_is_full():
    """With until_mask 0, a multiset that fills the group partway returns
    the full mask and no hit on both lanes, whatever follows."""
    g = grp("Q:6")
    elems = filling_multiset(g, Q6_FILLING, 7)
    full = (1 << g.order) - 1
    for counts in ([1] * 12, [2] * 12, [1] * 6 + [5] * 6):
        items = [e for e, n in zip(elems, counts) for _ in range(n)]
        a, b = on_both(g, lambda k, c: k.reachable(c, items, 0, STATE_LIMIT))
        assert a == b == (full, False)
        assert engine.reachable_products(
            g, GSequence.from_indices(g, items)).mask == full
    # The pure lane builds an element's byte tables on its first translate:
    # on a fresh context, the elements after the filling one never get any.
    ctx = _pykernel.build_context(g.order, g.table, g.inv_table, g.identity,
                                  None)
    _pykernel.reachable(ctx, elems, 0, STATE_LIMIT)
    assert [ctx.tables[e] is None for e in elems] == [False] * 7 + [True] * 5


def test_reachable_hit_flag_with_a_full_group():
    """A nonzero until_mask still sets the hit flag, for every target and
    for a full-group target set."""
    g = grp("Q:6")
    elems = filling_multiset(g, Q6_FILLING, 7)
    for until in [1 << t for t in range(g.order)] + [(1 << g.order) - 1]:
        a, b = on_both(g, lambda k, c: k.reachable(c, elems, until,
                                                   STATE_LIMIT))
        assert a[1] is b[1] is True, until


def test_reachable_refuses_above_the_cap_even_when_a_prefix_fills():
    """The state cap applies to the whole multiset, up front: 24 distinct
    elements of D:200 (7-word bitsets) need 2^24 * 7 words, above
    STATE_LIMIT, although the first nine reach the whole group.  The same
    holds at the edge of a small cap."""
    g = grp("D:200")
    words = ",".join([f"y^{1 << i}" for i in range(8)] + ["x"]
                     + [f"x*y^{k}" for k in range(1, 16)])
    elems = filling_multiset(g, words, 9)
    full = (1 << g.order) - 1
    for kern in LANES:
        ctx = engine._context(g, kern)
        with pytest.raises(EngineLimitError):
            kern.reachable(ctx, elems, 0, STATE_LIMIT)
        # Ten elements: 2^10 states of 7 words each.
        with pytest.raises(EngineLimitError):
            kern.reachable(ctx, elems[:10], 0, 1024 * 7 - 1)
        assert kern.reachable(ctx, elems[:10], 0, 1024 * 7) == (full, False)
    seq = GSequence.from_indices(g, elems)
    for lane in ("1", "0"):
        with mock.patch.dict(os.environ, {"ZEROSUM_PURE_KERNEL": lane}):
            with pytest.raises(EngineLimitError, match="state cap"):
                engine.reachable_products(g, seq)
            with pytest.raises(EngineLimitError, match="state cap"):
                engine.is_product1_free(g, seq)


def test_reachable_checks_every_element_up_front():
    """An element out of range is refused even after a prefix that fills
    the group."""
    g = grp("D:4")
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert kern.reachable(ctx, [1, 4, 5], 0, STATE_LIMIT) == (
            (1 << g.order) - 1, False)
        with pytest.raises(ValueError, match="items entry 8 out of range"):
            kern.reachable(ctx, [1, 4, 5, 8], 0, STATE_LIMIT)


def test_reachable_takes_more_entries_than_max_order():
    """items may list an element many times, so its length is bounded by
    neither the order nor the compiled kernel's MAX_ORDER: 5000 copies of
    one element, 5001 states, fill C:6 on both lanes."""
    g = grp("C:6")
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert kern.reachable(ctx, [1] * 5000, 0,
                              STATE_LIMIT) == ((1 << 6) - 1, False), kern.LANE


def test_reachable_caps_states_over_distinct_elements():
    """The state cap counts the product over distinct elements of
    (copies + 1), wherever the copies of an element sit among the items:
    30 copies of y on D:4 are the 31 states of (y)^30, refused under a cap
    of 30 states and taken under 31.  With one x more, before, after or
    among them, they are 62 states."""
    g = grp("D:4")
    y, x = 1, 4
    powers_of_y = 0b1111  # 1, y, y^2, y^3
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert kern.reachable(ctx, [y] * 30, 0, 31) == (
            powers_of_y, False), kern.LANE
        with pytest.raises(EngineLimitError):
            kern.reachable(ctx, [y] * 30, 0, 30)
        want = kern.reachable(ctx, [x] + [y] * 30, 0, STATE_LIMIT)
        for items in ([y] * 30 + [x], [y] * 15 + [x] + [y] * 15):
            assert kern.reachable(ctx, items, 0, 62) == want, kern.LANE
            with pytest.raises(EngineLimitError):
                kern.reachable(ctx, items, 0, 61)


@pytest.mark.parametrize("spec", ["Q:5", "C:64", "C:65", "C:130"])
def test_until_mask_out_of_range_raises(spec):
    g = grp(spec)
    for kern in LANES:
        ctx = engine._context(g, kern)
        top = 1 << (g.order - 1)
        assert kern.reachable(ctx, [1], top, STATE_LIMIT) == (1 << 1, False)
        for bad in (-1, top << 1, top << 64):
            with pytest.raises(ValueError, match="until_mask"):
                kern.reachable(ctx, [1], bad, STATE_LIMIT)


def test_state_cap_counts_words(monkeypatch):
    """24 distinct elements of CxC:32,32 make 2^24 states of 16 words each:
    below STATE_LIMIT as states, above it as words.  Both lanes refuse,
    through the engine too, before allocating the table."""
    g = grp("CxC:32,32")
    elems = list(range(1, 25))
    seq = GSequence.from_indices(g, elems)
    for lane in ("1", "0"):
        monkeypatch.setenv("ZEROSUM_PURE_KERNEL", lane)
        with pytest.raises(EngineLimitError, match="state cap"):
            engine.reachable_products(g, seq)
    for kern in LANES:
        ctx = engine._context(g, kern)
        tracemalloc.start()
        try:
            with pytest.raises(EngineLimitError):
                kern.reachable(ctx, elems, 0, STATE_LIMIT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, (kern.LANE, peak)


def test_search_state_cap_counts_words():
    """Under a per-root budget of 5, D:50 (two-word bitsets) needs 32 DP
    states: a cap of 63 words refuses it on both lanes, 64 admits it."""
    g = grp("D:50")
    for kern in LANES:
        with pytest.raises(EngineLimitError):
            kern.search(engine._context(g, kern), "max", 0, 0, 5, 63)
    a, b = on_both(g, lambda k, c: k.search(c, "max", 0, 0, 5, 64))
    assert a == b


def test_greedy_state_cap_counts_words():
    """Greedy on D:50 walks (y)^49 (x): 100 DP states of two words each.  A
    cap of 199 words refuses it on both lanes, 200 admits it."""
    g = grp("D:50")
    for kern in LANES:
        with pytest.raises(EngineLimitError):
            kern.greedy(engine._context(g, kern), 199)
    a, b = on_both(g, lambda k, c: k.greedy(c, 200))
    assert a == b and a[0] == 50


def test_budget_abort_parity():
    cases = [("D:9", (1, 5, 50, 500))] + [
        (s, WORD_BUDGETS) for s in WORD_SPECS + MULTIWORD_SPECS
    ] + EVERY_NODE_BUDGETS
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


# Imports zerosum with the directory of the kernel under test first on the
# package path, as tests/conftest.py does, runs one davenport command on the
# default lane and prints the lane and whether the pure kernel was loaded.
COMPILED_ONLY = """
import importlib.util, sys
spec = importlib.util.find_spec("zerosum")
spec.submodule_search_locations.insert(0, sys.argv[1])
module = importlib.util.module_from_spec(spec)
sys.modules["zerosum"] = module
spec.loader.exec_module(module)
from zerosum.cli import main
assert main(["davenport", "--group", "D:9", "--no-cache"]) == 0
print(sys.modules["zerosum.engine"].default_kernel_name(),
      "zerosum._pykernel" in sys.modules)
"""


def test_compiled_lane_never_loads_the_pure_kernel():
    env = {k: v for k, v in os.environ.items() if k != "ZEROSUM_PURE_KERNEL"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(engine.__file__).parents[1]),
                    os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", COMPILED_ONLY, str(Path(_kernel.__file__).parent)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "compiled False"


def test_enum_parity_under_budget_aborts():
    cases = [("Q:4", (3, 25, 300))] + [
        (s, WORD_BUDGETS) for s in WORD_SPECS + MULTIWORD_SPECS
    ] + EVERY_NODE_BUDGETS
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


def roots_search(kern, ctx, budget, roots, maps=None):
    """Greedy floor, then the max-length DFS over ``roots`` above it."""
    floor = kern.greedy(ctx, STATE_LIMIT)
    return kern.search(ctx, "max", 0, floor[0], budget, STATE_LIMIT, roots,
                       maps)


def test_search_roots_parity():
    """The orbit roots, and every other root, under small per-root
    budgets: identical results on both lanes."""
    for spec in PARITY_SPECS + MULTIWORD_SPECS:
        g = grp(spec)
        others = tuple(r for r in range(1, g.order) if r not in g.orbit_roots)
        for roots in (g.orbit_roots, others):
            for budget in WORD_BUDGETS:
                a, b = on_both(g, lambda k, c: roots_search(k, c, budget, roots))
                assert a == b, (spec, roots, budget)


def test_search_roots_none_means_every_root():
    g = grp("D:7")
    every = tuple(range(1, g.order))
    for kern in LANES:
        ctx = engine._context(g, kern)
        assert (kern.search(ctx, "max", 0, 0, 10 ** 6, STATE_LIMIT, every)
                == kern.search(ctx, "max", 0, 0, 10 ** 6, STATE_LIMIT, None)
                == kern.search(ctx, "max", 0, 0, 10 ** 6, STATE_LIMIT))
        assert kern.search(ctx, "max", 0, 3, 10 ** 6, STATE_LIMIT, []) == {
            "complete": True, "best_len": 3, "witness": None, "found": [],
            "nodes": 0}


@pytest.mark.parametrize("roots, message", [
    ([0, 3], "roots entry 0 out of range"),
    ([3, 10], "roots entry 10 out of range"),
    ([-1], "roots entry -1 out of range"),
    ([2, 5, 5], "roots must be strictly increasing"),
    ([4, 2], "roots must be strictly increasing")])
def test_search_roots_refused_alike(roots, message):
    g = grp("D:5")
    for kern in LANES:
        with pytest.raises(ValueError) as info:
            kern.search(engine._context(g, kern), "max", 0, 0, 10, STATE_LIMIT,
                        roots)
        assert str(info.value) == message, kern.LANE


@pytest.mark.parametrize("maps, message", [
    (array("h", range(9)), "maps must hold a multiple of 10 int16 entries"),
    (bytes(21), "maps must hold a multiple of 10 int16 entries"),
    (array("h", [*range(9), 10]), "maps entry 10 out of range"),
    (array("h", [*range(10), -1, *range(1, 10)]), "maps entry -1 out of range")])
def test_search_maps_refused_alike(maps, message):
    """A maps buffer must hold whole maps of n int16 images in 0 .. n-1."""
    g = grp("D:5")
    for kern in LANES:
        with pytest.raises(ValueError) as info:
            kern.search(engine._context(g, kern), "max", 0, 0, 10, STATE_LIMIT,
                        g.orbit_roots, maps)
        assert str(info.value) == message, kern.LANE


def test_maps_that_move_nothing_down_prune_nothing():
    """No maps, an empty buffer and the identity map search alike."""
    g = grp("D:7")
    for kern in LANES:
        ctx = engine._context(g, kern)
        runs = [kern.search(ctx, "collect", 0, 0, 10 ** 6, STATE_LIMIT, None,
                            maps)
                for maps in (None, array("h"), array("h", g.elements()))]
        assert runs[0] == runs[1] == runs[2], kern.LANE


# The roster (the 19 groups of the extremal workload are among it) and two
# groups of order 32.
MAPS_SPECS = [spec for spec, _, _ in known_constant_roster()] + ["D:16", "Q:8"]
# The pure lane repeats the searches with no maps only where the compiled
# lane's take at most this many nodes (under 1 s on the pure lane); its
# searches with maps are compared with the compiled lane's on every group.
PURE_NO_MAPS_NODES = 20_000


def max_and_collect(kern, g, maps):
    """The engine's max and orbit-root collect searches, with ``maps``."""
    ctx = engine._context(g, kern)
    floor = kern.greedy(ctx, STATE_LIMIT)[0]
    return [kern.search(ctx, mode, 0, floor, 10 ** 8, STATE_LIMIT,
                        g.orbit_roots, maps) for mode in ("max", "collect")]


@pytest.mark.parametrize("spec", MAPS_SPECS)
def test_maps_keep_length_witness_and_extremal_set(spec):
    """With the engine's maps (the whole listed automorphism group, or its
    generators) the max search keeps its length, witness and completeness;
    the collecting search keeps a subset of what it collects with no maps,
    which closes to the whole extremal set; and neither visits more nodes
    than with no maps.  The max search over the orbit roots with no maps
    visits no more nodes than over every root, with the same length and
    witness.  Both lanes give the same results with maps, node counts
    included."""
    g = grp(spec)
    maps = engine._search_maps(g)
    pruned = max_and_collect(_kernel, g, maps)
    assert pruned == max_and_collect(_pykernel, g, maps)
    plain = [max_and_collect(_kernel, g, None)]
    if max(r["nodes"] for r in plain[0]) <= PURE_NO_MAPS_NODES:
        plain.append(max_and_collect(_pykernel, g, None))
    max_m, col_m = pruned
    assert max_m["complete"] and col_m["complete"]
    for max_0, col_0 in plain:
        assert (max_m["best_len"], max_m["witness"]) == (
            max_0["best_len"], max_0["witness"])
        assert col_m["best_len"] == col_0["best_len"]
        assert set(col_m["found"]) <= set(col_0["found"])
        assert max_m["nodes"] <= max_0["nodes"]
        assert col_m["nodes"] <= col_0["nodes"]
    ctx = engine._context(g, _kernel)
    every = _kernel.search(ctx, "max", 0, _kernel.greedy(ctx, STATE_LIMIT)[0],
                           10 ** 8, STATE_LIMIT)
    max_0 = plain[0][0]
    assert (every["best_len"], every["witness"]) == (
        max_0["best_len"], max_0["witness"])
    assert max_0["nodes"] <= every["nodes"]
    if g.closure_maps is None:
        # the engine's own path for these groups: every root, no maps
        want = _kernel.search(ctx, "collect", 0, _kernel.greedy(
            ctx, STATE_LIMIT)[0], 10 ** 8, STATE_LIMIT)["found"]
    else:
        want = orbit_closure(g, plain[0][1]["found"])
    assert orbit_closure(g, col_m["found"]) == want


def test_maps_budget_abort_parity():
    """Max and collect with the engine's maps, aborted at every node of
    EVERY_NODE_BUDGETS: identical results on both lanes."""
    for spec, budgets in EVERY_NODE_BUDGETS:
        g = grp(spec)
        maps = engine._search_maps(g)
        for budget in budgets:
            for mode in ("max", "collect"):
                a, b = on_both(g, lambda k, c: k.search(
                    c, mode, 0, k.greedy(c, STATE_LIMIT)[0], budget,
                    STATE_LIMIT, g.orbit_roots, maps))
                assert a == b, (spec, budget, mode)


def test_orbit_roots_keep_length_witness_and_completeness():
    """From floor 0, the orbit roots give the max length, witness and
    completeness of every root on each roster group of order <= 16."""
    small = [spec for spec, _, _ in known_constant_roster()
             if grp(spec).order <= 16]
    assert len(small) == 38
    for spec in small:
        g = grp(spec)
        for kern in LANES:
            ctx = engine._context(g, kern)
            full = kern.search(ctx, "max", 0, 0, 10 ** 7, STATE_LIMIT)
            part = kern.search(ctx, "max", 0, 0, 10 ** 7, STATE_LIMIT,
                               g.orbit_roots)
            assert full["complete"] and part["complete"], spec
            assert (part["best_len"], part["witness"]) == (
                full["best_len"], full["witness"]), (spec, kern.LANE)
            assert part["nodes"] <= full["nodes"]


def test_engine_max_search_walks_the_orbit_roots():
    """The engine walks the orbit roots and prunes below them with the
    listed automorphism group: fewer nodes than the orbit roots alone, which
    take fewer than every root."""
    g = grp("D:9")
    assert g.orbit_roots == (1, 3, 9)
    res = engine.max_free_search(g, budget=10 ** 7)
    for kern in LANES:
        ctx = engine._context(g, kern)
        floor = kern.greedy(ctx, STATE_LIMIT)
        pruned = roots_search(kern, ctx, 10 ** 7, g.orbit_roots, g.closure_maps)
        part = roots_search(kern, ctx, 10 ** 7, g.orbit_roots)
        full = roots_search(kern, ctx, 10 ** 7, None)
        assert res["nodes"] == floor[2] + pruned["nodes"]
        assert pruned["nodes"] < part["nodes"] < full["nodes"]
        assert res["max_len"] == full["best_len"] == 9


def collect_search(kern, ctx, budget, roots, floor=None):
    """The collecting DFS over ``roots`` from ``floor`` (default: the greedy
    floor), as the engine runs it for extremal sets."""
    if floor is None:
        floor = kern.greedy(ctx, STATE_LIMIT)[0]
    return kern.search(ctx, "collect", 0, floor, budget, STATE_LIMIT, roots)


def test_collect_parity():
    """Orbit roots under small per-root budgets: identical nodes, best
    length and found lists on both lanes."""
    cases = [(s, WORD_BUDGETS) for s in PARITY_SPECS + MULTIWORD_SPECS]
    for spec, budgets in cases + EVERY_NODE_BUDGETS:
        g = grp(spec)
        for budget in budgets:
            a, b = on_both(g, lambda k, c: collect_search(k, c, budget,
                                                          g.orbit_roots))
            assert a == b, (spec, budget)


# The roster's groups whose automorphism group does not fit in
# CLOSURE_LIMIT, with the nodes of their extremal search (greedy included).
# All are non-cyclic abelian, so that search walks every root and closes
# nothing.
BEYOND_CLOSURE_NODES = {"CxC:2,2,2,2": 1_384, "CxC:2,2,2,2,2": 114_209,
                        "CxC:2,2,2,4": 292_986, "CxC:2,4,4": 508_087,
                        "CxC:3,3,3": 138_430}


def test_every_root_extremal_search_parity():
    """The extremal search of each roster group beyond CLOSURE_LIMIT gives
    the same nodes and the same sets on both lanes."""
    nodes = {}
    for spec, _, _ in known_constant_roster():
        g = grp(spec)
        if g.closure_maps is not None:
            continue
        runs = []
        for kern in LANES:
            with mock.patch.object(engine, "_kernel_for", lambda group: kern):
                runs.append(engine.extremal_search(g, budget=10 ** 9))
        assert runs[0] == runs[1] and runs[0]["complete"], spec
        nodes[spec] = runs[0]["nodes"]
    assert nodes == BEYOND_CLOSURE_NODES


@pytest.mark.parametrize("spec", PARITY_SPECS)
def test_collect_from_floor_zero_clears_shorter_finds(spec):
    """From a floor of 0 every longer multiset clears the list, so the
    collected set equals the one from the greedy floor (which already is
    the maximum), on both lanes.  The set is every free multiset of the max
    length that starts at an orbit root."""
    g = grp(spec)
    length = max_len(g, 10 ** 7)
    every = enum_search(_kernel, engine._context(g, _kernel), length, 10 ** 7)
    want = [t for t in every["found"] if t[0] in g.orbit_roots]
    for kern in LANES:
        ctx = engine._context(g, kern)
        zero = collect_search(kern, ctx, 10 ** 7, g.orbit_roots, floor=0)
        floor = collect_search(kern, ctx, 10 ** 7, g.orbit_roots)
        assert zero["complete"] and floor["complete"]
        assert zero["best_len"] == floor["best_len"] == length
        assert zero["found"] == floor["found"] == want, kern.LANE
        assert zero["witness"] is floor["witness"] is None
        assert zero["nodes"] >= floor["nodes"]
    a, b = on_both(g, lambda k, c: collect_search(k, c, 10 ** 7, g.orbit_roots,
                                                  floor=0))
    assert a == b


def test_collect_keeps_a_floor_above_the_maximum():
    """A floor above every free multiset collects nothing and keeps it."""
    g = grp("D:7")
    for kern in LANES:
        res = collect_search(kern, engine._context(g, kern), 10 ** 6,
                             g.orbit_roots, floor=9)
        assert (res["best_len"], res["found"], res["complete"]) == (9, [], True)


def test_unknown_search_mode_refused_alike():
    g = grp("D:5")
    for kern in LANES:
        with pytest.raises(ValueError) as info:
            kern.search(engine._context(g, kern), "all", 0, 0, 10, STATE_LIMIT)
        assert str(info.value) == "unknown search mode 'all'", kern.LANE


# ---------------------------------------------------------------------------
# Translate by turning the cyclic factors of one-word abelian groups
# ---------------------------------------------------------------------------

def _factorizations(n, least=2):
    """Non-decreasing tuples of factors >= least with product n."""
    if n == 1:
        yield ()
    for f in range(least, n + 1):
        if n % f == 0:
            for rest in _factorizations(n // f, f):
                yield (f, *rest)


# Every C:n and every non-decreasing CxC of order <= 64, plus factors out of
# order and factors of 1, which the radix leaves out.
TURNING_SPECS = ([f"C:{n}" for n in range(1, 65)]
                 + [f"CxC:{','.join(map(str, fs))}" for n in range(4, 65)
                    for fs in _factorizations(n) if len(fs) > 1]
                 + ["CxC:32,2", "CxC:8,2,4", "CxC:1,8", "CxC:3,1,4", "CxC:1,1"])


def test_turning_specs_cover_the_word_edges():
    for spec in ("C:1", "C:64", "CxC:2,32", "CxC:8,8", "CxC:4,4,4",
                 "CxC:2,2,2,2,2,2"):
        assert spec in TURNING_SPECS


@pytest.mark.parametrize("spec", TURNING_SPECS)
def test_turns_match_the_table(spec):
    """Every one-word C/CxC context turns its factors, with no byte tables.
    Building it checks the translate by every element against every
    product on each lane (a mismatch is refused, as below), so under the
    sanitizers this runs every shift the compiled turns make."""
    g = grp(spec)
    for kern in LANES:
        engine._context(g, kern)
    pure = engine._context(g, _pykernel)
    assert pure.tables is None and len(pure.turns) == g.order


@pytest.mark.parametrize("spec, radix", [
    ("C:12", ((6, 2), (1, 6))),
    ("C:64", ((32, 2), (1, 32))),
    ("CxC:8,8", ((1, 64),)),
    ("CxC:2,8", ((1, 16),)),
    ("CxC:4,4", ((4, 4), (1, 2), (2, 2))),
    ("CxC:2,2,2", ((4, 2), (1, 2), (1, 2))),
    ("D:5", ((5, 2), (1, 5)))])
def test_radix_that_misses_the_table_is_refused(spec, radix):
    """A radix whose turns miss a product is refused; a non-abelian table,
    whose products no turn of commuting factors gives, among them."""
    g = grp(spec)
    for kern in LANES:
        with pytest.raises(ValueError) as info:
            kern.build_context(g.order, g.table, g.inv_table, g.identity, radix)
        assert str(info.value) == "radix does not match the product table", (
            kern.LANE)


@pytest.mark.parametrize("spec, radix, message", [
    ("C:12", ((0, 12),), "radix entry (0, 12) out of range"),
    ("C:12", ((12, 1),), "radix entry (12, 1) out of range"),
    ("C:12", ((4, 4),), "radix entry (4, 4) out of range"),
    ("C:64", ((1, 2),) * 7, "radix has more than 6 factors"),
    ("C:12", ((1, 12, 1),), "radix entries must be pairs")])
def test_malformed_radix_is_refused_alike(spec, radix, message):
    g = grp(spec)
    for kern in LANES:
        with pytest.raises(ValueError) as info:
            kern.build_context(g.order, g.table, g.inv_table, g.identity, radix)
        assert str(info.value) == message, kern.LANE


def test_radix_is_not_read_above_one_word():
    """Wider bitsets walk their set bits: only whether a radix is given, so
    whether the group is abelian, is read."""
    g = grp("C:65")
    for kern in LANES:
        ctx = kern.build_context(g.order, g.table, g.inv_table, g.identity,
                                 "not a radix")
        mask, _ = kern.reachable(ctx, [1, 64], 0, STATE_LIMIT)
        assert mask == 1 | 1 << 1 | 1 << 64, kern.LANE


@pytest.mark.parametrize("spec", ["D:32", "D:100"])
def test_bad_product_entry_is_refused_alike_with_or_without_radix(spec):
    """The compiled context reads the product table as it is, with a radix
    (an abelian group) or without one; either way an entry out of range is
    refused with the message of the first such entry in table order.  The
    bad entries sit near the end of the table, and in the second case one
    also sits before them, in the sixth row."""
    g = grp(spec)
    n = g.order
    for bad in ({(n - 1, n - 2): n}, {(n - 1, n - 2): n, (5, n - 1): -3}):
        table = array("h", g.table.tobytes())
        for (r, c), v in bad.items():
            table[r * n + c] = v
        for radix in (None, ((1, n),)):
            with pytest.raises(ValueError) as info:
                _kernel.build_context(n, table, g.inv_table, g.identity, radix)
            message = f"mul_flat entry {bad[min(bad)]} out of range"
            assert str(info.value) == message, radix


@pytest.mark.parametrize("spec", ["C:65", "M:31,5,2", "D:100"])
def test_reachable_parity_at_orders_off_the_word(spec):
    """Orders 65, 155 and 200, not multiples of 32 or 64, so the last word
    of a bitset is partial: each element, with one more and the last
    element, reaches the same set on both lanes, through the product table
    as the compiled context copied it."""
    g = grp(spec)
    n = g.order
    for e in range(n):
        items = [e, (37 * e + 11) % n, n - 1]
        a, b = on_both(g, lambda k, c: k.reachable(c, items, 0, STATE_LIMIT))
        assert a == b, (spec, e)


def compiled_context_size(g):
    """Bytes the compiled context of ``g`` holds, and its peak while built."""
    tracemalloc.start()
    try:
        ctx = _kernel.build_context(g.order, g.table, g.inv_table, g.identity,
                                    g.basis if g.is_abelian else None)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del ctx
    return size, peak


def test_compiled_turning_context_holds_no_byte_tables():
    """The compiled C:64 context is its turns and inverses, about 1 KB; with
    byte tables it took (64 + 1) * 8 * 256 words, about 1 MB, as the
    non-abelian D:32 still does.  The product table is read into a
    transient copy of n * n int16 entries while the context is built."""
    for spec, most in (("C:64", 4 << 10), ("CxC:2,2,2,2,2,2", 8 << 10)):
        size, peak = compiled_context_size(grp(spec))
        assert size < most, (spec, size)
        assert peak < size + 2 * 64 * 64 + (1 << 10), (spec, peak)
    assert compiled_context_size(grp("D:32"))[0] > 1 << 20


def roster_results(kern):
    """Greedy, then max and collect over the orbit roots from its floor
    (200 nodes per root), and enum at the greedy length over every root (20
    nodes per root), for each roster group."""
    out = []
    for spec, _, _ in known_constant_roster():
        g = grp(spec)
        ctx = engine._context(g, kern)
        floor = kern.greedy(ctx, STATE_LIMIT)
        runs = [kern.search(ctx, "max", 0, floor[0], 200, STATE_LIMIT,
                            g.orbit_roots),
                kern.search(ctx, "collect", 0, floor[0], 200, STATE_LIMIT,
                            g.orbit_roots),
                kern.search(ctx, "enum", floor[0], 0, 20, STATE_LIMIT)]
        out.append((spec, floor, [sorted(r.items()) for r in runs]))
    return out


# The greedy, collect and enum results of roster_results: those of the
# kernels that kept the reach set and byte tables at one word.
ROSTER_DIGEST = "fad3a7b09c6b8e8927d027bea2626d49ab80b12b08eb98c3158a13b08821b4a2"
# The max results of roster_results: the failure memo changes node counts.
ROSTER_MAX_DIGEST = (
    "17f03eddd8bf6c844d81fe9c836acd60f6240cfdab48d0f69a6d661563e453ac")
# (greedy, full max search, full collect) nodes on the compiled lane.
ROSTER_NODES = (762, 1_565_867, 3_593_485)


def test_roster_searches_unchanged():
    """The roster's greedy, collect and enum results on both lanes, node
    counts included, are those of the kernels before translate turned
    factors and search carried the inverse set; the max results agree
    across lanes."""
    a, b = (roster_results(kern) for kern in LANES)
    assert a == b
    kept = [(spec, floor, runs[1:]) for spec, floor, runs in a]
    assert hashlib.sha256(repr(kept).encode()).hexdigest() == ROSTER_DIGEST
    maxes = [(spec, runs[0]) for spec, _, runs in a]
    assert hashlib.sha256(repr(maxes).encode()).hexdigest() == (
        ROSTER_MAX_DIGEST)
    greedy = search = collect = 0
    for spec, _, _ in known_constant_roster():
        ctx = engine._context(grp(spec), _kernel)
        g_len, _, g_nodes = _kernel.greedy(ctx, STATE_LIMIT)
        roots = grp(spec).orbit_roots
        greedy += g_nodes
        search += _kernel.search(ctx, "max", 0, g_len, 10 ** 7, STATE_LIMIT,
                                 roots)["nodes"]
        collect += _kernel.search(ctx, "collect", 0, g_len, 10 ** 7,
                                  STATE_LIMIT, roots)["nodes"]
    assert (greedy, search, collect) == ROSTER_NODES


# (greedy, full max search, full collect) nodes of the roster on the compiled
# lane with the engine's maps (engine._search_maps).
ROSTER_NODES_WITH_MAPS = (762, 375_667, 778_280)


def test_roster_searches_with_maps():
    """The roster's node totals with the stabilizer rule, next to the ones
    without it (ROSTER_NODES)."""
    greedy = search = collect = 0
    for spec, _, _ in known_constant_roster():
        g = grp(spec)
        ctx = engine._context(g, _kernel)
        g_len, _, g_nodes = _kernel.greedy(ctx, STATE_LIMIT)
        maps = engine._search_maps(g)
        greedy += g_nodes
        search += _kernel.search(ctx, "max", 0, g_len, 10 ** 7, STATE_LIMIT,
                                 g.orbit_roots, maps)["nodes"]
        collect += _kernel.search(ctx, "collect", 0, g_len, 10 ** 7,
                                  STATE_LIMIT, g.orbit_roots, maps)["nodes"]
    assert (greedy, search, collect) == ROSTER_NODES_WITH_MAPS


# The non-abelian groups of MULTIWORD_SPECS: two and three words.
MULTIWORD_NONABELIAN = ("D:50", "Q:20", "M:31,5,2")


def multiword_results(kern):
    """Greedy, then per budget of WORD_BUDGETS per root: max and collect
    over the orbit roots from the greedy floor with the engine's maps, and
    enum at the greedy length over every root, for each group of
    MULTIWORD_NONABELIAN."""
    out = []
    for spec in MULTIWORD_NONABELIAN:
        g = grp(spec)
        ctx = engine._context(g, kern)
        floor = kern.greedy(ctx, STATE_LIMIT)
        maps = engine._search_maps(g)
        runs = []
        for budget in WORD_BUDGETS:
            runs += [kern.search(ctx, "max", 0, floor[0], budget, STATE_LIMIT,
                                 g.orbit_roots, maps),
                     kern.search(ctx, "collect", 0, floor[0], budget,
                                 STATE_LIMIT, g.orbit_roots, maps),
                     kern.search(ctx, "enum", floor[0], 0, budget, STATE_LIMIT)]
        out.append((spec, floor, [sorted(r.items()) for r in runs]))
    return out


# multiword_results of the kernels that carried the reach set on non-abelian
# groups and walked the transposed product table.
MULTIWORD_DIGEST = (
    "56c9006b4ccfb50727e125521ccedee0b96a90c0e03d69f623dc2c1c0715b1cd")


def test_multiword_nonabelian_searches_unchanged():
    """The budgeted searches of two- and three-word non-abelian groups on
    both lanes, node counts included, are those of the kernels before every
    search carried the inverse set."""
    a, b = (multiword_results(kern) for kern in LANES)
    assert a == b
    assert hashlib.sha256(repr(a).encode()).hexdigest() == MULTIWORD_DIGEST


# ---------------------------------------------------------------------------
# The failure memo of mode max on abelian groups
# ---------------------------------------------------------------------------

class _Spent(Exception):
    """The model's node budget ran out."""


def memo_model(g, floor, budget, roots, maps, memo=True):
    """Mode max on the abelian group g as the kernels document it, written
    out recursively from the group's tables: the inverse set, the bound,
    the stabilizer rule and (when ``memo``) the failure memo with its hash.
    Returns the kernels' result dict and the number of memo skips."""
    n, table, inv = g.order, g.table, g.inv_table
    words = (n + 63) // 64
    images = [] if maps is None else [maps[k:k + n]
                                      for k in range(0, len(maps), n)]

    def slot(carried):
        h = 0
        for _ in range(words):
            h = (h ^ (carried % 2 ** 64)) * 0x9E3779B97F4A7C15 % 2 ** 64
            carried >>= 64
        return h >> 52

    def enter(path, carried, alive):
        state["nodes"] += 1
        if state["nodes"] > budget:
            raise _Spent
        e, x = path[-1], inv[path[-1]]
        carried |= 1 << x | sum({1 << table[r, x] for r in range(n)
                                 if carried >> r & 1})
        if len(path) > state["best"]:
            state["best"], state["witness"] = len(path), tuple(path)
        if len(path) + n - 1 - carried.bit_count() <= state["best"]:
            return
        held = walked.get(slot(carried))
        if memo and held is not None and held[0] == carried and (
                held[1] <= e and held[2] >= len(path)):
            state["skips"] += 1
            return
        alive = [m for m in alive if m[e] == e]
        for f in range(e, n):
            if not carried >> f & 1 and all(m[f] >= f for m in alive):
                enter(path + [f], carried, alive)
        walked[slot(carried)] = (carried, e, len(path))

    res = {"complete": True, "best_len": floor, "witness": None, "found": [],
           "nodes": 0}
    skips = 0
    for root in range(1, n) if roots is None else roots:
        state = {"best": floor, "witness": None, "nodes": 0, "skips": 0}
        walked = {}
        try:
            enter([root], 0, images)
        except _Spent:
            res["complete"] = False
        res["nodes"] += state["nodes"]
        skips += state["skips"]
        if state["best"] > res["best_len"]:
            res["best_len"], res["witness"] = state["best"], state["witness"]
    return res, skips


def engine_max(g, kern, budget):
    """The engine's max search of g above the greedy floor on ``kern``."""
    ctx = engine._context(g, kern)
    floor = kern.greedy(ctx, STATE_LIMIT)[0]
    return floor, kern.search(ctx, "max", 0, floor, budget, STATE_LIMIT,
                              g.orbit_roots, engine._search_maps(g))


# Per group: the engine's max-search nodes (greedy left out), the nodes of
# the same search without the memo (those of the kernels before it), and
# the memo's skips.
MEMO_NODES = {"CxC:2,6": (121, 175, 20), "CxC:4,4": (180, 237, 30),
              "CxC:2,2,8": (8_194, 19_072, 1_855)}


@pytest.mark.parametrize("spec", sorted(MEMO_NODES))
def test_memo_follows_the_model(spec):
    """Both lanes' max searches are the model's, node counts included; the
    model without the memo gives the kernels' counts from before it, with
    the same length and witness."""
    g = grp(spec)
    floor, res = engine_max(g, _pykernel, 10 ** 8)
    assert res == engine_max(g, _kernel, 10 ** 8)[1]
    model, skips = memo_model(g, floor, 10 ** 8, g.orbit_roots,
                              engine._search_maps(g))
    plain, _ = memo_model(g, floor, 10 ** 8, g.orbit_roots,
                          engine._search_maps(g), memo=False)
    assert res == model and res["complete"]
    assert (res["best_len"], res["witness"]) == (
        plain["best_len"], plain["witness"])
    assert (res["nodes"], plain["nodes"], skips) == MEMO_NODES[spec]


def test_memo_budget_abort_parity():
    """Max searches as the engine runs them, aborted at every node: the
    same results on both lanes and in the model."""
    for spec in ("CxC:2,6", "CxC:4,4"):
        g = grp(spec)
        for budget in range(1, MEMO_NODES[spec][0] + 1):
            floor, res = engine_max(g, _pykernel, budget)
            assert res == engine_max(g, _kernel, budget)[1], (spec, budget)
            assert res == memo_model(g, floor, budget, g.orbit_roots,
                                     engine._search_maps(g))[0], (spec, budget)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, stores", [("C:5", False), ("C:30", False),
                                          ("CxC:2,2,8", True)])
def test_memo_is_allocated_at_its_first_store(spec, stores):
    """The compiled max search allocates its memo (4096 slots of 16 bytes
    at one word) when it first records a walked subtree, so a search that
    never walks one to the end, as on C:5 and C:30, allocates no more than
    an enumeration that stops at its first node."""
    g = grp(spec)
    ctx = engine._context(g, _kernel)
    floor = _kernel.greedy(ctx, STATE_LIMIT)[0]
    maps = engine._search_maps(g)
    searched = traced_peak(lambda: _kernel.search(
        ctx, "max", 0, floor, 10 ** 8, STATE_LIMIT, g.orbit_roots, maps))
    stopped = traced_peak(lambda: _kernel.search(
        ctx, "enum", floor, 0, 1, STATE_LIMIT, g.orbit_roots, maps))
    assert (searched - stopped >= 4096 * 16) == stores, (searched, stopped)


# Two-word groups, 5,000 nodes per root: the memo skips this often within
# the budget.
MEMO_TWO_WORD_SKIPS = {"CxC:3,3,3,3": 2_279, "CxC:2,6,6": 7_129}


@pytest.mark.parametrize("spec", sorted(MEMO_TWO_WORD_SKIPS))
def test_memo_two_word_parity(spec):
    g = grp(spec)
    assert g.order > 64
    floor, res = engine_max(g, _pykernel, 5_000)
    assert res == engine_max(g, _kernel, 5_000)[1]
    model, skips = memo_model(g, floor, 5_000, g.orbit_roots,
                              engine._search_maps(g))
    assert res == model and not res["complete"]
    assert skips == MEMO_TWO_WORD_SKIPS[spec]


# (spec, length, witness) of the engine's max search on every roster group,
# recorded from the kernels before the failure memo.
ROSTER_WITNESS_DIGEST = (
    "5c63914e39470be07fbee520e751b015ad1764af32b198c6c80277aba608df78")


def test_memo_keeps_the_least_longest_witness():
    """On both lanes, the engine's max search of each roster group gives the
    length and witness it gave before the memo, and the witness is the
    least multiset of the extremal set (the orbit closure of what the
    collecting search, which keeps no memo, collects)."""
    rows = []
    for kern in LANES:
        with mock.patch.object(engine, "_kernel_for", lambda group: kern):
            rows.append([(spec, *(engine.max_free_search(
                grp(spec), budget=10 ** 8)[k] for k in ("max_len", "witness")))
                for spec, _, _ in known_constant_roster()])
    assert rows[0] == rows[1]
    assert hashlib.sha256(repr(rows[0]).encode()).hexdigest() == (
        ROSTER_WITNESS_DIGEST)
    for spec, length, witness in rows[0]:
        ext = engine.extremal_search(grp(spec), budget=10 ** 8)
        assert ext["complete"] and ext["length"] == length, spec
        assert witness == min(ext["found"]), spec

