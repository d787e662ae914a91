"""Product reachability and canonical search, dispatched to a kernel lane.

The compiled lane (``zerosum._kernel``, hand-written C built by ``setup.py``)
runs every group (orders up to ``groups.TABLE_LIMIT`` = 4096) when the
extension was built; otherwise the pure-Python twin (``zerosum._pykernel``)
takes over.  Both lanes follow one traversal contract, so every result (node
counts included) is identical across lanes.

Set ``ZEROSUM_PURE_KERNEL=1`` to force the pure lane.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from . import _pykernel
from ._pykernel import LimitExceeded
from .groups import Group
from .sequences import GSequence

try:
    from . import _kernel as _compiled
except ImportError:
    _compiled = None

DISTINCT_LIMIT = 24
# DP states hold one bitset of ceil(order / 64) 64-bit words each; the limit
# counts words (800 MB), in the guard and in both kernels.
STATE_LIMIT = 100_000_000
ORACLE_LENGTH_LIMIT = 8


class EngineError(ValueError):
    """Invalid input to a reachability or search operation."""


class EngineLimitError(EngineError):
    """A cost guard refused the computation (too many states or elements)."""


class BudgetExhaustedError(RuntimeError):
    """A search ran out of node budget; carries the best bound found."""

    def __init__(self, message: str, best_length: int, nodes: int):
        super().__init__(message)
        self.best_length = best_length
        self.nodes = nodes


def default_kernel_name() -> str:
    if os.environ.get("ZEROSUM_PURE_KERNEL", "") not in ("", "0"):
        return "pure"
    return "compiled" if _compiled is not None else "pure"


def _kernel_for(group: Group):
    """The kernel module that runs ``group``: the one lane-selection point."""
    return _compiled if default_kernel_name() == "compiled" else _pykernel


def _context(group: Group, kern):
    ctx = group._contexts.get(kern.LANE)
    if ctx is None:
        # The kernels read the int16 tables through the buffer protocol;
        # a bytes copy would only add an n*n*2-byte transient per context.
        ctx = kern.build_context(group.order, group.table, group.inv_table,
                                 group.identity, group.is_abelian)
        group._contexts[kern.LANE] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Reachable sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachableSet:
    """Products attainable from some nonempty sub-multiset, in some order."""

    group_key: str
    mask: int

    def members(self) -> frozenset[int]:
        return frozenset(self)

    def __contains__(self, idx: int) -> bool:
        return bool((self.mask >> idx) & 1)

    def __iter__(self):
        mask = self.mask
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def __len__(self) -> int:
        return self.mask.bit_count()


def _counts_of(seq: GSequence):
    """Distinct elements and their counts; the kernels take any order."""
    cnt = seq.counts()
    return list(cnt), list(cnt.values())


def _guard(group: Group, elems, counts):
    """Refuse a multiset (from ``_counts_of``) before any context is built."""
    if len(elems) > DISTINCT_LIMIT:
        raise EngineLimitError(
            f"sequence has {len(elems)} distinct elements, above the limit "
            f"{DISTINCT_LIMIT}")
    words = (group.order + 63) // 64
    estimate = math.prod(c + 1 for c in counts) * words
    if estimate > STATE_LIMIT:
        raise EngineLimitError(
            f"sub-multiset state space ~{estimate} words exceeds the limit "
            f"{STATE_LIMIT}")


def _run_reachable(group: Group, seq: GSequence, until_mask: int):
    seq._check_group(group)
    elems, counts = _counts_of(seq)
    _guard(group, elems, counts)
    kern = _kernel_for(group)
    ctx = _context(group, kern)
    try:
        return kern.reachable(ctx, elems, counts, until_mask, STATE_LIMIT)
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None


def reachable_products(group: Group, seq: GSequence) -> ReachableSet:
    """Exact set of products over nonempty sub-multisets of ``seq``."""
    if seq.length == 0:
        raise EngineError("reachable set requires a nonempty sequence")
    mask, _ = _run_reachable(group, seq, 0)
    return ReachableSet(group.key, mask)


def is_product1_free(group: Group, seq: GSequence) -> bool:
    """True iff no nonempty subsequence multiplies to 1 in any order.

    The empty sequence is vacuously free.  The DP short-circuits the moment
    the identity is reached.
    """
    if seq.length == 0:
        return True
    _, hit = _run_reachable(group, seq, 1 << group.identity)
    return not hit


def has_product_in(group: Group, seq: GSequence, targets) -> bool:
    """True iff some nonempty subsequence multiplies into ``targets``."""
    targets = list(targets)
    if not targets:
        raise EngineError("has_product_in requires a nonempty target set")
    mask = 0
    for t in targets:
        if not 0 <= t < group.order:
            raise EngineError(f"target index {t} out of range for {group.key}")
        mask |= 1 << t
    if seq.length == 0:
        return False
    _, hit = _run_reachable(group, seq, mask)
    return hit


def oracle_reachable(group: Group, seq: GSequence) -> ReachableSet:
    """Reachable set by brute force over every permutation of every subset.

    Validation oracle only: factorial cost, guarded at length 8.
    """
    seq._check_group(group)
    if seq.length == 0:
        raise EngineError("reachable set requires a nonempty sequence")
    if seq.length > ORACLE_LENGTH_LIMIT:
        raise EngineLimitError(
            f"oracle is limited to sequences of length {ORACLE_LENGTH_LIMIT}")
    table = group.table
    out = set()

    def rec(avail: tuple[int, ...], prefix: int | None):
        for i in range(len(avail)):
            p = avail[i] if prefix is None else int(table[prefix, avail[i]])
            out.add(p)
            rec(avail[:i] + avail[i + 1:], p)

    rec(seq.items, None)
    mask = 0
    for p in out:
        mask |= 1 << p
    return ReachableSet(group.key, mask)


# ---------------------------------------------------------------------------
# Canonical DFS drivers (max-length and fixed-length enumeration)
# ---------------------------------------------------------------------------

def max_free_search(group: Group, *, budget: int) -> dict:
    """Longest product-1-free multiset via greedy floor + per-root DFS.

    Returns keys: complete, max_len, witness (index tuple), nodes.
    """
    kern = _kernel_for(group)
    ctx = _context(group, kern)
    try:
        g_len, g_wit, g_nodes = kern.greedy(ctx)
        res = kern.search(ctx, "max", 0, g_len, budget, STATE_LIMIT)
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None
    witness = res["witness"] if res["best_len"] > g_len else g_wit
    return {
        "complete": res["complete"],
        "max_len": res["best_len"],
        "witness": tuple(witness),
        "nodes": g_nodes + res["nodes"],
    }


def enumerate_free(group: Group, length: int, *, budget: int) -> dict:
    """All free multisets of exactly ``length``, in lexicographic order.

    Returns keys: complete, found (list of index tuples), nodes.
    """
    if length < 0:
        raise EngineError("enumeration length must be >= 0")
    if length == 0:
        return {"complete": True, "found": [()], "nodes": 0}
    kern = _kernel_for(group)
    try:
        res = kern.search(_context(group, kern), "enum", length, 0, budget,
                          STATE_LIMIT)
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None
    return {"complete": res["complete"], "found": res["found"],
            "nodes": res["nodes"]}
