"""Product reachability and canonical search, dispatched to a kernel lane.

The compiled lane (``zerosum._kernel``, hand-written C built by ``setup.py``)
is used when the extension was built and the group has order <= 64, so that
bitsets fit a machine word; otherwise the pure-Python twin
(``zerosum._pykernel``) takes over.  Both lanes follow one traversal
contract, so every result (node counts included) is identical across lanes
and across ``parallelism`` settings.

Set ``ZEROSUM_PURE_KERNEL=1`` to force the pure lane.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _pykernel
from ._pykernel import LimitExceeded
from .groups import Group, build_group
from .sequences import GSequence

try:
    from . import _kernel as _compiled
except ImportError:
    _compiled = None

DISTINCT_LIMIT = 24
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


def available_kernels() -> dict:
    kernels = {"pure": _pykernel}
    if _compiled is not None:
        kernels["compiled"] = _compiled
    return kernels


def default_kernel_name() -> str:
    if os.environ.get("ZEROSUM_PURE_KERNEL", "") not in ("", "0"):
        return "pure"
    return "compiled" if _compiled is not None else "pure"


def _resolve_kernel(group: Group, kernel: str | None):
    name = kernel or default_kernel_name()
    try:
        kern = available_kernels()[name]
    except KeyError:
        raise EngineError(f"unknown kernel {name!r}; available: "
                          f"{sorted(available_kernels())}") from None
    limit = getattr(kern, "MAX_ORDER", None)
    if limit is not None and group.order > limit:
        kern = _pykernel
    return kern


def _context(group: Group, kern):
    ctx = group._contexts.get(kern.LANE)
    if ctx is None:
        flat = [int(v) for v in group.table.ravel()]
        inv = [int(v) for v in group.inv_table]
        ctx = kern.build_context(group.order, flat, inv, group.identity,
                                 group.is_abelian)
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
    cnt = seq.counts()
    elems = sorted(cnt)
    return elems, [cnt[e] for e in elems]


def _guard(seq: GSequence):
    elems = set(seq.items)
    if len(elems) > DISTINCT_LIMIT:
        raise EngineLimitError(
            f"sequence has {len(elems)} distinct elements, above the limit "
            f"{DISTINCT_LIMIT}")
    estimate = math.prod(c + 1 for c in seq.counts().values())
    if estimate > STATE_LIMIT:
        raise EngineLimitError(
            f"sub-multiset state space ~{estimate} exceeds the limit {STATE_LIMIT}")


def _run_reachable(group: Group, seq: GSequence, until_mask: int,
                   kernel: str | None):
    seq._check_group(group)
    _guard(seq)
    kern = _resolve_kernel(group, kernel)
    ctx = _context(group, kern)
    elems, counts = _counts_of(seq)
    try:
        return kern.reachable(ctx, elems, counts, until_mask, STATE_LIMIT)
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None


def reachable_products(group: Group, seq: GSequence, *,
                       kernel: str | None = None) -> ReachableSet:
    """Exact set of products over nonempty sub-multisets of ``seq``."""
    if seq.length == 0:
        raise EngineError("reachable set requires a nonempty sequence")
    mask, _ = _run_reachable(group, seq, 0, kernel)
    return ReachableSet(group.key, mask)


def is_product1_free(group: Group, seq: GSequence, *,
                     kernel: str | None = None) -> bool:
    """True iff no nonempty subsequence multiplies to 1 in any order.

    The empty sequence is vacuously free.  The DP short-circuits the moment
    the identity is reached.
    """
    if seq.length == 0:
        return True
    _, hit = _run_reachable(group, seq, 1 << group.identity, kernel)
    return not hit


def has_product_in(group: Group, seq: GSequence, targets, *,
                   kernel: str | None = None) -> bool:
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
    _, hit = _run_reachable(group, seq, mask, kernel)
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

def _chunk_ranges(n: int, parts: int):
    """Split the root range [1, n) into at most ``parts`` contiguous chunks."""
    roots = n - 1
    parts = max(1, min(parts, roots))
    base, rem = divmod(roots, parts)
    out = []
    lo = 1
    for i in range(parts):
        hi = lo + base + (1 if i < rem else 0)
        out.append((lo, hi))
        lo = hi
    return out


def _search_worker(spec_str, kernel_name, mode, target, floor, budget, lo, hi):
    group = build_group(spec_str)
    kern = available_kernels()[kernel_name]
    limit = getattr(kern, "MAX_ORDER", None)
    if limit is not None and group.order > limit:
        kern = _pykernel
    ctx = _context(group, kern)
    return kern.search(ctx, mode, target, floor, budget, lo, hi, STATE_LIMIT)


def _run_search(group: Group, mode: str, target: int, floor: int, budget: int,
                parallelism: int, kernel: str | None):
    kern = _resolve_kernel(group, kernel)
    n = group.order
    parallelism = min(parallelism, os.cpu_count() or 1)
    chunks = _chunk_ranges(n, parallelism) if n > 1 else []
    results = []
    try:
        if parallelism <= 1 or len(chunks) <= 1:
            ctx = _context(group, kern)
            for lo, hi in chunks or [(1, n)]:
                results.append(kern.search(ctx, mode, target, floor, budget,
                                           lo, hi, STATE_LIMIT))
        else:
            name = "pure" if kern is _pykernel else kern.LANE
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                futures = [pool.submit(_search_worker, group.key, name, mode,
                                       target, floor, budget, lo, hi)
                           for lo, hi in chunks]
                results = [f.result() for f in futures]
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None

    merged = {
        "complete": all(r["complete"] for r in results) if results else True,
        "best_len": floor,
        "witness": None,
        "found": [],
        "nodes": 0,
    }
    for r in results:
        merged["nodes"] += r["nodes"]
        merged["found"].extend(r["found"])
        if r["best_len"] > merged["best_len"]:
            merged["best_len"] = r["best_len"]
            merged["witness"] = r["witness"]
    return merged


def max_free_search(group: Group, *, budget: int, parallelism: int = 1,
                    kernel: str | None = None) -> dict:
    """Longest product-1-free multiset via greedy floor + per-root DFS.

    Returns keys: complete, max_len, witness (index tuple), nodes.
    """
    kern = _resolve_kernel(group, kernel)
    try:
        g_len, g_wit, g_nodes = kern.greedy(_context(group, kern))
    except LimitExceeded as exc:
        raise EngineLimitError(str(exc)) from None
    if group.order <= 1:
        return {"complete": True, "max_len": 0, "witness": (), "nodes": 0}
    res = _run_search(group, "max", 0, g_len, budget, parallelism, kernel)
    witness = res["witness"] if res["best_len"] > g_len else g_wit
    return {
        "complete": res["complete"],
        "max_len": res["best_len"],
        "witness": tuple(witness),
        "nodes": g_nodes + res["nodes"],
    }


def enumerate_free(group: Group, length: int, *, budget: int,
                   parallelism: int = 1, kernel: str | None = None) -> dict:
    """All free multisets of exactly ``length``, in lexicographic order.

    Returns keys: complete, found (list of index tuples), nodes.
    """
    if length < 0:
        raise EngineError("enumeration length must be >= 0")
    if length == 0:
        return {"complete": True, "found": [()], "nodes": 0}
    res = _run_search(group, "enum", length, 0, budget, parallelism, kernel)
    return {"complete": res["complete"], "found": res["found"],
            "nodes": res["nodes"]}
