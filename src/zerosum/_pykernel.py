"""Pure-Python search kernel: bitset reachability over subsequence products.

Bitsets are Python ints with bit i standing for element index i.  The central
primitive is ``translate(mask, e)`` = { r*e : r in mask }, applied byte by
byte through per-element tables, each built on the first translate by its
element.

A path grows one copy at a time through ``_extend``, the one step that
``greedy``, ``search`` and ``reachable`` share (the compiled kernel in
``_kernel.c`` implements the same contract, so node counts agree):

* abelian groups: the reachable set of a multiset is closed under a single
  right-append update, so a path is just one bitset.
* other groups: a path keeps the full sub-multiset DP table, the product
  set of every sub-multiset of the path, in a dense list indexed in mixed
  radix (the layout of the compiled kernel's ``Table``); appending an
  element adds one block of states at the end, and undoing truncates it.

``reachable`` appends a multiset's copies in increasing element order, so
it runs on the same step and the same table as the search.

State caps count 64-bit words, as in the compiled kernel, where each DP state
holds one bitset of ``words`` = ceil(n / 64) words: a cap of N admits
N // words states.

The DFS is a loop over an explicit stack with one frame per path element
(the element, its reach set, an iterator over the children not yet
visited), so long paths in large groups cannot hit the interpreter's
recursion limit.

A multiset S stays product-1-free after appending e iff e != 1 and e^-1 is
not reachable from S: any product-1 ordering rotates cyclically to one that
starts with e, and rotations preserve product 1.
"""

from __future__ import annotations

import math

LANE = "pure"

# Chunked translate tables get too large past this order; beyond it a
# bit-by-bit loop is used (only plausible for one-off reachability queries).
_TABLE_ORDER_LIMIT = 512

DEFAULT_STATE_CAP = 100_000_000


class LimitExceeded(Exception):
    """Raised when a search or DP would exceed its configured state cap."""


class Context:
    """Per-group data consumed by the kernel functions.

    Immutable except for the byte tables: ``tables[e]`` is filled on the
    first translate by e.
    """

    __slots__ = ("n", "identity", "abelian", "words", "mul", "inv", "chunks",
                 "tables")

    def __init__(self, n, mul_flat, inv, identity, abelian):
        self.n = n
        self.identity = identity
        self.abelian = abelian
        self.words = (n + 63) // 64
        self.mul = memoryview(mul_flat).cast("B").cast("h").tolist()
        self.inv = memoryview(inv).cast("B").cast("h").tolist()
        self.chunks = (n + 7) // 8
        # tables[e] is built by the first translate by e.
        self.tables = [None] * n if n <= _TABLE_ORDER_LIMIT else None

    def _byte_tables(self, e):
        n, mul = self.n, self.mul
        tabs = []
        for pos in range(self.chunks):
            tab = [0] * 256
            for v in range(1, 256):
                low = v & -v
                r = pos * 8 + low.bit_length() - 1
                img = (1 << mul[r * n + e]) if r < n else 0
                tab[v] = tab[v ^ low] | img
            tabs.append(tab)
        return tabs


def build_context(n, mul_flat, inv, identity, abelian):
    """Context of a group of order n; ``mul_flat`` (n*n entries, row-major
    products) and ``inv`` (n entries) are C-contiguous buffers of native
    int16, such as the group's own tables."""
    return Context(n, mul_flat, inv, identity, abelian)


def translate(ctx, mask, e):
    """{ r*e : r in mask } as a bitset."""
    if ctx.tables is None:
        out = 0
        n, mul = ctx.n, ctx.mul
        while mask:
            low = mask & -mask
            out |= 1 << mul[(low.bit_length() - 1) * n + e]
            mask ^= low
        return out
    tabs = ctx.tables[e]
    if tabs is None:
        tabs = ctx.tables[e] = ctx._byte_tables(e)
    out = 0
    for pos, tab in enumerate(tabs):
        byte = (mask >> (pos * 8)) & 0xFF
        if byte:
            out |= tab[byte]
    return out


# ---------------------------------------------------------------------------
# DFS over canonical (non-decreasing index) free multisets
# ---------------------------------------------------------------------------

class _Table:
    """Dense sub-multiset DP table of the current path (non-abelian lane).

    ``vals`` is indexed in mixed radix: digit j is the count of
    ``support[j]``, with stride ``stride[j]`` = prod_{i<j} (counts[i] + 1).
    Only the last digit of a canonical path ever grows, so appending a copy
    of e adds one block of ``stride[pos]`` states at the end and undoing it
    truncates that block.
    """

    __slots__ = ("vals", "support", "counts", "stride", "cap", "words")

    def __init__(self, ctx, cap):
        self.vals = [1 << ctx.identity]
        self.support = []
        self.counts = []
        self.stride = []
        self.cap = cap
        self.words = ctx.words

    def append(self, ctx, e):
        """Add one copy of e (>= every support element); return the union of
        the new states' product sets.

        A new state is the union over its nonzero digits j of
        translate(parent with digit j lowered, support[j]); parents with the
        same last digit lie earlier in the new block, so one forward pass
        fills it.
        """
        vals, support, counts, stride = (self.vals, self.support, self.counts,
                                         self.stride)
        if not support or support[-1] != e:
            support.append(e)
            counts.append(0)
            stride.append(len(vals))
        pos = len(support) - 1
        block, base = stride[pos], len(vals)
        if (base + block) * self.words > self.cap:
            raise LimitExceeded(f"search DP exceeds the state cap {self.cap}")
        counts[pos] += 1
        lower = list(zip(stride[:pos], support[:pos]))
        dig = [0] * pos
        gain = 0
        for idx in range(base, base + block):
            m = translate(ctx, vals[idx - block], e)
            for j, (step, f) in enumerate(lower):
                if dig[j]:
                    m |= translate(ctx, vals[idx - step], f)
            vals.append(m)
            gain |= m
            for j in range(pos):
                dig[j] += 1
                if dig[j] <= counts[j]:
                    break
                dig[j] = 0
        return gain

    def undo(self):
        """Remove the copy added by the last ``append``."""
        del self.vals[-self.stride[-1]:]
        self.counts[-1] -= 1
        if not self.counts[-1]:
            self.support.pop()
            self.counts.pop()
            self.stride.pop()


def _extend(ctx, table, reach, e):
    """The reach set of a path after appending e (>= every path element):
    one bitset update on abelian groups (``table`` is None), otherwise the
    union with the new states of the path's DP table."""
    if table is None:
        return reach | translate(ctx, reach, e) | (1 << e)
    return reach | table.append(ctx, e)


def reachable(ctx, elems, counts, until_mask=0, state_cap=DEFAULT_STATE_CAP):
    """Exact set of products of nonempty sub-multisets, in any order.

    ``elems``/``counts`` describe the multiset (elements with their
    multiplicities, in any order).  Its copies are appended in increasing
    element order by ``_extend``.  If ``until_mask`` is nonzero the DP stops
    after the first append that reaches any of its bits, returning
    (partial mask, True).  A state space above ``state_cap`` words is
    refused up front, as in the compiled kernel.
    """
    if until_mask < 0 or until_mask >> ctx.n:
        raise ValueError(
            f"until_mask must be a bitset of the {ctx.n} group elements")
    if math.prod(c + 1 for c in counts) * ctx.words > state_cap:
        raise LimitExceeded(f"reachability DP exceeds the state cap {state_cap}")
    table = None if ctx.abelian else _Table(ctx, state_cap)
    reach = 0
    for e, count in sorted(zip(elems, counts)):
        for _ in range(count):
            reach = _extend(ctx, table, reach, e)
            if reach & until_mask:
                return reach, True
    return reach, False


def greedy(ctx):
    """Leftmost canonical descent: always append the least feasible element.

    Returns (length, witness tuple, nodes).  The witness is the
    lexicographically least free multiset of its length: any other free
    multiset agreeing on a prefix must continue with an element at least as
    large as the greedy choice.
    """
    n, inv = ctx.n, ctx.inv
    table = None if ctx.abelian else _Table(ctx, DEFAULT_STATE_CAP)
    reach = 0
    path = []
    start = 1
    while True:
        e = start
        while e < n and (reach >> inv[e]) & 1:
            e += 1
        if e >= n:
            return len(path), tuple(path), len(path)
        reach = _extend(ctx, table, reach, e)
        path.append(e)
        start = e


def _feasible(reach, start, n, inv):
    """Elements f >= start that keep a multiset with this reach set free."""
    for f in range(start, n):
        if not (reach >> inv[f]) & 1:
            yield f


def search(ctx, mode, target, floor_len, budget, state_cap=DEFAULT_STATE_CAP):
    """Canonical DFS, one branch per first element (root) 1 .. n-1.

    mode 'max': find the longest free multiset.  Pruning within each root
    measures against max(floor_len, best found in that root), never against
    other roots, so each root's node count and budget use depend on that
    root alone.  mode 'enum': collect every free multiset of length exactly
    ``target`` (>= 1).

    The node budget applies to each root branch separately; an exhausted
    branch is abandoned and the result is flagged incomplete.  A node is
    counted whenever a feasible append is made (or a sequence is collected).
    """
    n, inv = ctx.n, ctx.inv
    enum = mode == "enum"
    found = []
    best_len = floor_len
    best_witness = None
    total_nodes = 0
    complete = True

    for root in range(1, n):
        nodes = 0
        root_best = floor_len
        root_witness = None
        table = None if ctx.abelian else _Table(ctx, state_cap)
        # One frame per path element below the node being visited: (the
        # element, the reach set after it, an iterator over its feasible
        # children f >= it).
        stack = []
        e, reach = root, 0
        while True:
            # e already passed the feasibility test: e != 1, inv(e) not in reach
            nodes += 1
            if nodes > budget:
                complete = False
                break
            newlen = len(stack) + 1
            if enum and newlen == target:
                found.append((*[fr[0] for fr in stack], e))
            else:
                child = _extend(ctx, table, reach, e)
                potential = newlen + (n - 1 - child.bit_count())
                if not enum:
                    if newlen > root_best:
                        root_best = newlen
                        root_witness = (*[fr[0] for fr in stack], e)
                    descend = potential > root_best
                else:
                    descend = potential >= target
                if descend:
                    stack.append((e, child, _feasible(child, e, n, inv)))
                elif table is not None:
                    table.undo()
            # Visit the top frame's next candidate; pop frames that are spent.
            while stack:
                _, reach, children = stack[-1]
                e = next(children, None)
                if e is not None:
                    break
                stack.pop()
                if table is not None:
                    table.undo()
            else:
                break

        total_nodes += nodes
        if root_best > best_len:
            best_len = root_best
            best_witness = root_witness

    return {
        "complete": complete,
        "best_len": best_len,
        "witness": best_witness,
        "found": found,
        "nodes": total_nodes,
    }
