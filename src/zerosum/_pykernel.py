"""Pure-Python search kernel: bitset reachability over subsequence products.

Bitsets are Python ints with bit i standing for element index i.  The central
primitive is ``translate(mask, e)`` = { r*e : r in mask }, applied byte by
byte through precomputed tables.

Two search lanes share one traversal contract (the compiled kernel in
``_kernel.c`` implements the same contract, so node counts agree):

* abelian lane: the reachable set of a multiset is closed under a single
  right-append update, so a DFS node is just one bitset.
* general lane: a DFS node keeps the full sub-multiset DP table
  {count vector -> product set of exactly that sub-multiset}; appending an
  element adds the states that use its new copy.

A multiset S stays product-1-free after appending e iff e != 1 and e^-1 is
not reachable from S: any product-1 ordering rotates cyclically to one that
starts with e, and rotations preserve product 1.
"""

from __future__ import annotations

from itertools import product

LANE = "pure"

# Chunked translate tables get too large past this order; beyond it a
# bit-by-bit loop is used (only plausible for one-off reachability queries).
_TABLE_ORDER_LIMIT = 512

DEFAULT_STATE_CAP = 100_000_000


class LimitExceeded(Exception):
    """Raised when a search or DP would exceed its configured state cap."""


class Context:
    """Immutable per-group data consumed by the kernel functions."""

    __slots__ = ("n", "identity", "abelian", "mul", "inv", "chunks", "tables")

    def __init__(self, n, mul_flat, inv, identity, abelian):
        self.n = n
        self.identity = identity
        self.abelian = abelian
        self.mul = list(mul_flat)
        self.inv = list(inv)
        self.chunks = (n + 7) // 8
        if n <= _TABLE_ORDER_LIMIT:
            self.tables = [self._byte_tables(e) for e in range(n)]
        else:
            self.tables = None

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
    out = 0
    for pos, tab in enumerate(ctx.tables[e]):
        byte = (mask >> (pos * 8)) & 0xFF
        if byte:
            out |= tab[byte]
    return out


# ---------------------------------------------------------------------------
# Stand-alone reachability (layered DP over sub-multiset count vectors)
# ---------------------------------------------------------------------------

def reachable(ctx, elems, counts, until_mask=0, state_cap=DEFAULT_STATE_CAP):
    """Exact set of products of nonempty sub-multisets, in any order.

    ``elems``/``counts`` describe the multiset (distinct elements with their
    multiplicities).  States are generated layer by layer (by sub-multiset
    size); only two layers are alive at a time.  If ``until_mask`` is nonzero
    the DP stops the moment any of its bits is reached, returning
    (partial mask, True).
    """
    k = len(elems)
    total = sum(counts)
    layer = {(0,) * k: 1 << ctx.identity}
    states_seen = 1
    result = 0
    for _ in range(total):
        nxt = {}
        for state, mask in layer.items():
            for i in range(k):
                if state[i] < counts[i]:
                    child = state[:i] + (state[i] + 1,) + state[i + 1:]
                    t = translate(ctx, mask, elems[i])
                    prev = nxt.get(child)
                    if prev is None:
                        states_seen += 1
                        if states_seen > state_cap:
                            raise LimitExceeded(
                                f"reachability DP exceeds the state cap {state_cap}")
                        new = t
                    else:
                        new = prev | t
                    nxt[child] = new
                    if until_mask & new:
                        return result | new, True
        layer = nxt
        for mask in layer.values():
            result |= mask
    return result, False


# ---------------------------------------------------------------------------
# DFS over canonical (non-decreasing index) free multisets
# ---------------------------------------------------------------------------

class _Abort(Exception):
    pass


class _GeneralState:
    """Path state for the non-abelian lane: the live sub-multiset DP table.

    Table keys are count vectors aligned with ``support`` and stored with
    trailing zeros stripped, so keys stay valid when the support grows.
    """

    __slots__ = ("support", "counts", "table", "live", "cap")

    def __init__(self, identity, cap):
        self.support = []
        self.counts = []
        self.table = {(): 1 << identity}
        self.live = 1
        self.cap = cap

    def append(self, ctx, e):
        """Add one copy of e (>= every current support element).

        Returns (added_keys, grew_support, union of the new product sets).
        New states are exactly those whose e-coordinate equals the new
        multiplicity; they are filled in increasing sub-multiset size so each
        state's parents are available when needed.
        """
        support, counts, table = self.support, self.counts, self.table
        if support and support[-1] == e:
            grew = False
            counts[-1] += 1
        else:
            grew = True
            support.append(e)
            counts.append(1)
        pos = len(support) - 1
        prefixes = sorted(product(*(range(c + 1) for c in counts[:pos])), key=sum)
        self.live += len(prefixes)
        if self.live > self.cap:
            raise LimitExceeded(f"search DP exceeds the state cap {self.cap}")
        top = counts[pos]
        added = []
        gain = 0
        for prefix in prefixes:
            state = prefix + (top,)
            mask = 0
            for j, c in enumerate(state):
                if c:
                    parent = state[:j] + (c - 1,) + state[j + 1:]
                    i = len(parent)
                    while i and parent[i - 1] == 0:
                        i -= 1
                    mask |= translate(ctx, table[parent[:i]], support[j])
            table[state] = mask
            added.append(state)
            gain |= mask
        return added, grew, gain

    def undo(self, added, grew):
        for key in added:
            del self.table[key]
        self.live -= len(added)
        if grew:
            self.support.pop()
            self.counts.pop()
        else:
            self.counts[-1] -= 1


def greedy(ctx):
    """Leftmost canonical descent: always append the least feasible element.

    Returns (length, witness tuple, nodes).  The witness is the
    lexicographically least free multiset of its length: any other free
    multiset agreeing on a prefix must continue with an element at least as
    large as the greedy choice.
    """
    n, inv = ctx.n, ctx.inv
    state = None if ctx.abelian else _GeneralState(ctx.identity, DEFAULT_STATE_CAP)
    reach = 0
    path = []
    start = 1
    while True:
        e = start
        while e < n and (reach >> inv[e]) & 1:
            e += 1
        if e >= n:
            return len(path), tuple(path), len(path)
        if ctx.abelian:
            reach |= translate(ctx, reach, e) | (1 << e)
        else:
            _, _, gain = state.append(ctx, e)
            reach |= gain
        path.append(e)
        start = e


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
    found = []
    best_len = floor_len
    best_witness = None
    total_nodes = 0
    complete = True

    for root in range(1, n):
        nodes = 0
        root_best = floor_len
        root_witness = None
        path = []
        state = None if ctx.abelian else _GeneralState(ctx.identity, state_cap)

        def visit(e, reach, length):
            # e already passed the feasibility test: e != 1, inv(e) not in reach
            nonlocal nodes, root_best, root_witness
            nodes += 1
            if nodes > budget:
                raise _Abort
            newlen = length + 1
            if mode == "enum" and newlen == target:
                path.append(e)
                found.append(tuple(path))
                path.pop()
                return
            if ctx.abelian:
                added = grew = None
                child = reach | translate(ctx, reach, e) | (1 << e)
            else:
                added, grew, gain = state.append(ctx, e)
                child = reach | gain
            potential = newlen + (n - 1 - child.bit_count())
            path.append(e)
            if mode == "max":
                if newlen > root_best:
                    root_best = newlen
                    root_witness = tuple(path)
                descend = potential > root_best
            else:
                descend = potential >= target
            if descend:
                for f in range(e, n):
                    if not (child >> inv[f]) & 1:
                        visit(f, child, newlen)
            path.pop()
            if not ctx.abelian:
                state.undo(added, grew)

        try:
            visit(root, 0, 0)
        except _Abort:
            complete = False

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
