"""Pure-Python search kernel: bitset reachability over subsequence products.

Bitsets are Python ints with bit i standing for element index i.  The central
primitive is ``translate(mask, e)`` = { r*e : r in mask }.  A context is
abelian exactly when it is built with the (stride, order) pairs of its
group's cyclic factors (``radix``).  An abelian group of order <= 64 turns
each factor by two masked shifts, checked against every product when the
context is built; other groups apply translate byte by byte through
per-element tables, each built on the first translate by its element.

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
it runs on the same step and the same table as the search.  It stops as soon
as its answer is decided: at a hit on ``until_mask`` or once the reach set
is the whole group.

State caps count 64-bit words, as in the compiled kernel, where each DP state
holds one bitset of ``words`` = ceil(n / 64) words: a cap of N admits
N // words states.  Every entry point takes the cap from its caller
(``engine.STATE_LIMIT``); the kernels hold no default of their own.

The DFS is a loop over an explicit stack with one frame per path element
(the element, the set it carries, an iterator over the children not yet
visited), so long paths in large groups cannot hit the interpreter's
recursion limit.

A multiset S stays product-1-free after appending e iff e != 1 and e^-1 is
not reachable from S: any product-1 ordering rotates cyclically to one that
starts with e, and rotations preserve product 1.  On abelian groups
``search`` and ``greedy`` carry the inverse set F = { r^-1 : r reachable }
instead of the reach set.  F is the reach set of the path's inverses, so
appending e to the path extends F by e^-1, and the feasible children are
the elements outside F.
"""

from __future__ import annotations

import math

LANE = "pure"

# Chunked translate tables get too large past this order; beyond it a
# bit-by-bit loop is used (only plausible for one-off reachability queries).
_TABLE_ORDER_LIMIT = 512

# The compiled kernel reads counts as C ints below this bound.
_INT_MAX = 2 ** 31 - 1

# A radix is read only for bitsets of one 64-bit word, as in the compiled
# kernel, which has at most 6 factors > 1 there.
_WORD_ORDER = 64
_MAX_FACTORS = 6


class LimitExceeded(Exception):
    """Raised when a search or DP would exceed its configured state cap."""


class Context:
    """Per-group data consumed by the kernel functions.

    Immutable except for the byte tables: ``tables[e]`` is filled on the
    first translate by e.  An abelian context of one word has ``turns``
    instead: ``turns[e]`` lists (keep, lsh, wrap, rsh) for each factor in
    which e has a nonzero digit.
    """

    __slots__ = ("n", "identity", "abelian", "words", "mul", "inv", "chunks",
                 "tables", "turns")

    def __init__(self, n, mul_flat, inv, identity, radix):
        self.n = n
        self.identity = identity
        self.abelian = radix is not None
        self.words = (n + 63) // 64
        self.mul = memoryview(mul_flat).cast("B").cast("h").tolist()
        self.inv = memoryview(inv).cast("B").cast("h").tolist()
        self.chunks = (n + 7) // 8
        self.turns = None
        self.tables = None
        if self.abelian and n <= _WORD_ORDER:
            self.turns = _turns(n, radix)
            _check_turns(self)
        elif n <= _TABLE_ORDER_LIMIT:
            # tables[e] is built by the first translate by e.
            self.tables = [None] * n

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


def _turns(n, radix):
    """Per element, the turn of each cyclic factor of ``radix`` in which its
    digit d = e // stride % order is nonzero: the bits whose digit is below
    order - d (``keep``) move up by d * stride, the others (``wrap``) down by
    (order - d) * stride."""
    factors = [tuple(pair) for pair in radix]
    if len(factors) > _MAX_FACTORS:
        raise ValueError(f"radix has more than {_MAX_FACTORS} factors")
    for pair in factors:
        if len(pair) != 2:
            raise ValueError("radix entries must be pairs")
        stride, order = pair
        if not (1 <= stride <= n and 2 <= order <= n and stride * order <= n):
            raise ValueError(f"radix entry ({stride}, {order}) out of range")
    full = (1 << n) - 1
    turns = []
    for e in range(n):
        turn = []
        for stride, order in factors:
            d = e // stride % order
            if d:
                keep = sum(1 << r for r in range(n)
                           if r // stride % order < order - d)
                turn.append((keep, d * stride, full ^ keep, (order - d) * stride))
        turns.append(tuple(turn))
    return turns


def _check_turns(ctx):
    """Refuse turns that miss any product r*e of the table."""
    n, mul = ctx.n, ctx.mul
    for e in range(n):
        for r in range(n):
            if translate(ctx, 1 << r, e) != 1 << mul[r * n + e]:
                raise ValueError("radix does not match the product table")


def build_context(n, mul_flat, inv, identity, radix):
    """Context of a group of order n; ``mul_flat`` (n*n entries, row-major
    products) and ``inv`` (n entries) are C-contiguous buffers of native
    int16, such as the group's own tables.  ``radix`` is None for a
    non-abelian group and the (stride, order) pairs of the cyclic factors of
    an abelian one: at order <= 64 translate then turns each factor with no
    byte tables, checked against every product (``ValueError`` on a
    mismatch).  Larger orders read only whether it is None."""
    return Context(n, mul_flat, inv, identity, radix)


def translate(ctx, mask, e):
    """{ r*e : r in mask } as a bitset."""
    if ctx.turns is not None:
        for keep, lsh, wrap, rsh in ctx.turns[e]:
            mask = (mask & keep) << lsh | (mask & wrap) >> rsh
        return mask
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


def _push(ctx, table, carried, e):
    """The set a search carries after appending e to its path: on abelian
    groups the inverse set, extended by e^-1, otherwise the reach set."""
    return _extend(ctx, table, carried, ctx.inv[e] if table is None else e)


def reachable(ctx, elems, counts, until_mask, state_cap):
    """Exact set of products of nonempty sub-multisets, in any order.

    ``elems``/``counts`` describe the multiset (elements with their
    multiplicities, in any order).  Its copies are appended in increasing
    element order by ``_extend``.  If ``until_mask`` is nonzero the DP stops
    after the first append that reaches any of its bits, returning
    (partial mask, True).  It also stops once the reach set is the whole
    group, which no later append can change: the full mask is then exact.  A
    state space above ``state_cap`` words is refused up front, for the whole
    multiset, as in the compiled kernel.
    """
    if until_mask < 0 or until_mask >> ctx.n:
        raise ValueError(
            f"until_mask must be a bitset of the {ctx.n} group elements")
    # Checked up front with the compiled kernel's messages: an early exit
    # may never reach an element.
    for e in elems:
        if not 0 <= e < ctx.n:
            raise ValueError(f"elems entry {e} out of range")
    if len(counts) != len(elems):
        raise ValueError(f"counts must have {len(elems)} entries")
    for c in counts:
        if not 0 <= c < _INT_MAX:
            raise ValueError(f"counts entry {c} out of range")
    if math.prod(c + 1 for c in counts) * ctx.words > state_cap:
        raise LimitExceeded(f"reachability DP exceeds the state cap {state_cap}")
    table = None if ctx.abelian else _Table(ctx, state_cap)
    full = (1 << ctx.n) - 1
    reach = 0
    for e, count in sorted(zip(elems, counts)):
        for _ in range(count):
            reach = _extend(ctx, table, reach, e)
            if reach & until_mask:
                return reach, True
            if reach == full:
                return reach, False
    return reach, False


def greedy(ctx, state_cap):
    """Leftmost canonical descent: always append the least feasible element.

    Returns (length, witness tuple, nodes).  The witness is the
    lexicographically least free multiset of its length: any other free
    multiset agreeing on a prefix must continue with an element at least as
    large as the greedy choice.
    """
    table = None if ctx.abelian else _Table(ctx, state_cap)
    carried = 0
    path = []
    start = 1
    while True:
        e = next(_feasible(ctx, carried, start, 0), None)
        if e is None:
            return len(path), tuple(path), len(path)
        carried = _push(ctx, table, carried, e)
        path.append(e)
        start = e


def _feasible(ctx, carried, start, banned):
    """Elements f >= start outside the bitset ``banned``, in increasing
    order, that keep the path free: on abelian groups those outside the
    inverse set ``carried``, otherwise those whose inverse is outside the
    reach set ``carried``."""
    n, inv = ctx.n, ctx.inv
    if ctx.abelian:
        free = ~(carried | banned) & ((1 << n) - (1 << start))
        while free:
            low = free & -free
            yield low.bit_length() - 1
            free ^= low
        return
    for f in range(start, n):
        if not (carried >> inv[f]) & 1 and not (banned >> f) & 1:
            yield f


def _check_roots(n, roots):
    """``roots`` as a list of strictly increasing indices in 1 .. n-1."""
    roots = list(roots)
    prev = 0
    for r in roots:
        if not 0 < r < n:
            raise ValueError(f"roots entry {r} out of range")
        if r <= prev:
            raise ValueError("roots must be strictly increasing")
        prev = r
    return roots


def _read_maps(n, maps):
    """The maps of ``maps`` (a buffer of native int16, map k holding the
    images of 0 .. n-1 at [k*n, (k+1)*n)) as (down, fixed) bitset pairs:
    the elements a map sends to a smaller index and those it fixes.  A map
    that sends nothing down can never prune and is left out."""
    raw = memoryview(maps).cast("B")
    if len(raw) % (2 * n):
        raise ValueError(f"maps must hold a multiple of {n} int16 entries")
    images = raw.cast("h")
    pairs = []
    for k in range(0, len(images), n):
        down = fixed = 0
        for a, b in enumerate(images[k:k + n]):
            if not 0 <= b < n:
                raise ValueError(f"maps entry {b} out of range")
            if b < a:
                down |= 1 << a
            elif b == a:
                fixed |= 1 << a
        if down:
            pairs.append((down, fixed))
    return pairs


MODES = ("max", "enum", "collect")


def search(ctx, mode, target, floor_len, budget, state_cap, roots=None,
           maps=None):
    """Canonical DFS, one branch per first element (root) 1 .. n-1, or per
    entry of ``roots`` (strictly increasing indices in 1 .. n-1) when given.

    The engine passes the group's Aut(G)-orbit minima as ``roots`` to the
    max-length search and to the collection of extremal multisets: an
    automorphism moves every free multiset onto one whose least element is
    an orbit minimum, so the other roots can find nothing longer and no
    lexicographically smaller witness.

    ``maps`` (None, or a buffer of native int16 holding whole maps of n
    images each, map k at [k*n, (k+1)*n)) lists automorphisms that prune
    below the root: a child f of a path s_1 <= ... <= s_k (k >= 1) is
    skipped when some listed map fixes every s_i and sends f to a smaller
    index.  The maps that fix the path are kept per depth, so once none is
    left a node costs what it did without maps.  The rule keeps, for every
    free multiset, the lexicographically least of its images under the
    group the maps generate; the engine's docstring has the proof.  At
    k = 0 the same rule under the whole group keeps only the orbit minima,
    which the caller names as ``roots``.

    mode 'max': find the longest free multiset.  Pruning within each root
    measures against max(floor_len, best found in that root), never against
    other roots, so each root's node count and budget use depend on that
    root alone.  mode 'enum': collect every free multiset of length exactly
    ``target`` (>= 1).  mode 'collect': collect every free multiset of the
    greatest length found, at least ``floor_len``; a longer one clears the
    list.  Its best length is shared by all roots, and a branch is pruned
    only when its potential is below it, so ties are explored.

    The node budget applies to each root branch separately; an exhausted
    branch is abandoned and the result is flagged incomplete.  A node is
    counted whenever a feasible append is made (or a sequence is collected).
    """
    if mode not in MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    n = ctx.n
    enum, collect = mode == "enum", mode == "collect"
    found = []
    best_len = floor_len
    best_witness = None
    total_nodes = 0
    complete = True
    roots = range(1, n) if roots is None else _check_roots(n, roots)
    pairs = [] if maps is None else _read_maps(n, maps)

    for root in roots:
        nodes = 0
        # collect: the best over every root so far; max: this root's best
        root_best = best_len if collect else floor_len
        root_witness = None
        table = None if ctx.abelian else _Table(ctx, state_cap)
        # One frame per path element below the node being visited: (the
        # element, the set carried after it, an iterator over its feasible
        # children f >= it, the indices of the maps that fix the path up to
        # it).
        stack = []
        e, carried, alive = root, 0, range(len(pairs))
        while True:
            # e already passed the feasibility test: e != 1, inv(e) not
            # reachable
            nodes += 1
            if nodes > budget:
                complete = False
                break
            newlen = len(stack) + 1
            if enum and newlen == target:
                found.append((*[fr[0] for fr in stack], e))
            else:
                child = _push(ctx, table, carried, e)
                # inversion is a bijection: the inverse set and the reach
                # set have one size
                potential = newlen + (n - 1 - child.bit_count())
                if enum:
                    descend = potential >= target
                elif collect:
                    if newlen > root_best:
                        root_best = newlen
                        found.clear()
                    if newlen == root_best:
                        found.append((*[fr[0] for fr in stack], e))
                    descend = potential > newlen and potential >= root_best
                else:
                    if newlen > root_best:
                        root_best = newlen
                        root_witness = (*[fr[0] for fr in stack], e)
                    descend = potential > root_best
                if descend:
                    fixing = [k for k in alive if (pairs[k][1] >> e) & 1]
                    banned = 0
                    for k in fixing:
                        banned |= pairs[k][0]
                    children = _feasible(ctx, child, e, banned)
                    stack.append((e, child, children, fixing))
                elif table is not None:
                    table.undo()
            # Visit the top frame's next candidate; pop frames that are spent.
            while stack:
                _, carried, children, alive = stack[-1]
                e = next(children, None)
                if e is not None:
                    break
                stack.pop()
                if table is not None:
                    table.undo()
            else:
                break

        total_nodes += nodes
        if collect:
            best_len = root_best
        elif root_best > best_len:
            best_len = root_best
            best_witness = root_witness

    return {
        "complete": complete,
        "best_len": best_len,
        "witness": best_witness,
        "found": found,
        "nodes": total_nodes,
    }
