"""Pure-Python search kernel: bitset reachability over subsequence products.

Bitsets are Python ints with bit i standing for element index i.  The central
primitive is ``translate(mask, e)`` = { e*r : r in mask }, row e of the
product table.  A context is abelian exactly when it is built with the
(stride, order) pairs of its group's cyclic factors (``radix``).  An abelian
group of order <= 64 turns each factor by two masked shifts, checked against
every product when the context is built; other groups of order up to
``_TABLE_ORDER_LIMIT`` (512) apply translate byte by byte through
per-element tables, each built on the first translate by its element, and
larger ones walk the set bits of the mask through the product table.

A path grows one copy at a time through ``_extend``, the one step that
``greedy``, ``search`` and ``reachable`` share (the compiled kernel in
``_kernel.c`` implements the same contract, so node counts agree):

* abelian groups: appending e turns the reachable set R into
  R | e*R | {e}, so a path is just one bitset.
* other groups: a path keeps the full sub-multiset DP table, the product
  set of every sub-multiset of the path, in a dense list indexed in mixed
  radix (the layout of the compiled kernel's ``Table``); appending an
  element adds one block of states at the end, and undoing truncates it.
  A sub-multiset's products are the union, over each of its elements u, of
  u times the products of the rest: every ordering has a first element.

``reachable`` takes a multiset as its items (element indices, repeats
allowed, in any order), counts the copies of each element and appends them
in increasing element order, so it runs on the same step and the same table
as the search.  It refuses a table above its state cap up front and stops
as soon as its answer is decided: at a hit on ``until_mask`` or once the
reach set is the whole group.

State caps count 64-bit words, as in the compiled kernel, where each DP state
holds one bitset of ``words`` = ceil(n / 64) words: a cap of N admits
N // words states.  Every entry point takes the cap from its caller
(``engine.STATE_LIMIT``); the kernels hold no default of their own.  A DP
that would exceed its cap raises ``engine.EngineLimitError``, the class the
compiled kernel raises, with the same message.

The engine imports this module only when it picks the pure lane
(``engine._kernel_for``), so a process on the compiled lane never loads it.

The DFS is a loop over an explicit stack with one frame per path element
(the element, the set it carries, an iterator over the children not yet
visited), so long paths in large groups cannot hit the interpreter's
recursion limit.

A multiset S stays product-1-free after appending e iff e != 1 and e^-1 is
not reachable from S: any product-1 ordering rotates cyclically to one that
starts with e, and rotations preserve product 1.  ``search`` and
``greedy`` carry the inverse set F = { r^-1 : r reachable } instead of the
reach set.  Reversing an ordering and inverting each factor inverts its
product, so F is the reach set of the path's inverses: appending e to the
path extends F by e^-1, and the feasible children are the elements outside
F.  The path's inverses arrive in runs of equal elements, as the path's own
elements do, which is all the DP table needs.
"""

from __future__ import annotations

import math

from .engine import EngineLimitError

LANE = "pure"

# Chunked translate tables get too large past this order; beyond it a
# bit-by-bit loop is used (only plausible for one-off reachability queries).
_TABLE_ORDER_LIMIT = 512

# A radix is read only for bitsets of one 64-bit word, as in the compiled
# kernel, which has at most 6 factors > 1 there.
_WORD_ORDER = 64
_MAX_FACTORS = 6

# The failure memo of mode 'max' on abelian contexts: MEMO_SLOTS slots,
# indexed by the top bits of the compiled kernel's multiplicative hash.
MEMO_SLOTS = 4096
_MEMO_SHIFT = 64 - (MEMO_SLOTS.bit_length() - 1)
_MEMO_MULT = 0x9E3779B97F4A7C15
_WORD_MASK = (1 << 64) - 1


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
                img = (1 << mul[e * n + r]) if r < n else 0
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
    """Refuse turns that miss any product e*r of the table."""
    n, mul = ctx.n, ctx.mul
    for e in range(n):
        for r in range(n):
            if translate(ctx, 1 << r, e) != 1 << mul[e * n + r]:
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
    """{ e*r : r in mask } as a bitset."""
    if ctx.turns is not None:
        for keep, lsh, wrap, rsh in ctx.turns[e]:
            mask = (mask & keep) << lsh | (mask & wrap) >> rsh
        return mask
    if ctx.tables is None:
        out = 0
        row, mul = e * ctx.n, ctx.mul
        while mask:
            low = mask & -mask
            out |= 1 << mul[row + low.bit_length() - 1]
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
    Every copy of an element is appended before the next distinct one, so
    only the last digit ever grows: appending a copy of e adds one block of
    ``stride[pos]`` states at the end and undoing it truncates that block.
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
        """Add one copy of e, the last support element or one not yet in
        the support; return the union of the new states' product sets.

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
            raise EngineLimitError(f"search DP exceeds the state cap {self.cap}")
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
    """The reach set of a multiset after appending e: one bitset update on
    abelian groups (``table`` is None), otherwise the union with the new
    states of the multiset's DP table.  Search and greedy pass e^-1: they
    carry the reach set of the path's inverses."""
    if table is None:
        return reach | translate(ctx, reach, e) | (1 << e)
    return reach | table.append(ctx, e)


def reachable(ctx, items, until_mask, state_cap):
    """Exact set of products of nonempty sub-multisets, in any order.

    ``items`` is the multiset as element indices, with repeats, in any
    order.  Its copies are appended in increasing element order by
    ``_extend``.  If ``until_mask`` is nonzero the DP stops after the first
    append that reaches any of its bits, returning (partial mask, True).  It
    also stops once the reach set is the whole group, which no later append
    can change: the full mask is then exact.  A DP table above ``state_cap``
    words, the product over distinct elements of (copies + 1), is refused up
    front, for the whole multiset, as in the compiled kernel.
    """
    if until_mask < 0 or until_mask >> ctx.n:
        raise ValueError(
            f"until_mask must be a bitset of the {ctx.n} group elements")
    # Checked up front with the compiled kernel's message: an early exit
    # may never reach an element.
    copies = {}  # the copies of each element
    for e in items:
        if not 0 <= e < ctx.n:
            raise ValueError(f"items entry {e} out of range")
        copies[e] = copies.get(e, 0) + 1
    if math.prod(c + 1 for c in copies.values()) * ctx.words > state_cap:
        raise EngineLimitError(f"reachability DP exceeds the state cap {state_cap}")
    table = None if ctx.abelian else _Table(ctx, state_cap)
    full = (1 << ctx.n) - 1
    reach = 0
    for e in sorted(copies):
        for _ in range(copies[e]):
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
        carried = _extend(ctx, table, carried, ctx.inv[e])
        path.append(e)
        start = e


def _feasible(ctx, carried, start, banned):
    """Elements f >= start outside the bitset ``banned``, in increasing
    order, that keep the path free: those outside the inverse set
    ``carried``."""
    free = ~(carried | banned) & ((1 << ctx.n) - (1 << start))
    while free:
        low = free & -free
        yield low.bit_length() - 1
        free ^= low


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


def _memo_slot(carried, words):
    """The memo slot of a carried set: h = 0, then for each 64-bit word w
    of the set from the lowest, h = (h ^ w) * _MEMO_MULT mod 2 ** 64; the
    slot is the top bits of h."""
    h = 0
    for _ in range(words):
        h = ((h ^ (carried & _WORD_MASK)) * _MEMO_MULT) & _WORD_MASK
        carried >>= 64
    return h >> _MEMO_SHIFT


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
    root alone.  On an abelian context it also keeps a failure memo, cleared
    per root: ``MEMO_SLOTS`` slots, direct-mapped by ``_memo_slot`` (the
    compiled kernel's hash), each holding the carried set C, last element and
    depth of a node whose subtree was walked to the end (a budget abort
    records nothing), written over whatever the slot held.  A later node
    whose slot holds the same C, a last element <= its own and a depth >=
    its own is counted and updates the best, but is not descended; the
    engine's docstring proves that length and witness are kept.  mode
    'enum': collect every free multiset of length exactly
    ``target`` (>= 1).  mode 'collect': collect every free multiset of the
    greatest length found, at least ``floor_len``; a longer one clears the
    list.  Its best length is shared by all roots, and a branch is pruned
    only when its potential is below it, so ties are explored.  Modes 'enum'
    and 'collect' must reach every multiset of a length, and a non-abelian
    subtree depends on the whole DP table, so neither keeps a memo.

    The node budget applies to each root branch separately; an exhausted
    branch is abandoned and the result is flagged incomplete.  A node is
    counted whenever a feasible append is made (or a sequence is collected).
    """
    if mode not in MODES:
        raise ValueError(f"unknown search mode {mode!r}")
    n, words = ctx.n, ctx.words
    enum, collect = mode == "enum", mode == "collect"
    # slot -> (carried set, last element, depth) of a walked subtree
    memo = {} if mode == "max" and ctx.abelian else None
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
        if memo is not None:
            memo.clear()
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
                child = _extend(ctx, table, carried, ctx.inv[e])
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
                    if descend and memo is not None:
                        held = memo.get(_memo_slot(child, words))
                        descend = not (held is not None and held[0] == child
                                       and held[1] <= e and held[2] >= newlen)
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
                if memo is not None:
                    # the top frame's subtree is walked: record it
                    memo[_memo_slot(carried, words)] = (
                        carried, stack[-1][0], len(stack))
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
