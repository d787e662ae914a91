"""Product reachability and canonical search, dispatched to a kernel lane.

The compiled lane (``zerosum._kernel``, hand-written C built by ``setup.py``)
runs every group (orders up to ``groups.TABLE_LIMIT`` = 4096) when the
extension was built; otherwise the pure-Python twin (``zerosum._pykernel``)
takes over.  ``_kernel_for`` imports the pure kernel the first time it picks
that lane, so a process on the compiled lane never loads it.  Both lanes
follow one traversal contract, so every result (node counts included) is
identical across lanes, and both raise this module's ``EngineLimitError``
themselves, with the same messages, when a DP would exceed its state cap.

Stand-alone reachability (``reachable_products``, ``is_product1_free``,
``has_product_in``) refuses a multiset of more than ``DISTINCT_LIMIT``
distinct elements and hands its items, as they are, to one kernel call.
The kernel counts the copies of each element and refuses, up front, a DP
table above ``STATE_LIMIT`` words: the product over distinct elements of
(copies + 1) states.

The searches walk free multisets as non-decreasing index sequences
s_1 <= s_2 <= ..., and automorphisms prune them.  An automorphism maps a
free multiset onto a free multiset of the same length.  The stabilizer
rule: a child f of a path s_1 .. s_k is skipped when some listed
automorphism psi fixes every s_i and has psi(f) < f.  At k = 0, under the
whole group, it keeps only the orbit minima: the roots the engine names
(``Group.orbit_roots``), so the kernels apply it below the root.  The
max-length search and the collection of extremal multisets walk the
orbit roots with the rule (``_search_maps``: the whole automorphism group
``Group.closure_maps`` when it is listed, else its generators), and the
collection closes what it collects under that group
(``groups.orbit_closure``).  A non-cyclic abelian group whose automorphism
group does not fit in ``groups.CLOSURE_LIMIT`` collects over every root with
no maps and closes nothing, as the fixed-length enumeration does.

The rule is sound for any set of automorphisms, and it keeps the
lexicographically least witness.  Let S* = (s_1, ..., s_L) be the
lexicographically least sorted image of a free multiset under the group
the listed maps generate, and let psi in that group fix s_1 .. s_k.  The
sorted psi(S*) starts with s_1 .. s_k, by induction: if it agrees with S*
before place i <= k, its remaining entries still hold psi(s_i) = s_i, so
its i-th entry is at most s_i, and S* <=lex psi(S*) makes it at least s_i.
Its next entry is then at most psi(s_{k+1}), and S* <=lex psi(S*) gives
s_{k+1} <= psi(s_{k+1}).  So the rule skips no prefix of S*: the image S*
of every free multiset survives.  The least longest multiset W is its own
S*.  Every node the walk visits before a prefix of W is shorter than W (a
free multiset of W's length that precedes it would be less than W), so the
bound, which cuts a node only when no extension of it beats the best length
found, keeps every prefix of W as well: the length and the witness are
those of a search with no maps.  The collecting mode cuts only what cannot
reach the best length, so it collects the S* of every longest multiset.

On an abelian group the max-length search also keeps a failure memo (the
kernels describe the table).  Once a node P of depth d and last element e
has had its whole subtree walked, a later node P' of the same root that
carries the same set C, with depth d' <= d and last element e' >= e, is
counted but not descended.  This keeps the length and the witness.  On an
abelian group, whether P.T is free depends only on T and on the reach set
of P, and C is a bijective image of that set (the inverse set).  So every
free tail T of P', whose entries are all >= e' >= e, is also a free tail of
P, and |P.T| >= |P'.T|.  Let W be the least longest free multiset; the
stabilizer rule keeps every prefix of it, as shown above.  Suppose the memo
skipped a prefix P' of W = P'.T.  If d > d', then P.T is free and longer
than W, against W being longest.  Otherwise d = d', so P != P' and, as P
was walked first, P <lex P'; then P.T (sorted, as T >= e) has W's length
and P.T <lex W, against W being least.  So no prefix of W is skipped, and
the bound keeps them as before: length and witness are those of a search
without the memo.  The collecting mode and the fixed-length enumeration
must reach every multiset of a length, so they keep no memo; a non-abelian
subtree depends on the path's whole DP table, not on its reach set, so
those searches keep none either.

Set ``ZEROSUM_PURE_KERNEL=1`` to force the pure lane.
"""

from __future__ import annotations

import itertools
import os
from array import array

from .groups import Frozen, Group, orbit_closure
from .sequences import GSequence

try:
    from . import _kernel as _compiled
except ImportError:
    _compiled = None

DISTINCT_LIMIT = 24
# DP states hold one bitset of ceil(order / 64) 64-bit words each; the limit
# counts words (800 MB).  It is the one state cap: every kernel call takes it
# as an argument, and the kernels apply it.
STATE_LIMIT = 100_000_000
ORACLE_LENGTH_LIMIT = 8


class EngineError(ValueError):
    """Invalid input to a reachability or search operation."""


class EngineLimitError(EngineError):
    """A cost guard refused the computation (too many states or elements).

    The kernels of both lanes raise it when a DP would exceed its state cap.
    """


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
    """The kernel module that runs ``group``: the one lane-selection point.

    The pure kernel is imported here, the first time the pure lane runs, so
    a process on the compiled lane never loads it.
    """
    if default_kernel_name() == "compiled":
        return _compiled
    from . import _pykernel
    return _pykernel


def _context(group: Group, kern):
    ctx = group._contexts.get(kern.LANE)
    if ctx is None:
        # The kernels read the int16 tables through the buffer protocol;
        # a bytes copy would only add an n*n*2-byte transient per context.
        # An abelian group passes its basis as the radix: the cyclic
        # factors that a one-word translate turns without tables.
        ctx = kern.build_context(group.order, group.table, group.inv_table,
                                 group.identity,
                                 group.basis if group.is_abelian else None)
        group._contexts[kern.LANE] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Reachable sets
# ---------------------------------------------------------------------------

class ReachableSet(Frozen):
    """Products attainable from some nonempty sub-multiset, in some order."""

    __slots__ = ("group_key", "mask")

    def __init__(self, group_key: str, mask: int):
        object.__setattr__(self, "group_key", group_key)
        object.__setattr__(self, "mask", mask)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.mask == other.mask and self.group_key == other.group_key

    def __hash__(self):
        return hash((self.group_key, self.mask))

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


def _run_reachable(group: Group, seq: GSequence, until_mask: int):
    seq._check_group(group)
    distinct = len(set(seq.items))
    if distinct > DISTINCT_LIMIT:
        raise EngineLimitError(
            f"sequence has {distinct} distinct elements, above the limit "
            f"{DISTINCT_LIMIT}")
    kern = _kernel_for(group)
    # by keyword: perfbench's tracer reads a fourth positional argument as
    # until_mask
    return kern.reachable(_context(group, kern), seq.items,
                          until_mask=until_mask, state_cap=STATE_LIMIT)


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


def target_mask(group: Group, targets) -> int:
    """A nonempty collection of element indices of ``group`` as a bitset."""
    mask = 0
    for t in targets:
        if not 0 <= t < group.order:
            raise EngineError(f"target index {t} out of range for {group.key}")
        mask |= 1 << t
    if not mask:
        raise EngineError("the target set must be nonempty")
    return mask


def has_product_in(group: Group, seq: GSequence, targets) -> bool:
    """True iff some nonempty subsequence multiplies into ``targets``."""
    mask = target_mask(group, targets)
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
# Canonical DFS searches (max length, extremal collection, fixed length)
# ---------------------------------------------------------------------------

def _search_maps(group: Group):
    """The automorphisms that prune the search (the stabilizer rule in the
    module docstring): the whole group ``group.closure_maps`` when it is
    listed, else its generators ``group.automorphism_maps``, as one flat
    ``array('h')`` of whole maps."""
    maps = group.closure_maps
    if maps is None:
        maps = array("h", itertools.chain.from_iterable(group.automorphism_maps))
    return maps


def max_free_search(group: Group, *, budget: int) -> dict:
    """Longest product-1-free multiset via greedy floor + per-root DFS.

    The DFS walks only the roots in ``group.orbit_roots``, the Aut(G)-orbit
    minima, and below them skips every child that an automorphism fixing
    the path moves lower (``_search_maps``; the rule and its proof are in
    the module docstring).  The lexicographically least longest multiset
    is the least of its own images, so every prefix of it survives the
    rule, and a pruned tree finds no other multiset first: length and
    witness are those of a search over every root with no maps.  On an
    abelian group the failure memo (module docstring) skips the subtree of
    a node that an already walked node covers, which keeps them too; only
    the node count is smaller.

    Returns keys: complete, max_len, witness (index tuple), nodes.
    """
    kern = _kernel_for(group)
    ctx = _context(group, kern)
    g_len, g_wit, g_nodes = kern.greedy(ctx, STATE_LIMIT)
    res = kern.search(ctx, "max", 0, g_len, budget, STATE_LIMIT,
                      group.orbit_roots, _search_maps(group))
    witness = res["witness"] if res["best_len"] > g_len else g_wit
    return {
        "complete": res["complete"],
        "max_len": res["best_len"],
        "witness": tuple(witness),
        "nodes": g_nodes + res["nodes"],
    }


def extremal_search(group: Group, *, budget: int) -> dict:
    """The longest product-1-free multisets, via greedy floor + one
    collecting DFS.

    Every free multiset has an automorphic image that survives the orbit
    roots and the stabilizer rule (module docstring): the least of its
    images.  So the search walks ``group.orbit_roots`` with the maps of
    :func:`max_free_search` and closes what it collects under the group
    they generate (:func:`groups.orbit_closure`).  A non-cyclic abelian
    group whose automorphism group does not fit in ``groups.CLOSURE_LIMIT``
    skips the closure: its search walks every root, which collects the
    whole set, faster than a breadth-first closure would grow it, since
    that set is large (83,328 multisets on CxC:2,2,2,2,2).  A cyclic group
    C_n keeps its orbit roots: its set is only the phi(n) multisets g^(n-1)
    of its generators g, and every root costs over 70 times the nodes
    (C:257, C:512).  A length of 0 (the trivial group) has the empty multiset as its one
    extremal multiset.

    Returns keys: complete, length, found (index tuples in lexicographic
    order; only what the search collected when it is incomplete), nodes.
    """
    # An abelian group is cyclic exactly when its exponent is its order.
    every_root = (group.is_abelian and group.exponent < group.order
                  and group.closure_maps is None)
    roots, maps = ((None, None) if every_root
                   else (group.orbit_roots, _search_maps(group)))
    kern = _kernel_for(group)
    ctx = _context(group, kern)
    g_len, _, g_nodes = kern.greedy(ctx, STATE_LIMIT)
    res = kern.search(ctx, "collect", 0, g_len, budget, STATE_LIMIT,
                      roots, maps)
    found = res["found"] if res["best_len"] else [()]
    if res["complete"] and not every_root:
        found = orbit_closure(group, found)
    return {
        "complete": res["complete"],
        "length": res["best_len"],
        "found": found,
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
    res = kern.search(_context(group, kern), "enum", length, 0, budget,
                      STATE_LIMIT)
    return {"complete": res["complete"], "found": res["found"],
            "nodes": res["nodes"]}
