"""Finite groups with index-coded elements and verified multiplication tables.

Five families are supported: cyclic C_n, dihedral D_{2n}, dicyclic Q_{4n},
metacyclic C_q x| C_m (q prime, ord_q(s) = m) and direct products of cyclic
groups.  Elements are integers 0..order-1; index 0 is always the identity.

D, Q and M are one presentation <x, y | y^h = 1, x^m = y^k, yx = xy^s>
with (h, m, k, s) = (n, 2, 0, n-1) for D:n, (2n, 2, n, 2n-1) for Q:n and
(q, m, 0, s) for M:q,m,s.  Index i*h + j stands for x^i*y^j, so the powers
of y occupy indices 0..h-1 and the cosets x<y>, x^2<y>, ... follow;
serialized output is stable across runs.

Multiplication is closed-form exponent arithmetic per family, written so that
it works on index arrays as well as on single indices.  A full Cayley table is
built from it once, in blocks of rows, and then verified (identity, inverses,
associativity, defining relations).  Associativity is checked exactly at every
order, by Light's test over the basis generators (``Group._verify``).  The
verified table is what every other module consumes.

Automorphisms found among a few candidate maps, each checked against the
table (``Group.automorphism_maps``), give the orbit-minimal roots of the
search (``Group.orbit_roots``) and close the extremal multisets it collects
(:func:`orbit_closure`).
"""

from __future__ import annotations

import functools
import itertools
import math
import string
from dataclasses import dataclass, field

import numpy as np

# Largest group for which a Cayley table is built (and hence the largest
# group this toolkit constructs at all).
TABLE_LIMIT = 4096

# Table entries computed per block of rows while a table is built, and
# compared per block while it is checked for associativity.
_BUILD_BLOCK = 1 << 16

# Most entries (maps times order) of the automorphisms a group keeps for
# closing extremal sets (``Group.closure_maps``): 128 KB of int16.
CLOSURE_LIMIT = 1 << 16

_KINDS = ("C", "D", "Q", "M", "CxC")


class GroupError(ValueError):
    """Invalid group specification, failed verification, or unsupported op."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _ord_mod(s: int, q: int) -> int:
    """Multiplicative order of s modulo q; 0 if s is not a unit."""
    if math.gcd(s, q) != 1:
        return 0
    k, acc = 1, s % q
    while acc != 1:
        acc = (acc * s) % q
        k += 1
    return k


@dataclass(frozen=True)
class GroupSpec:
    """One of the supported group families plus its parameters."""

    kind: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise GroupError(f"unknown group kind {self.kind!r}")
        if any(p <= 0 for p in self.params):
            raise GroupError(f"group parameters must be positive, got {self.params}")
        if self.kind in ("C", "D", "Q"):
            if len(self.params) != 1:
                raise GroupError(f"{self.kind} spec takes exactly one parameter")
            if self.kind != "C" and self.params[0] < 2:
                raise GroupError(
                    f"{'dihedral' if self.kind == 'D' else 'dicyclic'} groups require n >= 2, "
                    f"got n={self.params[0]}")
        elif self.kind == "M":
            if len(self.params) != 3:
                raise GroupError("metacyclic spec takes parameters q,m,s")
            if self.params[1] < 2:
                raise GroupError(f"metacyclic parameter m={self.params[1]} must be >= 2")
        elif not self.params:
            raise GroupError("product-of-cyclics spec needs at least one factor")
        # Before the number theory below, which is linear in q.
        if self.order > TABLE_LIMIT:
            raise GroupError(
                f"group order {self.order} exceeds the table limit {TABLE_LIMIT}")
        if self.kind == "M":
            q, m, s = self.params
            if not _is_prime(q):
                raise GroupError(f"metacyclic parameter q={q} must be prime")
            if _ord_mod(s, q) != m:
                raise GroupError(
                    f"metacyclic relation ord_q(s) = m violated: "
                    f"ord_{q}({s}) = {_ord_mod(s, q)} != {m}")

    @property
    def order(self) -> int:
        if self.kind in ("D", "Q", "M"):
            h, m, _, _ = _presentation(self)
            return h * m
        return math.prod(self.params)

    def __str__(self) -> str:
        return f"{self.kind}:{','.join(str(p) for p in self.params)}"


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the CLI grammar ``C:n | D:n | Q:n | M:q,m,s | CxC:n1,n2,...``."""
    text = text.strip()
    head, sep, rest = text.partition(":")
    if not sep:
        raise GroupError(f"group spec {text!r} is missing ':' after the kind")
    if head not in _KINDS:
        raise GroupError(f"unknown group kind {head!r} in spec {text!r}")
    params = []
    for tok in rest.split(","):
        tok = tok.strip()
        if not tok.lstrip("-").isdigit():
            raise GroupError(f"invalid integer {tok!r} in group spec {text!r}")
        params.append(int(tok))
    return GroupSpec(head, tuple(params))


# ---------------------------------------------------------------------------
# Per-family structure: names, closed-form multiplication, generators.
# ---------------------------------------------------------------------------

def _presentation(spec: GroupSpec) -> tuple[int, int, int, int]:
    """(h, m, k, s) of <x, y | y^h = 1, x^m = y^k, yx = xy^s> for D, Q and M."""
    if spec.kind == "M":
        q, m, s = spec.params
        return q, m, 0, s % q
    n = spec.params[0]
    return (n, 2, 0, n - 1) if spec.kind == "D" else (2 * n, 2, n, 2 * n - 1)


def _power_word(gen: str, k: int) -> str:
    return gen if k == 1 else f"{gen}^{k}"


def _names(letters: str, ns) -> list[str]:
    """Words of every exponent vector over ``ns`` in mixed-radix order."""
    return ["*".join(_power_word(g, e) for g, e in zip(letters, exps) if e) or "1"
            for exps in itertools.product(*map(range, ns))]


def _family_data(spec: GroupSpec):
    """Return (names, mul, generators) for the family.

    ``mul`` takes indices or broadcastable index arrays alike, so one
    function fills the table and answers the scalar ``mul_formula``.
    """
    kind, params = spec.kind, spec.params

    if kind == "C":
        n = params[0]
        return _names("y", params), lambda a, b: (a + b) % n, {"y": 1 % n}

    if kind in ("D", "Q", "M"):
        h, m, k, s = _presentation(spec)
        spow = np.array([pow(s, c, h) for c in range(m)])

        def mul(a, b):
            # x^i1 y^j1 * x^i2 y^j2 = x^(i1+i2) y^(j1 s^i2 + j2), and x^m = y^k.
            i1, j1 = np.divmod(a, h)
            i2, j2 = np.divmod(b, h)
            carry, i = np.divmod(i1 + i2, m)
            return i * h + (j1 * spow[i2] + j2 + k * carry) % h

        return _names("xy", (m, h)), mul, {"x": h, "y": 1}

    # CxC: mixed-radix indexing, componentwise addition.
    ns = params
    if len(ns) > len(string.ascii_lowercase):
        raise GroupError("too many cyclic factors")
    letters = string.ascii_lowercase[:len(ns)]
    strides = [math.prod(ns[i + 1:]) for i in range(len(ns))]

    def mul(a, b):
        return sum((a // st + b // st) % n_i * st for st, n_i in zip(strides, ns))

    gens = {letters[i]: strides[i] for i in range(len(ns)) if ns[i] > 1}
    return _names(letters, ns), mul, gens


# ---------------------------------------------------------------------------
# Group
# ---------------------------------------------------------------------------

class Group:
    """Immutable finite group over element indices 0..order-1.

    Do not instantiate directly; use :func:`build_group`.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.key = str(spec)
        self.order = spec.order
        names, mul_formula, generators = _family_data(spec)
        self.names: tuple[str, ...] = tuple(names)
        # The inverse of ``names``: canonical words resolve by lookup.
        self._index: dict[str, int] = {w: i for i, w in enumerate(self.names)}
        self.generators: dict[str, int] = generators
        self.identity = 0
        self._mul_formula = mul_formula

        n = self.order
        idx = np.arange(n)
        table = np.empty((n, n), dtype=np.int16)
        rows = max(1, _BUILD_BLOCK // n)
        for lo in range(0, n, rows):
            table[lo:lo + rows] = mul_formula(idx[lo:lo + rows, None], idx)
        self.table = table
        self.table.setflags(write=False)

        self._verify()

        # Rows are permutations, so each holds exactly one 0.
        inv = np.argmax(table == 0, axis=1).astype(np.int16)
        bad = np.nonzero((table[idx, inv] != 0) | (table[inv, idx] != 0))[0]
        if bad.size:
            raise GroupError(f"element {self.names[bad[0]]} has no two-sided inverse")
        self.inv_table = inv
        self.inv_table.setflags(write=False)

        # Step every element whose powers have not yet returned to 1.
        orders = np.ones(n, dtype=np.int64)
        live = acc = idx[1:]
        while live.size:
            orders[live] += 1
            acc = table[acc, live]
            keep = acc != 0
            live, acc = live[keep], acc[keep]
        self.element_orders: tuple[int, ...] = tuple(orders.tolist())
        self.exponent: int = math.lcm(*self.element_orders)
        # Commuting generators make the group abelian, since they generate
        # it (``_verify``); this spares an n x n transposed comparison.
        gens = [g for g, _ in _basis(spec)]
        self.is_abelian: bool = all(table[a, b] == table[b, a] for a in gens for b in gens)
        self._contexts: dict[str, object] = {}

    def release_contexts(self):
        """Drop the kernel contexts the engine keeps for this group; the
        next search or reachability call rebuilds them."""
        self._contexts.clear()

    # -- verification --------------------------------------------------

    def _verify(self):
        """Check that the table is a group, generated by the basis
        generators of ``_basis``, that satisfies the defining relations.

        Associativity is exact at every order by Light's test: the basis
        generators must generate the table, and x(sy) = (xs)y must hold for
        every x, y and each generator s.  That suffices.  Call s *good* when
        x(sy) = (xs)y for all x, y.  The identity is good.  If s and r are
        good, so is sr:

            (x(sr))y = ((xs)r)y = (xs)(ry) = x(s(ry)) = x((sr)y),

        using s, then r, then s, then r (with x = s).  The generation check
        reaches every element from the identity by multiplying by one
        generator at a time, so every element is good, which is
        associativity.  The work is |S| * n^2 lookups for |S| generators,
        where a check of every triple takes n^3.
        """
        n, t = self.order, self.table
        if (t < 0).any() or (t >= n).any():
            raise GroupError("multiplication formula left the index range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise GroupError("index 0 does not act as the identity")
        # Every row/column must be a permutation (cancellation law).
        full = np.arange(n, dtype=t.dtype)
        if not ((np.sort(t, axis=1) == full).all()
                and (np.sort(t, axis=0) == full[:, None]).all()):
            raise GroupError("multiplication table rows/columns are not permutations")
        basis = _basis(self.spec)
        # The normal form multiplied out from the left: each element so far
        # times the next generator, 0 .. order - 1 times in a row, read off
        # the generator's column.
        elems = [0]
        for g, order in basis:
            col, walk = t[:, g].tolist(), []
            for e in elems:
                for _ in range(order):
                    walk.append(e)
                    e = col[e]
            elems = walk
        if sorted(elems) != list(range(n)):
            raise GroupError(f"the basis generators of {self.spec} do not generate its table")
        # Light's test, a block of rows x at a time, every generator s in
        # one comparison: (xs)y = t[t[x, s], y] against x(sy) = t[x, t[s, y]].
        # ``take`` gathers several times faster than fancy indexing along
        # the rows' own axis.
        gens = [g for g, _ in basis]
        cols = t[gens].astype(np.intp)
        rows = max(1, _BUILD_BLOCK // (max(1, len(gens)) * n))
        for lo in range(0, n, rows):
            blk = t[lo:lo + rows]
            if not np.array_equal(t.take(blk[:, gens], axis=0), blk.take(cols, axis=1)):
                raise GroupError("associativity (ab)c = a(bc) fails")
        self._verify_relations()

    def _verify_relations(self):
        if self.spec.kind not in ("D", "Q", "M"):
            return
        h, m, k, s = _presentation(self.spec)
        x, y, t = h, 1, self.table
        for lhs, rhs, rel in ((self._pow(y, h), 0, f"y^{h} = 1"),
                              (self._pow(x, m), self._pow(y, k), f"x^{m} = y^{k}"),
                              (t[y, x], t[x, self._pow(y, s)], f"yx = xy^{s}")):
            if lhs != rhs:
                raise GroupError(f"{self.spec} relation {rel} violated")

    # -- arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def mul_formula(self, a: int, b: int) -> int:
        """Closed-form product, bypassing the table (exposed for cross-checks)."""
        return int(self._mul_formula(a, b))

    def inverse(self, a: int) -> int:
        return int(self.inv_table[a])

    def _pow(self, a: int, k: int) -> int:
        acc = 0
        for _ in range(k):
            acc = int(self.table[acc, a])
        return acc

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k (negative exponents via the inverse)."""
        o = self.element_orders[a]
        k %= o
        acc = 0
        base = a
        while k:
            if k & 1:
                acc = int(self.table[acc, base])
            base = int(self.table[base, base])
            k >>= 1
        return acc

    @functools.cached_property
    def automorphism_maps(self) -> np.ndarray:
        """The automorphisms found by :func:`automorphisms`, identities
        dropped, as the rows of one array in the tables' int16 dtype.
        Computed on first use, never while the group is built."""
        maps = automorphisms(self)
        maps = maps[(maps != np.arange(self.order, dtype=maps.dtype)).any(axis=1)]
        maps.setflags(write=False)
        return maps

    @functools.cached_property
    def closure_maps(self) -> tuple[np.ndarray, bool]:
        """Automorphisms for :func:`orbit_closure`, as int16 rows like the
        tables, and whether they are the whole group that
        ``automorphism_maps`` generate.

        That group's elements, found breadth-first from the generators, if
        they take at most ``CLOSURE_LIMIT`` entries; otherwise the
        generators.  The identity is among the rows either way.
        """
        n, gens = self.order, self.automorphism_maps
        identity = np.arange(n, dtype=gens.dtype)[None]
        start, _, _ = _unique_rows(np.concatenate([identity, gens]), n)
        maps, frontier = start, gens
        while len(frontier):
            if (len(maps) + len(gens) * len(frontier)) * n > CLOSURE_LIMIT:
                start.setflags(write=False)
                return start, False
            old = len(maps)
            maps, _, first = _unique_rows(
                np.concatenate([maps, gens[:, frontier].reshape(-1, n)]), n)
            frontier = maps[first >= old]
        maps.setflags(write=False)
        return maps, True

    @functools.cached_property
    def orbit_roots(self) -> tuple[int, ...]:
        """The non-identity elements that are least in their orbit under
        ``automorphism_maps``, in increasing order.

        The search needs only these roots: an automorphism moves any free
        multiset onto one that starts at an orbit minimum.  Computed on
        first use, never while the group is built.
        """
        return orbit_minima(self.order, self.automorphism_maps)

    def elements(self) -> range:
        return range(self.order)

    def element_from_word(self, word: str) -> int:
        """Resolve a word like ``x*y^3`` (or ``1``) to an element index.

        A canonical word (an entry of ``names``) is looked up; any other
        product of generator powers is multiplied out.
        """
        word = word.replace(" ", "")
        idx = self._index.get(word)
        if idx is not None:
            return idx
        if not word:
            raise GroupError("empty element word")
        acc = 0
        for token in word.split("*"):
            gen, sep, exp = token.partition("^")
            if gen not in self.generators:
                raise GroupError(f"unknown generator {gen!r} in word {word!r}")
            if sep:
                if not exp.lstrip("-").isdigit():
                    raise GroupError(f"invalid exponent {exp!r} in word {word!r}")
                k = int(exp)
            else:
                k = 1
            acc = self.mul(acc, self.power(self.generators[gen], k))
        return acc

    def __repr__(self):
        return f"Group({self.key}, order={self.order})"

    def __eq__(self, other):
        return isinstance(other, Group) and other.spec == self.spec

    def __hash__(self):
        return hash(self.spec)


def build_group(spec: GroupSpec | str) -> Group:
    """Construct and verify a group from a spec object or spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    return Group(spec)


# ---------------------------------------------------------------------------
# Automorphisms and the orbit-minimal roots of the max-length search
# ---------------------------------------------------------------------------

def _unit_generators(h: int) -> list[int]:
    """A generating set of the units mod h: each member is the least unit
    outside the subgroup that the members before it generate."""
    units = [u for u in range(1, h) if math.gcd(u, h) == 1]
    sub, gens = {1 % h}, []
    for u in units:
        if len(sub) == len(units):
            break
        if u in sub:
            continue
        gens.append(u)
        grown, p = set(sub), u
        while p not in sub:
            grown.update(a * p % h for a in sub)
            p = p * u % h
        sub = grown
    return gens


def _basis(spec: GroupSpec) -> list[tuple[int, int]]:
    """(generator, order) pairs of the normal form: element a is the product,
    in this order, of generator^(a // generator % order), each generator's
    index being its stride in the index coding."""
    if spec.kind in ("D", "Q", "M"):
        h, m, _, _ = _presentation(spec)
        return [(h, m), (1, h)]
    ns = spec.params
    return [(math.prod(ns[i + 1:]), n_i) for i, n_i in enumerate(ns) if n_i > 1]


def _candidate_maps(group: Group):
    """Maps that may be automorphisms of ``group``, as index arrays:
    conjugation by each generator; for C and CxC, scalings of each factor by
    a generating set of its units, one transvection x_i <- x_i +
    (n_i / gcd(n_i, n_j)) x_j per ordered pair of factors and swaps of equal
    factors; for D, Q and M, y -> y^a over a generating set of the units mod
    h, and x -> xy.

    Each map but conjugation is given by the images of the basis generators
    and extended through the normal form; :func:`automorphisms` keeps only
    the maps its table check accepts.
    """
    spec, n, t = group.spec, group.order, group.table
    basis = _basis(spec)
    digits = [np.arange(n) // g % order for g, order in basis]

    def moving(images):
        """The map sending each basis generator g to images.get(g, g)."""
        phi = np.zeros(n, dtype=t.dtype)
        for (g, order), d in zip(basis, digits):
            col, pows = t[:, images.get(g, g)].tolist(), [0]
            for _ in range(order - 1):
                pows.append(col[pows[-1]])
            phi = t[phi, np.array(pows)[d]]
        return phi

    if not group.is_abelian:
        for g in group.generators.values():
            yield t[t[group.inv_table[g]], g]
    if spec.kind in ("C", "CxC"):
        for g, order in basis:
            for u in _unit_generators(order):
                yield moving({g: u * g})
        for (gi, ni), (gj, nj) in itertools.permutations(basis, 2):
            # Coordinate i gains c times coordinate j: g_j -> g_j + c*g_i,
            # well defined because n_j * c is a multiple of n_i.
            c = ni // math.gcd(ni, nj)
            if c < ni:
                yield moving({gj: gj + c * gi})
            if ni == nj and gi < gj:
                yield moving({gi: gj, gj: gi})
    else:
        (x, _), (y, h) = basis
        for a in _unit_generators(h):
            yield moving({y: a * y})
        yield moving({x: x + y})


def automorphisms(group: Group, candidates=None) -> np.ndarray:
    """The ``candidates`` (index arrays; default :func:`_candidate_maps`)
    that are automorphisms, as the rows of one array.

    A candidate is kept iff it is a bijection with phi(a*s) = phi(a)*phi(s)
    for every element a and every generator s, which makes it a
    homomorphism because the generators generate.  A wrong candidate is
    dropped, so it can only leave the orbits finer (more roots), never
    wrong.
    """
    n, t = group.order, group.table
    if candidates is None:
        candidates = _candidate_maps(group)
    # The tables' dtype: an int16 sort is already paged in by _verify, an
    # intp one would add about 0.1 MB of resident code.
    maps = np.array(list(candidates), dtype=t.dtype).reshape(-1, n)
    maps = maps[(np.sort(maps, axis=1) == np.arange(n)).all(axis=1)]
    gens = list(group.generators.values())
    hom = maps[:, t[:, gens]] == t[maps[:, :, None], maps[:, None, gens]]
    return maps[hom.all(axis=(1, 2))]


def orbit_minima(n: int, maps) -> tuple[int, ...]:
    """The elements 1 .. n-1 that are least in their orbit under the group
    generated by the permutations ``maps`` (the rows of an index array).

    Elements are taken in increasing order, and each one not yet seen
    starts a new orbit, which is then marked by following the maps.  The
    images under the maps suffice: for permutations of a finite set they
    generate the group.
    """
    maps = [phi.tolist() for phi in maps]
    seen = [False] * n
    roots = []
    for a in range(1, n):
        if seen[a]:
            continue
        roots.append(a)
        seen[a] = True
        stack = [a]
        while stack:
            b = stack.pop()
            for phi in maps:
                c = phi[b]
                if not seen[c]:
                    seen[c] = True
                    stack.append(c)
    return tuple(roots)


@functools.lru_cache(maxsize=64)
def _key_weights(n: int, length: int) -> np.ndarray:
    """The base-n digit weights of :func:`_row_keys`, one column per word:
    as many digits per int64 word as fit, first digit most significant."""
    per = 1
    while per < length and n ** (per + 1) < 1 << 63:
        per += 1
    col = np.arange(length)
    weights = np.zeros((length, -(-length // per)), dtype=np.int64)
    weights[col, col // per] = n ** (per - 1 - col % per)
    weights.setflags(write=False)
    return weights


def _row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One key per row of ``rows`` (elements of a group of order n), in the
    rows' lexicographic order: the row's base-n digits packed into int64
    words.  Rows that take more than one word get one opaque key each, the
    words' big-endian bytes, which compare as the words do."""
    keys = rows @ _key_weights(n, rows.shape[1])
    if keys.shape[1] == 1:
        return keys[:, 0]
    return keys.astype(">i8").view(np.dtype((np.void, 8 * keys.shape[1])))[:, 0]


def _unique_rows(rows: np.ndarray, n: int):
    """The distinct rows of ``rows`` in lexicographic order, their keys, and
    the index of each one's first occurrence in ``rows``."""
    keys, first = np.unique(_row_keys(rows, n), return_index=True)
    return rows[first], keys, first


def orbit_closure(group: Group, rows) -> np.ndarray:
    """The multisets of ``rows`` (equal-length index sequences) and all their
    images under the group that ``group.automorphism_maps`` generate: sorted
    rows without repeats, in lexicographic order, in the tables' dtype.

    Rows are mapped by every map of ``group.closure_maps``, a block of about
    ``CLOSURE_LIMIT`` image entries at a time.  When those maps are the
    whole group, a block's images are whole orbits, and the rows they cover
    need no mapping.  Otherwise the closure is breadth first: each round
    maps the rows that the round before found new.
    """
    n = group.order
    maps, complete = group.closure_maps
    rows = np.array(rows, dtype=group.table.dtype)
    if not rows.size:
        # no rows, or only empty multisets: at most one, the empty one
        return np.zeros((min(len(rows), 1), 0), dtype=rows.dtype)
    length = rows.shape[1]
    rows, keys, _ = _unique_rows(np.sort(rows, axis=1), n)
    block = max(1, CLOSURE_LIMIT // (len(maps) * length))

    def images(part):
        """The distinct images of ``part`` (the identity among the maps
        keeps ``part`` itself), with their keys."""
        out = np.sort(maps[:, part].reshape(-1, length), axis=1)
        return _unique_rows(out, n)[:2]

    if complete:
        found, found_keys = [], []
        todo = rows
        while len(todo):
            orbits, keys = images(todo[:block])
            todo = todo[block:]
            if len(todo):
                todo = todo[~np.isin(_row_keys(todo, n), keys)]
            found.append(orbits)
            found_keys.append(keys)
    else:
        found, found_keys = [rows], [keys]
        frontier = rows
        while len(frontier):
            parts = [images(frontier[i:i + block])[0]
                     for i in range(0, len(frontier), block)]
            reached, keys, _ = _unique_rows(np.concatenate(parts), n)
            new = ~np.isin(keys, np.concatenate(found_keys))
            frontier = reached[new]
            found.append(frontier)
            found_keys.append(keys[new])
    if len(found) == 1:
        return found[0]
    return np.concatenate(found)[np.argsort(np.concatenate(found_keys))]


# ---------------------------------------------------------------------------
# Quotient Q_{4n} -> D_{2n} and quaternion naming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuotientMap:
    """Surjection from Q_{4n} onto D_{2n} with kernel {1, y^n}."""

    source: Group
    target: Group
    mapping: tuple[int, ...] = field(repr=False)

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    @property
    def kernel(self) -> tuple[int, ...]:
        return tuple(a for a in self.source.elements() if self.mapping[a] == 0)


def quotient_map(n: int) -> QuotientMap:
    """The canonical map x |-> x, y |-> y modulo the central {1, y^n}."""
    if n < 2:
        raise GroupError("quotient map requires n >= 2")
    q = build_group(GroupSpec("Q", (n,)))
    d = build_group(GroupSpec("D", (n,)))
    idx = np.arange(q.order)
    mapping = (idx // (2 * n)) * n + idx % n
    if not np.array_equal(mapping[q.table], d.table[np.ix_(mapping, mapping)]):
        raise GroupError("quotient map is not a homomorphism")
    mapping = tuple(mapping.tolist())
    if set(mapping) != set(d.elements()):
        raise GroupError("quotient map is not surjective")
    ker = tuple(a for a in q.elements() if mapping[a] == 0)
    if ker != (0, n):
        raise GroupError(f"quotient kernel {ker} differs from {{1, y^{n}}}")
    return QuotientMap(q, d, mapping)


def quaternion_names(group: Group) -> dict[int, str]:
    """Name the eight elements of Q_8 as e, -e, +-i, +-j, +-k (x -> i, y -> j).

    The orientation is fixed by the convention i*j = k; 'e' is the identity
    and -e the unique central involution y^2 = x^2.
    """
    if group.spec != GroupSpec("Q", (2,)):
        raise GroupError(f"quaternion names are defined for Q:2 only, not {group.key}")
    i = group.generators["x"]
    j = group.generators["y"]
    k = group.mul(i, j)
    minus = group.mul(j, j)
    names = {0: "e", minus: "-e"}
    for idx, nm in ((i, "i"), (j, "j"), (k, "k")):
        names[idx] = nm
        names[group.mul(minus, idx)] = "-" + nm
    return names
