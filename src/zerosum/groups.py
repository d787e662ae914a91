"""Finite groups with index-coded elements and verified multiplication tables.

Five families are supported: cyclic C_n, dihedral D_{2n}, dicyclic Q_{4n},
metacyclic C_q x| C_m (q prime, ord_q(s) = m) and direct products of cyclic
groups.  Elements are integers 0..order-1; index 0 is always the identity.

D, Q and M are one presentation <x, y | y^h = 1, x^m = y^k, yx = xy^s>
with (h, m, k, s) = (n, 2, 0, n-1) for D:n, (2n, 2, n, 2n-1) for Q:n and
(q, m, 0, s) for M:q,m,s.  Index i*h + j stands for x^i*y^j, so the powers
of y occupy indices 0..h-1 and the cosets x<y>, x^2<y>, ... follow;
serialized output is stable across runs.

Each family is described once, by its normal-form basis (``_basis``) and,
for D, Q and M, that presentation; the order, the element names and the
generator letters follow from them.  The Cayley table is written
blockwise into one flat ``array('h')``: each row is a few slices of
"doubled cosets", runs of consecutive indices written out twice so that a
cyclic shift of a run is one contiguous slice; a row of a product of
cyclic factors is one such slice or one gather of blocks.  The table is
then verified exactly at every order from its entries alone
(``Group._verify``): identity,
generation by the basis generators, associativity (Light's test, row by
runs of consecutive indices; for products of several cyclic factors, a
direct product of two verified tables), the defining relations and
two-sided inverses.  The verified table, read-only, is what every other
module consumes.  Only the standard library is used.

Automorphisms found among a few candidate maps, each checked against the
table (``Group.automorphism_maps``), give the orbit-minimal roots of the
search (``Group.orbit_roots``) and close the extremal multisets it collects
(:func:`orbit_closure`): under the whole group they generate
(``Group.closure_maps``) when it fits in ``CLOSURE_LIMIT``, otherwise
breadth first under the maps themselves.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from operator import itemgetter

# Largest group for which a Cayley table is built (and hence the largest
# group this toolkit constructs at all).
TABLE_LIMIT = 4096

# Most entries (maps times order) of the automorphism group a group lists
# for closing extremal sets (``Group.closure_maps``).  A non-cyclic abelian
# group beyond it takes its extremal set from a search over every root
# instead (``engine.extremal_search``).
CLOSURE_LIMIT = 1 << 16

_KINDS = ("C", "D", "Q", "M", "CxC")

# The letters of the cyclic factors of a CxC spec, one each.
_FACTOR_LETTERS = "abcdefghijklmnopqrstuvwxyz"


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


class Frozen:
    """Base of the package's immutable value records.

    A subclass names its fields in ``__slots__``, sets them in ``__init__``
    through ``object.__setattr__`` and writes its own ``__eq__`` and
    ``__hash__``.  Assigning to a field afterwards raises AttributeError.
    The repr lists the fields in slot order, as ``Name(field=value, ...)``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class GroupSpec(Frozen):
    """One of the supported group families plus its parameters."""

    __slots__ = ("kind", "params")

    def __init__(self, kind: str, params: tuple[int, ...]):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "params", params)
        if kind not in _KINDS:
            raise GroupError(f"unknown group kind {kind!r}")
        if any(p <= 0 for p in params):
            raise GroupError(f"group parameters must be positive, got {params}")
        if kind in ("C", "D", "Q"):
            if len(params) != 1:
                raise GroupError(f"{kind} spec takes exactly one parameter")
            if kind != "C" and params[0] < 2:
                raise GroupError(
                    f"{'dihedral' if kind == 'D' else 'dicyclic'} groups require n >= 2, "
                    f"got n={params[0]}")
        elif kind == "M":
            if len(params) != 3:
                raise GroupError("metacyclic spec takes parameters q,m,s")
            if params[1] < 2:
                raise GroupError(f"metacyclic parameter m={params[1]} must be >= 2")
        elif not params:
            raise GroupError("product-of-cyclics spec needs at least one factor")
        elif len(params) > len(_FACTOR_LETTERS):
            raise GroupError(f"too many cyclic factors: {len(params)}, "
                             f"at most {len(_FACTOR_LETTERS)} (one letter each)")
        # Before the number theory below, which is linear in q.
        if self.order > TABLE_LIMIT:
            raise GroupError(
                f"group order {self.order} exceeds the table limit {TABLE_LIMIT}")
        if kind == "M":
            q, m, s = params
            if not _is_prime(q):
                raise GroupError(f"metacyclic parameter q={q} must be prime")
            if _ord_mod(s, q) != m:
                raise GroupError(
                    f"metacyclic relation ord_q(s) = m violated: "
                    f"ord_{q}({s}) = {_ord_mod(s, q)} != {m}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.kind == other.kind and self.params == other.params

    def __hash__(self):
        return hash((self.kind, self.params))

    @property
    def order(self) -> int:
        return math.prod(order for _, order in _basis(self))

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
        try:
            params.append(int(tok))
        except ValueError:
            raise GroupError(
                f"invalid integer {tok.strip()!r} in group spec {text!r}") from None
    return GroupSpec(head, tuple(params))


# ---------------------------------------------------------------------------
# Per-family structure: presentation, normal form, names and letters
# ---------------------------------------------------------------------------

def _presentation(spec: GroupSpec) -> tuple[int, int, int, int]:
    """(h, m, k, s) of <x, y | y^h = 1, x^m = y^k, yx = xy^s> for D, Q and M."""
    if spec.kind == "M":
        q, m, s = spec.params
        return q, m, 0, s % q
    n = spec.params[0]
    return (n, 2, 0, n - 1) if spec.kind == "D" else (2 * n, 2, n, 2 * n - 1)


def _basis(spec: GroupSpec) -> list[tuple[int, int]]:
    """(generator, order) pairs of the normal form: element a is the product,
    in this order, of generator^(a // generator % order), each generator's
    index being its stride in the index coding."""
    if spec.kind in ("D", "Q", "M"):
        h, m, _, _ = _presentation(spec)
        return [(h, m), (1, h)]
    ns = spec.params
    return [(math.prod(ns[i + 1:]), n_i) for i, n_i in enumerate(ns) if n_i > 1]


def _letters(spec: GroupSpec) -> str:
    """The letter of each generator of ``_basis``, in its order: y for C;
    x, y for D, Q and M; for CxC, the letter of each factor > 1 by its
    position in the spec."""
    if spec.kind == "CxC":
        return "".join(c for c, n_i in zip(_FACTOR_LETTERS, spec.params)
                       if n_i > 1)
    return "y" if spec.kind == "C" else "xy"


def _power_word(gen: str, k: int) -> str:
    return gen if k == 1 else f"{gen}^{k}"


def _names(letters: str, ns) -> list[str]:
    """Words of every exponent vector over ``ns`` in mixed-radix order."""
    return ["*".join(_power_word(g, e) for g, e in zip(letters, exps) if e) or "1"
            for exps in itertools.product(*map(range, ns))]


# ---------------------------------------------------------------------------
# Tables: written blockwise from the presentation, verified from the entries
# ---------------------------------------------------------------------------

def _doubled(lo: int, size: int) -> memoryview:
    """The run lo .. lo + size - 1 written out twice, as an int16 view: its
    slice [shift : shift + size] is the run rotated left by shift."""
    return memoryview(array("h", range(lo, lo + size)) * 2)


def _write(n: int, blocks) -> array:
    """An n x n int16 table, row-major, from consecutive int16 ``blocks``."""
    flat = array("h", [0]) * (n * n)
    out, pos = memoryview(flat), 0
    for block in blocks:
        end = pos + len(block)
        out[pos:end] = block
        pos = end
    return flat


def _metacyclic_blocks(spec: GroupSpec):
    """The rows of D, Q or M: row x^i1 y^j1 is m blocks of h entries, and
    block i2 is the coset x^c <y>, c = (i1 + i2) mod m, rotated by
    j1 s^i2 + k carry, since x^i1 y^j1 x^i2 y^j2 = x^(i1+i2) y^(j1 s^i2 + j2)
    and x^m = y^k."""
    h, m, k, s = _presentation(spec)
    spow = [pow(s, c, h) for c in range(m)]
    cosets = [_doubled(c * h, h) for c in range(m)]
    for i1 in range(m):
        for j1 in range(h):
            for i2 in range(m):
                carry, c = divmod(i1 + i2, m)
                shift = (j1 * spow[i2] + k * carry) % h
                yield cosets[c][shift:shift + h]


def _split(ns) -> int:
    """Where to cut the cyclic factors ``ns`` (at least two) into a high part
    A = ns[:p] and a low part B = ns[p:].  The table of A x B is written and
    checked as order * |A| blocks of |B| entries, plus order * |B| entries
    added one at a time unless B is cyclic; the cut keeps that least."""
    return min(range(1, len(ns)), key=lambda p: math.prod(ns[:p]) + (
        math.prod(ns[p:]) if len(ns) - p > 1 else 0))


def _product_table(ns) -> array:
    """The table of C_ns[0] x C_ns[1] x ... (factors > 1; mixed radix, the
    first factor most significant) as A x B, cut by :func:`_split`: row
    (i1, j1) is the blocks c * |B| + row j1 of B for c along row i1 of A,
    gathered a row at a time (:func:`_product_rows`) into the one array."""
    if len(ns) < 2:
        n = ns[0] if ns else 1
        run = _doubled(0, n)
        return _write(n, (run[a:a + n] for a in range(n)))
    p = _split(ns)
    a, b = math.prod(ns[:p]), math.prod(ns[p:])
    if len(ns) - p == 1:
        runs = [_doubled(c * b, b) for c in range(a)]
        cols = [[run[j:j + b] for run in runs] for j in range(b)]
    else:
        b_tab = _product_table(ns[p:])
        offs = [memoryview(array("h", [v + c * b for v in b_tab]))
                for c in range(a)]
        cols = [[off[j * b:(j + 1) * b] for off in offs] for j in range(b)]
    flat = array("h", [0]) * (a * b) ** 2
    out, w = memoryview(flat).cast("B"), 2 * a * b
    for x, row in _product_rows(_product_table(ns[:p]), cols):
        out[x * w:(x + 1) * w] = row
    return flat


def _product_rows(a_tab, cols):
    """The rows of a table of A x B in which row (i1, j1) is the join of the
    blocks cols[j1][c] for c along row i1 of A (``a_tab``, flat, of order
    a = len(cols[j1])), as (index, bytes) pairs, j1 outermost; row
    (i1, j1) has index i1 * b + j1, b = len(cols).

    Each row is one operation, not one per block: a gather of cols[j1] or,
    where row i1 of A is 0 .. a-1 rotated left by i1 (every row of a
    cyclic A; row 0 of any), a slice of cols[j1] joined and written out
    twice."""
    a, b = len(cols[0]), len(cols)
    ring = array("h", range(a)) * 2
    gathers = []
    for i in range(a):
        row = a_tab[i * a:(i + 1) * a]
        gathers.append(None if row == ring[i:i + a] else _getter(row))
    for j1, col in enumerate(cols):
        doubled = b"".join(col) * 2
        w, step = len(doubled) // 2, len(doubled) // (2 * a)
        for i1, gather in enumerate(gathers):
            row = (doubled[i1 * step:i1 * step + w] if gather is None
                   else b"".join(gather(col)))
            yield i1 * b + j1, row


def _fill(spec: GroupSpec) -> array:
    """The Cayley table of ``spec``, row-major, as one flat int16 array."""
    if spec.kind in ("D", "Q", "M"):
        return _write(spec.order, _metacyclic_blocks(spec))
    return _product_table([n_i for n_i in spec.params if n_i > 1])


def _views(table) -> tuple[memoryview, memoryview]:
    """Byte and flat int16 views of a C-contiguous native int16 table."""
    raw = memoryview(table).cast("B")
    return raw, raw.cast("h")


def _check_identity(vals: memoryview, n: int):
    every = list(range(n))
    if vals[:n].tolist() != every or vals[::n].tolist() != every:
        raise GroupError("index 0 does not act as the identity")


def _check_generation(vals: memoryview, n: int, basis, label):
    """The basis generators' rows and columns lie in 0 .. n-1, and the normal
    form, multiplied out from the left one generator at a time (down each
    generator's column), reaches every element."""
    elems = [0]
    for g, order in basis:
        col = vals[g::n].tolist()
        for line in (col, vals[g * n:(g + 1) * n].tolist()):
            if min(line) < 0 or max(line) >= n:
                raise GroupError(f"the table left the index range 0..{n - 1}")
        walk = []
        for e in elems:
            for _ in range(order):
                walk.append(e)
                e = col[e]
        elems = walk
    if sorted(elems) != list(range(n)):
        raise GroupError(f"the basis generators of {label} do not generate its table")


def _light_test(raw: memoryview, vals: memoryview, n: int, gens):
    """x(sy) = (xs)y for every x, y and every s of ``gens``, whose rows
    ``_check_generation`` has put in range.

    Row s is a few runs of consecutive indices, so row x gathered at row s,
    the row of x(sy) over y, is one join of byte slices of row x; it must
    equal the row of xs."""
    w = 2 * n
    for s in gens:
        row, col = vals[s * n:(s + 1) * n].tolist(), vals[s::n].tolist()
        starts = [y for y in range(n) if y == 0 or row[y] != row[y - 1] + 1]
        runs = [(2 * row[lo], 2 * (row[lo] + hi - lo))
                for lo, hi in zip(starts, starts[1:] + [n])]
        for x in range(n):
            base, xs = w * x, w * col[x]
            if b"".join([raw[base + lo:base + hi] for lo, hi in runs]) \
                    != raw[xs:xs + w].tobytes():
                raise GroupError("associativity (ab)c = a(bc) fails")


def _check_factor(table, ns):
    """Check that ``table`` (flat int16) is associative with identity 0 as a
    table of C_ns[0] x C_ns[1] x ...: Light's test for one factor, else
    :func:`_check_product`."""
    raw, vals = _views(table)
    n = math.prod(ns)
    _check_identity(vals, n)
    if len(ns) > 1:
        _check_product(raw, vals, ns)
    else:
        _check_generation(vals, n, [(1, n)], f"C:{n}")
        _light_test(raw, vals, n, [1])


def _check_product(raw: memoryview, vals: memoryview, ns):
    """Check that the table is the direct product of two tables that are
    associative with identity 0, so that it is one too.

    Cut the factors into A = ns[:p] (order a) and B = ns[p:] (order b) by
    :func:`_split`, so index i*b + j stands for (i, j), and read the factor
    tables off the table T itself: A[i1, i2] = T[i1 b, i2 b] // b, checked by
    :func:`_check_factor`; B is the standard table of C_b when B is one
    factor, else B[j1, j2] = T[j1, j2], checked by :func:`_check_factor`.
    Then two checks by slice comparison:

    1. first blocks: T[(i1, j1), (0, j2)] = i1 b + B[j1, j2];
    2. every block: T[(i1, j1), (i2, j2)] = T[(A[i1, i2], j1), (0, j2)],
       so row (i1, j1) is the join of the first blocks of the rows
       (c, j1), c along row i1 of A; each row is built in one gather, or
       one slice where row i1 of A is a rotation (:func:`_product_rows`),
       and compared whole.

    Together, T[(i1, j1), (i2, j2)] = A[i1, i2] b + B[j1, j2]: T is the
    table of A x B, which is associative with identity (0, 0) = 0 because
    A and B are (componentwise).  Its entries are in range because A's and
    B's are.  The work is order * (a + b) entries, where Light's test over
    the generators of many small factors gathers rows of up to order runs.
    """
    p = _split(ns)
    a, b = math.prod(ns[:p]), math.prod(ns[p:])
    n, w = a * b, 2 * a * b
    a_tab = array("h")
    for i1 in range(a):
        a_tab.extend(v // b for v in vals[i1 * b * n:(i1 * b + 1) * n:b].tolist())
    _check_factor(a_tab, ns[:p])
    if len(ns) - p == 1:
        # c b + row j of C_b is the run c b .. c b + b - 1 of row 0 (the
        # identity's, already checked) rotated left by j.
        runs = [raw[2 * c * b:2 * (c + 1) * b].tobytes() * 2 for c in range(a)]
        want = b"".join([run[2 * j:2 * (j + b)] for run in runs for j in range(b)])
    else:
        b_tab = array("h")
        for j in range(b):
            b_tab.frombytes(raw[j * w:j * w + 2 * b])
        _check_factor(b_tab, ns[p:])
        want = b"".join([array("h", [v + c * b for v in b_tab]) for c in range(a)])
    first = [raw[x * w:x * w + 2 * b] for x in range(n)]
    if b"".join(first) != want:
        raise GroupError("the table is not the direct product of its factors")
    for x, row in _product_rows(a_tab, [first[j1::b] for j1 in range(b)]):
        if row != raw[x * w:(x + 1) * w].tobytes():
            raise GroupError("the table is not the direct product of its factors")


def _inverses_and_orders(flat: array, n: int, names) -> tuple[list[int], list[int]]:
    """Inverses and element orders of an associative table with identity 0,
    from one walk of powers per cyclic subgroup: if a^k = 1 first at k,
    then a^e has order k / gcd(e, k) and inverse a^(k-e).  Both sides of
    every inverse are checked."""
    inv, orders = [0] * n, [0] * n
    orders[0] = 1
    for a in range(1, n):
        if orders[a]:
            continue
        powers, acc = [a], a          # powers[e - 1] = a^e
        while acc:
            if len(powers) > n:
                raise GroupError(f"element {names[a]} has no two-sided inverse")
            acc = flat[acc * n + a]
            powers.append(acc)
        k = len(powers)
        for e, p in enumerate(powers[:-1], 1):
            if not orders[p]:
                orders[p], inv[p] = k // math.gcd(e, k), powers[k - e - 1]
    for a in range(n):
        if flat[a * n + inv[a]] or flat[inv[a] * n + a]:
            raise GroupError(f"element {names[a]} has no two-sided inverse")
    return inv, orders


# ---------------------------------------------------------------------------
# Group
# ---------------------------------------------------------------------------

class Group:
    """Immutable finite group over element indices 0..order-1.

    ``table`` is the verified Cayley table as a read-only n x n int16
    ``memoryview`` (``table[a, b]`` is a*b) and ``inv_table`` the inverses
    as a read-only int16 view; both are C-contiguous buffers.

    Do not instantiate directly; use :func:`build_group`.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.key = str(spec)
        self.order = n = spec.order
        # (generator, order) pairs of the normal form (``_basis``); each
        # generator's index is its stride in the index coding.
        self.basis: tuple[tuple[int, int], ...] = tuple(_basis(spec))
        letters = _letters(spec)
        self.names: tuple[str, ...] = tuple(_names(letters, [o for _, o in self.basis]))
        # The inverse of ``names``: canonical words resolve by lookup.
        self._index: dict[str, int] = {w: i for i, w in enumerate(self.names)}
        # Each letter stands for its basis generator.
        self.generators: dict[str, int] = dict(zip(letters, (g for g, _ in self.basis)))
        if spec.kind == "C" and n == 1:
            self.generators["y"] = 0   # C:1 has no basis generator; y is 1
        self.identity = 0
        self._flat = _fill(spec)
        self.table = memoryview(self._flat).toreadonly().cast("B").cast("h", (n, n))
        self._verify()

        inv, orders = _inverses_and_orders(self._flat, n, self.names)
        self.inv_table = memoryview(array("h", inv)).toreadonly()
        self.element_orders: tuple[int, ...] = tuple(orders)
        self.exponent: int = math.lcm(*self.element_orders)
        # Commuting generators make the group abelian, since they generate
        # it (``_verify``); this spares an n x n transposed comparison.
        gens = [g for g, _ in self.basis]
        self.is_abelian: bool = all(self.mul(a, b) == self.mul(b, a)
                                    for a in gens for b in gens)
        self._contexts: dict[str, object] = {}

    def release_contexts(self):
        """Drop the kernel contexts the engine keeps for this group; the
        next search or reachability call rebuilds them."""
        self._contexts.clear()

    # -- verification --------------------------------------------------

    def _verify(self):
        """Check, from the entries of ``table`` alone, that it is associative
        with identity 0, generated by the basis generators of ``_basis``,
        and satisfies the defining relations; ``__init__`` then finds the
        two-sided inverses, which makes it a group.

        Associativity is exact at every order.  For C, D, Q, M and products
        with one cyclic factor > 1 it is Light's test (:func:`_light_test`):
        x(sy) = (xs)y for every x, y and each basis generator s.  That
        suffices.  Call s *good* when x(sy) = (xs)y for all x, y.  The
        identity is good.  If s and r are good, so is sr:

            (x(sr))y = ((xs)r)y = (xs)(ry) = x(s(ry)) = x((sr)y),

        using s, then r, then s, then r (with x = s).  The generation check
        reaches every element from the identity by multiplying by one
        generator at a time, so every element is good, which is
        associativity.  By induction along the same walk, each row x s is
        row x gathered at row s, so every entry lies in the range of row 0.
        Products of several cyclic factors are checked as the direct
        product of two verified tables instead (:func:`_check_product`).

        Rows and columns need no permutation check: with identity,
        associativity and two-sided inverses, y -> xy has the inverse
        y -> x^-1 y, since x^-1 (xy) = (x^-1 x) y = y, and likewise for
        y -> yx, so every row and column is a permutation.
        """
        n, spec = self.order, self.spec
        raw, vals = _views(self.table)
        _check_identity(vals, n)
        basis = _basis(spec)
        _check_generation(vals, n, basis, spec)
        factors = [n_i for n_i in spec.params if n_i > 1]
        if spec.kind == "CxC" and len(factors) > 1:
            _check_product(raw, vals, factors)
        else:
            _light_test(raw, vals, n, [g for g, _ in basis])
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
        return self._flat[a * self.order + b]

    def inverse(self, a: int) -> int:
        return self.inv_table[a]

    def _pow(self, a: int, k: int) -> int:
        acc = 0
        for _ in range(k):
            acc = self.table[acc, a]
        return acc

    def power(self, a: int, k: int) -> int:
        """a^k for any integer k (negative exponents via the inverse)."""
        o = self.element_orders[a]
        k %= o
        acc = 0
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    @functools.cached_property
    def automorphism_maps(self) -> tuple[tuple[int, ...], ...]:
        """The automorphisms found by :func:`automorphisms`, identities
        dropped, each as the tuple of the images of 0 .. order-1.  Computed
        on first use, never while the group is built."""
        identity = tuple(range(self.order))
        return tuple(phi for phi in automorphisms(self) if phi != identity)

    @functools.cached_property
    def closure_maps(self) -> array | None:
        """The group that ``automorphism_maps`` generate, identity first,
        found breadth first from those maps: one flat ``array('h')`` in
        which map k holds the images of 0 .. order-1 at [k*order,
        (k+1)*order), 2 bytes per image.  ``None`` when it does not fit in
        ``CLOSURE_LIMIT`` entries.  Computed on first use, never while the
        group is built.

        An automorphism is known by its images of the basis generators, so
        those images alone tell a new map from one already listed.
        """
        n, gens = self.order, self.automorphism_maps
        on_basis = _getter([g for g, _ in self.basis])
        images, seen = array("h"), set()

        def add(phi) -> bool:
            key = on_basis(phi)
            if key in seen:
                return False
            seen.add(key)
            images.extend(phi)
            return True

        for phi in (range(n), *gens):
            add(phi)
        frontier = range(1, len(images) // n)
        while frontier:
            if (len(images) // n + len(gens) * len(frontier)) * n > CLOSURE_LIMIT:
                return None
            new = []
            for k in frontier:
                after_f = _getter(images[k * n:(k + 1) * n])
                for g in gens:
                    if add(after_f(g)):     # a -> g(f(a))
                        new.append(len(images) // n - 1)
            frontier = new
        return images

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
            try:
                k = int(exp) if sep else 1
            except ValueError:
                raise GroupError(f"invalid exponent {exp!r} in word {word!r}") from None
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

def _getter(idx):
    """The function taking ``values`` to the tuple of values[i], i in idx."""
    if len(idx) == 1:
        i, = idx
        return lambda values: (values[i],)
    return itemgetter(*idx) if len(idx) else lambda values: ()


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


def _candidate_maps(group: Group):
    """Maps that may be automorphisms of ``group``, as tuples of images:
    conjugation by each generator; for C and CxC, scalings of each factor by
    a generating set of its units and one transvection x_i <- x_i +
    (n_i / gcd(n_i, n_j)) x_j per ordered pair of factors; for D, Q and M,
    y -> y^a over a generating set of the units mod h, and x -> xy.

    Swaps of equal factors are not needed: with A the transvection
    g_j -> g_j + g_i and B the one g_i -> g_i + g_j (c = 1 when n_i = n_j),
    A B^-1 A sends g_i -> -g_j and g_j -> g_i, as the matrices
    [[1, 1], [0, 1]] [[1, 0], [-1, 1]] [[1, 1], [0, 1]] = [[0, 1], [-1, 0]]
    show.  Applied after the scaling of factor i by the unit -1, which the
    scalings by a generating set of the units generate, it is the swap.

    Each map but conjugation is given by the images of the basis generators
    and extended through the normal form; :func:`automorphisms` keeps only
    the maps its table check accepts.
    """
    spec, n, flat, basis = group.spec, group.order, group._flat, group.basis

    def moving(images):
        """The map sending each basis generator g to images.get(g, g)."""
        phi = [0]
        for g, order in basis:
            col, pows = flat[images.get(g, g)::n], [0]
            for _ in range(order - 1):
                pows.append(col[pows[-1]])
            # The normal form is mixed radix with this generator's digit
            # next in significance.
            phi = [flat[v * n + p] for v in phi for p in pows]
        return tuple(phi)

    if not group.is_abelian:
        for g in group.generators.values():
            g_inv = group.inverse(g)
            yield _getter(flat[g_inv * n:(g_inv + 1) * n])(flat[g::n])  # g^-1 a g
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
    else:
        (x, _), (y, h) = basis
        for a in _unit_generators(h):
            yield moving({y: a * y})
        yield moving({x: x + y})


def automorphisms(group: Group, candidates=None) -> tuple[tuple[int, ...], ...]:
    """The ``candidates`` (sequences of images; default
    :func:`_candidate_maps`) that are automorphisms, as tuples.

    A candidate is kept iff it is a bijection with phi(a*s) = phi(a)*phi(s)
    for every element a and every generator s, which makes it a
    homomorphism because the generators generate: two gathers per
    generator, phi at column s against column phi(s) at phi.  A wrong
    candidate is dropped, so it can only leave the orbits finer (more
    roots), never wrong.
    """
    n, flat = group.order, group._flat
    if candidates is None:
        candidates = _candidate_maps(group)
    every = list(range(n))
    right = [(s, _getter(flat[s::n])) for s in group.generators.values()]
    kept = []
    for phi in map(tuple, candidates):
        if sorted(phi) != every:
            continue
        at_phi = _getter(phi)
        if all(by_s(phi) == at_phi(flat[phi[s]::n]) for s, by_s in right):
            kept.append(phi)
    return tuple(kept)


def orbit_minima(n: int, maps) -> tuple[int, ...]:
    """The elements 1 .. n-1 that are least in their orbit under the group
    generated by the permutations ``maps`` (sequences of images).

    Elements are taken in increasing order, and each one not yet seen
    starts a new orbit, which is then marked by following the maps.  The
    images under the maps suffice: for permutations of a finite set they
    generate the group.
    """
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


def orbit_closure(group: Group, rows) -> list[tuple[int, ...]]:
    """The multisets of ``rows`` (equal-length index sequences) and all their
    images under the group that ``group.automorphism_maps`` generate: sorted
    tuples without repeats, in lexicographic order.

    When ``group.closure_maps`` lists that group, each row not yet covered
    is mapped by every listed map at once, which gives its whole orbit.
    Otherwise the images are found breadth first under
    ``automorphism_maps``.
    """
    rows = sorted({tuple(sorted(r)) for r in rows})
    if not rows or not rows[0]:
        # no rows, or only empty multisets: at most one, the empty one
        return rows
    maps = group.closure_maps
    if maps is None:
        found, frontier = set(rows), rows
        while frontier:
            frontier = {tuple(sorted(image(phi))) for image in map(_getter, frontier)
                        for phi in group.automorphism_maps} - found
            found |= frontier
        return sorted(found)
    n, found = group.order, set()
    for r in rows:
        if r not in found:
            # the images of r's entries under map k, column by column
            found.update(tuple(sorted(image))
                         for image in zip(*(maps[a::n] for a in r)))
    return sorted(found)


# ---------------------------------------------------------------------------
# Quaternion naming
# ---------------------------------------------------------------------------

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
