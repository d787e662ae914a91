"""Finite groups with index-coded elements and verified multiplication tables.

Five families are supported: cyclic C_n, dihedral D_{2n}, dicyclic Q_{4n},
metacyclic C_q x| C_m (q prime, ord_q(s) = m) and direct products of cyclic
groups.  Elements are integers 0..order-1; index 0 is always the identity.
For the families with a distinguished cyclic subgroup H = <y>, the powers of
y occupy indices 0..|H|-1 in exponent order and the coset x*H (then x^2*H,
...) follows, so serialized output is stable across runs.

Multiplication is defined by closed-form exponent arithmetic per family; a
full Cayley table is built from it once and then verified (identity, inverses,
associativity, defining relations).  The verified table is what every other
module consumes.
"""

from __future__ import annotations

import math
import random
import string
from dataclasses import dataclass, field

import numpy as np

DEFAULT_SEED = 1729

# Exhaustive associativity checking is cubic; above this order a seeded
# random sample of triples is used instead.
ASSOC_EXHAUSTIVE_LIMIT = 256
ASSOC_SAMPLE = 100_000

# Largest group for which a Cayley table is built (and hence the largest
# group this toolkit constructs at all).
TABLE_LIMIT = 4096

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
        if self.kind == "C":
            if len(self.params) != 1:
                raise GroupError("cyclic spec takes exactly one parameter")
        elif self.kind in ("D", "Q"):
            if len(self.params) != 1:
                raise GroupError(f"{self.kind} spec takes exactly one parameter")
            if self.params[0] < 2:
                raise GroupError(
                    f"{'dihedral' if self.kind == 'D' else 'dicyclic'} groups require n >= 2, "
                    f"got n={self.params[0]}")
        elif self.kind == "M":
            if len(self.params) != 3:
                raise GroupError("metacyclic spec takes parameters q,m,s")
            q, m, s = self.params
            if not _is_prime(q):
                raise GroupError(f"metacyclic parameter q={q} must be prime")
            if m < 2:
                raise GroupError(f"metacyclic parameter m={m} must be >= 2")
            if _ord_mod(s, q) != m:
                raise GroupError(
                    f"metacyclic relation ord_q(s) = m violated: "
                    f"ord_{q}({s}) = {_ord_mod(s, q)} != {m}")
        elif self.kind == "CxC":
            if not self.params:
                raise GroupError("product-of-cyclics spec needs at least one factor")

    # -- constructors -------------------------------------------------

    @staticmethod
    def cyclic(n: int) -> "GroupSpec":
        return GroupSpec("C", (n,))

    @staticmethod
    def dihedral(n: int) -> "GroupSpec":
        return GroupSpec("D", (n,))

    @staticmethod
    def dicyclic(n: int) -> "GroupSpec":
        return GroupSpec("Q", (n,))

    @staticmethod
    def metacyclic(q: int, m: int, s: int) -> "GroupSpec":
        return GroupSpec("M", (q, m, s))

    @staticmethod
    def product_of_cyclics(ns) -> "GroupSpec":
        return GroupSpec("CxC", tuple(ns))

    @property
    def order(self) -> int:
        if self.kind == "C":
            return self.params[0]
        if self.kind == "D":
            return 2 * self.params[0]
        if self.kind == "Q":
            return 4 * self.params[0]
        if self.kind == "M":
            return self.params[0] * self.params[1]
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

def _power_word(gen: str, k: int) -> str:
    return gen if k == 1 else f"{gen}^{k}"


def _family_data(spec: GroupSpec):
    """Return (names, mul_formula, generators, h_size) for the family."""
    kind, params = spec.kind, spec.params

    if kind == "C":
        n = params[0]
        names = ["1"] + [_power_word("y", k) for k in range(1, n)]

        def mul(a, b, n=n):
            return (a + b) % n

        return names, mul, {"y": 1 % n}, None

    if kind in ("D", "Q"):
        n = params[0]
        h = n if kind == "D" else 2 * n
        names = ["1"] + [_power_word("y", k) for k in range(1, h)]
        names += ["x"] + [f"x*{_power_word('y', k)}" for k in range(1, h)]

        if kind == "D":
            def mul(a, b, h=h):
                e1, k1 = divmod(a, h)
                e2, k2 = divmod(b, h)
                k = (k2 - k1 if e2 else k1 + k2) % h
                return (e1 ^ e2) * h + k
        else:
            def mul(a, b, h=h, n=n):
                e1, k1 = divmod(a, h)
                e2, k2 = divmod(b, h)
                k = k2 - k1 if e2 else k1 + k2
                if e1 and e2:
                    k += n  # x^2 = y^n
                return (e1 ^ e2) * h + k % h

        return names, mul, {"x": h, "y": 1}, h

    if kind == "M":
        q, m, s = params
        names = []
        for i in range(m):
            for j in range(q):
                if i == 0 and j == 0:
                    names.append("1")
                elif i == 0:
                    names.append(_power_word("y", j))
                elif j == 0:
                    names.append(_power_word("x", i))
                else:
                    names.append(f"{_power_word('x', i)}*{_power_word('y', j)}")
        spow = [pow(s, c, q) for c in range(m)]

        def mul(a, b, q=q, m=m, spow=spow):
            i1, j1 = divmod(a, q)
            i2, j2 = divmod(b, q)
            return ((i1 + i2) % m) * q + (j1 * spow[i2] + j2) % q

        return names, mul, {"x": q, "y": 1}, q

    # CxC: mixed-radix indexing, componentwise addition.
    ns = params
    if len(ns) > len(string.ascii_lowercase):
        raise GroupError("too many cyclic factors")
    letters = string.ascii_lowercase[:len(ns)]
    strides = []
    acc = 1
    for n_i in reversed(ns):
        strides.append(acc)
        acc *= n_i
    strides.reverse()

    def coords(a):
        return [(a // st) % n_i for st, n_i in zip(strides, ns)]

    names = []
    for a in range(math.prod(ns)):
        parts = [_power_word(letters[i], c)
                 for i, c in enumerate(coords(a)) if c]
        names.append("*".join(parts) if parts else "1")

    def mul(a, b, ns=ns, strides=strides):
        out = 0
        for st, n_i in zip(strides, ns):
            out += (((a // st) + (b // st)) % n_i) * st
        return out

    gens = {letters[i]: strides[i] for i in range(len(ns)) if ns[i] > 1}
    return names, mul, gens, None


# ---------------------------------------------------------------------------
# Group
# ---------------------------------------------------------------------------

class Group:
    """Immutable finite group over element indices 0..order-1.

    Do not instantiate directly; use :func:`build_group`.
    """

    def __init__(self, spec: GroupSpec, *, rng_seed: int = DEFAULT_SEED):
        self.spec = spec
        self.key = str(spec)
        self.order = spec.order
        if self.order > TABLE_LIMIT:
            raise GroupError(
                f"group order {self.order} exceeds the table limit {TABLE_LIMIT}")
        names, mul_formula, generators, h_size = _family_data(spec)
        self.names: tuple[str, ...] = tuple(names)
        self.generators: dict[str, int] = generators
        self.h_size = h_size
        self.identity = 0
        self._mul_formula = mul_formula

        n = self.order
        table = np.empty((n, n), dtype=np.int16)
        for a in range(n):
            row = table[a]
            for b in range(n):
                row[b] = mul_formula(a, b)
        self.table = table
        self.table.setflags(write=False)

        self._verify(rng_seed)

        inv = np.empty(n, dtype=np.int16)
        for a in range(n):
            hits = np.nonzero(table[a] == 0)[0]
            if len(hits) != 1 or table[hits[0], a] != 0:
                raise GroupError(f"element {self.names[a]} has no two-sided inverse")
            inv[a] = hits[0]
        self.inv_table = inv
        self.inv_table.setflags(write=False)

        orders = []
        for a in range(n):
            k, acc = 1, a
            while acc != 0:
                acc = int(table[acc, a])
                k += 1
            orders.append(k)
        self.element_orders: tuple[int, ...] = tuple(orders)
        self.exponent: int = math.lcm(*orders)
        self.is_abelian: bool = bool(np.array_equal(table, table.T))
        self._contexts: dict[str, object] = {}

    # -- verification --------------------------------------------------

    def _verify(self, rng_seed: int):
        n, t = self.order, self.table
        if (t < 0).any() or (t >= n).any():
            raise GroupError("multiplication formula left the index range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise GroupError("index 0 does not act as the identity")
        # Every row/column must be a permutation (cancellation law).
        full = np.arange(n)
        if not (np.array_equal(np.sort(t, axis=1), np.tile(full, (n, 1)))
                and np.array_equal(np.sort(t, axis=0), np.tile(full[:, None], (1, n)))):
            raise GroupError("multiplication table rows/columns are not permutations")
        if n <= ASSOC_EXHAUSTIVE_LIMIT:
            # Every triple, a block of rows a at a time: (ab)c = t[t[a, b], c]
            # against a(bc) = t[a, t[b, c]], 2 MB of int16 per side and block.
            rows = max(1, (1 << 20) // (n * n))
            for lo in range(0, n, rows):
                blk = t[lo:lo + rows]
                if not np.array_equal(t[blk], blk[:, t]):
                    raise GroupError("associativity (ab)c = a(bc) fails")
        else:
            rng = random.Random(rng_seed)
            for _ in range(ASSOC_SAMPLE):
                a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
                if t[t[a, b], c] != t[a, t[b, c]]:
                    raise GroupError("associativity (ab)c = a(bc) fails (spot check)")
        self._verify_relations()

    def _verify_relations(self):
        kind, params, t = self.spec.kind, self.spec.params, self.table
        mul = lambda a, b: int(t[a, b])
        if kind == "D":
            n = params[0]
            x, y = n, 1
            if mul(x, x) != 0:
                raise GroupError("dihedral relation x^2 = 1 violated")
            if self._pow(y, n) != 0:
                raise GroupError("dihedral relation y^n = 1 violated")
            if mul(y, x) != mul(x, self._pow(y, n - 1)):
                raise GroupError("dihedral relation yx = xy^-1 violated")
        elif kind == "Q":
            n = params[0]
            x, y = 2 * n, 1
            if mul(x, x) != self._pow(y, n):
                raise GroupError("dicyclic relation x^2 = y^n violated")
            if self._pow(y, 2 * n) != 0:
                raise GroupError("dicyclic relation y^2n = 1 violated")
            if mul(y, x) != mul(x, self._pow(y, 2 * n - 1)):
                raise GroupError("dicyclic relation yx = xy^-1 violated")
        elif kind == "M":
            q, m, s = params
            x, y = q, 1
            if self._pow(x, m) != 0:
                raise GroupError("metacyclic relation x^m = 1 violated")
            if self._pow(y, q) != 0:
                raise GroupError("metacyclic relation y^q = 1 violated")
            if mul(y, x) != mul(x, self._pow(y, s)):
                raise GroupError("metacyclic relation yx = xy^s violated")

    # -- arithmetic ----------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def mul_formula(self, a: int, b: int) -> int:
        """Closed-form product, bypassing the table (exposed for cross-checks)."""
        return self._mul_formula(a, b)

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

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    def elements(self) -> range:
        return range(self.order)

    def name(self, a: int) -> str:
        return self.names[a]

    def coset_split(self, a: int) -> str:
        """'H' if a lies in the cyclic subgroup <y>, 'N' for the x-coset."""
        if self.spec.kind not in ("D", "Q"):
            raise GroupError(
                f"coset split requires a dihedral or dicyclic group, not {self.key}")
        return "H" if a < self.h_size else "N"

    def element_from_word(self, word: str) -> int:
        """Resolve a word like ``x*y^3`` (or ``1``) to an element index."""
        word = word.replace(" ", "")
        if not word:
            raise GroupError("empty element word")
        if word == "1":
            return 0
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


def build_group(spec: GroupSpec | str, *, rng_seed: int = DEFAULT_SEED) -> Group:
    """Construct and verify a group from a spec object or spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    return Group(spec, rng_seed=rng_seed)


def center(group: Group) -> list[int]:
    """Elements commuting with everything (by table scan)."""
    t = group.table
    return [a for a in group.elements() if np.array_equal(t[a, :], t[:, a])]


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
    q = build_group(GroupSpec.dicyclic(n))
    d = build_group(GroupSpec.dihedral(n))
    h = 2 * n
    mapping = tuple((a // h) * n + (a % h) % n for a in q.elements())
    for a in q.elements():
        for b in q.elements():
            if mapping[q.mul(a, b)] != d.mul(mapping[a], mapping[b]):
                raise GroupError("quotient map is not a homomorphism")
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
    if group.spec != GroupSpec.dicyclic(2):
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
