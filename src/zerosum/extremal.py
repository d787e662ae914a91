"""Extremal product-1-free sequences: enumeration vs. predicted families.

For each covered family the predicted extremal multisets are generated from
the published parameterization, the true extremal set is enumerated by
search, and the two are diffed.  A mismatch is data, not an assertion
failure: the verdict distinguishes an exact match, a documented discrepancy
(enumerated sequences beyond the prediction, reported verbatim) and a failure
(predicted sequences that are not actually extremal).

The complete enumeration decides freeness at its length: a sequence of that
length is free exactly when it is enumerated.  The reachability engine
re-checks only the witness and the predictions of that length the
enumeration lacks, where a free one means the search missed it.

Also here: the exhaustive checks for the weighted +-1 zero-sum lemma, the
structure of long zero-sum-free cyclic sequences, and the order property of
minimal zero sequences in small abelian groups.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from itertools import combinations_with_replacement

from . import engine
from .davenport import DEFAULT_NODE_BUDGET
from .engine import BudgetExhaustedError, is_product1_free
from .groups import Group, GroupError, build_group
from .sequences import GSequence, items_text

VERDICT_EXACT = "exact-match"
VERDICT_DISCREPANCY = "documented-discrepancy"
VERDICT_FAILURE = "failure"


class CharacterizationFamily(namedtuple("CharacterizationFamily", [
        "name", "group", "sequences", "parameter_note"])):
    """Finite generator of the multisets predicted for one group family;
    ``sequences`` holds them as sorted index tuples, in lexicographic order."""

    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", [
        "target", "group", "enumerated_count", "predicted_count", "missing",
        "extra", "verdict", "details", "nodes", "millis"], defaults=(0, 0.0))):
    """Diff between enumerated truth and a predicted family or property.

    ``missing`` holds predictions that failed (absent sequences, violated
    properties); ``extra`` holds enumerated sequences beyond the prediction.
    The verdict is 'failure' exactly when ``missing`` is nonempty.
    """

    __slots__ = ()

    def to_payload(self) -> dict:
        return {
            "target": self.target,
            "group": self.group,
            "enumerated_count": self.enumerated_count,
            "predicted_count": self.predicted_count,
            "missing": list(self.missing),
            "extra": list(self.extra),
            "verdict": self.verdict,
            "details": self.details,
            "nodes": self.nodes,
            "millis": round(self.millis, 3),
        }


def _verdict(missing, extra) -> str:
    if missing:
        return VERDICT_FAILURE
    if extra:
        return VERDICT_DISCREPANCY
    return VERDICT_EXACT


# ---------------------------------------------------------------------------
# Extremal enumeration
# ---------------------------------------------------------------------------

ExtremalEnumeration = namedtuple("ExtremalEnumeration", [
    "group_key", "davenport", "length", "sequences", "nodes_expanded",
    "elapsed"])


def enumerate_extremal(group: Group, *,
                       budget: int = DEFAULT_NODE_BUDGET) -> ExtremalEnumeration:
    """All product-1-free multisets of the maximal length D(G) - 1, as
    sorted index tuples in lexicographic order (text: ``items_text``).

    One collecting search finds the whole set
    (:func:`engine.extremal_search`).  The least one, the witness of D(G),
    is re-checked against the reachability engine.
    """
    t0 = time.perf_counter()
    res = engine.extremal_search(group, budget=budget)
    if not res["complete"]:
        raise BudgetExhaustedError(
            f"node budget exhausted while enumerating the extremal sequences "
            f"of {group.key}: D({group.key}) unknown above length "
            f"{res['length']}",
            best_length=res["length"], nodes=res["nodes"])
    found = tuple(res["found"])
    if not is_product1_free(group, GSequence(group.key, found[0])):
        raise RuntimeError(f"search returned a non-free witness for {group.key}")
    return ExtremalEnumeration(
        group_key=group.key,
        davenport=res["length"] + 1,
        length=res["length"],
        sequences=found,
        nodes_expanded=res["nodes"],
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Predicted families
# ---------------------------------------------------------------------------

def _units(n: int):
    return [t for t in range(1, n) if math.gcd(t, n) == 1]


def family_cyclic(n: int, group: Group | None = None) -> CharacterizationFamily:
    """(g)^(n-1) for each generator g of C_n."""
    if n < 2:
        raise GroupError("cyclic characterization requires n >= 2")
    group = group or build_group(f"C:{n}")
    seqs = {(t,) * (n - 1) for t in _units(n)}
    return CharacterizationFamily(
        name="cyclic", group=group, sequences=tuple(sorted(seqs)),
        parameter_note=f"(g)^{n - 1} with gcd(g, {n}) = 1")


def _short_metacyclic_like(h: int, note_prefix: str):
    """The q = 3, m = 2 clause: (y^t, y^t, x*y^nu) and (x, x*y, x*y^2).

    The published t-range of this clause cannot be taken literally: it
    includes t = h, where y^t = 1.  Since h = 3 is prime, y^t generates <y>
    for every t in [1, h - 1], and that is the range taken, with nu in
    [0, h - 1].
    """
    seqs = {(t, t, h + nu) for t in range(1, h) for nu in range(h)}
    seqs.add((h, h + 1, h + 2))  # (x, x*y, x*y^2)
    note = (f"{note_prefix}: (y^t)^2 (x*y^nu), t in [1, {h - 1}], "
            f"nu in [0, {h - 1}]; plus (x, x*y, x*y^2)")
    return seqs, note


def family_dihedral(n: int, group: Group | None = None) -> CharacterizationFamily:
    """Predicted extremal multisets of D_2n (length n)."""
    if n < 2:
        raise GroupError("dihedral characterization requires n >= 2")
    group = group or build_group(f"D:{n}")
    if n == 2:
        # D_4 is the Klein four-group: the three pairs of distinct non-identity
        # elements, written (x,y), (x*y,y), (x,x*y) in the generators.
        seqs = {(1, 2), (1, 3), (2, 3)}
        note = "pairs of distinct non-identity elements of the Klein four-group"
    elif n == 3:
        seqs, note = _short_metacyclic_like(n, "n = 3 clause")
    else:
        seqs = set()
        for t in _units(n):
            for s in range(n):
                seqs.add(tuple(sorted((t,) * (n - 1) + (n + s,))))
        note = f"(y^t)^{n - 1} (x*y^s), gcd(t, {n}) = 1, s in [0, {n - 1}]"
    return CharacterizationFamily(name="dihedral", group=group,
                                  sequences=tuple(sorted(seqs)),
                                  parameter_note=note)


def family_dicyclic(n: int, group: Group | None = None) -> CharacterizationFamily:
    """Predicted extremal multisets of Q_4n (length 2n)."""
    if n < 2:
        raise GroupError("dicyclic characterization requires n >= 2")
    group = group or build_group(f"Q:{n}")
    h = 2 * n
    seqs = set()
    if n == 2:
        # r in Z_4^*, s in Z_4: (y^r)^3 (x y^s), (y^r)(x y^s)^3,
        # (x y^s)^3 (x y^(r+s)).
        for r in (1, 3):
            for s in range(4):
                xs = h + s
                seqs.add(tuple(sorted((r, r, r, xs))))
                seqs.add(tuple(sorted((r, xs, xs, xs))))
                xr = h + (r + s) % 4
                seqs.add(tuple(sorted((xs, xs, xs, xr))))
        note = "n = 2 clause: r in Z_4^*, s in Z_4, three shapes"
    else:
        for t in range(1, n):
            if math.gcd(t, h) != 1:
                continue
            for s in range(h):
                seqs.add(tuple(sorted((t,) * (h - 1) + (h + s,))))
        note = (f"(y^t)^{h - 1} (x*y^s), 1 <= t <= {n - 1}, gcd(t, {h}) = 1, "
                f"s in [0, {h - 1}]")
    return CharacterizationFamily(name="dicyclic", group=group,
                                  sequences=tuple(sorted(seqs)),
                                  parameter_note=note)


def family_metacyclic(q: int, m: int, s: int,
                      group: Group | None = None) -> CharacterizationFamily:
    """Predicted extremal multisets of C_q x| C_m (length m + q - 2)."""
    group = group or build_group(f"M:{q},{m},{s}")
    if (m, q) == (2, 3):
        seqs, note = _short_metacyclic_like(q, "(m, q) = (2, 3) clause")
    else:
        seqs = set()
        nu_choices = list(combinations_with_replacement(range(q), m - 1))
        for t in range(1, q):
            for i in _units(m):
                for nus in nu_choices:
                    items = (t,) * (q - 1) + tuple(i * q + nu for nu in nus)
                    seqs.add(tuple(sorted(items)))
        note = (f"(y^t)^{q - 1} (x^i y^nu_1 ... x^i y^nu_{m - 1}), "
                f"t in [1, {q - 1}], gcd(i, {m}) = 1")
    return CharacterizationFamily(name="metacyclic", group=group,
                                  sequences=tuple(sorted(seqs)),
                                  parameter_note=note)


def family_for(group: Group) -> CharacterizationFamily:
    kind, params = group.spec.kind, group.spec.params
    if kind == "C":
        return family_cyclic(params[0], group)
    if kind == "D":
        return family_dihedral(params[0], group)
    if kind == "Q":
        return family_dicyclic(params[0], group)
    if kind == "M":
        return family_metacyclic(*params, group)
    raise GroupError(f"no characterization family covers {group.key}")


# ---------------------------------------------------------------------------
# Theorem verification
# ---------------------------------------------------------------------------

def verify_theorem(group: Group, *,
                   budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Diff the enumerated extremal set against the predicted family.

    A prediction outside the enumerated set is missing: it has the wrong
    length or is not free.  Those of the right length are re-checked, and a
    free one raises ``RuntimeError``, since the search must have missed it.
    """
    t0 = time.perf_counter()
    family = family_for(group)
    enum = enumerate_extremal(group, budget=budget)
    enumerated = set(enum.sequences)
    predicted = set(family.sequences)

    missing = sorted(predicted - enumerated)
    stranded = [items_text(group, s) for s in missing
                if len(s) == enum.length
                and is_product1_free(group, GSequence(group.key, s))]
    if stranded:
        raise RuntimeError(
            f"enumeration missed predicted free sequences: {stranded}")
    missing_text = [items_text(group, s) for s in missing]
    extra = sorted(enumerated - predicted)
    details = {
        "family": family.name,
        "parameters": family.parameter_note,
        "davenport": enum.davenport,
        "extremal_length": enum.length,
        "predicted_not_free": missing_text,
    }
    return VerificationReport(
        target=family.name,
        group=group.key,
        enumerated_count=len(enumerated),
        predicted_count=len(predicted),
        missing=tuple(missing_text),
        extra=tuple(items_text(group, s) for s in extra),
        verdict=_verdict(missing, extra),
        details=details,
        nodes=enum.nodes_expanded,
        millis=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Weighted {+1, -1} zero-sum lemma
# ---------------------------------------------------------------------------

def signed_zero_subset_exists(n: int, values) -> bool:
    """Is there a nonempty subset with signs summing to 0 mod n?"""
    mask = (1 << n) - 1
    reach = 0
    for y in values:
        y %= n
        rot_p = ((reach << y) | (reach >> (n - y))) & mask if y else reach
        yneg = (n - y) % n
        rot_m = ((reach << yneg) | (reach >> (n - yneg))) & mask if yneg else reach
        reach = reach | rot_p | rot_m | (1 << y) | (1 << yneg)
        if reach & 1:
            return True
    return False


def check_weighted_lemma(n: int, *,
                         budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Exhaustively confirm the +-1-weighted zero-sum bound s = floor(log2 n) + 1.

    Tuples are checked up to ordering (a multiset has a signed zero subset
    sum iff every ordering of it does).  A tightness probe at s - 1 reports
    the first counterexample tuple found, if any.

    The C(n + s - 1, s) multisets are counted up front; more than ``budget``
    of them raise ``BudgetExhaustedError`` before any is checked.
    """
    if n < 2:
        raise GroupError("weighted lemma check requires n >= 2")
    t0 = time.perf_counter()
    s = n.bit_length() - 1 + 1  # floor(log2 n) + 1
    total = math.comb(n + s - 1, s)
    if total > budget:
        raise BudgetExhaustedError(
            f"budget exhausted: the weighted lemma check for n={n} walks "
            f"{total} multisets, above the budget {budget}",
            best_length=0, nodes=0)
    violations = []
    for tup in combinations_with_replacement(range(n), s):
        if not signed_zero_subset_exists(n, tup):
            violations.append(str(tup))
    probe = None
    if s - 1 >= 1:
        for tup in combinations_with_replacement(range(n), s - 1):
            if not signed_zero_subset_exists(n, tup):
                probe = str(tup)
                break
    details = {
        "n": n,
        "s": s,
        "tuple_count": n ** s,
        "multisets_checked": total,
        "tightness_probe_s": s - 1,
        "tightness_counterexample": probe,
    }
    return VerificationReport(
        target="weighted", group=f"C:{n}",
        enumerated_count=total, predicted_count=total,
        missing=tuple(violations), extra=(),
        verdict=_verdict(violations, ()),
        details=details, nodes=0,
        millis=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Long zero-sum-free sequences in C_n: the Savchev-Chen theorem
# ---------------------------------------------------------------------------

def _partitions(k: int, most: int):
    """Partitions of k into parts of at most ``most``, each nonincreasing."""
    if k == 0:
        yield ()
    for first in range(min(k, most), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _savchev_chen_sets(n: int, length: int) -> set:
    """(a_1 g, ..., a_l g) as sorted index tuples, for every generator g of
    C_n and positive integers a_i summing to less than n, at a length l > n/2.

    The a_i are 1 + b_i for a partition b of some k < n - l.  Since
    n - l < l, b has fewer than l parts; the rest of the a_i are 1.
    """
    out = set()
    units = _units(n)
    for k in range(n - length):
        for b in _partitions(k, k):
            parts = [1 + p for p in b] + [1] * (length - len(b))
            for g in units:
                out.add(tuple(sorted(a * g % n for a in parts)))
    return out


def check_cyclic_structure(n: int, *,
                           budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Diff the free multisets of C_n at every length l > n/2 against the
    Savchev-Chen theorem.

    Savchev and Chen ("Long zero-free sequences in finite cyclic groups",
    Discrete Math. 2007) prove that a zero-sum-free sequence of C_n of
    length l > n/2 is (a_1 g)...(a_l g) for a generator g and positive
    integers a_i with sum below n.  Each such sequence is free, since its
    subsums are 1 ... n - 1 times g, so the free set at each such length is
    known exactly.  It implies the older corollaries: at most n - 1 - l of
    the a_i exceed 1, so g repeats at least 2l - n + 1 times.

    Each length is enumerated and diffed.  An enumerated multiset outside
    the prediction is a violation; a predicted one outside the enumeration
    is re-checked, is a violation if it is not free, and raises
    ``RuntimeError`` if it is, since the search must have missed it.
    """
    if n < 3:
        raise GroupError("cyclic structure check requires n >= 3")
    t0 = time.perf_counter()
    group = build_group(f"C:{n}")
    lengths = range((n + 2) // 2, n)  # ceil((n+1)/2) .. n-1
    violations = []
    nodes = 0
    free_counts = {}
    predicted_counts = {}
    for length in lengths:
        enum = engine.enumerate_free(group, length, budget=budget)
        nodes += enum["nodes"]
        if not enum["complete"]:
            raise BudgetExhaustedError(
                f"budget exhausted enumerating C:{n} at length {length}",
                best_length=length, nodes=nodes)
        found = set(enum["found"])
        predicted = _savchev_chen_sets(n, length)
        free_counts[str(length)] = len(found)
        predicted_counts[str(length)] = len(predicted)
        for seq in sorted(found - predicted):
            violations.append(f"not of the Savchev-Chen form at length "
                              f"{length}: {items_text(group, seq)}")
        for seq in sorted(predicted - found):
            text = items_text(group, seq)
            if is_product1_free(group, GSequence(group.key, seq)):
                raise RuntimeError(
                    f"enumeration missed a predicted free sequence: {text}")
            violations.append(
                f"predicted but not free at length {length}: {text}")
    details = {
        "n": n,
        "lengths_checked": list(lengths),
        "free_counts_by_length": free_counts,
        "predicted_counts_by_length": predicted_counts,
    }
    return VerificationReport(
        target="cyclic-structure", group=f"C:{n}",
        enumerated_count=sum(free_counts.values()),
        predicted_count=sum(predicted_counts.values()),
        missing=tuple(violations), extra=(),
        verdict=_verdict(violations, ()),
        details=details, nodes=nodes,
        millis=(time.perf_counter() - t0) * 1000.0,
    )


# ---------------------------------------------------------------------------
# Minimal zero sequences: the exp(G)-order element property
# ---------------------------------------------------------------------------

def _covered_abelian(group: Group) -> bool:
    kind, params = group.spec.kind, group.spec.params
    if kind == "C":
        return True
    if kind != "CxC":
        return False
    factors = [p for p in params if p > 1]
    if len(factors) <= 2:
        return True
    primes = set()
    for f in factors:
        p = min(d for d in range(2, f + 1) if f % d == 0)
        q = f
        while q % p == 0:
            q //= p
        if q != 1:
            return False
        primes.add(p)
    return len(primes) == 1


def minimal_zero_sequences(group: Group, *, budget: int = DEFAULT_NODE_BUDGET):
    """All minimal zero sequences of length D(G) in a small abelian group,
    as sorted index tuples in lexicographic order.

    Minimal: the full product is 1 (order irrelevant, the group is abelian)
    and every proper nonempty sub-multiset is product-1-free.  Dropping one
    element of such a sequence leaves an extremal free sequence B, and the
    dropped element is the inverse of B's product.  Conversely B plus that
    inverse is always minimal: a proper product-1 part either lies in B or
    leaves a nonempty product-1 rest in B, and B is free.  So the minimal
    zero sequences are exactly the completions of the enumerated extremal
    set, and none needs a reachability check.

    Each one is formed once: from the B with c = (prod B)^-1 >= max B.  A
    minimal zero sequence Z gives one B per element z it drops, with c = z,
    so c >= max B exactly when z is a largest element of Z, and dropping any
    copy of the largest value leaves the same multiset B.  For that B,
    B + (c) is already sorted.  Sorted extremal bases of one length in
    lexicographic order give their completions in lexicographic order too,
    since two of them first differ inside the B part.
    """
    if not group.is_abelian:
        raise GroupError("minimal zero sequence check covers abelian groups only")
    enum = enumerate_extremal(group, budget=budget)
    if group.order == 1:
        # D = 1 and the identity singleton is the unique minimal zero sequence
        return enum, [(group.identity,)]
    rows, inv = group.table.tolist(), group.inv_table
    minimal = []
    for items in enum.sequences:
        product = group.identity
        for a in items:
            product = rows[product][a]
        c = inv[product]
        if c >= items[-1]:
            minimal.append(items + (c,))
    return enum, minimal


def check_minimal_zero_sum_order(
        group: Group, *, budget: int = DEFAULT_NODE_BUDGET) -> VerificationReport:
    """Every minimal zero sequence of length D(G) has an element of order exp(G)."""
    if not group.is_abelian or group.order > 36 or not _covered_abelian(group):
        raise GroupError(
            f"minimal zero-sum order check covers abelian groups of order <= 36 "
            f"(cyclic, rank two, one-prime products); got {group.key}")
    t0 = time.perf_counter()
    enum, minimal = minimal_zero_sequences(group, budget=budget)
    exponent = group.exponent
    orders = group.element_orders
    violations = [items_text(group, seq) for seq in minimal
                  if max(orders[a] for a in seq) != exponent]
    details = {
        "davenport": enum.davenport,
        "exponent": exponent,
        "minimal_zero_count": len(minimal),
    }
    return VerificationReport(
        target="minzero", group=group.key,
        enumerated_count=len(minimal), predicted_count=len(minimal),
        missing=tuple(violations), extra=(),
        verdict=_verdict(violations, ()),
        details=details, nodes=enum.nodes_expanded,
        millis=(time.perf_counter() - t0) * 1000.0,
    )
