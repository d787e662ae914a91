"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Every expectation is exact (integer or set equality); the stated runtime
bounds are asserted as part of the criterion.
"""

from __future__ import annotations

import math
import random
import time
from itertools import combinations_with_replacement

import zerosum.engine as engine
from zerosum.davenport import max_free_length, verify_known_constants
from zerosum.engine import is_product1_free, oracle_reachable, reachable_products
from zerosum.extremal import (
    VERDICT_EXACT,
    check_cyclic_structure,
    check_minimal_zero_sum_order,
    check_weighted_lemma,
    enumerate_extremal,
    family_dihedral,
    signed_zero_subset_exists,
    verify_theorem,
)
from zerosum.groups import build_group
from zerosum.sequences import GSequence, items_text

from conftest import grp

SEED = 1729


def not_reaches_identity(mask: int) -> bool:
    return not mask & 1


def _finish(num, label, failures, elapsed, bound):
    if elapsed > bound:
        failures.append(f"runtime {elapsed:.1f}s exceeds the {bound}s bound")
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num}] {label}: {status} ({elapsed:.1f}s)")
    assert not failures, failures


def test_criterion_1_davenport_regression():
    t0 = time.perf_counter()
    failures = []
    checks = verify_known_constants()
    for c in checks:
        if not c.ok:
            failures.append(f"{c.group}: computed {c.computed}, "
                            f"expected {c.expected} ({c.formula})")
    groups = {c.group for c in checks}
    for required in ["C:2", "C:30", "CxC:2,18", "CxC:6,6", "CxC:2,2,2,2,2",
                     "CxC:2,16", "D:2", "D:10", "Q:2", "Q:6", "M:3,2,2",
                     "M:5,2,4", "M:5,4,2", "M:7,2,6", "M:7,3,2"]:
        if required not in groups:
            failures.append(f"roster is missing {required}")
    _finish(1, f"Davenport regression over {len(checks)} groups", failures,
            time.perf_counter() - t0, 300)


def test_criterion_2_dihedral_inverse_theorem():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 4, 5, 6, 7, 8):
        rep = verify_theorem(grp(f"D:{n}"))
        if rep.verdict != VERDICT_EXACT or rep.missing or rep.extra:
            failures.append(f"D:{n}: verdict {rep.verdict}, "
                            f"missing {len(rep.missing)}, extra {len(rep.extra)}")
    # n = 3: the enumerated set equals the clause list with the t-range
    # resolved by enumeration; 7 sequences expected
    g3 = grp("D:3")
    enum3 = set(enumerate_extremal(g3).sequences)
    fam3 = family_dihedral(3)
    if enum3 != set(fam3.sequences) or len(enum3) != 7:
        failures.append(f"D:3: {len(enum3)} enumerated vs "
                        f"{len(fam3.sequences)} resolved-family sequences")
    if "t in [1, 2]" not in fam3.parameter_note:
        failures.append(f"D:3 resolved t-range not recorded: {fam3.parameter_note}")
    _finish(2, "dihedral inverse theorem n in {2..8}", failures,
            time.perf_counter() - t0, 60)


def test_criterion_3_dicyclic_inverse_theorem():
    t0 = time.perf_counter()
    failures = []
    for n in (2, 3, 4, 5):
        g = grp(f"Q:{n}")
        rep = verify_theorem(g)
        if rep.missing:
            failures.append(f"Q:{n}: {len(rep.missing)} predicted sequences missing")
        if n == 2:
            enum = set(enumerate_extremal(g).sequences)
            if rep.extra or len(enum) != 24:
                failures.append(f"Q:2: expected the exact 24-multiset family, "
                                f"got {len(enum)} with {len(rep.extra)} extra")
        else:
            h = 2 * n
            mirrored = {
                items_text(g, sorted((h - t,) * (h - 1) + (h + s,)))
                for t in range(1, n) if math.gcd(t, h) == 1
                for s in range(h)
            }
            if set(rep.extra) != mirrored:
                failures.append(f"Q:{n}: extras are not exactly the "
                                f"inverse-parameter images")
    _finish(3, "dicyclic inverse theorem n in {2..5}", failures,
            time.perf_counter() - t0, 300)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    failures = []
    # exhaustive: every multiset with |S| <= 4 over D_6, D_8, Q_8
    for spec in ("D:3", "D:4", "Q:2"):
        g = grp(spec)
        for k in range(1, 5):
            for items in combinations_with_replacement(range(g.order), k):
                s = GSequence.from_indices(g, items)
                if reachable_products(g, s).mask != oracle_reachable(g, s).mask:
                    failures.append(f"{spec}: disagreement on {s.format(g)}")
    # seeded random suite: 1,000 sequences, |S| <= 7, groups of order <= 16
    rng = random.Random(SEED)
    specs = ["C:16", "CxC:2,8", "CxC:4,4", "CxC:2,2,4", "D:6", "D:8",
             "Q:3", "Q:4", "M:5,2,4"]
    for i in range(1000):
        g = grp(specs[i % len(specs)])
        items = [rng.randrange(g.order) for _ in range(rng.randint(1, 7))]
        s = GSequence.from_indices(g, items)
        oracle_mask = oracle_reachable(g, s).mask
        if reachable_products(g, s).mask != oracle_mask:
            failures.append(f"{g.key}: disagreement on {s.format(g)}")
        if is_product1_free(g, s) != not_reaches_identity(oracle_mask):
            failures.append(f"{g.key}: short-circuit unsound on {s.format(g)}")
    _finish(4, "reachability DP == permutation oracle", failures,
            time.perf_counter() - t0, 120)


def test_criterion_5_weighted_lemma_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for n in range(2, 17):
        rep = check_weighted_lemma(n)
        if rep.verdict != VERDICT_EXACT:
            failures.append(f"n={n}: {len(rep.missing)} tuples without a "
                            f"signed zero subset sum at s={rep.details['s']}")
    if signed_zero_subset_exists(8, (1, 2, 4)):
        failures.append("(1, 2, 4) mod 8 should have no signed zero subset sum")
    _finish(5, "weighted +-1 lemma for n in [2,16]", failures,
            time.perf_counter() - t0, 60)


def test_criterion_6_cyclic_structure_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for n in range(5, 13):
        rep = check_cyclic_structure(n)
        if rep.verdict != VERDICT_EXACT:
            failures.append(f"n={n}: {rep.missing[:3]}")
    _finish(6, "zero-sum-free structure in C_n for n in [5,12]", failures,
            time.perf_counter() - t0, 120)


def test_criterion_7_minimal_zero_sum_order():
    t0 = time.perf_counter()
    failures = []
    targets = [f"C:{n}" for n in range(2, 13)] + ["CxC:2,2", "CxC:3,3", "CxC:2,4"]
    for spec in targets:
        rep = check_minimal_zero_sum_order(grp(spec))
        if rep.verdict != VERDICT_EXACT:
            failures.append(f"{spec}: {len(rep.missing)} minimal zero sequences "
                            f"without an element of maximal order")
    _finish(7, "minimal zero sequences contain an exp(G)-order element",
            failures, time.perf_counter() - t0, 180)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    failures = []
    rng = random.Random(SEED)

    # group axioms and the two reflection product laws
    for n in range(2, 17):
        g = build_group(f"D:{n}")
        for a in range(n):
            for b in range(n):
                if g.mul(n + a, n + b) != (b - a) % n:
                    failures.append(f"D:{n}: x y^{a} * x y^{b}")
    for n in range(2, 9):
        g = build_group(f"Q:{n}")
        h = 2 * n
        for a in range(h):
            for b in range(h):
                if g.mul(h + a, h + b) != (b - a + n) % h:
                    failures.append(f"Q:{n}: x y^{a} * x y^{b}")

    # quotient homomorphism Q_4n -> D_2n, x -> x and y -> y, with kernel
    # {1, y^n}: checked on all pairs
    for n in range(2, 9):
        q, d = grp(f"Q:{n}"), grp(f"D:{n}")
        phi = [a // (2 * n) * n + a % n for a in q.elements()]
        if any(phi[q.mul(a, b)] != d.mul(phi[a], phi[b])
               for a in q.elements() for b in q.elements()):
            failures.append(f"quotient Q:{n} -> D:{n} is not a homomorphism")
        if [a for a in q.elements() if phi[a] == 0] != [0, n]:
            failures.append(f"quotient kernel for n={n}")

    # freeness laws on seeded random sequences
    for spec in ("D:6", "Q:4", "M:5,4,2", "CxC:2,8"):
        g = grp(spec)
        for _ in range(50):
            s = GSequence.from_indices(
                g, [rng.randrange(g.order) for _ in range(rng.randint(1, 6))])
            inverse = GSequence.from_indices(g, (g.inverse(a) for a in s))
            if is_product1_free(g, s) != is_product1_free(g, inverse):
                failures.append(f"{spec}: inverse-closure broken for {s.format(g)}")
            t = GSequence.from_indices(g, s.items + (rng.randrange(g.order),))
            if reachable_products(g, s).mask & ~reachable_products(g, t).mask:
                failures.append(f"{spec}: monotonicity broken for {s.format(g)}")
            if GSequence.from_text(g, s.format(g)) != s:
                failures.append(f"{spec}: text round trip broken for {s.format(g)}")

    # witness sanity on a small roster
    for spec in ("C:9", "D:6", "Q:3"):
        g = grp(spec)
        res = max_free_length(g)
        if not (res.complete and res.witness.length == res.max_free_length
                and is_product1_free(g, res.witness)):
            failures.append(f"{spec}: witness invalid")

    # cache round trip and CLI exit codes
    import tempfile

    from zerosum import cache
    from zerosum.cli import main
    with tempfile.TemporaryDirectory() as tmp:
        payload = {"group": "D:4", "davenport": 5, "max_free_length": 4,
                   "witness": "[y, y, y, x]", "nodes": 12, "millis": 0.5}
        cache.store(tmp, cache.make_record("davenport", "D:4", payload))
        if cache.lookup(tmp, "davenport", "D:4") != payload:
            failures.append("cache round trip")
        if main(["davenport", "--group", "Q:3", "--cache-dir", tmp]) != 0:
            failures.append("exit code: success")
        if main(["davenport", "--group", "X:1"]) != 2:
            failures.append("exit code: usage")
        if main(["davenport", "--group", "D:9", "--budget", "2",
                 "--cache-dir", tmp]) != 3:
            failures.append("exit code: budget")
        if main(["verify", "--target", "dicyclic", "--param", "n=3",
                 "--cache-dir", tmp]) != 0:
            failures.append("exit code: documented discrepancy")
    _finish(8, "property and invariant suites", failures,
            time.perf_counter() - t0, 120)
