"""Extremal enumeration vs. the predicted families, plus the auxiliary checks."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest

import zerosum.engine as engine
import zerosum.extremal as extremal
from zerosum import _pykernel
from zerosum.engine import STATE_LIMIT, BudgetExhaustedError, is_product1_free
from zerosum.extremal import (
    VERDICT_DISCREPANCY,
    VERDICT_EXACT,
    VERDICT_FAILURE,
    CharacterizationFamily,
    ExtremalEnumeration,
    VerificationReport,
    check_cyclic_structure,
    check_minimal_zero_sum_order,
    check_weighted_lemma,
    enumerate_extremal,
    family_cyclic,
    family_dicyclic,
    family_dihedral,
    family_metacyclic,
    minimal_zero_sequences,
    signed_zero_subset_exists,
    verify_theorem,
)
from zerosum.groups import CLOSURE_LIMIT, GroupError, orbit_closure
from zerosum.sequences import GSequence

from conftest import grp


def test_enumerate_extremal_cyclic():
    g = grp("C:5")
    enum = enumerate_extremal(g)
    assert enum.davenport == 5
    assert {s.items for s in enum.sequences} == {(t,) * 4 for t in range(1, 5)}


def test_enumerate_extremal_klein_and_d8():
    d4 = grp("D:2")
    enum = enumerate_extremal(d4)
    assert {s.items for s in enum.sequences} == {(1, 2), (1, 3), (2, 3)}
    d8 = grp("D:4")
    enum8 = enumerate_extremal(d8)
    # (y^t)^3 (x y^s) with t in {1, 3}, s in Z_4: phi(4) * 4 = 8 sequences
    assert len(enum8.sequences) == 8
    expected = {tuple(sorted((t,) * 3 + (4 + s,))) for t in (1, 3) for s in range(4)}
    assert {s.items for s in enum8.sequences} == expected


# The groups of the verify targets.  D:2 and Q:2 have finer roots than
# Aut(G)'s orbits; CxC:2,2,2,2 and CxC:3,3,3 have too many automorphisms to
# list, so their search walks every root instead of closing.
VERIFY_SPECS = ([f"D:{n}" for n in range(2, 11)]
                + [f"Q:{n}" for n in range(2, 7)]
                + ["M:3,2,2", "M:5,2,4", "M:5,4,2", "M:7,2,6", "M:7,3,2"])
CLOSURE_SPECS = VERIFY_SPECS + ["CxC:2,2,2,2", "CxC:3,3,3", "CxC:6,6",
                                "CxC:3,12", "C:12"]


@pytest.mark.parametrize("spec", CLOSURE_SPECS)
def test_closure_equals_every_root_enumeration(spec):
    """The extremal set, collected over the orbit roots and closed under the
    automorphisms or collected over every root, is exactly what the
    fixed-length enumeration of every root finds, in the same order.  The
    enumeration runs on the compiled kernel when there is one (the parity
    tests compare the lanes); CxC:6,6 and CxC:3,12 take millions of nodes."""
    g = grp(spec)
    enum = enumerate_extremal(g)
    kern = engine._compiled or _pykernel
    every = kern.search(engine._context(g, kern), "enum", enum.length, 0,
                        10 ** 9, STATE_LIMIT)
    assert every["complete"]
    assert [s.items for s in enum.sequences] == every["found"]


@pytest.mark.parametrize("spec", VERIFY_SPECS + ["CxC:2,2,2,2", "C:12"])
def test_extremal_set_is_free_and_closed_under_symmetries(spec):
    """The enumerated set decides freeness at length D(G) - 1 with no
    re-check, so each member must be free and of that length, and the set
    closed under S -> S^-1 and under every kept automorphism."""
    g = grp(spec)
    enum = enumerate_extremal(g)
    found = {s.items for s in enum.sequences}
    for s in enum.sequences:
        assert s.length == enum.davenport - 1 and is_product1_free(g, s)
    rows = np.array(sorted(found))
    for image in (np.asarray(g.inv_table)[rows],
                  *(np.asarray(m)[rows] for m in g.automorphism_maps)):
        assert {tuple(r) for r in np.sort(image, axis=1).tolist()} == found


def test_cyclic_group_beyond_closure_limit_keeps_its_orbit_roots():
    """C:257's automorphism group does not fit in CLOSURE_LIMIT, yet its
    search starts from its one orbit root and closes breadth first: 32,897
    nodes for the 256 multisets u^256 of the units u, where a search from
    every root takes 4,211,072."""
    g = grp("C:257")
    assert g.closure_maps is None and g.orbit_roots == (1,)
    enum = enumerate_extremal(g)
    assert [s.items for s in enum.sequences] == [(u,) * 256 for u in range(1, 257)]
    assert enum.nodes_expanded == 32_897


def test_closure_maps_are_one_flat_array():
    """The whole automorphism group, identity first, as one array('h') of
    whole maps, 2 bytes per image, when it fits in CLOSURE_LIMIT entries;
    None otherwise.  The maps are distinct and closed under composition."""
    assert grp("CxC:2,2,2,2").closure_maps is None
    for spec, size in (("D:10", 40), ("CxC:6,6", 288)):
        g = grp(spec)
        n, maps = g.order, g.closure_maps
        assert maps.typecode == "h" and maps.itemsize == 2, spec
        assert len(maps) == size * n <= CLOSURE_LIMIT, spec
        rows = [tuple(maps[k * n:(k + 1) * n]) for k in range(size)]
        assert rows[0] == tuple(g.elements()) and len(set(rows)) == size
        assert {tuple(f[a] for a in h) for f in rows for h in rows} == set(rows)


def test_orbit_closure_of_nothing_and_of_the_empty_multiset():
    g = grp("C:1")
    assert orbit_closure(g, []) == []
    assert orbit_closure(g, [(), ()]) == [()]
    assert [s.items for s in enumerate_extremal(g).sequences] == [()]


def test_extremal_budget_exhaustion_carries_the_best_length():
    """One pass, one message: the greedy floor 8 of D:8 is the best length
    found when every root stops after 5 nodes."""
    with pytest.raises(BudgetExhaustedError) as info:
        enumerate_extremal(grp("D:8"), budget=5)
    assert info.value.best_length == 8 and info.value.nodes > 0
    assert str(info.value) == (
        "node budget exhausted while enumerating the extremal sequences of "
        "D:8: D(D:8) unknown above length 8")


def test_family_counts():
    assert len(family_cyclic(2).sequences) == 1
    assert len(family_cyclic(4).sequences) == 2
    assert len(family_dihedral(5).sequences) == 20
    assert len(family_dihedral(2).sequences) == 3
    assert len(family_dihedral(3).sequences) == 7
    assert len(family_dicyclic(2).sequences) == 24
    assert len(family_metacyclic(5, 4, 2).sequences) == 280
    assert len(family_metacyclic(3, 2, 2).sequences) == 7


def test_dihedral3_resolved_t_range():
    fam = family_dihedral(3)
    # the published clause says t in {2, 3}, but y^3 = 1 in D_6; the engine
    # resolves the intended range to {1, 2}
    assert "t in [1, 2]" in fam.parameter_note
    doubles = {s.items[0] for s in fam.sequences if s.items[0] == s.items[1]}
    assert doubles == {1, 2}


@pytest.mark.parametrize("maker,args", [
    (family_cyclic, (6,)),
    (family_dihedral, (2,)), (family_dihedral, (3,)), (family_dihedral, (6,)),
    (family_dicyclic, (2,)), (family_dicyclic, (3,)),
    (family_metacyclic, (3, 2, 2)), (family_metacyclic, (5, 2, 4)),
])
def test_family_soundness(maker, args):
    # every emitted sequence is free and has length D(G) - 1
    fam = maker(*args)
    g = fam.group
    enum = enumerate_extremal(g)
    for s in fam.sequences:
        assert s.length == enum.length
        assert is_product1_free(g, s)
    assert len(set(fam.sequences)) == len(fam.sequences)


@pytest.mark.parametrize("spec", ["C:7", "D:2", "D:3", "D:5", "D:6", "Q:2",
                                  "M:3,2,2", "M:5,2,4"])
def test_verify_theorem_exact(spec):
    rep = verify_theorem(grp(spec))
    assert rep.verdict == VERDICT_EXACT
    assert rep.missing == () and rep.extra == ()
    assert rep.enumerated_count == rep.predicted_count


def test_verify_theorem_dicyclic_inverse_parameter_extras():
    for n in (3, 4):
        g = grp(f"Q:{n}")
        rep = verify_theorem(g)
        assert rep.verdict == VERDICT_DISCREPANCY
        assert rep.missing == ()
        h = 2 * n
        mirrored = {
            GSequence(g.key, tuple(sorted((h - t,) * (h - 1) + (h + s,)))).format(g)
            for t in range(1, n) if math.gcd(t, h) == 1
            for s in range(h)
        }
        assert set(rep.extra) == mirrored


def test_characterization_family_is_a_named_tuple():
    assert CharacterizationFamily._fields == (
        "name", "group", "sequences", "parameter_note")
    assert CharacterizationFamily._field_defaults == {}
    fam = family_cyclic(5)
    g = grp("C:5")
    assert fam == CharacterizationFamily(
        name="cyclic", group=g,
        sequences=tuple(GSequence("C:5", (t,) * 4) for t in range(1, 5)),
        parameter_note="(g)^4 with gcd(g, 5) = 1")
    assert fam._replace(sequences=()) == ("cyclic", g, (), fam.parameter_note)
    with pytest.raises(AttributeError):
        fam.name = "dihedral"


def test_verification_report_is_a_named_tuple():
    assert VerificationReport._fields == (
        "target", "group", "enumerated_count", "predicted_count", "missing",
        "extra", "verdict", "details", "nodes", "millis")
    assert VerificationReport._field_defaults == {"nodes": 0, "millis": 0.0}
    rep = VerificationReport(target="t", group="C:2", enumerated_count=1,
                             predicted_count=1, missing=(), extra=(),
                             verdict=VERDICT_EXACT, details={})
    assert (rep.nodes, rep.millis) == (0, 0.0)
    assert rep == ("t", "C:2", 1, 1, (), (), VERDICT_EXACT, {}, 0, 0.0)
    moved = rep._replace(nodes=7, extra=("[y]",), verdict=VERDICT_DISCREPANCY)
    assert moved.to_payload() == {
        "target": "t", "group": "C:2", "enumerated_count": 1,
        "predicted_count": 1, "missing": [], "extra": ["[y]"],
        "verdict": VERDICT_DISCREPANCY, "details": {}, "nodes": 7,
        "millis": 0.0}
    assert moved._asdict()["extra"] == ("[y]",)


def test_extremal_enumeration_is_a_named_tuple():
    assert ExtremalEnumeration._fields == (
        "group_key", "davenport", "length", "sequences", "nodes_expanded",
        "elapsed")
    assert ExtremalEnumeration._field_defaults == {}
    enum = enumerate_extremal(grp("C:3"))
    assert enum[:4] == ("C:3", 3, 2, (GSequence("C:3", (1, 1)),
                                       GSequence("C:3", (2, 2))))
    assert ExtremalEnumeration(**enum._asdict()) == enum
    assert enum._replace(elapsed=0.0).elapsed == 0.0
    with pytest.raises(AttributeError):
        enum.length = 3


def test_verify_theorem_raises_when_the_enumeration_misses_a_prediction(
        monkeypatch):
    real = extremal.enumerate_extremal

    def short(group, **kwargs):
        enum = real(group, **kwargs)
        return enum._replace(sequences=enum.sequences[1:])

    monkeypatch.setattr(extremal, "enumerate_extremal", short)
    with pytest.raises(RuntimeError,
                       match="enumeration missed predicted free sequences"):
        verify_theorem(grp("D:5"))


def test_verify_theorem_reports_wrong_predictions(monkeypatch):
    """A prediction of the right length that is not free (y^5 = 1 in D_10)
    and a free one of the wrong length are both missing and not free."""
    g = grp("D:5")
    not_free = GSequence(g.key, (1,) * 5)
    too_short = GSequence(g.key, (1,) * 4)
    real = extremal.family_for

    def padded(group):
        fam = real(group)
        return fam._replace(sequences=tuple(
            sorted(fam.sequences + (not_free, too_short))))

    monkeypatch.setattr(extremal, "family_for", padded)
    rep = verify_theorem(g)
    assert rep.verdict == VERDICT_FAILURE
    expected = [too_short.format(g), not_free.format(g)]
    assert list(rep.missing) == rep.details["predicted_not_free"] == expected


def test_verify_theorem_rechecks_only_the_witness(monkeypatch):
    calls = []
    real = engine._run_reachable

    def spy(group, seq, until_mask):
        calls.append(seq)
        return real(group, seq, until_mask)

    monkeypatch.setattr(engine, "_run_reachable", spy)
    enum = enumerate_extremal(grp("M:7,3,2"))
    calls.clear()
    rep = verify_theorem(grp("M:7,3,2"))
    assert rep.verdict == VERDICT_EXACT
    assert calls == [enum.sequences[0]]


def test_verify_theorem_unsupported_group():
    with pytest.raises(GroupError, match="family"):
        verify_theorem(grp("CxC:2,4"))


def test_q8_extremal_in_quaternion_names():
    # in quaternion notation the 24 extremal multisets are exactly
    # (w, w, w, v) with w, v in {+-i, +-j, +-k} on different axes
    from zerosum.groups import quaternion_names
    g = grp("Q:2")
    names = quaternion_names(g)
    enum = enumerate_extremal(g)
    got = {tuple(sorted(names[a] for a in s.items)) for s in enum.sequences}
    units = ["i", "-i", "j", "-j", "k", "-k"]
    expected = set()
    for w in units:
        for v in units:
            if w.lstrip("-") != v.lstrip("-"):
                expected.add(tuple(sorted([w, w, w, v])))
    assert got == expected
    assert len(expected) == 24


def test_weighted_lemma():
    rep = check_weighted_lemma(8)
    assert rep.verdict == VERDICT_EXACT
    assert rep.details["s"] == 4
    assert rep.details["tightness_counterexample"] == "(1, 2, 4)"
    assert not signed_zero_subset_exists(8, (1, 2, 4))
    assert signed_zero_subset_exists(8, (1, 2, 4, 8))
    assert signed_zero_subset_exists(2, (1, 1))
    # n = 2: any pair already pairs up by parity
    rep2 = check_weighted_lemma(2)
    assert rep2.verdict == VERDICT_EXACT and rep2.details["s"] == 2


def test_cyclic_structure_n7_clause3_shapes():
    rep = check_cyclic_structure(7)
    assert rep.verdict == VERDICT_EXACT
    assert rep.details["shape_lengths_checked"] == [4, 5, 6]
    # all four published length-(n-3) shapes occur, and nothing else
    import zerosum.engine as engine
    g = grp("C:7")
    enum4 = {GSequence(g.key, items)
             for items in engine.enumerate_free(g, 4, budget=10 ** 6)["found"]}
    shapes = set()
    for ggen in range(1, 7):
        for shape in [(ggen,) * 4, (ggen,) * 3 + (2 * ggen % 7,),
                      (ggen,) * 3 + (3 * ggen % 7,),
                      (ggen,) * 2 + (2 * ggen % 7,) * 2]:
            s = GSequence(g.key, tuple(sorted(shape)))
            if is_product1_free(g, s):
                shapes.add(s)
    assert enum4 == shapes


def test_cyclic_structure_n10_top_lengths():
    rep = check_cyclic_structure(10)
    assert rep.verdict == VERDICT_EXACT
    import zerosum.engine as engine
    g = grp("C:10")
    # length n-1: only (g)^9 for generators g
    enum9 = {GSequence(g.key, items)
             for items in engine.enumerate_free(g, 9, budget=10 ** 6)["found"]}
    assert enum9 == {GSequence(g.key, (t,) * 9) for t in (1, 3, 7, 9)}
    # length n-2: (g)^8 or (g)^7 (g^2)
    enum8 = {GSequence(g.key, items)
             for items in engine.enumerate_free(g, 8, budget=10 ** 6)["found"]}
    for s in enum8:
        cnt = Counter(s.items)
        top, mult = cnt.most_common(1)[0]
        assert mult >= 7
        if mult == 7:
            (other,) = [e for e in cnt if e != top]
            assert other == 2 * top % 10


def test_minimal_zero_sequences_examples():
    g = grp("CxC:2,2")
    _, minimal = minimal_zero_sequences(g)
    assert [s.items for s in minimal] == [(1, 2, 3)]
    rep = check_minimal_zero_sum_order(g)
    assert rep.verdict == VERDICT_EXACT
    assert rep.details["minimal_zero_count"] == 1

    c6 = grp("C:6")
    rep6 = check_minimal_zero_sum_order(c6)
    assert rep6.verdict == VERDICT_EXACT
    assert rep6.details["exponent"] == 6

    c33 = grp("CxC:3,3")
    rep33 = check_minimal_zero_sum_order(c33)
    assert rep33.verdict == VERDICT_EXACT
    assert rep33.details["davenport"] == 5

    c24 = grp("CxC:2,4")
    assert check_minimal_zero_sum_order(c24).verdict == VERDICT_EXACT


def _minimal_zero_brute_force(group, enum):
    """Every element as the completion of every extremal base, the product
    checked, and each one-element removal re-checked by reachability."""
    out = set()
    for base in enum.sequences:
        for e in range(1, group.order):
            items = tuple(sorted(base.items + (e,)))
            prod = group.identity
            for a in items:
                prod = group.mul(prod, a)
            if prod == group.identity and all(
                    is_product1_free(group, GSequence(group.key, items[:i] + items[i + 1:]))
                    for i in range(len(items))):
                out.add(GSequence(group.key, items))
    return sorted(out)


@pytest.mark.parametrize("spec", ["C:6", "CxC:2,2", "CxC:3,3", "CxC:2,4",
                                  "CxC:2,2,2"])
def test_minimal_zero_sequences_match_brute_force(spec):
    g = grp(spec)
    enum, minimal = minimal_zero_sequences(g)
    assert minimal == _minimal_zero_brute_force(g, enum)


def test_minimal_zero_scope_errors():
    with pytest.raises(GroupError):
        check_minimal_zero_sum_order(grp("D:3"))
    with pytest.raises(GroupError):
        check_minimal_zero_sum_order(grp("CxC:2,3,5"))  # rank 3, mixed primes


def test_report_payload_shape():
    rep = verify_theorem(grp("D:4"))
    payload = rep.to_payload()
    assert set(payload) == {"target", "group", "enumerated_count",
                            "predicted_count", "missing", "extra", "verdict",
                            "details", "nodes", "millis"}
