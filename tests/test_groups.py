"""Group construction, arithmetic laws and the Q_4n -> D_2n quotient."""

from __future__ import annotations

import math
import pickle
import random
import tracemalloc
import types
from array import array

import numpy as np
import pytest

from zerosum.davenport import known_constant_roster
import zerosum.engine as engine
import zerosum.groups as groups
from zerosum.engine import STATE_LIMIT
from zerosum.groups import (
    Group,
    GroupError,
    GroupSpec,
    _basis,
    _candidate_maps,
    _fill,
    _inverses_and_orders,
    automorphisms,
    build_group,
    orbit_closure,
    orbit_minima,
    parse_group_spec,
    quaternion_names,
)

from conftest import grp


def _center(g) -> list[int]:
    """Elements whose row and column of the table agree."""
    t = np.asarray(g.table)
    return [a for a in g.elements() if np.array_equal(t[a], t[:, a])]


def test_basic_orders_and_exponents():
    d6 = grp("D:3")
    assert d6.order == 6
    assert d6.exponent == 6
    assert sorted(set(d6.element_orders)) == [1, 2, 3]

    q8 = grp("Q:2")
    assert q8.order == 8
    assert _center(q8) == [0, 2]  # {1, y^2}

    triv = grp("C:1")
    assert triv.order == 1 and triv.exponent == 1
    assert triv.names == ("1",)

    assert grp("D:6").exponent == 6        # order-12 dihedral
    assert grp("CxC:4,2").exponent == 4
    assert grp("CxC:2,4").order == 8


def test_identity_is_index_zero_everywhere():
    for spec in ["C:7", "D:5", "Q:3", "M:5,2,4", "CxC:2,3,4"]:
        g = grp(spec)
        assert g.names[0] == "1"
        for a in g.elements():
            assert g.mul(0, a) == a == g.mul(a, 0)


@pytest.mark.parametrize("n", range(2, 17))
def test_dihedral_reflection_product_law(n):
    # x y^a * x y^b = y^(b - a)
    g = build_group(f"D:{n}")
    for a in range(n):
        for b in range(n):
            assert g.mul(n + a, n + b) == (b - a) % n


@pytest.mark.parametrize("n", range(2, 9))
def test_dicyclic_reflection_product_law(n):
    # x y^a * x y^b = y^(b - a + n)
    g = build_group(f"Q:{n}")
    h = 2 * n
    for a in range(h):
        for b in range(h):
            assert g.mul(h + a, h + b) == (b - a + n) % h


def test_product_examples():
    d8 = grp("D:4")
    assert d8.mul(d8.element_from_word("x*y"), d8.element_from_word("x*y^3")) \
        == d8.element_from_word("y^2")
    q8 = grp("Q:2")
    xy = q8.element_from_word("x*y")
    assert q8.mul(xy, xy) == q8.element_from_word("y^2")


def test_inverses():
    d6 = grp("D:3")
    assert d6.inverse(d6.element_from_word("y")) == d6.element_from_word("y^2")
    q8 = grp("Q:2")
    # exhaustive scan of the verified table is the ground truth
    for a in q8.elements():
        twosided = [b for b in q8.elements()
                    if q8.mul(a, b) == 0 and q8.mul(b, a) == 0]
        assert twosided == [q8.inverse(a)]
    assert q8.inverse(q8.element_from_word("x")) == q8.element_from_word("x*y^2")
    for spec in ["C:9", "D:7", "M:7,3,2"]:
        g = grp(spec)
        assert g.inverse(0) == 0


def test_element_orders():
    q8 = grp("Q:2")
    assert q8.element_orders[q8.element_from_word("x")] == 4
    for n in (3, 8, 12):
        g = build_group(f"C:{n}")
        assert g.element_orders[1] == n
        assert g.element_orders[0] == 1


@pytest.mark.parametrize("spec", ["D:5", "Q:3", "M:5,2,4", "CxC:2,3"])
def test_associativity_independent_check(spec):
    t = np.asarray(grp(spec).table)
    assert np.array_equal(t[t, :], t[:, t])


def _swapped_cyclic_table(n: int, cols) -> np.ndarray:
    """The table of C_n with the intercalate at rows 5 and 5 + n/2 swapped in
    each of ``cols`` and its partner column c + n/2.  Every row and column
    stays a permutation, index 0 stays the identity and column 1 (the
    generator's, which the generation check walks) is untouched, so the
    result is a loop that is not a group."""
    h = n // 2
    t = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.int16)
    for c in cols:
        for r in (5, 5 + h):
            t[r, c], t[r, c + h] = t[r, c + h], t[r, c]
    return t


def _fake_group(spec: str, table: np.ndarray):
    spec = parse_group_spec(spec)
    return types.SimpleNamespace(spec=spec, order=spec.order, table=table)


def test_verify_rejects_non_associative_loop():
    """A Latin square with identity (a loop) that is not a group fails
    Light's test on the generator of C:128."""
    t = _swapped_cyclic_table(128, [7])
    assert not np.array_equal(t[t, :], t[:, t])
    with pytest.raises(GroupError, match="associativity"):
        Group._verify(_fake_group("C:128", t))


def test_verify_rejects_a_row_or_column_that_is_not_a_permutation():
    """Swapping two entries of one row keeps that row a permutation but
    breaks two columns; the transpose breaks two rows instead."""
    n = 8
    t = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.int16)
    t[3, 5], t[3, 6] = t[3, 6], t[3, 5]
    for table in (t, np.ascontiguousarray(t.T)):
        with pytest.raises(GroupError, match="associativity"):
            Group._verify(_fake_group("C:8", table))


def test_group_build_peak_stays_near_the_table():
    """The table is written into one int16 array in place, and Light's
    test, the direct-product check and the inverses read it a row or a
    column at a time, never as n * n Python ints or a second copy; up to
    the table limit."""
    for spec in ("C:1024", "C:4096", "CxC:64,64"):
        tracemalloc.start()
        try:
            g = build_group(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * g.table.nbytes, (spec, peak, g.table.nbytes)


def test_exact_check_rejects_non_associative_loop_at_order_300():
    """Above order 256, where only a sample of triples was once checked,
    the check is exact and catches a loop that is not a group."""
    t = _swapped_cyclic_table(300, range(7, 11))
    assert t[t[5, 7], 100] != t[5, t[7, 100]]
    with pytest.raises(GroupError, match="associativity"):
        Group._verify(_fake_group("C:300", t))


def test_exact_check_rejects_one_intercalate_swap_at_order_1024():
    """One intercalate swap (two rows, two columns) of the C:1024 table
    breaks 16,336 of its 1.07e9 triples.  A sample of 10^5 random triples
    misses them all with probability 0.22 (the one seeded with 1729 does);
    Light's test, in blocks of rows, finds them."""
    t = _swapped_cyclic_table(1024, [7])
    assert t[t[5, 7], 100] != t[5, t[7, 100]]
    with pytest.raises(GroupError, match="associativity"):
        Group._verify(_fake_group("C:1024", t))


def _twisted_loop(h: int, twist: str) -> np.ndarray:
    """A loop on the indices i*h + j (i < 2, j < h) of D:h, generated by
    x = h and y = 1 as D:h's normal form is, in which Light's test passes
    for one generator and fails for the other.

    ``"x"``: D's product with x^2 = y, not x^2 = 1; every power of y
    associates in the middle, x does not when h > 2.
    ``"y"``: (i1, j1)(i2, j2) = (i1 + i2 + [j1 = j2 = 1], j1 + j2); x
    associates in the middle, y does not when h >= 4.
    """
    i1, j1 = np.divmod(np.arange(2 * h)[:, None], h)
    i2, j2 = np.divmod(np.arange(2 * h)[None, :], h)
    if twist == "x":
        carry, i = np.divmod(i1 + i2, 2)
        j = j1 * (-1) ** i2 + j2 + carry
    else:
        i, j = i1 + i2 + ((j1 == 1) & (j2 == 1)), j1 + j2
    return (i % 2 * h + j % h).astype(np.int16)


@pytest.mark.parametrize("spec, twist, failing", [("D:5", "x", 5), ("D:4", "y", 1)])
def test_light_test_checks_every_generator(spec, twist, failing):
    """Each table fails Light's test for one of D's two generators only, so
    a check that skipped that generator would accept a loop."""
    t = _twisted_loop(parse_group_spec(spec).params[0], twist)
    for s, _ in _basis(parse_group_spec(spec)):
        assert np.array_equal(t[t[:, s]], t[:, t[s]]) == (s != failing)
    with pytest.raises(GroupError, match="associativity"):
        Group._verify(_fake_group(spec, t))


def test_verify_rejects_a_generator_row_out_of_range():
    """An entry past the last index in the generator's row of C:4 is caught
    before the walk along that generator's column reads it."""
    t = np.array(grp("C:4").table)
    t[1, 2] = 7
    with pytest.raises(GroupError, match="the table left the index range"):
        Group._verify(_fake_group("C:4", t))


def test_verify_rejects_a_basis_that_does_not_generate():
    """C:4's generator, index 1, has order 2 in the table of CxC:2,2, so it
    does not generate that table, which is a group."""
    with pytest.raises(GroupError, match="do not generate"):
        Group._verify(_fake_group("C:4", grp("CxC:2,2").table))


@pytest.mark.parametrize("spec, wrong", [("CxC:4,4", "C:16"), ("CxC:2,2,2", "C:8"),
                                         ("CxC:2,2,2", "Q:2"),
                                         ("CxC:2,2,2,2", "CxC:2,2,4")])
def test_product_check_rejects_the_table_of_another_group(spec, wrong):
    """Each wrong table is a group whose table the basis generators of spec
    generate, so only the direct-product check can tell the two apart.  For
    CxC:2,2,2 it fails inside the high factor CxC:2,2; CxC:2,2,4 is the
    product of CxC:2,2 with C:4, which fails as the low factor CxC:2,2."""
    with pytest.raises(GroupError, match="direct product"):
        Group._verify(_fake_group(spec, np.asarray(grp(wrong).table)))


def _addition_table(ns) -> np.ndarray:
    """The table of C_ns[0] x C_ns[1] x ..., mixed radix with the first
    factor most significant, by digitwise addition."""
    n = math.prod(ns)
    table = np.zeros((n, n), dtype=np.int16)
    for n_i, digit in zip(ns, np.unravel_index(np.arange(n), ns)):
        digit = digit.astype(np.int16)
        table *= n_i
        table += (digit[:, None] + digit[None, :]) % n_i
    return table


@pytest.mark.parametrize("spec", ["CxC:32,32", "CxC:2,2,2,2,2,2", "CxC:3,4,5",
                                  "CxC:64,64"])
def test_fill_is_the_addition_table(spec):
    """The table written a row at a time, cyclic high factor (slices of a
    doubled row) or not (gathers), is digitwise addition."""
    spec = parse_group_spec(spec)
    n = spec.order
    got = np.frombuffer(_fill(spec), dtype=np.int16).reshape(n, n)
    assert np.array_equal(got, _addition_table(spec.params))


@pytest.mark.parametrize("spec, row, cols", [
    ("CxC:32,32", 37, (67, 69)), ("CxC:2,2,2,2,2,2", 29, (19, 21)),
    ("CxC:64,2", 37, (10, 11)), ("CxC:2048,2", 37, (10, 11))])
def test_product_check_rejects_a_swap_past_the_first_block(spec, row, cols):
    """Two entries swapped inside block 2 (block 5 on CxC:n,2) of one row,
    away from the generators' columns and the factor tables the check reads
    off: only the every-block check sees it.  The high factor is C:32
    (blocks of 32) in CxC:32,32 and C:n (blocks of 2) in CxC:n,2, the table
    of C_n by construction, not read off the table, and CxC:2,2,2 (blocks
    of 8) in CxC:2,2,2,2,2,2, whose row 3 is not a rotation."""
    t = np.array(grp(spec).table)
    c1, c2 = cols
    t[row, c1], t[row, c2] = t[row, c2], t[row, c1]
    with pytest.raises(GroupError, match="direct product"):
        Group._verify(_fake_group(spec, t))


@pytest.mark.parametrize("col", [3, 11])
def test_product_check_rejects_a_loop(col):
    """One intercalate swap at rows 5, 37 and columns col, col + 32 of
    CxC:8,8 keeps the identity and the generators' rows and columns.  At
    column 3 it breaks the first block of row 5, at column 11 only blocks
    that the first blocks of other rows must match."""
    t = np.array(grp("CxC:8,8").table)
    for r in (5, 37):
        t[r, col], t[r, col + 32] = t[r, col + 32], t[r, col]
    with pytest.raises(GroupError, match="direct product"):
        Group._verify(_fake_group("CxC:8,8", t))


def test_an_element_without_inverse_is_refused():
    """{1, y} with y*y = y is associative, has the identity 1 and is
    generated by y, so only the inverses refuse it."""
    t = np.array([[0, 1], [1, 1]], dtype=np.int16)
    monoid = object.__new__(Group)
    monoid.spec, monoid.order, monoid.table = parse_group_spec("C:2"), 2, t
    monoid._verify()
    with pytest.raises(GroupError, match="y has no two-sided inverse"):
        _inverses_and_orders(array("h", t.tobytes()), 2, ("1", "y"))


def test_product_check_verifies_its_factors(monkeypatch):
    """CxC:2,8,2 is cut into the high factor CxC:2,8, read off the table,
    and C:2.  The direct product of a loop of order 16 (the table of
    CxC:2,8 with one intercalate swap, the generators' columns 1 and 8
    kept) with C:2 is exactly the product table of its factors, so only the
    check of the factor itself fails: with that check switched off, the
    table passes."""
    loop = _addition_table((2, 8)).astype(np.int64)
    for r in (2, 6):
        loop[r, 3], loop[r, 7] = loop[r, 7], loop[r, 3]
    assert not np.array_equal(loop[loop, :], loop[:, loop])
    j = np.arange(2)
    t = loop[:, None, :, None] * 2 + (j[:, None] + j[None, :])[None, :, None, :] % 2
    table = t.reshape(32, 32).astype(np.int16)
    with pytest.raises(GroupError, match="direct product"):
        Group._verify(_fake_group("CxC:2,8,2", table))
    monkeypatch.setattr(groups, "_check_factor", lambda table, ns: None)
    groups._check_product(*groups._views(table), [2, 8, 2])


@pytest.mark.parametrize("spec, wrong", [("D:4", "Q:2"), ("Q:2", "D:4"),
                                         ("M:5,4,2", "C:20")])
def test_relations_reject_table_of_another_group(spec, wrong):
    # The wrong table is a verified group of the same order and index range,
    # so only the defining relations can tell the two apart.
    fake = object.__new__(Group)
    fake.spec, fake.table = parse_group_spec(spec), grp(wrong).table
    with pytest.raises(GroupError, match="relation"):
        fake._verify_relations()
    fake.table = grp(spec).table
    fake._verify_relations()


@pytest.mark.parametrize("spec", ["C:300", "D:150", "Q:75", "M:31,5,2", "M:3,2,2",
                                  "CxC:16,16", "CxC:2,3,4"])
def test_inverses_and_orders_match_brute_force(spec):
    g = build_group(spec)
    for a in g.elements():
        assert [b for b in g.elements() if g.mul(a, b) == 0 == g.mul(b, a)] \
            == [g.inverse(a)]
        k, acc = 1, a
        while acc != 0:
            acc, k = g.mul(acc, a), k + 1
        assert g.element_orders[a] == k
    assert g.exponent == math.lcm(*g.element_orders)


@pytest.mark.parametrize("spec, names", [
    ("D:4", {0: "1", 3: "y^3", 4: "x", 7: "x*y^3"}),
    ("Q:3", {1: "y", 5: "y^5", 6: "x", 11: "x*y^5"}),
    ("M:5,4,2", {4: "y^4", 5: "x", 10: "x^2", 13: "x^2*y^3", 19: "x^3*y^4"}),
    ("C:1", {0: "1"}),
    ("CxC:3,1,4", {1: "c", 3: "c^3", 4: "a", 11: "a^2*c^3"}),
])
def test_element_names_pinned(spec, names):
    g = grp(spec)
    for a, name in names.items():
        assert g.names[a] == name
        assert g.element_from_word(name) == a


def closed_form_product(spec: GroupSpec):
    """The product of two indices by exponent arithmetic, a reference that
    does not read the table.  D, Q and M are <x, y | y^h = 1, x^m = y^k,
    yx = xy^s>, where x^i1 y^j1 * x^i2 y^j2 = x^(i1+i2) y^(j1 s^i2 + j2);
    C and CxC add componentwise in mixed radix."""
    kind, p = spec.kind, spec.params
    if kind in ("D", "Q", "M"):
        n = p[0]
        h, m, k, s = ((n, 2, 0, n - 1) if kind == "D" else
                      (2 * n, 2, n, 2 * n - 1) if kind == "Q" else
                      (n, p[1], 0, p[2] % n))

        def mul(a, b):
            i1, j1 = divmod(a, h)
            i2, j2 = divmod(b, h)
            carry, i = divmod(i1 + i2, m)
            return i * h + (j1 * pow(s, i2, h) + j2 + k * carry) % h
        return mul
    strides = [math.prod(p[i + 1:]) for i in range(len(p))]
    return lambda a, b: sum((a // st + b // st) % n_i * st for st, n_i in zip(strides, p))


@pytest.mark.parametrize("spec", ["C:10", "D:6", "Q:4", "M:5,4,2", "CxC:2,2,3"])
def test_closed_form_matches_table(spec):
    g = grp(spec)
    mul = closed_form_product(g.spec)
    for a in g.elements():
        for b in g.elements():
            assert mul(a, b) == g.mul(a, b)


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_map_is_verified_homomorphism(n):
    """x -> x, y -> y maps Q_4n onto D_2n, as a // 2n * n + a % n on
    indices, with kernel {1, y^n}."""
    q, d = grp(f"Q:{n}"), grp(f"D:{n}")
    phi = [a // (2 * n) * n + a % n for a in q.elements()]
    for a in q.elements():
        for b in q.elements():
            assert phi[q.mul(a, b)] == d.mul(phi[a], phi[b])
    assert set(phi) == set(d.elements())
    assert [a for a in q.elements() if phi[a] == 0] == [0, n]   # {1, y^n}
    for j in range(n):
        assert phi[q.element_from_word(f"y^{j + n}")] == d.element_from_word(f"y^{j}")
        assert phi[q.element_from_word(f"x*y^{j + n}")] == d.element_from_word(f"x*y^{j}")


@pytest.mark.parametrize("n", range(2, 9))
def test_dicyclic_center(n):
    g = build_group(f"Q:{n}")
    assert _center(g) == [0, n]  # {1, y^n}


def test_quaternion_names():
    q8 = grp("Q:2")
    names = quaternion_names(q8)
    by_name = {v: k for k, v in names.items()}
    assert names[0] == "e"
    assert names[q8.element_from_word("y^2")] == "-e"
    assert names[q8.element_from_word("x")] == "i"
    assert names[q8.element_from_word("y")] == "j"
    # orientation: i * j = k
    assert names[q8.mul(by_name["i"], by_name["j"])] == "k"
    # i^2 = j^2 = k^2 = -e
    for u in ("i", "j", "k"):
        assert names[q8.mul(by_name[u], by_name[u])] == "-e"
    assert sorted(names.values()) == sorted(
        ["e", "-e", "i", "-i", "j", "-j", "k", "-k"])
    with pytest.raises(GroupError):
        quaternion_names(grp("Q:3"))


def test_dihedral_2_is_klein_four():
    # D_4 ~ C2 x C2: the toolkit still builds it as a genuine dihedral group
    # and checks the isomorphism as an assertion.
    d4 = grp("D:2")
    assert d4.is_abelian
    assert d4.exponent == 2
    assert sorted(d4.element_orders) == [1, 2, 2, 2]


def test_metacyclic_validation():
    with pytest.raises(GroupError, match=r"ord_q\(s\) = m"):
        build_group("M:5,2,2")  # ord_5(2) = 4, not 2
    with pytest.raises(GroupError, match="prime"):
        build_group("M:4,2,3")
    g = grp("M:5,4,2")
    assert g.order == 20
    # yx = xy^s
    x, y = g.element_from_word("x"), g.element_from_word("y")
    assert g.mul(y, x) == g.mul(x, g.power(y, 2))
    # s counts modulo q, also in the relation check
    assert np.array_equal(build_group("M:5,4,1000000002").table, g.table)


def test_spec_grammar_errors_cite_token():
    with pytest.raises(GroupError, match="'X'"):
        parse_group_spec("X:5")
    with pytest.raises(GroupError, match="'abc'"):
        parse_group_spec("C:abc")
    with pytest.raises(GroupError, match="missing ':'"):
        parse_group_spec("C5")
    with pytest.raises(GroupError):
        parse_group_spec("D:1")  # dihedral needs n >= 2
    with pytest.raises(GroupError):
        parse_group_spec("Q:-3")
    with pytest.raises(GroupError, match="too many cyclic factors"):
        parse_group_spec("CxC:" + ",".join(["1"] * 27))
    assert str(parse_group_spec(" CxC:2,4 ")) == "CxC:2,4"


def test_element_word_errors_cite_token():
    g = grp("D:4")
    with pytest.raises(GroupError, match="'z'"):
        g.element_from_word("z^3")
    with pytest.raises(GroupError, match="exponent"):
        g.element_from_word("y^two")
    assert g.element_from_word("y^-1") == g.inverse(g.element_from_word("y"))
    assert g.element_from_word(" x * y^2 ") == g.element_from_word("x*y^2")
    # The trivial group keeps its word y; factors of 1 have no letter.
    assert grp("C:1").generators == {"y": 0}
    assert grp("C:1").element_from_word("y^3") == 0
    for spec in ("CxC:1", "CxC:3,1,4"):
        with pytest.raises(GroupError, match="unknown generator 'b'"):
            grp(spec).element_from_word("b")


@pytest.mark.parametrize("text, token", [
    ("C:--5", "--5"), ("C:\u00b2", "\u00b2"), ("D:5-", "5-"), ("CxC:2,-", "-"),
    ("C:5.0", "5.0"), ("M:5,4,2e0", "2e0"), ("C:", "")])
def test_spec_integers_int_refuses_are_group_errors(text, token):
    """Each token is refused by ``int``; the spec gets a GroupError that
    cites it, not the ``int`` ValueError."""
    with pytest.raises(GroupError) as info:
        parse_group_spec(text)
    assert str(info.value) == f"invalid integer {token!r} in group spec {text!r}"


@pytest.mark.parametrize("word, exp", [
    ("y^--2", "--2"), ("y^\u00b2", "\u00b2"), ("x*y^-+1", "-+1"), ("y^2.0", "2.0"),
    ("y^1e3", "1e3")])
def test_exponents_int_refuses_are_group_errors(word, exp):
    with pytest.raises(GroupError) as info:
        grp("D:5").element_from_word(word)
    assert str(info.value) == f"invalid exponent {exp!r} in word {word!r}"


def test_group_spec_is_an_immutable_value():
    a, b = GroupSpec("D", (5,)), parse_group_spec("D:5")
    assert a == b and hash(a) == hash(b) and a is not b
    assert GroupSpec(kind="D", params=(5,)) == a
    assert a != GroupSpec("Q", (5,)) and a != GroupSpec("D", (6,))
    assert a != ("D", (5,)) and a != "D:5"
    assert len({a, b, GroupSpec("D", (6,))}) == 2
    assert repr(a) == "GroupSpec(kind='D', params=(5,))"
    with pytest.raises(AttributeError):
        a.kind = "Q"
    with pytest.raises(AttributeError):
        del a.params
    with pytest.raises(AttributeError):
        a.extra = 1
    assert pickle.loads(pickle.dumps(a)) == a
    # The validation runs on construction.
    with pytest.raises(GroupError, match="dihedral groups require n >= 2"):
        GroupSpec("D", (1,))


def multiply_out(g, word):
    """A word's element by exponent arithmetic alone."""
    acc = g.identity
    for token in word.replace(" ", "").split("*"):
        gen, _, exp = token.partition("^")
        acc = g.mul(acc, g.power(g.generators[gen], int(exp or 1)))
    return acc


@pytest.mark.parametrize("spec", ["C:1", "C:9", "D:4", "Q:3", "M:5,4,2",
                                  "CxC:2,1,3"])
def test_canonical_words_resolve_to_their_index(spec):
    g = grp(spec)
    for a, name in enumerate(g.names):
        assert g.element_from_word(name) == a
        if name != "1":
            assert multiply_out(g, name) == a


@pytest.mark.parametrize("spec, word", [
    ("D:4", "y^-1"), ("D:4", "y*y"), ("D:4", " x * y ^ 2 "), ("D:4", "y^4"),
    ("D:4", "y^3*x"), ("Q:3", "x^3"), ("Q:3", "x^-1*y^7"), ("C:9", "y^0"),
    ("M:5,4,2", "y*x^2"), ("CxC:2,1,3", "c^-1*a^3")])
def test_noncanonical_words_multiply_out(spec, word):
    g = grp(spec)
    assert g.element_from_word(word) == multiply_out(g, word)


@pytest.mark.parametrize("word, message", [
    ("z^3", "unknown generator 'z' in word 'z^3'"),
    ("x*z", "unknown generator 'z' in word 'x*z'"),
    ("y^two", "invalid exponent 'two' in word 'y^two'"),
    ("y^", "invalid exponent '' in word 'y^'"),
    ("y**x", "unknown generator '' in word 'y**x'"),
    (" ", "empty element word"),
    ("", "empty element word"),
])
def test_element_word_errors_unchanged(word, message):
    with pytest.raises(GroupError) as info:
        grp("Q:3").element_from_word(word)
    assert str(info.value) == message


def test_group_spec_roundtrip_and_order():
    for text, order in [("C:12", 12), ("D:7", 14), ("Q:4", 16),
                        ("M:7,3,2", 21), ("CxC:2,3,4", 24)]:
        spec = parse_group_spec(text)
        assert str(spec) == text
        assert spec.order == order
        assert build_group(spec).order == order


def test_table_limit():
    with pytest.raises(GroupError, match="table limit"):
        build_group("C:5000")


def test_group_above_order_256_verifies_exactly():
    # order 300, above the order where only sampled triples were once
    # checked: the exact check accepts the group
    g = build_group("C:300")
    assert g.order == 300
    assert g.mul(299, 1) == 0


# ---------------------------------------------------------------------------
# Automorphisms and orbit-minimal roots
# ---------------------------------------------------------------------------

ROSTER = [spec for spec, _, _ in known_constant_roster()]
# The candidate maps miss automorphisms of these two groups only, such as
# the swap of x and y, so their roots are finer than Aut(G)'s orbits.
FINER_ROOTS = {"D:2", "Q:2"}
BRUTE_FORCE_LIMIT = 10 ** 5


def hom_by_loop(g, phi):
    """The automorphism check, one product at a time."""
    if sorted(phi) != list(g.elements()):
        return False
    return all(phi[g.mul(a, s)] == g.mul(phi[a], phi[s])
               for a in g.elements() for s in g.generators.values())


def brute_force_orbit_roots(g, chunk=4096):
    """Orbit minima under all of Aut(G): every assignment of same-order
    images to the basis generators, extended through the normal form and
    kept when it is an automorphism; None above BRUTE_FORCE_LIMIT
    assignments."""
    n, t = g.order, np.asarray(g.table)
    basis = _basis(g.spec)
    if not basis:
        return ()
    images = [np.flatnonzero(np.array(g.element_orders) == g.element_orders[gen])
              for gen, _ in basis]
    if math.prod(len(c) for c in images) > BRUTE_FORCE_LIMIT:
        return None
    idx = np.arange(n)
    grid = np.indices([len(c) for c in images]).reshape(len(images), -1)
    least = idx.copy()
    for lo in range(0, grid.shape[1], chunk):
        pick = grid[:, lo:lo + chunk]
        phi = np.zeros((pick.shape[1], n), dtype=np.intp)
        for (gen, radix), cand, sel in zip(basis, images, pick):
            pows = np.zeros((pick.shape[1], radix), dtype=np.intp)
            for e in range(1, radix):
                pows[:, e] = t[pows[:, e - 1], cand[sel]]
            phi = t[phi, pows[:, idx // gen % radix]]
        ok = (np.sort(phi, axis=1) == idx).all(axis=1)
        for s in g.generators.values():
            ok &= (phi[:, t[:, s]] == t[phi, phi[:, s][:, None]]).all(axis=1)
        least = np.minimum(least, phi[ok].min(axis=0, initial=n))
    return tuple(a for a in range(1, n) if least[a] == a)


@pytest.mark.parametrize("spec", ["C:1", "C:24", "CxC:2,2,2", "CxC:2,4,4",
                                  "CxC:6,6", "CxC:2,1,3", "D:2", "D:8", "Q:2",
                                  "Q:6", "M:7,3,2", "M:5,4,2"])
def test_kept_maps_are_automorphisms(spec):
    """Every candidate of these groups is kept, and each passes the check
    one product at a time."""
    g = grp(spec)
    candidates = list(_candidate_maps(g))
    kept = automorphisms(g, candidates)
    assert kept == tuple(candidates)
    for phi in kept:
        assert hom_by_loop(g, phi)


def _linear_map(g, images):
    """The endomorphism of the CxC group ``g`` that sends basis generator k
    to sum c * g_l over the items (l, c) of ``images.get(k)`` (default: to
    itself), as the tuple of images."""
    basis = g.basis
    cols = [images.get(k, {k: 1}) for k in range(len(basis))]
    out = []
    for a in g.elements():
        digits = [a // st % m for st, m in basis]
        image = [0] * len(basis)
        for d, col in zip(digits, cols):
            for l, c in col.items():
                image[l] += d * c
        out.append(sum(v % m * st for v, (st, m) in zip(image, basis)))
    return tuple(out)


def _swap(g, i, j):
    return _linear_map(g, {i: {j: 1}, j: {i: 1}})


def _equal_factor_pairs(g):
    n = len(g.basis)
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if g.basis[i][1] == g.basis[j][1]]


def _compose(*maps):
    """The map that applies ``maps`` from the last to the first."""
    out = tuple(range(len(maps[0])))
    for phi in reversed(maps):
        out = tuple(phi[a] for a in out)
    return out


def _closed(gens, n):
    """The group that the permutations ``gens`` of 0 .. n-1 generate (small
    ones only)."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        frontier = list({h for f in frontier for h in (_compose(g, f) for g in gens)
                         if h not in group})
        group.update(frontier)
    return group


def _fixpoint(rows, maps):
    """The sorted multisets of ``rows`` and their images, closed one map at a
    time until nothing new appears, in lexicographic order."""
    closed = {tuple(sorted(r)) for r in rows}
    todo = list(closed)
    while todo:
        row = todo.pop()
        for phi in maps:
            image = tuple(sorted(phi[a] for a in row))
            if image not in closed:
                closed.add(image)
                todo.append(image)
    return sorted(closed)


CXC_ROSTER = [spec for spec in ROSTER if spec.startswith("CxC")]


@pytest.mark.parametrize("spec", CXC_ROSTER)
def test_swaps_of_equal_factors_are_generated(spec):
    """The candidates hold no factor swaps: for equal factors i < j of order
    m, the kept transvections A: g_j -> g_j + g_i and B: g_i -> g_i + g_j and
    the scaling of factor i by -1, which the kept scalings of factor i
    generate, compose to the swap.  So the kept maps generate the group they
    generated with the swaps, and the orbit roots stay the same.  The roster
    holds CxC:2,2,2,2,2."""
    g = grp(spec)
    maps = set(g.automorphism_maps)
    pairs = _equal_factor_pairs(g)
    for i, j in pairs:
        m = g.basis[i][1]
        a = _linear_map(g, {j: {j: 1, i: 1}})
        b = _linear_map(g, {i: {i: 1, j: 1}})
        negate = _linear_map(g, {i: {i: m - 1}})
        scalings = [phi for phi in maps
                    if phi in {_linear_map(g, {i: {i: u}}) for u in range(2, m)}]
        assert _swap(g, i, j) not in maps and a in maps and b in maps, (i, j)
        assert negate in _closed(scalings, g.order), (i, j)
        assert _compose(a, *[b] * (m - 1), a, negate) == _swap(g, i, j), (i, j)
    with_swaps = [*maps, *(_swap(g, i, j) for i, j in pairs)]
    assert orbit_minima(g.order, with_swaps) == g.orbit_roots


def test_closure_maps_and_orbit_closures_keep_without_swaps():
    """On the roster's CxC groups of order <= 16, closure_maps is the group
    that the maps and the swaps generate (or None, when it does not fit),
    and the closure of the representatives that the orbit roots collect is
    the one under the maps and the swaps."""
    small = [spec for spec in CXC_ROSTER if grp(spec).order <= 16]
    assert "CxC:2,2,2,2" in small
    for spec in small:
        g = grp(spec)
        gens = [*g.automorphism_maps,
                *(_swap(g, i, j) for i, j in _equal_factor_pairs(g))]
        maps, n = g.closure_maps, g.order
        if maps is not None:
            assert {tuple(maps[k:k + n]) for k in range(0, len(maps), n)} == (
                _closed(gens, n)), spec
        kern = engine._kernel_for(g)
        ctx = engine._context(g, kern)
        reps = kern.search(ctx, "collect", 0, kern.greedy(ctx, STATE_LIMIT)[0],
                           10 ** 7, STATE_LIMIT, g.orbit_roots)["found"]
        assert orbit_closure(g, reps) == _fixpoint(reps, gens), spec


def test_non_automorphism_candidates_are_dropped():
    g = grp("D:4")
    identity = list(g.elements())
    squares = [g.power(a, 2) for a in g.elements()]    # not a bijection
    swap = identity[:]
    swap[1], swap[2] = 2, 1                             # y <-> y^2
    shift = [(a + 1) % g.order for a in g.elements()]  # moves 1
    outside = [a + 1 for a in g.elements()]             # leaves the group
    wrong = [squares, swap, shift, outside]
    assert not any(hom_by_loop(g, phi) for phi in wrong)
    assert automorphisms(g, wrong) == ()
    assert automorphisms(g, wrong + [identity] + wrong) == (tuple(identity),)
    # With nothing kept every element is its own orbit: every root stays.
    assert orbit_minima(g.order, automorphisms(g, wrong)) == tuple(
        range(1, g.order))


def test_orbit_roots_match_brute_force():
    """Every roster group small enough for brute force, and a few more; on
    D:2 and Q:2 the roots may only be a superset."""
    checked = 0
    for spec in ROSTER + ["CxC:2,3,4", "CxC:2,2,6", "CxC:1,4,1", "D:12",
                          "Q:8", "M:13,4,5"]:
        g = grp(spec)
        want = brute_force_orbit_roots(g)
        if want is None:
            continue
        checked += 1
        if spec in FINER_ROOTS:
            assert set(want) < set(g.orbit_roots), spec
        else:
            assert g.orbit_roots == want, spec
    assert checked == len(ROSTER) + 5  # all but CxC:2,2,2,2,2


@pytest.mark.parametrize("spec", ROSTER)
def test_automorphism_maps_are_homomorphisms(spec):
    """phi(ab) = phi(a) phi(b) for every a, b and every kept map."""
    g = grp(spec)
    t = np.asarray(g.table)
    for phi in g.automorphism_maps:
        phi = np.array(phi)
        assert np.array_equal(phi[t], t[phi[:, None], phi[None, :]]), phi


@pytest.mark.parametrize("spec, listed", [("D:6", True), ("Q:4", True),
                                          ("D:31", False), ("Q:16", False),
                                          ("C:257", False), ("C:1100", False)])
def test_orbit_closure_matches_a_fixpoint(spec, listed):
    """Seeded multisets, closed one map at a time under the kept maps until
    nothing new appears, on both paths of orbit_closure: the listed whole
    group, and breadth first under the maps when the group does not fit in
    CLOSURE_LIMIT (non-abelian and cyclic groups reach that path from a
    search)."""
    g = grp(spec)
    assert (g.closure_maps is not None) == listed
    rng = random.Random(spec)
    rows = [[rng.randrange(g.order) for _ in range(4)] for _ in range(6)] + [[1] * 4]
    assert orbit_closure(g, rows) == _fixpoint(rows, g.automorphism_maps)


def test_orbit_roots_are_computed_on_first_use():
    g = build_group("D:5")
    assert "orbit_roots" not in vars(g)
    assert g.orbit_roots == (1, 5)
    assert "orbit_roots" in vars(g)


@pytest.mark.parametrize("spec", ["C:4096", "D:2048", "Q:1024", "CxC:64,64"])
def test_orbit_roots_of_large_groups_stay_small(spec):
    """No n*n Python list or int64 copy of the table: under 5 MB traced."""
    g = build_group(spec)
    tracemalloc.start()
    try:
        roots = g.orbit_roots
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20, peak
    assert roots[:3] == (1, 2, 4)
