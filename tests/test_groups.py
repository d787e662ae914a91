"""Group construction, arithmetic laws and the coset/quotient machinery."""

from __future__ import annotations

import types

import numpy as np
import pytest

from zerosum.groups import (
    Group,
    GroupError,
    GroupSpec,
    build_group,
    center,
    parse_group_spec,
    quaternion_names,
    quotient_map,
)

from conftest import grp


def test_basic_orders_and_exponents():
    d6 = grp("D:3")
    assert d6.order == 6
    assert d6.exponent == 6
    assert sorted(set(d6.element_orders)) == [1, 2, 3]

    q8 = grp("Q:2")
    assert q8.order == 8
    assert center(q8) == [0, 2]  # {1, y^2}

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
    assert q8.element_order(q8.element_from_word("x")) == 4
    for n in (3, 8, 12):
        g = build_group(f"C:{n}")
        assert g.element_order(1) == n
        assert g.element_order(0) == 1


@pytest.mark.parametrize("spec", ["D:5", "Q:3", "M:5,2,4", "CxC:2,3"])
def test_associativity_independent_check(spec):
    t = grp(spec).table
    assert np.array_equal(t[t, :], t[:, t])


def test_verify_rejects_non_associative_loop():
    """A Latin square with identity (a loop) that is not a group fails the
    exhaustive associativity check, which runs in blocks of rows at n = 128."""
    n, h = 128, 64
    t = (np.add.outer(np.arange(n), np.arange(n)) % n).astype(np.int16)
    # Swapping an intercalate of the cyclic table keeps every row and column
    # a permutation and index 0 the identity.
    for r in (5, 5 + h):
        t[r, 7], t[r, 7 + h] = t[r, 7 + h], t[r, 7]
    assert not np.array_equal(t[t, :], t[:, t])
    fake = types.SimpleNamespace(order=n, table=t)
    with pytest.raises(GroupError, match="associativity"):
        Group._verify(fake, 0)


@pytest.mark.parametrize("spec", ["C:10", "D:6", "Q:4", "M:5,4,2", "CxC:2,2,3"])
def test_closed_form_matches_table(spec):
    g = grp(spec)
    for a in g.elements():
        for b in g.elements():
            assert g.mul_formula(a, b) == g.mul(a, b)


def test_coset_split():
    d6 = grp("D:3")
    assert d6.coset_split(d6.element_from_word("y^2")) == "H"
    assert d6.coset_split(0) == "H"
    assert d6.coset_split(d6.element_from_word("x")) == "N"
    q12 = grp("Q:3")
    assert q12.coset_split(q12.element_from_word("x*y^5")) == "N"
    with pytest.raises(GroupError):
        grp("C:6").coset_split(1)


@pytest.mark.parametrize("n", range(2, 9))
def test_quotient_map_is_verified_homomorphism(n):
    # construction re-checks the homomorphism law on all pairs
    phi = quotient_map(n)
    assert len(phi.kernel) == 2
    assert phi.kernel == (0, n)  # {1, y^n}
    assert set(phi.mapping) == set(range(2 * n))


def test_quotient_map_examples():
    phi = quotient_map(2)
    q8, d4 = phi.source, phi.target
    assert phi(q8.element_from_word("y^2")) == 0
    assert phi(q8.element_from_word("y^3")) == d4.element_from_word("y")
    phi3 = quotient_map(3)
    assert phi3(phi3.source.element_from_word("x*y^4")) \
        == phi3.target.element_from_word("x*y")


@pytest.mark.parametrize("n", range(2, 9))
def test_dicyclic_center(n):
    g = build_group(f"Q:{n}")
    assert center(g) == [0, n]  # {1, y^n}


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
    assert str(parse_group_spec(" CxC:2,4 ")) == "CxC:2,4"


def test_element_word_errors_cite_token():
    g = grp("D:4")
    with pytest.raises(GroupError, match="'z'"):
        g.element_from_word("z^3")
    with pytest.raises(GroupError, match="exponent"):
        g.element_from_word("y^two")
    assert g.element_from_word("y^-1") == g.inverse(g.element_from_word("y"))
    assert g.element_from_word(" x * y^2 ") == g.element_from_word("x*y^2")


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


def test_spot_check_branch_for_large_groups():
    # order 300 > exhaustive associativity limit: the seeded random
    # spot check runs instead, and the group still verifies
    g = build_group("C:300")
    assert g.order == 300
    assert g.mul(299, 1) == 0
