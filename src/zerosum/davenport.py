"""Davenport constants by exact search, plus the known-constant regression.

D(G) is measured, never assumed: the canonical DFS proves the maximal length
of a product-1-free multiset and D(G) is that length plus one.  The
regression roster covers the families with known closed forms (cyclic,
rank-two and same-prime cyclic products, dihedral, dicyclic, metacyclic) at
desk scale and diffs the measured values against those forms.
"""

from __future__ import annotations

import time
from collections import namedtuple

from . import engine
from .engine import BudgetExhaustedError
from .groups import Group, build_group
from .sequences import GSequence

DEFAULT_NODE_BUDGET = 10_000_000


class SearchResult(namedtuple("SearchResult", [
        "group_key", "max_free_length", "davenport", "witness",
        "nodes_expanded", "elapsed", "complete"])):
    """Outcome of a max-free-length search.

    When ``complete`` is false the search ran out of budget: then
    ``max_free_length`` is only a lower bound ("unknown above this length")
    and ``davenport`` is None.
    """

    __slots__ = ()


def max_free_length(group: Group, *,
                    budget: int = DEFAULT_NODE_BUDGET) -> SearchResult:
    """Length of the longest product-1-free multiset, with one witness.

    The witness is the lexicographically least extremal multiset and is
    re-checked against the reachability engine before being returned.
    """
    t0 = time.perf_counter()
    raw = engine.max_free_search(group, budget=budget)
    elapsed = time.perf_counter() - t0
    witness = GSequence.from_indices(group, raw["witness"])
    if witness.length != raw["max_len"]:
        raise RuntimeError(f"witness length {witness.length} disagrees with "
                           f"search result {raw['max_len']}")
    if not engine.is_product1_free(group, witness):
        raise RuntimeError(f"search returned a non-free witness for {group.key}")
    return SearchResult(
        group_key=group.key,
        max_free_length=raw["max_len"],
        davenport=raw["max_len"] + 1 if raw["complete"] else None,
        witness=witness,
        nodes_expanded=raw["nodes"],
        elapsed=elapsed,
        complete=raw["complete"],
    )


def davenport(group: Group, *, budget: int = DEFAULT_NODE_BUDGET) -> int:
    res = max_free_length(group, budget=budget)
    if not res.complete:
        raise BudgetExhaustedError(
            f"node budget exhausted for {group.key}: D(G) unknown above "
            f"length {res.max_free_length}",
            best_length=res.max_free_length, nodes=res.nodes_expanded)
    return res.davenport


# ---------------------------------------------------------------------------
# Known-constant regression roster
# ---------------------------------------------------------------------------

ConstantCheck = namedtuple("ConstantCheck", [
    "group", "formula", "expected", "computed", "ok", "nodes", "millis"])


def known_constant_roster() -> list[tuple[str, int, str]]:
    """(group spec, expected D(G), closed form) for the regression suite."""
    roster: list[tuple[str, int, str]] = []
    for n in range(1, 31):
        roster.append((f"C:{n}", n, "D(C_n) = n"))
    for m in range(2, 7):
        for n in range(m, 37):
            if n % m == 0 and m * n <= 36:
                roster.append((f"CxC:{m},{n}", m + n - 1,
                               "D(C_m x C_n) = m + n - 1 (m | n)"))
    seen = {spec for spec, _, _ in roster}
    for p in (2, 3, 5):
        for factors in _p_power_products(p, 32):
            spec = "CxC:" + ",".join(str(f) for f in sorted(factors))
            if spec in seen:
                continue
            expected = 1 + sum(f - 1 for f in factors)
            roster.append((spec, expected, "D(prod C_p^e) = 1 + sum(p^e - 1)"))
            seen.add(spec)
    for n in range(2, 11):
        roster.append((f"D:{n}", n + 1, "D(D_2n) = n + 1"))
    for n in range(2, 7):
        roster.append((f"Q:{n}", 2 * n + 1, "D(Q_4n) = 2n + 1"))
    for q, m, s in ((3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 2, 6), (7, 3, 2)):
        roster.append((f"M:{q},{m},{s}", m + q - 1, "D(C_q x| C_m) = m + q - 1"))
    return roster


def _p_power_products(p: int, max_order: int) -> list[tuple[int, ...]]:
    """Non-increasing tuples of >= 2 powers of p with product <= max_order."""
    powers = []
    v = p
    while v <= max_order:
        powers.append(v)
        v *= p
    out = []

    def rec(prefix, prod, max_factor):
        for f in powers:
            if f > max_factor or prod * f > max_order:
                continue
            cand = prefix + (f,)
            if len(cand) >= 2:
                out.append(cand)
            rec(cand, prod * f, f)

    rec((), 1, max(powers, default=1))
    return sorted(out)


def verify_known_constants(*, budget: int = DEFAULT_NODE_BUDGET,
                           roster=None) -> list[ConstantCheck]:
    """Measure D(G) across the roster and diff against the closed forms."""
    checks = []
    for spec, expected, formula in (roster if roster is not None
                                    else known_constant_roster()):
        group = build_group(spec)
        t0 = time.perf_counter()
        try:
            res = max_free_length(group, budget=budget)
            computed = res.davenport
            nodes = res.nodes_expanded
        except engine.EngineLimitError:
            computed, nodes = None, 0
        millis = (time.perf_counter() - t0) * 1000.0
        checks.append(ConstantCheck(group=spec, formula=formula,
                                    expected=expected, computed=computed,
                                    ok=computed == expected, nodes=nodes,
                                    millis=millis))
    return checks
