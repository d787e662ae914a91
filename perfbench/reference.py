"""Reference answers kept by the benchmark, independent of the program.

* ``roster``: the criterion-1 roster with D(G) from the closed forms.
* ``product_closure``: every product of a nonempty sub-multiset, in any
  order, computed with dense NumPy boolean arrays (a subset-product sweep
  for abelian tables, a layered sub-multiset DP otherwise).  It shares no
  code with the program's bitset kernels.
* ``answer_digest``: a digest of a CLI payload without its timing and
  node-count fields, compared against ``reference.json``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).with_name("reference.json")

# Fields that legitimately differ between runs or between a cold and a warm
# (cache-hit) answer; node counts are checked separately as exact counts.
VOLATILE_FIELDS = ("millis", "nodes", "schema_version")


def roster() -> list[tuple[str, int]]:
    """(group spec, D(G)) for the 74 groups with known closed forms."""
    out = [(f"C:{n}", n) for n in range(1, 31)]
    out += [(f"CxC:{m},{n}", m + n - 1)
            for m in range(2, 7) for n in range(m, 37)
            if n % m == 0 and m * n <= 36]
    seen = {spec for spec, _ in out}
    for p in (2, 3, 5):
        powers = [p ** e for e in range(1, 6) if p ** e <= 32]
        stack = [((), 1)]
        found = []
        while stack:
            factors, order = stack.pop()
            for f in powers:
                if (not factors or f <= factors[-1]) and order * f <= 32:
                    stack.append((factors + (f,), order * f))
                    if factors:
                        found.append(tuple(sorted(factors + (f,))))
        for factors in sorted(found):
            spec = "CxC:" + ",".join(map(str, factors))
            if spec not in seen:
                seen.add(spec)
                out.append((spec, 1 + sum(f - 1 for f in factors)))
    out += [(f"D:{n}", n + 1) for n in range(2, 11)]
    out += [(f"Q:{n}", 2 * n + 1) for n in range(2, 7)]
    out += [(f"M:{q},{m},{s}", m + q - 1)
            for q, m, s in ((3, 2, 2), (5, 2, 4), (5, 4, 2), (7, 2, 6), (7, 3, 2))]
    return out


def product_closure(table: np.ndarray, items) -> frozenset[int]:
    """Products of the nonempty sub-multisets of ``items``, in any order."""
    table = np.asarray(table, dtype=np.intp)
    n = table.shape[0]
    if np.array_equal(table, table.T):
        reach = np.zeros(n, dtype=bool)
        for e in items:
            image = np.zeros(n, dtype=bool)
            image[table[:, e]] = reach
            reach |= image
            reach[e] = True
        return frozenset(np.flatnonzero(reach).tolist())
    identity = int(np.flatnonzero((table == np.arange(n)).all(axis=1))[0])
    elems, counts = np.unique(np.asarray(items, dtype=np.intp), return_counts=True)
    coords = np.indices(counts + 1).reshape(len(elems), -1).T
    strides = np.ravel_multi_index(np.eye(len(elems), dtype=np.intp), counts + 1)
    sizes = coords.sum(axis=1)
    prods = np.zeros((len(coords), n), dtype=bool)
    prods[0, identity] = True
    for size in range(1, int(sizes.max()) + 1):
        layer = np.flatnonzero(sizes == size)
        for i, e in enumerate(elems):
            idx = layer[coords[layer, i] > 0]
            image = np.zeros((len(idx), n), dtype=bool)
            image[:, table[:, e]] = prods[idx - strides[i]]
            prods[idx] |= image
    return frozenset(np.flatnonzero(prods[1:].any(axis=0)).tolist())


def answer_digest(payload) -> str:
    def strip(obj):
        if isinstance(obj, dict):
            return {k: strip(v) for k, v in obj.items() if k not in VOLATILE_FIELDS}
        if isinstance(obj, list):
            return [strip(v) for v in obj]
        return obj
    blob = json.dumps(strip(payload), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)
