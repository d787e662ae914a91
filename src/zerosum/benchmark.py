"""Benchmark the compiled kernel against the pure-Python fallback.

Run with ``python -m zerosum.benchmark`` (add ``--quick`` for a short pass).
Workloads cover the two hot paths: max-length search (abelian and
non-abelian lanes) and fixed-length extremal enumeration.
"""

from __future__ import annotations

import argparse
import time

from . import engine
from .engine import available_kernels, enumerate_free, max_free_search
from .groups import build_group

FULL_WORKLOADS = [
    ("search", "CxC:6,6"),
    ("search", "CxC:3,12"),
    ("search", "CxC:2,16"),
    ("search", "C:30"),
    ("search", "D:10"),
    ("search", "Q:6"),
    ("search", "M:7,3,2"),
    ("enum", "D:8"),
    ("enum", "Q:5"),
    ("enum", "M:5,4,2"),
]

QUICK_WORKLOADS = [
    ("search", "CxC:4,8"),
    ("search", "Q:5"),
    ("enum", "D:7"),
]


def _run(kind: str, group, kernel: str, budget: int) -> tuple[float, int]:
    t0 = time.perf_counter()
    if kind == "search":
        res = max_free_search(group, budget=budget, kernel=kernel)
        nodes = res["nodes"]
    else:
        top = max_free_search(group, budget=budget, kernel=kernel)
        res = enumerate_free(group, top["max_len"], budget=budget, kernel=kernel)
        nodes = top["nodes"] + res["nodes"]
    return time.perf_counter() - t0, nodes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m zerosum.benchmark")
    parser.add_argument("--quick", action="store_true", help="short pass")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions per measurement (best is kept)")
    parser.add_argument("--budget", type=int, default=50_000_000)
    args = parser.parse_args(argv)

    kernels = available_kernels()
    if "compiled" not in kernels:
        print("compiled kernel not available; benchmarking the pure lane only")
    lanes = [k for k in ("pure", "compiled") if k in kernels]
    workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS

    print(f"{'workload':22s}" + "".join(f"{lane:>14s}" for lane in lanes)
          + ("       speedup" if len(lanes) == 2 else "") + "      nodes")
    for kind, spec in workloads:
        group = build_group(spec)
        for lane in lanes:  # warm the translate tables outside the timing
            engine._context(group, kernels[lane])
        times = {}
        nodes = None
        for lane in lanes:
            best = min(_run(kind, group, lane, args.budget)
                       for _ in range(args.repeat))
            times[lane], nodes = best[0], best[1]
        row = f"{kind + ' ' + spec:22s}"
        for lane in lanes:
            row += f"{times[lane] * 1000:11.1f} ms"
        if len(lanes) == 2:
            row += f"{times['pure'] / times['compiled']:12.1f}x"
        row += f"{nodes:11d}"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
