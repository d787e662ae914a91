"""One fresh benchmark process: set up a workload, then (mode ``run``) time it.

Started by ``run.py`` with the built package on ``PYTHONPATH``.  Prints one
JSON object as its last line.  Set-up is what a user pays once per process:
package import, ``build_group`` for every group of the workload and the first
kernel-context build, triggered from outside with a one-element
``reachable_products`` call per group.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import zerosum  # noqa: E402
import zerosum.cache  # noqa: E402,F401
import zerosum.cli  # noqa: E402,F401
import zerosum.davenport  # noqa: E402,F401
import zerosum.extremal  # noqa: E402,F401
IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def lanes(groups) -> dict:
    """Kernel lane per group as the engine picks it, and why it fell back."""
    engine = sys.modules["zerosum.engine"]
    try:
        from zerosum import _kernel
    except ImportError:
        _kernel = None
    default = engine.default_kernel_name()
    out = {"default": default, "compiled_importable": _kernel is not None,
           "groups": {}, "fallback": {}}
    for spec, g in groups.items():
        if default == "pure":
            lane = "pure"
            reason = ("compiled kernel not importable" if _kernel is None
                      else "pure lane forced by ZEROSUM_PURE_KERNEL")
        elif g.order > _kernel.MAX_ORDER:
            lane, reason = "pure", f"order > {_kernel.MAX_ORDER}"
        else:
            lane, reason = default, None
        out["groups"][lane] = out["groups"].get(lane, 0) + 1
        if reason:
            out["fallback"][reason] = out["fallback"].get(reason, 0) + 1
    return out


def setup(workload, tracer):
    groups_mod, engine = sys.modules["zerosum.groups"], sys.modules["zerosum.engine"]
    gseq = sys.modules["zerosum.sequences"].GSequence
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    groups = {spec: groups_mod.build_group(spec) for spec in workload.group_specs}
    t1 = time.perf_counter()
    for g in groups.values():
        engine.reachable_products(g, gseq(g.key, (g.identity,)))
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
    return groups, {"package": zerosum.__file__, "import_s": IMPORT_S,
                    "groups_s": t1 - t0,
                    "context_s": t2 - t1, "setup_s": IMPORT_S + t2 - t0}


def timed_pass(workload, pass_no):
    t0 = time.perf_counter()
    out = workload.run_pass(pass_no)
    seconds = time.perf_counter() - t0
    workload.cleanup(pass_no)
    return seconds, out


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mode", choices=("setup", "run"), required=True)
    p.add_argument("--work-dir", type=Path, required=True)
    args = p.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    tracer = tracing.Tracer() if args.trace and args.mode == "run" else None
    groups, result = setup(workload, tracer)
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    result["lanes"] = lanes(groups)
    workload.prepare(groups, args.work_dir)
    passes, traced = [], []
    start = time.perf_counter()
    while True:
        seconds, out = timed_pass(workload, len(passes) + len(traced))
        passes.append({"run_s": seconds, "attempted": out.attempted,
                       "failed": out.failed, "counts": out.counts})
        if tracer is not None:
            tracer.phase = f"pass{len(traced)}"
            tracer.install()
            seconds, out = timed_pass(workload, len(passes) + len(traced))
            tracer.uninstall()
            traced.append({"run_s": seconds, "attempted": out.attempted,
                           "failed": out.failed, "counts": out.counts})
        # Start another round only if it should end within --seconds.
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["passes"] = passes
    result["traced_passes"] = traced
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(
            tracer.spans, [f"pass{i}" for i in range(len(traced))],
            [t["run_s"] for t in traced], [q["run_s"] for q in passes])
        spans_file = args.work_dir / f"spans-{args.workload}-seed{args.seed}.json"
        with open(spans_file, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase", "attrs"],
                       "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_file)
    result["run_s"] = statistics.median(q["run_s"] for q in passes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
