"""zerosum benchmark: exact answers end to end, and layer by layer when traced.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload roster|extremal|reach \
        --seed N --seconds S --trace 0|1

The package is built from source with the repository's own ``setup.py`` into
``.bench_build/zerosum`` (build time is in no metric) and run on whatever
kernel lane the program picks; ``ZEROSUM_PURE_KERNEL`` is never set here.

Set-up is timed in fresh processes (``SETUP_SAMPLES`` of them, one being the
process that then runs the workload) and reported as their median.  The
workload process runs passes, each one full closed-loop pass over the
workload's jobs with every answer checked, as many as fit in ``--seconds``
(at least one); ``run_s`` is the median pass.  With ``--trace 1`` untraced and traced passes
alternate, and the traced ones give the per-layer metrics.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and the end-to-end (trace 0) or per-layer
(trace 1) metrics.  A full record (environment, lanes, counts, every metric)
goes to ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "zerosum"
LIB_DIR = BUILD_DIR / "lib"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 800
DEADLINE_S = 170  # for everything after the build

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
COUNT_UNIT = "count"
PER_LAYER_UNITS = {
    "groups.build_s": "s", "groups.count": COUNT_UNIT,
    "kernel.context_s": "s", "kernel.greedy_s": "s",
    "kernel.greedy_nodes": COUNT_UNIT, "kernel.search_max_s": "s",
    "kernel.search_max_nodes": COUNT_UNIT, "kernel.search_max_nodes_per_s": "1/s",
    "kernel.search_enum_s": "s", "kernel.search_enum_nodes": COUNT_UNIT,
    "kernel.search_enum_found": COUNT_UNIT, "kernel.enum_yield": "ratio",
    "kernel.reach_s": "s", "kernel.reach_calls": COUNT_UNIT,
    "kernel.reach_early_exit_ratio": "ratio", "kernel.calls_pure": COUNT_UNIT,
    "kernel.calls_compiled": COUNT_UNIT, "engine.recheck_s": "s",
    "engine.self_s": "s", "extremal.family_s": "s", "extremal.diff_s": "s",
    "sequences.format_s": "s", "sequences.parse_s": "s", "cli.self_s": "s",
    "cache.store_s": "s", "cache.lookup_s": "s", "cache.hit_ratio": "ratio",
    "cache.bytes": "bytes", "import_s": "s", "trace_overhead_ratio": "ratio",
    "groups.self_s": "s", "kernel.self_s": "s", "davenport.self_s": "s",
    "extremal.self_s": "s", "sequences.self_s": "s", "cache.self_s": "s",
    "trace.run_s": "s", "trace.untraced_s": "s",
}
# Exact counts compared against the default-seed record in reference.json.
KERNEL_COUNTS = ("kernel.greedy_nodes", "kernel.search_max_nodes",
                 "kernel.search_enum_nodes", "kernel.search_enum_found",
                 "kernel.reach_calls")


class BenchError(RuntimeError):
    pass


def build_package():
    """Build zerosum from this checkout with its own setup.py."""
    if not (ROOT / "setup.py").is_file():
        raise BenchError(f"no setup.py in {ROOT}: not a zerosum source checkout")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(BUILD_DIR),
         "--build-lib", str(LIB_DIR)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0 or not (LIB_DIR / "zerosum" / "__init__.py").is_file():
        raise BenchError(f"package build failed:\n{proc.stdout}")


def run_worker(args, mode, deadline) -> dict:
    env = dict(os.environ, PYTHONPATH=str(LIB_DIR))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--work-dir", str(WORK_DIR)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process ran past the {DEADLINE_S} s deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} process exited with code {proc.returncode}")
    res = json.loads(lines[-1])
    if not Path(res["package"]).is_relative_to(LIB_DIR):
        raise BenchError(f"measured {res['package']}, not the package built here")
    return res


def environment(lanes) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "compiled_kernel_importable": lanes["compiled_importable"],
            "commit": commit, "lanes": lanes}


def check_counts(workload, passes, layers) -> list[str]:
    """Flags for counts that differ between passes or from the default-seed record."""
    record = json.loads((HERE / "reference.json").read_text())["counts"][workload]
    flags = []
    if any(p["counts"] != passes[0]["counts"] for p in passes):
        flags.append("counts differ between passes of this run")
    if passes[0]["counts"] != record["api"]:
        flags.append(f"counts {passes[0]['counts']} differ from the "
                     f"default-seed record {record['api']}")
    if layers is not None:
        got = {k: layers[k] for k in KERNEL_COUNTS}
        if got != record["kernel"]:
            flags.append(f"kernel counts {got} differ from the default-seed "
                         f"record {record['kernel']}")
    return flags


def lane_line(lanes) -> str:
    used = ", ".join(f"{lane} for {n} groups" for lane, n in sorted(lanes["groups"].items()))
    why = "; ".join(f"{n} fell back: {reason}" for reason, n in lanes["fallback"].items())
    return f"lane: {used}" + (f" ({why})" if why else "")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    p.add_argument("--workload", required=True, choices=("roster", "extremal", "reach"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        build_package()
        deadline = time.monotonic() + DEADLINE_S
        WORK_DIR.mkdir(parents=True, exist_ok=True)
        setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = run_worker(args, "run", deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    setups.append(res)

    passes = res["passes"] + res["traced_passes"]
    attempted = sum(q["attempted"] for q in passes)
    failed = sum(q["failed"] for q in passes)
    layers = res.get("layers")
    end_to_end = {"run_s": res["run_s"],
                  "setup_s": statistics.median(s["setup_s"] for s in setups),
                  "peak_rss_mb": res["peak_rss_mb"]}
    flags = check_counts(args.workload, passes, layers)
    correct = failed == 0
    if layers is not None:
        layers["import_s"] = res["import_s"]
        correct = correct and layers["trace.untraced_s"] >= 0

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds} s, "
          f"trace {args.trace}: {len(res['passes'])} untraced and "
          f"{len(res['traced_passes'])} traced passes")
    env = environment(res["lanes"])
    print(f"environment: nproc {env['nproc']}, python {env['python']}, compiled "
          f"kernel importable: {env['compiled_kernel_importable']}, commit {env['commit']}")
    print(lane_line(res["lanes"]))
    for name, unit in END_TO_END.items():
        print(f"{name} {end_to_end[name]:.6g} {unit}")
    print(f"fail_ratio {failed / attempted:.6g} ratio ({failed} failed of {attempted})")
    print(f"counts {passes[0]['counts']}")
    for flag in flags:
        print(f"COUNTS FLAG: {flag}")
    if layers is not None:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name} {layers[name]:.6g} {unit}")

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "fail_ratio": failed / attempted, "end_to_end": end_to_end,
              "setup_s_samples": [s["setup_s"] for s in setups],
              "passes": passes, "count_flags": flags,
              "per_layer": layers, "spans_file": res.get("spans_file")}
    record_file = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1) + "\n")

    chosen, values = (PER_LAYER_UNITS, layers) if args.trace else (END_TO_END, end_to_end)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": values[k], "unit": u}
                                  for k, u in chosen.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
