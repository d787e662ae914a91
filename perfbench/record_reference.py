"""Re-record ``reference.json`` from the current program.

Run ``python3 perfbench/record_reference.py`` from the root of a source
checkout only when an answer or an exact count is meant to change, and say
why in the change that commits the new file.  It records:

* ``extremal``: exit code, verdict, count and answer digest of every cold
  CLI command of the extremal workload, and of the report;
* ``counts``: the exact counts of one untraced and one traced pass of every
  workload at the default seed (API-level node, found and call counts, and
  the kernel-level counts the tracer sees).
"""

from __future__ import annotations

import json
import random
import shutil
import sys

import run

run.build_package()
sys.path.insert(0, str(run.LIB_DIR))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_FILE, answer_digest  # noqa: E402

DEFAULT_SEED = 1


def record_extremal() -> dict:
    cache = run.WORK_DIR / "record-cache"
    shutil.rmtree(cache, ignore_errors=True)
    flags = ["--json", "--cache-dir", str(cache)]
    out = {}
    for key, argv in workloads.extremal_commands():
        rc, payload, _ = workloads.run_cli(argv + flags)
        out[key] = {"rc": rc, **workloads.summarize_payload(payload)}
    rc, payload, _ = workloads.run_cli(["report", "--format", "json",
                                        "--cache-dir", str(cache)])
    out["report"] = {"rc": rc, "rows": len(payload["rows"]),
                     "digest": answer_digest(payload)}
    shutil.rmtree(cache)
    return out


def record_counts(name) -> dict:
    workload = workloads.WORKLOADS[name](random.Random(DEFAULT_SEED))
    tracer = tracing.Tracer()
    groups, _ = worker.setup(workload, tracer)
    workload.prepare(groups, run.WORK_DIR)
    _, untraced = worker.timed_pass(workload, 0)
    tracer.phase = "pass0"
    tracer.install()
    seconds, traced = worker.timed_pass(workload, 1)
    tracer.uninstall()
    if untraced.failed or traced.failed or untraced.counts != traced.counts:
        raise SystemExit(f"{name}: a pass failed or its counts differ; not recording")
    layers = tracing.layer_metrics(tracer.spans, ["pass0"], [seconds], [seconds])
    return {"api": untraced.counts,
            "kernel": {k: int(layers[k]) for k in run.KERNEL_COUNTS}}


def main():
    run.WORK_DIR.mkdir(parents=True, exist_ok=True)
    ref = {"seed": DEFAULT_SEED, "extremal": record_extremal(), "counts": {}}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    ref["counts"] = {name: record_counts(name) for name in workloads.WORKLOADS}
    REFERENCE_FILE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
