"""The benchmark's tracer installs on the package as it stands.

``perfbench/tracing.py`` wraps entry points by name and reads kernel call
arguments by position, so a renamed or deleted name, or a kernel call that
moves an argument, breaks the benchmark.  The benchmark's own smoke run
cannot show that while its exact-count check fails for another reason.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import zerosum.cache  # noqa: F401
import zerosum.cli  # noqa: F401
import zerosum.davenport as davenport
import zerosum.engine as engine
import zerosum.extremal  # noqa: F401
from zerosum import _kernel
from zerosum.groups import TABLE_LIMIT

from conftest import grp

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_reads_kernel_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    original = davenport.max_free_length
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert davenport.max_free_length is not original
        res = davenport.max_free_length(grp("D:3"))
    finally:
        tracer.uninstall()
        sys.modules.pop("tracing", None)
    assert davenport.max_free_length is original
    assert res.davenport == 4
    attrs = {}
    for span in tracer.spans:
        attrs.setdefault(span[tracing.NAME], span[tracing.ATTRS])
    # greedy's nodes are res[2], search's mode is args[1], and the witness
    # re-check passes until_mask as args[3].
    assert attrs["kernel.greedy"]["nodes"] > 0
    assert attrs["kernel.search"]["mode"] == "max"
    assert attrs["kernel.reachable"]["until"] is True
    assert "engine.is_product1_free" in attrs


def test_worker_reads_lane_names():
    assert _kernel.MAX_ORDER == TABLE_LIMIT
    assert engine.default_kernel_name() in ("compiled", "pure")
