"""Smoke test for the kernel-comparison benchmark."""

from __future__ import annotations

import zerosum.benchmark as benchmark


def test_benchmark_quick_pass(monkeypatch, capsys):
    monkeypatch.setattr(benchmark, "QUICK_WORKLOADS",
                        [("search", "D:5"), ("enum", "Q:2")])
    assert benchmark.main(["--quick", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "search D:5" in out and "enum Q:2" in out
    lanes = benchmark.available_kernels()
    if "compiled" in lanes:
        assert "speedup" in out
