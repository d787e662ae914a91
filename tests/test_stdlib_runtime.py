"""The package runs on the standard library alone: no runtime path needs NumPy."""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from zerosum import cli

SRC = str(Path(cli.__file__).resolve().parents[1])

COMMANDS = [
    ["davenport", "--group", "Q:4", "--json"],
    ["extremal", "--group", "D:6", "--no-cache", "--json"],
    ["verify", "--target", "dihedral", "--param", "n=5", "--no-cache", "--json"],
    ["verify", "--target", "minzero", "--param", "group=CxC:2,2,2,2", "--no-cache",
     "--json"],
    ["group", "info", "--group", "C:4096"],
]

# Blocks the import of NumPy, then runs every argv of its JSON argument
# through zerosum.cli.main and prints one JSON list of [exit code, stdout].
RUN_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from zerosum.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    out.append([rc, buf.getvalue()])
print(json.dumps(out))
"""


def _python(code: str, *args: str, **env: str) -> str:
    """Run ``code`` in a fresh interpreter that imports zerosum from SRC."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path, **env},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _answer(text: str):
    """A command's output without its timing."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return text
    payload.pop("millis", None)
    return payload


def test_importing_the_cli_loads_no_numpy():
    _python('import sys, zerosum.cli\n'
            'assert "numpy" not in sys.modules, "zerosum imported numpy"')


def test_commands_run_with_numpy_blocked(tmp_path, monkeypatch):
    """Each command exits 0 with the payload it gives in this process."""
    blocked = json.loads(_python(RUN_BLOCKED, json.dumps(COMMANDS),
                                 ZEROSUM_CACHE_DIR=str(tmp_path / "blocked")))
    monkeypatch.setenv("ZEROSUM_CACHE_DIR", str(tmp_path / "here"))
    for argv, (rc, text) in zip(COMMANDS, blocked, strict=True):
        here = io.StringIO()
        with contextlib.redirect_stdout(here):
            assert cli.main(argv) == 0
        assert rc == 0, argv
        assert _answer(text) == _answer(here.getvalue()), argv


def test_importing_the_package_loads_no_heavy_stdlib_modules():
    """No record generates its methods at import, no annotation needs
    ``typing``, the CLI imports ``logging`` only on its internal-error path
    and ``csv`` only for ``report --format csv``, and the cache imports
    ``hashlib`` only to hash a payload.  ``-S`` skips site-packages, whose
    ``.pth`` files may load such modules on their own."""
    code = ("import sys, zerosum, zerosum.cli, zerosum.cache, "
            "zerosum.davenport, zerosum.extremal\n"
            "print(sorted(m for m in ('dataclasses', 'inspect', 'typing', "
            "'logging', 'hashlib', 'csv') if m in sys.modules))")
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
