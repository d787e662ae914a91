from __future__ import annotations

import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from functools import lru_cache
from importlib.machinery import PathFinder
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Why the compiled-lane tests cannot run (None when they can); set by
# pytest_configure before any test module is imported.
KERNEL_SKIP_REASON: str | None = None


def _compiler_found() -> bool:
    cc = os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc"
    return shutil.which(shlex.split(cc)[0]) is not None


def _build_kernel(build_dir: Path) -> None:
    """Compile the C kernel with the repository's setup.py into build_dir."""
    # ZEROSUM_SKIP_EXT governs installs; the suite always tests both lanes.
    env ={k: v for k, v in os.environ.items() if k != "ZEROSUM_SKIP_EXT"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(build_dir),
         "--build-temp", str(build_dir / "tmp")],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    if proc.returncode != 0 or not list(build_dir.glob("zerosum/_kernel.*")):
        raise RuntimeError(f"building zerosum._kernel failed:\n{proc.stdout}")


def pytest_configure(config):
    """Make ``zerosum._kernel`` importable before ``zerosum`` is imported.

    When the extension is not already built next to the package, compile it
    into a temporary directory and import ``zerosum`` with that directory on
    the package path, so the engine picks the compiled lane up at import.
    """
    global KERNEL_SKIP_REASON
    spec = importlib.util.find_spec("zerosum")
    if PathFinder.find_spec("zerosum._kernel",
                            spec.submodule_search_locations) is not None:
        return
    if not _compiler_found():
        KERNEL_SKIP_REASON = "no C compiler found to build zerosum._kernel"
        return
    build_dir = Path(tempfile.mkdtemp(prefix="zerosum-kernel-"))
    config.add_cleanup(lambda: shutil.rmtree(build_dir, ignore_errors=True))
    _build_kernel(build_dir)
    spec.submodule_search_locations.append(str(build_dir / "zerosum"))
    module = importlib.util.module_from_spec(spec)
    sys.modules["zerosum"] = module
    spec.loader.exec_module(module)


@lru_cache(maxsize=None)
def grp(spec: str):
    """Groups are immutable; share one instance per spec across tests."""
    from zerosum.groups import build_group
    return build_group(spec)
