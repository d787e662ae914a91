from __future__ import annotations

import hashlib
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
KERNEL_SOURCE = ROOT / "src" / "zerosum" / "_kernel.c"

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


def source_digest() -> str:
    """SHA-256 of the kernel source, as setup.py compiles it in."""
    return hashlib.sha256(KERNEL_SOURCE.read_bytes()).hexdigest()


def _built_digest(kernel_path: str) -> str | None:
    """``SOURCE_SHA256`` of the kernel built at kernel_path, read in a fresh
    interpreter so that a build of other sources never loads into the
    test process; None when it does not import."""
    package_parent = Path(kernel_path).parents[1]
    proc = subprocess.run(
        [sys.executable, "-c",
         "import zerosum._kernel as k; print(k.SOURCE_SHA256)"],
        env={**os.environ, "PYTHONPATH": str(package_parent)},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def pytest_configure(config):
    """Make ``zerosum._kernel`` importable before ``zerosum`` is imported.

    A kernel already built next to the package is used only when it was
    built from the current ``_kernel.c``.  Otherwise compile the extension
    into a temporary directory and import ``zerosum`` with that directory
    first on the package path, so the engine picks the fresh build up at
    import.
    """
    global KERNEL_SKIP_REASON
    spec = importlib.util.find_spec("zerosum")
    built = PathFinder.find_spec("zerosum._kernel",
                                 spec.submodule_search_locations)
    if built is not None and _built_digest(built.origin) == source_digest():
        return
    if not _compiler_found():
        KERNEL_SKIP_REASON = "no C compiler found to build zerosum._kernel"
        return
    build_dir = Path(tempfile.mkdtemp(prefix="zerosum-kernel-"))
    config.add_cleanup(lambda: shutil.rmtree(build_dir, ignore_errors=True))
    _build_kernel(build_dir)
    spec.submodule_search_locations.insert(0, str(build_dir / "zerosum"))
    module = importlib.util.module_from_spec(spec)
    sys.modules["zerosum"] = module
    spec.loader.exec_module(module)


@lru_cache(maxsize=None)
def grp(spec: str):
    """Groups are immutable; share one instance per spec across tests."""
    from zerosum.groups import build_group
    return build_group(spec)
