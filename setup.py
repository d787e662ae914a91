"""Build script: compiles the optional C search kernel ``zerosum._kernel``.

The kernel is one hand-written C file built with the system compiler and the
Python headers.  The package works without it (a pure-Python kernel is
selected at import time), so the extension is optional: a failed compile
degrades to the slow lane instead of breaking the install, and
``ZEROSUM_SKIP_EXT=1`` skips it on purpose.

The SHA-256 of ``_kernel.c`` is compiled into the module as
``SOURCE_SHA256``, so a build can be told apart from one of other sources.

On x86-64 the kernel is built with ``-mpopcnt``: the search counts the bits
of one set per node, and without the flag baseline x86-64 turns each count
into a call to libgcc's ``__popcountdi2``.  Importing that build on a CPU
without POPCNT raises ImportError, so the engine falls back to the pure lane
there.  Other platforms build without the flag.
"""

import hashlib
import os
import platform
from pathlib import Path

from setuptools import Extension, setup

SOURCE = "src/zerosum/_kernel.c"
DIGEST = hashlib.sha256((Path(__file__).parent / SOURCE).read_bytes()).hexdigest()
X86_64 = platform.machine().lower() in ("x86_64", "amd64")

KERNEL = Extension(
    "zerosum._kernel",
    [SOURCE],
    define_macros=[("SOURCE_SHA256", f'"{DIGEST}"')],
    extra_compile_args=["-O3"] + (["-mpopcnt"] if X86_64 else []),
    optional=True,
)

setup(ext_modules=[] if os.environ.get("ZEROSUM_SKIP_EXT") else [KERNEL])
