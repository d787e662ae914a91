"""Build script: compiles the optional C search kernel ``zerosum._kernel``.

The kernel is one hand-written C file built with the system compiler and the
Python headers.  The package works without it (a pure-Python kernel is
selected at import time), so the extension is optional: a failed compile
degrades to the slow lane instead of breaking the install, and
``ZEROSUM_SKIP_EXT=1`` skips it on purpose.
"""

import os

from setuptools import Extension, setup

KERNEL = Extension(
    "zerosum._kernel",
    ["src/zerosum/_kernel.c"],
    extra_compile_args=["-O3"],
    optional=True,
)

setup(ext_modules=[] if os.environ.get("ZEROSUM_SKIP_EXT") else [KERNEL])
