"""Build script: compiles the optional fast scan kernel.

The package works without the extension (a pure Python twin is selected at
import time), so a failure to compile is non-fatal.  Build it in place with
``python3 setup.py build_ext --inplace``.
"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("hurwitznum._speed", ["src/hurwitznum/_speed.c"], optional=True)])
