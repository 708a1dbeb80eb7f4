"""Build script: compiles the optional girth kernel extension.

The package is fully functional without the extension (a pure-Python
kernel is selected at import time); building it just makes girth
evaluation much faster.  `optional=True` lets an install on a machine
without a C compiler go on with the pure kernel.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("btusearch._girth_c", ["src/btusearch/_girth_c.c"], optional=True)
    ]
)
