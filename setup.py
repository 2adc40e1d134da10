"""Setup shim: the package metadata.

The execution environment has no ``wheel`` package, so PEP 517 editable
installs fail; this shim lets ``pip install -e . --no-use-pep517
--no-build-isolation`` (and plain ``python setup.py develop``) work.
There is no ``pyproject.toml``: the metadata lives here, and the
version is read from ``src/repro/__init__.py`` so the installed
distribution and ``repro.__version__`` cannot disagree.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(
    r'^__version__ = "([^"]+)"$',
    _INIT.read_text(encoding="utf-8"),
    re.MULTILINE,
).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
