"""Packaging metadata for the ``repro`` QCCD toolflow.

There is no ``pyproject.toml``: this file holds all of the metadata.  The
package lives under ``src/`` and needs Python 3.10+ (the ISA operation
dataclasses use ``slots=True``).  Install with ``pip install .`` or, on an
offline host without the ``wheel`` package that PEP 660 editable builds
need, ``pip install -e . --no-use-pep517``; add ``[test]`` for the test
suite's dependencies.

``INSTALL_REQUIRES`` must name every third-party package that ``src/repro``
imports; ``tests/test_packaging.py`` checks this.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

#: Third-party runtime dependencies.
INSTALL_REQUIRES = ["networkx"]

#: Optional dependency sets: ``pip install .[test]``.
EXTRAS_REQUIRE = {"test": ["pytest", "hypothesis"]}


def _version() -> str:
    init = Path(__file__).parent / "src" / "repro" / "__init__.py"
    return re.search(r'^__version__ = "([^"]+)"', init.read_text(), re.M).group(1)


if __name__ == "__main__":
    setup(
        name="repro",
        version=_version(),
        description="QCCDSim: design toolflow for QCCD trapped-ion quantum computers",
        package_dir={"": "src"},
        packages=find_packages("src"),
        python_requires=">=3.10",
        install_requires=INSTALL_REQUIRES,
        extras_require=EXTRAS_REQUIRE,
        entry_points={"console_scripts": ["repro = repro.cli:main"]},
    )
