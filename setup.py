"""Packaging metadata for the ``repro`` distribution.

``setup()`` declares the name ``repro``; the version, read from
``__version__`` in ``src/repro/__init__.py`` so there is one copy; the
packages under ``src``; Python 3.8 or newer; and NumPy as the one
requirement.  It declares no console script.  The supported way to run is
``PYTHONPATH=src python -m repro`` from a checkout.  An editable install,
``pip install -e . --no-build-isolation``, also needs the ``wheel``
package; without it pip stops with ``invalid command 'bdist_wheel'``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"$',
                    INIT.read_text(encoding="utf-8"), re.MULTILINE).group(1)

setup(
    name="repro",
    version=VERSION,
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.8",
    install_requires=["numpy"],
)
