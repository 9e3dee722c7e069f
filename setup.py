"""Setuptools shim for an editable install.

There is no other packaging metadata: ``setup()`` relies on setuptools'
automatic discovery, which finds the ``src/repro`` package and names the
distribution after it, and declares no console script.  The supported way
to run is ``PYTHONPATH=src python -m repro`` from a checkout.  An editable
install, ``pip install -e . --no-build-isolation``, also needs the ``wheel``
package; without it pip stops with ``invalid command 'bdist_wheel'``.
"""

from setuptools import setup

setup()
