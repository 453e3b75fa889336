"""Packaging for the ``repro`` library, whose sources live under ``src/``.

There is no ``pyproject.toml``.  ``pip install -e .`` builds the editable
install with the ``wheel`` package; where ``wheel`` is missing and cannot
be fetched, ``python setup.py develop --no-deps`` installs the same
development link offline.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Local mixing time: distributed computation and applications",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
)
