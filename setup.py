"""Legacy setup shim.

The offline environment ships setuptools 65.5 without the ``wheel`` package,
so PEP 660 editable installs (``pip install -e .`` through pyproject build
isolation) cannot build editable wheels.  Keeping this file and omitting the
``[build-system]`` table lets pip use the legacy ``setup.py develop`` code
path; all metadata still lives in pyproject.toml's ``[project]`` table, which
setuptools reads directly.
"""

from setuptools import setup

setup()
