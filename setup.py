"""Setuptools shim.

The offline environment lacks the ``wheel`` package, so PEP 660 editable
installs cannot build; this classic setup.py enables
``pip install -e . --no-use-pep517`` (legacy ``setup.py develop``).
The ``google-replay`` scenario's bundled trace ships as package data.
"""

from setuptools import setup

setup(package_data={"repro.scenarios": ["google_task_events_small.csv"]})
