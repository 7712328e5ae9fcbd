"""Packaging for pufferfish-repro.

Two supported invocation styles (both documented in README.md):

* ``pip install -e .`` — registers the ``repro`` package from ``src/`` so no
  ``PYTHONPATH`` manipulation is needed.  In offline environments without
  the ``wheel`` package, PEP 660 editable installs fall back to the legacy
  ``python setup.py develop`` path, which this file also supports.
* ``PYTHONPATH=src python ...`` — run straight from the source tree (what
  CI and the tier-1 verify command use).
"""

from pathlib import Path

from setuptools import find_packages, setup

setup(
    name="pufferfish-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Pufferfish Privacy Mechanisms for Correlated Data' "
        "(SIGMOD 2017) with a serving engine: cached calibration, batched "
        "releases, enforced epsilon budgets"
    ),
    long_description=Path(__file__).with_name("README.md").read_text(),
    long_description_content_type="text/markdown",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
    extras_require={
        "graphs": ["networkx>=2.6"],
        "dev": ["pytest", "pytest-benchmark", "hypothesis"],
    },
    classifiers=[
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Security",
        "Topic :: Scientific/Engineering",
    ],
)
