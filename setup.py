"""Packaging for ``repro``, whose sources live under ``src/``.

This file is the whole build configuration (there is no
``pyproject.toml``).  An offline editable install needs no build
isolation and no download, only ``setuptools`` and ``wheel``::

    pip install --no-build-isolation --no-deps -e .
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Influence-aware task assignment in spatial crowdsourcing: "
        "a reproduction with a streaming runtime"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
)
