"""Setuptools shim for environments without PEP 517 editable support."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="16.0.0",
    description='Reproduction of "Compute Caches" (HPCA 2017)',
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
