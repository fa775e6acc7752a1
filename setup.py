"""Setuptools entry point and the project's only packaging metadata.

Install with ``pip install -e .`` (``pip install -e .[fast]`` adds NumPy);
``--no-build-isolation`` installs offline against the local setuptools.
Tests and the CLI also run straight from a checkout with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Fault Independence in Blockchain' (DSN 2023): "
        "entropy-based replica diversity, fault-independence analysis, and "
        "simulated BFT/Nakamoto substrates."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=[],
    extras_require={
        # Vectorized compute backend (REPRO_BACKEND=numpy); the library is
        # fully functional without it via the pure-Python fallback.
        "fast": ["numpy>=1.22"],
        # Benchmark suite (pytest benchmarks/ --benchmark-only).
        "bench": ["pytest-benchmark"],
    },
)
