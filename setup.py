"""Package metadata and entry points.

The environment is offline and lacks the ``wheel`` package, so PEP 660
editable installs can fail; ``python setup.py develop`` (or ``pip
install -e . --no-build-isolation`` on newer toolchains) installs the
package from the metadata below.  Installing provides the ``repro``
console script (equivalent to ``python -m repro``).
"""

from setuptools import find_packages, setup

setup(
    name="rotor-router-ring",
    version="1.0.0",
    description=(
        "Reproduction of 'The multi-agent rotor-router on the ring: a "
        "deterministic alternative to parallel random walks' (PODC 2013)"
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
    ],
)
