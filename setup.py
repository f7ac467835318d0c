import re
from pathlib import Path

from setuptools import find_packages, setup

VERSION = re.search(
    r'^__version__ = "([^"]+)"',
    (Path(__file__).parent / "src" / "repro" / "__init__.py").read_text(),
    re.M,
).group(1)

setup(
    name="repro",
    version=VERSION,
    description=(
        "Machine-learning estimation of per-flip-flop functional de-rating "
        "from statistical fault injection"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # networkx backs only the ``engine="networkx"`` reference feature
    # path the differential tests use; it is not a runtime dependency.
    install_requires=["numpy"],
)
