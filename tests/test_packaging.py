"""The package metadata agrees with the code: `dynsel.__version__`, which
every run's manifest records, is the version `pyproject.toml` declares."""

import re
from pathlib import Path

import dynsel

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_version_matches_pyproject():
    # a regex, because Python 3.10 has no tomllib
    project = PYPROJECT.read_text().split("[project]", 1)[1]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE)
    assert declared is not None, "pyproject.toml declares no [project] version"
    assert dynsel.__version__ == declared.group(1)
