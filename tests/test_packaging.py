"""Packaging says the truth: one version, and no runtime dependency."""

import tomllib
from pathlib import Path

import repro

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
PROJECT = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]


def test_package_version_is_the_declared_version():
    assert repro.__version__ == PROJECT["version"]


def test_installing_the_package_pulls_nothing():
    # `pip install -e .` (the distributed-smoke CI job, every fleet host) must
    # not drag numpy/scipy back in; tests/test_import_hygiene.py proves the
    # code needs none of them.
    assert PROJECT["dependencies"] == []
    assert "optional-dependencies" not in PROJECT
