"""Bundled, validated scenario fixtures with frozen expected values.

Each fixture is a scenario JSON file whose "expected" block carries integers
certified by an independent classical oracle (noted per entry); the test
suite recomputes every number through the pipeline and demands exact
equality.
"""

from __future__ import annotations

from importlib import resources

from .errors import GermlabError
from .scenario import Scenario, load_scenario


def _fixture_dir():
    return resources.files("germlab") / "fixtures"


def list_fixtures() -> list[str]:
    """Names of the bundled fixtures, sorted."""
    names = []
    for entry in _fixture_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def fixture_text(name: str) -> str:
    path = _fixture_dir() / f"{name}.json"
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise GermlabError(
            f"unknown fixture {name!r}; available: {', '.join(list_fixtures())}"
        ) from None


def load_fixture(name: str) -> Scenario:
    """Load a bundled fixture by name; unknown names list the alternatives."""
    return load_scenario(fixture_text(name))
