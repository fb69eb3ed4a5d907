"""The public surface: every exported name exists, and README's library tour runs."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import ffproj

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = sorted(i.name for i in pkgutil.iter_modules(ffproj.__path__) if i.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"ffproj.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_library_tour_runs():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md: Library tour", "exec"), {})
