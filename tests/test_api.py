"""The public surface: every exported name exists, its parameters are pinned, and README's tour runs.

``tests/golden/api_signatures.json`` holds the parameter names of every
callable in each module's ``__all__`` (a class's constructor and its public
methods), so that adding or removing an option shows up as a reviewed diff
of that file.  After a deliberate change, rewrite it with
``PYTHONPATH=src python tests/test_api.py``.
"""

import importlib
import inspect
import json
import pkgutil
import re
import types
from pathlib import Path

import pytest

import ffproj
from ffproj.core import AmbientSpace, PointSet

README = Path(__file__).resolve().parent.parent / "README.md"
SIGNATURES = Path(__file__).resolve().parent / "golden" / "api_signatures.json"
MODULES = sorted(i.name for i in pkgutil.iter_modules(ffproj.__path__) if i.name != "__main__")


def _parameters(fn) -> str | None:
    """The parameter names of ``fn``, comma-separated, or None when it has no readable signature."""
    try:
        return ", ".join(inspect.signature(fn).parameters)
    except ValueError:  # a built-in constructor, as of an exception class
        return None


def api_signatures() -> dict[str, dict[str, str]]:
    """{module: {callable: its parameter names}} over each module's ``__all__``."""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"ffproj.{name}")
        entries = {}
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if not callable(obj):
                continue
            params = _parameters(obj)
            if params is not None:
                entries[export] = params
            if inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and isinstance(
                        member, (classmethod, staticmethod, types.FunctionType)
                    ):
                        entries[f"{export}.{attr}"] = _parameters(getattr(obj, attr))
        out[name] = entries
    return out


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_exists(name):
    module = importlib.import_module(f"ffproj.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_package_attribute_named_after_a_submodule_is_that_submodule(name):
    # an export named like a submodule would shadow it: ``from ffproj import energy``
    module = importlib.import_module(f"ffproj.{name}")
    assert getattr(ffproj, name) is module


def test_signatures_match_the_golden():
    assert api_signatures() == json.loads(SIGNATURES.read_text())


def test_removed_options_are_refused():
    from ffproj.projections import projection_sizes
    from ffproj.random_sets import PercolationModel
    from ffproj.subspaces import (
        SubspaceArray,
        count_subspaces_containing,
        count_subspaces_with_perp_containing,
        enumerate_grassmannian,
    )

    space = AmbientSpace(3, 2)
    calls = [
        lambda: SubspaceArray.grassmannian(space, 1, budget=10),
        lambda: enumerate_grassmannian(space, 1, budget=10),
        lambda: count_subspaces_containing(space, (1, 0), 1, verify=True),
        lambda: count_subspaces_with_perp_containing(space, (1, 0), 1, verify=True),
        lambda: projection_sizes(PointSet.full(space), 1, directions=[]),
        lambda: PercolationModel(space, 1 / 3, seed=0, s=1.0),
        lambda: AmbientSpace(3, 2, max_points=9),
    ]
    for call in calls:
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call()


def test_readme_library_tour_runs():
    tour = re.search(r"## Library tour\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    exec(compile(tour, "README.md: Library tour", "exec"), {})


if __name__ == "__main__":
    SIGNATURES.write_text(json.dumps(api_signatures(), indent=1, sort_keys=True) + "\n")
