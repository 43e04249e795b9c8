"""The README is the package's public contract: ``pbal`` exports exactly the
names of ``pbal.__all__``, the README mentions each of them, and every dotted
``pbal.`` name in the README resolves by import."""

import importlib
import inspect
import re
from pathlib import Path

import pbal

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _resolve(dotted):
    """The object a dotted name denotes: its longest importable module prefix,
    then attribute lookups."""
    parts = dotted.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_every_export_is_in_the_readme():
    assert [name for name in pbal.__all__ if not re.search(rf"\b{name}\b", README)] == []


def test_the_package_exports_only_all():
    # submodules become attributes once imported; they are not exports
    public = {name for name, value in vars(pbal).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(pbal.__all__)


def test_every_dotted_readme_name_resolves():
    names = set(re.findall(r"\bpbal(?:\.[A-Za-z_]\w*)+", README))
    assert "pbal.dynamics.rhs_arrays" in names and "pbal.integrate" in names
    for name in sorted(names):
        _resolve(name)
