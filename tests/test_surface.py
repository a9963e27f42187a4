"""The public surface stays in use: every exported name is reached from inside the package."""

import ast
import inspect
from pathlib import Path

import lppart

_PACKAGE = Path(lppart.__file__).parent


def _used_names() -> set[str]:
    """Every ``Name`` and ``Attribute`` that the package's modules, bar ``__init__``, mention."""
    used = set()
    for path in _PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def _public_surface() -> set[str]:
    """The names of ``lppart.__all__`` and the public methods and properties of its classes."""
    names = set(lppart.__all__)
    for name in lppart.__all__:
        obj = getattr(lppart, name)
        if inspect.isclass(obj):
            names |= {attr for attr, value in vars(obj).items() if not attr.startswith("_")
                      and (inspect.isfunction(value) or isinstance(value, (property, classmethod)))}
    return names


def test_every_public_name_is_used_inside_the_package():
    unused = sorted(_public_surface() - _used_names())
    assert unused == [], f"public names only tests reach: {unused}"
