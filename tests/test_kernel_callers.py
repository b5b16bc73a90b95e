"""Every public kernel is called from another module of the package: a
kernel that only its tests call is kept for nothing, and goes."""

import ast
from pathlib import Path

import crossarray

PACKAGE = Path(crossarray.__file__).resolve().parent


def _public_functions(source: str):
    return {node.name for node in ast.parse(source).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _kernel_names_used(source: str):
    """Names a module reads as ``kernels.name`` or takes by
    ``from .kernels import name`` or ``from crossarray.kernels import name``."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "kernels"):
            yield node.attr
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "kernels", "crossarray.kernels"):
            yield from (alias.name for alias in node.names)


def _uncalled_kernels(sources):
    """Public functions of ``kernels`` that no other module uses, sorted."""
    used = {name for module, source in sources.items() if module != "kernels"
            for name in _kernel_names_used(source)}
    return sorted(_public_functions(sources["kernels"]) - used)


def _package_sources():
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_every_public_kernel_has_a_caller_in_the_package():
    assert _uncalled_kernels(_package_sources()) == []


def test_the_check_sees_a_kernel_lose_its_last_caller():
    sources = _package_sources()
    sources["detector"] = sources["detector"].replace("kernels.windowed_rel_std",
                                                      "windowed_rel_std")
    sources["kernels"] += "\ndef spare(x):\n    return x\n"
    assert _uncalled_kernels(sources) == ["spare", "windowed_rel_std"]
