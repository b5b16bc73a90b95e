"""Every public kernel is called from another module of the package: a
kernel that only its tests call is kept for nothing, and goes. And the
body's speed is taken in one place, ``KinematicTrack.speed``."""

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


def _speed_computations(sources):
    """``module:line`` of each ``row_norm(v)`` or ``row_dot(v, v)`` whose
    ``v`` reads a velocity (a name or attribute ``velocity`` or ``vel``),
    sorted."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            dumps = {ast.dump(arg) for arg in node.args}
            if not (name == "row_norm" or name == "row_dot" and len(dumps) == 1):
                continue
            names = {getattr(n, "id", getattr(n, "attr", None))
                     for arg in node.args for n in ast.walk(arg)}
            if names & {"velocity", "vel"}:
                found.append(f"{module}:{node.lineno}")
    return sorted(found)


def test_the_speed_is_taken_once():
    sources = _package_sources()
    line = next(i for i, text in enumerate(sources["kinematics"].splitlines(), 1)
                if "kernels.row_norm(self.velocity)" in text)
    assert _speed_computations(sources) == [f"kinematics:{line}"]


def test_the_check_sees_a_second_speed():
    sources = _package_sources()
    sources["analysis"] += "\nspeed = kernels.row_dot(track.velocity, track.velocity)\n"
    assert len(_speed_computations(sources)) == 2
