"""The benchmark's tracer wraps a traced function on its defining module
and on each module in its ``MODULES`` that holds the same function, plus
the ``crossarray`` package. A module outside that list that takes such a
function by ``from .x import name`` keeps the unwrapped function, and
its calls would leave the trace without a sign; it must call ``x.name``.
"""

import ast
from pathlib import Path

import crossarray

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PACKAGE = Path(crossarray.__file__).resolve().parent


def _tracer_tables():
    """``MODULES``, ``TRACED`` and ``COUNTED`` as the tracer defines them."""
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("MODULES", "TRACED", "COUNTED"):
                tables[name] = ast.literal_eval(node.value)
    return tables["MODULES"], tables["TRACED"], tables["COUNTED"]


def _names_taken(source: str):
    """(line, name) of every name a module takes from the package by
    ``from .x import name`` or ``from crossarray.x import name``."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "crossarray"):
            for alias in node.names:
                yield node.lineno, alias.name


def _untraced_imports(modules, traced, counted, sources):
    """``module:line name`` of each traced or counted name that a module
    outside the tracer's namespaces takes by name."""
    wrapped = {name for table in (traced, counted) for names in table.values()
               for name in names}
    return [f"{module}:{line} {name}" for module, source in sorted(sources.items())
            if module not in modules and module != "__init__"
            for line, name in _names_taken(source) if name in wrapped]


def _package_sources():
    return {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}


def test_tracer_tables_name_existing_modules():
    modules, traced, counted = _tracer_tables()
    sources = _package_sources()
    assert set(modules) <= set(sources)
    assert set(traced) | set(counted) <= set(modules)


def test_no_module_outside_the_tracer_takes_a_traced_name():
    assert _untraced_imports(*_tracer_tables(), _package_sources()) == []


def test_the_check_sees_a_traced_name_taken_by_import():
    sources = _package_sources()
    sources["pipeline"] += "\nfrom .detector import detect\n"
    sources["errors"] += "\nfrom crossarray.invariants import estimate_distance_3d\n"
    found = _untraced_imports(*_tracer_tables(), sources)
    assert [entry.split()[1] for entry in found] == ["estimate_distance_3d", "detect"]
