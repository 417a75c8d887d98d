"""Every module in ``src/repro`` is reached from code, not only from a
package re-export, a test or an example.

A static check over the import graph: each module other than a package
``__init__``, a ``__main__`` entry point and the experiment generators
registered in ``repro.experiments`` (each of which writes a
``results.json`` key) must be imported by at least one non-``__init__``
module of the package.  A model that only its own tests import drives
no result and should go, or be wired into one.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = SRC / "repro"


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def parse_modules() -> Dict[str, ast.Module]:
    return {
        module_name(path): ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def is_package(name: str) -> bool:
    return (SRC.joinpath(*name.split(".")) / "__init__.py").exists()


def imported_by(name: str, tree: ast.Module, known: Set[str]) -> Set[str]:
    """The modules of ``known`` that ``tree`` (module ``name``) imports."""
    package = name if is_package(name) else name.rpartition(".")[0]
    found: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - (node.level - 1)]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module or ""
            found.add(target)
            found.update(f"{target}.{alias.name}" for alias in node.names)
    return found & known


def experiment_generators(tree: ast.Module) -> Set[str]:
    """Modules whose ``run`` is registered in an ``*_EXPERIMENTS`` map."""
    generators: Set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.AnnAssign) or not isinstance(node.value, ast.Dict):
            continue
        if not getattr(node.target, "id", "").endswith("_EXPERIMENTS"):
            continue
        for value in node.value.values:
            if isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                generators.add(f"repro.experiments.{value.value.id}")
    return generators


def unreached_modules() -> Set[str]:
    modules = parse_modules()
    known = set(modules)
    reached: Set[str] = set()
    for name, tree in modules.items():
        if not is_package(name):
            reached |= imported_by(name, tree, known) - {name}
    exempt = {
        name for name in known
        if is_package(name) or name.endswith(".__main__")
    }
    exempt |= experiment_generators(modules["repro.experiments"])
    return known - exempt - reached


def test_generators_are_found():
    generators = experiment_generators(parse_modules()["repro.experiments"])
    assert {"repro.experiments.fig13_tree", "repro.experiments.ext_cdc"} <= generators


def test_every_module_is_imported_by_code():
    unreached = unreached_modules()
    assert not unreached, (
        "imported by no non-__init__ module of src/repro (connect each to a "
        f"result or delete it): {sorted(unreached)}"
    )
