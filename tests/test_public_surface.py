"""No public name in ``src/snckit`` that nothing in ``src`` reads.

An AST scan collects each public top-level function, class and constant
of every module but ``__init__``, and each public method of its classes.
A name counts as used when some module of the package (again not
``__init__``, whose re-exports would mark everything used) loads it as a
``Name``, reads it as an ``Attribute`` or imports it.  A helper that only
tests call must not come back, so the unused names must be exactly the
allowlist below, each with the reason it stays.

Uses are matched by the bare name, so a name that collides with another
identifier (``free``, ``rank`` or ``get``, say) always looks used: the scan
can only keep the list from growing, not prove that it is complete.

Run it alone with ``python tests/test_public_surface.py``, which prints the
unused names and their count.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "snckit"

ALLOWED_UNUSED = {
    "smith_normal_form": "acceptance criterion 1 tests it as a claim about src",
    "e2_page": "acceptance criterion 3 tests it as a claim about src",
    "blowup_point_on_double_curve": "acceptance criterion 6 tests it as a claim about src",
    "blowup_stratum_component": "the public single-step blowup",
    "IntMatrix.transpose": "perfbench/tracer.py METHODS reads it with vars(cls)[attr]",
    "SncDivisor.build": "the one public constructor that takes subsets in any order",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _modules() -> list[ast.Module]:
    return [ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SOURCE.glob("*.py")) if path.name != "__init__.py"]


def public_names(tree: ast.Module) -> dict[str, str]:
    """Qualified name → bare name, for the public definitions of one module."""
    out: dict[str, str] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _public(node.name):
                out[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and _public(item.name)):
                        out[f"{node.name}.{item.name}"] = item.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and _public(target.id):
                    out[target.id] = target.id
    return out


def used_names(tree: ast.Module) -> set[str]:
    """The bare names one module loads, reads as attributes or imports."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
    return out


def unused_public_names() -> set[str]:
    """Public names of the package that no module of it uses."""
    trees = _modules()
    defined: dict[str, str] = {}
    used: set[str] = set()
    for tree in trees:
        defined.update(public_names(tree))
        used |= used_names(tree)
    return {qual for qual, bare in defined.items() if bare not in used}


def test_only_allowlisted_public_names_go_unused_in_src():
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())
    assert unused_public_names() == set(ALLOWED_UNUSED)


if __name__ == "__main__":
    unused = sorted(unused_public_names())
    for name in unused:
        print(f"{name}: {ALLOWED_UNUSED.get(name, 'NOT ALLOWLISTED')}")
    print(f"{len(unused)} unused public names ({len(ALLOWED_UNUSED)} allowlisted)")
    sys.exit(0 if set(unused) == set(ALLOWED_UNUSED) else 1)
