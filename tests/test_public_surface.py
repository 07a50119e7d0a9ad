"""No public name in ``src/snckit`` that nothing in ``src`` reads.

An AST scan collects each public top-level function, class and constant
of every module but ``__init__``, and each public method of its classes.
A top-level name counts as used when some module of the package (again
not ``__init__``, whose re-exports would mark everything used) loads it as
a ``Name``, reads it as an ``Attribute`` or imports it; a method counts as
used only when some module reads it as an ``Attribute``, so a local
variable of the same name does not hide it.  A helper that only tests call
must not come back, so the unused names must be exactly the allowlist
below, each with the reason it stays.  ``snckit.__all__`` is pinned as
well: it must be sorted and equal ``PUBLIC``, so a public name comes or
goes only by a reviewed edit of that list.

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


def used_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The bare names one module loads, reads as attributes or imports,
    and those it reads as attributes."""
    names: set[str] = set()
    attrs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names | attrs, attrs


def unused_public_names(trees: list[ast.Module] | None = None) -> set[str]:
    """Public names of the package, or of ``trees``, that no module uses."""
    trees = _modules() if trees is None else trees
    defined: dict[str, str] = {}
    used: set[str] = set()
    read: set[str] = set()
    for tree in trees:
        defined.update(public_names(tree))
        names, attrs = used_names(tree)
        used |= names
        read |= attrs
    return {qual for qual, bare in defined.items()
            if bare not in (read if "." in qual else used)}


def test_only_allowlisted_public_names_go_unused_in_src():
    assert all(reason.strip() for reason in ALLOWED_UNUSED.values())
    assert unused_public_names() == set(ALLOWED_UNUSED)


PUBLIC = [
    "BlowupRecord", "ChainComplex", "DuBoisTable", "DualComplex", "FgAbGroup", "Hom",
    "IntMatrix", "KReport", "KhReport", "PicardInput", "PicardLevel", "SmithForm",
    "SncDivisor", "SpectralPage", "SupportViolationError", "TorusDescriptor",
    "blowup_point_on_double_curve", "blowup_stratum_component", "cohomology", "compose",
    "direct_sum", "e2_page", "find_bad_intersections", "homology", "k_report", "kh_report",
    "ns_analysis", "presentation_matrix", "resolve_to_simplicial", "smith_normal_form",
    "subquotient", "validate_snc",
]


def test_the_package_exports_exactly_the_reviewed_names():
    # A public name is added or dropped only by an edit of PUBLIC.
    import snckit
    assert snckit.__all__ == sorted(snckit.__all__) == PUBLIC
    assert all(hasattr(snckit, name) for name in snckit.__all__)


def test_a_method_is_used_only_where_it_is_read_as_an_attribute():
    defining = ast.parse("class Table:\n"
                         "    def rows(self): pass\n"
                         "    def cols(self): pass\n")
    reading = ast.parse("def _count():\n"
                        "    rows = Table()\n"
                        "    return len(rows.cols())\n")
    assert unused_public_names([defining, reading]) == {"Table.rows"}


if __name__ == "__main__":
    unused = sorted(unused_public_names())
    for name in unused:
        print(f"{name}: {ALLOWED_UNUSED.get(name, 'NOT ALLOWLISTED')}")
    print(f"{len(unused)} unused public names ({len(ALLOWED_UNUSED)} allowlisted)")
    sys.exit(0 if set(unused) == set(ALLOWED_UNUSED) else 1)
