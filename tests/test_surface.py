"""The library holds no code that only the tests call.

Every module-level function or class in ``src/bosebox`` must be read by
some other code of the library or the command line; ``__init__`` re-exports
do not count. A result that only a test checks against belongs in that test
file as its oracle. The keep-list names the few public entry points that
nothing in the library calls, each with the reason it stays.
"""

import ast
import pathlib

import bosebox

PACKAGE = pathlib.Path(bosebox.__file__).parent

KEEP = {
    "occupation_pmf": "AC2 compares it with the exhaustive small-system oracle",
    "gc_laplace_finite": "AC7 compares it with the slow-gap limit",
    "axis_curvature_at_zero": "AC9 compares the second difference of g_1 at 0 with it",
    "gc_density": "perfbench traces it by name as the grand-canonical density",
    "unit_box_gap_values": "perfbench traces it by name as the lattice gap listing",
}


def test_every_library_definition_has_a_library_caller():
    defs, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = path.name
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    uncalled = sorted(
        f"{module}:{name}"
        for name, module in defs.items()
        if name not in referenced and name not in KEEP
    )
    assert uncalled == []
    # a keep-list entry that is gone, or has since gained a caller, is stale
    assert sorted(n for n in KEEP if n not in defs or n in referenced) == []
