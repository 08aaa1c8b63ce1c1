"""The library holds no code and no option that only the tests use.

Every module-level function or class in ``src/bosebox``, and every method
and property of such a class but the dunders, must be read by some other
code of the library or the command line, and every keyword-only
parameter of a module-level function must be passed by name by some call
in it, at some value other than its default; ``__init__`` re-exports do
not count. A result that only a test checks against belongs in that test
file as its oracle, and a setting that only a test changes, or that the
library sets to one value only, is a constant. The keep-lists name the few public
entry points and options that nothing in the library uses, each with the
reason it stays. Conversely, every setting of the default configuration
must be changed by some test.
"""

import ast
import pathlib

import bosebox
from bosebox.cli import DEFAULT_CONFIG

PACKAGE = pathlib.Path(bosebox.__file__).parent
TESTS = pathlib.Path(__file__).parent

# the command-line flags that set a configuration entry without --override
FLAGS = {"cutoffs.e_max": "--emax", "output.format": "--format", "output.path": "--out"}

KEEP = {
    "occupation_pmf": "AC2 compares it with the exhaustive small-system oracle",
    "gc_laplace_finite": "AC7 compares it with the slow-gap limit",
    "axis_curvature_at_zero": "AC9 compares the second difference of g_1 at 0 with it",
}

KEEP_OPTIONS = {
    "limiting_kac_transform(convention=)": 'the tests use "normalized" as the '
    "regime-II target",
}


def _modules():
    """(file name, parsed module) of every file of the package."""
    return [(path.name, ast.parse(path.read_text())) for path in sorted(PACKAGE.glob("*.py"))]


def _read_names():
    """(names, attribute names) that the library's code reads, outside
    ``__init__``."""
    names, attributes = set(), set()
    for name, tree in _modules():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
    return names, attributes


def test_every_library_definition_has_a_library_caller():
    defs = {}
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs[node.name] = name
    referenced = set.union(*_read_names())
    uncalled = sorted(
        f"{module}:{name}"
        for name, module in defs.items()
        if name not in referenced and name not in KEEP
    )
    assert uncalled == []
    # a keep-list entry that is gone, or has since gained a caller, is stale
    assert sorted(n for n in KEEP if n not in defs or n in referenced) == []


def test_every_library_method_has_a_library_reader():
    """Every method and property of a library class but the dunders is
    read as an attribute by some code of the library."""
    members = {}
    for name, tree in _modules():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    node.name.startswith("__") and node.name.endswith("__")
                ):
                    members[f"{name}:{cls.name}.{node.name}"] = node.name
    _, attributes = _read_names()
    assert sorted(m for m, attr in members.items() if attr not in attributes) == []


def _literal(node):
    """(type, value) of a literal node; anything else gets a fresh object,
    equal to no other."""
    try:
        value = ast.literal_eval(node)
    except ValueError:
        return object()
    return type(value), value


def test_every_keyword_option_is_passed_by_the_library():
    """Every keyword-only option is passed by some library call, and not
    only at its default: a non-constant argument counts as another value."""
    options, passed = {}, {}
    for name, tree in _modules():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
                    options[f"{node.name}({arg.arg}=)"] = name, default
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                for kw in node.keywords:
                    if kw.arg:
                        passed.setdefault(f"{callee}({kw.arg}=)", []).append(kw.value)
    unset = sorted(
        f"{module}:{option}"
        for option, (module, _) in options.items()
        if option not in passed and option not in KEEP_OPTIONS
    )
    assert unset == []
    at_default = sorted(
        f"{module}:{option}"
        for option, (module, default) in options.items()
        if default is not None and option in passed
        and all(_literal(v) == _literal(default) for v in passed[option])
    )
    assert at_default == []
    # a keep-list entry that is gone, or is now passed, is stale
    assert sorted(o for o in KEEP_OPTIONS if o not in options or o in passed) == []


def _leaves(config, prefix=""):
    """The dotted paths of a configuration's non-dict entries."""
    for key, value in config.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key


def test_every_setting_is_set_by_a_test():
    """Every leaf of the default configuration is set by some test, with an
    ``--override <path>=...`` argument or with its flag: a setting that no
    test changes is either unchecked or a constant."""
    strings = {
        node.value
        for path in sorted(TESTS.glob("test_*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    unset = sorted(
        leaf
        for leaf in _leaves(DEFAULT_CONFIG)
        if FLAGS.get(leaf) not in strings and not any(s.startswith(f"{leaf}=") for s in strings)
    )
    assert unset == []
