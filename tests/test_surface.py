"""No dead library code: every top-level function and class in ``src/zenolab`` has a user.

A name counts as used when it appears outside its own definition and its
module's ``__all__``: in its own module, in another library module (the
package ``__init__`` only re-exports, so it does not count), in the
acceptance criteria, or in the benchmark's layer tracer, which looks names
up by string. Unit tests do not count; a dense reference that only tests
call lives in ``tests/reference.py``.

A dataclass that holds an array, directly or through another dataclass,
compares by identity: a generated ``__eq__`` would compare the array as one
truth value and raise, and the generated ``__hash__`` with it.
"""

import ast
import dataclasses
import importlib
import inspect
import typing
from pathlib import Path

import numpy as np

from zenolab.scenarios import Table

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "zenolab"
USERS = (REPO / "tests" / "test_acceptance.py", REPO / "perfbench" / "tracer.py")


def names_read(node: ast.AST) -> set[str]:
    """Every identifier under ``node``: names, attributes, imported names and identifier strings."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out.add(sub.value)
    return out


def is_all(statement: ast.stmt) -> bool:
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
    )


def test_every_library_definition_has_a_user():
    parse = lambda path: ast.parse(path.read_text(encoding="utf-8"))
    modules = {path: parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    everywhere = {path: names_read(tree) for path, tree in [*modules.items(), *((user, parse(user)) for user in USERS)]}
    # per module: the names read anywhere but in it
    outside = {path: set().union(*(names for other, names in everywhere.items() if other != path)) for path in modules}
    dead = []
    for path, tree in modules.items():
        body = [statement for statement in tree.body if not is_all(statement)]
        reads = [names_read(statement) for statement in body]
        for i, statement in enumerate(body):
            if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)) or statement.name in outside[path]:
                continue
            if not any(statement.name in names for j, names in enumerate(reads) if j != i):
                dead.append(f"{path.stem}.{statement.name}")
    assert not dead, f"no task, criterion or tracer reaches {dead}; delete them or move a test reference to tests/reference.py"


def library_dataclasses() -> list[type]:
    stems = sorted(path.stem for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    modules = [importlib.import_module(f"zenolab.{stem}") for stem in stems]
    return [
        cls
        for module in modules
        for cls in vars(module).values()
        if inspect.isclass(cls) and dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__
    ]


def holds_array(tp, seen=frozenset()) -> bool:
    """Whether a field of type ``tp`` holds an ndarray: as itself, inside a container, or in a dataclass's field."""
    if tp is np.ndarray:
        return True
    if dataclasses.is_dataclass(tp):
        hints = () if tp in seen else typing.get_type_hints(tp).values()  # a config holds configs of its own type
        return any(holds_array(hint, seen | {tp}) for hint in hints)
    return any(holds_array(arg, seen) for arg in typing.get_args(tp))


def test_dataclasses_that_hold_arrays_compare_by_identity():
    holding = [cls for cls in library_dataclasses() if holds_array(cls)]
    assert {"HermitianOperator", "Scenario", "Table", "DegenerateForm", "ZenoConvergenceReport"} <= {
        cls.__name__ for cls in holding
    }
    assert [cls.__name__ for cls in holding if "__eq__" in vars(cls)] == []
    a, b = Table({"x": np.arange(3)}), Table({"x": np.arange(3)})
    assert a == a and a != b and len({a, b}) == 2


def test_only_operators_names_the_arrowhead():
    """The Friedrichs operator's shortcuts live in its own methods: no other library module reads ``_Arrowhead``."""
    readers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "operators.py" and "_Arrowhead" in names_read(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert readers == []
