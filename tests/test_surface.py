"""No dead library code: every top-level function and class in ``src/zenolab``,
every method and property of its classes, every field of its dataclasses and
every defaulted parameter of its functions has a user.

A name counts as used when it appears outside its own definition and its
module's ``__all__``: in its own module, in another library module (the
package ``__init__`` only re-exports, so it does not count), in the
acceptance criteria, or in the benchmark's layer tracer, which looks names
up by string. A defaulted parameter counts as used when one of those files
passes it, by keyword or by position, to a call of its function's name; an
option no caller sets is a constant. A dataclass field counts as used when
one of those files loads its name as an attribute (``x.name`` or
``getattr(x, "name")``): a record holds only what its readers read. Unit
tests do not count; a dense reference that only tests call lives in
``tests/reference.py``.

A dataclass that holds an array, directly or through another dataclass,
compares by identity: a generated ``__eq__`` would compare the array as one
truth value and raise, and the generated ``__hash__`` with it.

No dead oracle either: every public function of ``tests/reference.py`` is
called by some test module.
"""

import ast
import dataclasses
import importlib
import inspect
import re
import typing
from collections import Counter
from functools import cache
from pathlib import Path

import numpy as np

from zenolab.scenarios import Table

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "zenolab"
USERS = (REPO / "tests" / "test_acceptance.py", REPO / "perfbench" / "tracer.py")
REFERENCE = REPO / "tests" / "reference.py"
ENTRY_POINTS = {("cli", "main", "argv")}  # the console script calls main() with no argument


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


@cache
def modules() -> dict[Path, ast.Module]:
    """The library's modules but the re-exporting ``__init__``, parsed once."""
    return {path: parse(path) for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}


@cache
def readers() -> dict[Path, ast.Module]:
    """Every file whose reads count: the library modules, the acceptance criteria and the tracer."""
    return {**modules(), **{user: parse(user) for user in USERS}}


def names_read(node: ast.AST) -> Counter:
    """Every identifier under ``node``, with its count: names, attributes, imported names and identifier strings."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rpartition(".")[2]] += 1
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            out[sub.value] += 1
    return out


def is_all(statement: ast.stmt) -> bool:
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in statement.targets
    )


def test_every_library_definition_has_a_user():
    everywhere = {path: names_read(tree) for path, tree in readers().items()}
    # per module: the names read anywhere but in it
    outside = {path: set().union(*(names for other, names in everywhere.items() if other != path)) for path in modules()}
    dead = []
    for path, tree in modules().items():
        body = [statement for statement in tree.body if not is_all(statement)]
        reads = [names_read(statement) for statement in body]
        for i, statement in enumerate(body):
            if not isinstance(statement, (ast.FunctionDef, ast.ClassDef)) or statement.name in outside[path]:
                continue
            if not any(statement.name in names for j, names in enumerate(reads) if j != i):
                dead.append(f"{path.stem}.{statement.name}")
    assert not dead, f"no task, criterion or tracer reaches {dead}; delete them or move a test reference to tests/reference.py"


def library_classes():
    """(module path, class) for every top-level class of the library."""
    return [(path, node) for path, tree in modules().items() for node in tree.body if isinstance(node, ast.ClassDef)]


def test_every_method_and_property_has_a_reader():
    """A method or property is read when its name is read outside its own body; Python calls the dunders itself."""
    everywhere = sum((names_read(tree) for tree in readers().values()), Counter())
    unread = [
        f"{path.stem}.{cls.name}.{method.name}"
        for path, cls in library_classes()
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and not method.name.startswith("__")
        if everywhere[method.name] == names_read(method)[method.name]
    ]
    assert not unread, f"no task, criterion or tracer reads {unread}; delete them"


def callee(call: ast.Call) -> str | None:
    return call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)


def attributes_loaded() -> set[str]:
    """Every attribute name the readers load: ``x.name`` read, or ``getattr(x, "name")``."""
    out = set()
    for tree in readers().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                out.add(node.attr)
            elif isinstance(node, ast.Call) and callee(node) == "getattr" and len(node.args) > 1:
                out.add(getattr(node.args[1], "value", None))
    return out


def test_every_dataclass_field_has_a_reader():
    """A field is read when its name is loaded as an attribute in a reader; a record holds only what is read."""
    loaded = attributes_loaded()
    unread = [
        f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}.{field.name}"
        for cls in library_dataclasses()
        for field in dataclasses.fields(cls)
        if field.name not in loaded
    ]
    assert not unread, f"no task, criterion or tracer reads {unread}; delete them"


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` passes the parameter ``name``, by keyword or at ``position`` (None: keyword only)."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):  # None: a **mapping
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args)


def defaulted_parameters(fn: ast.FunctionDef, bound: bool) -> list[tuple[str, int | None]]:
    """(name, position) of each parameter of ``fn`` with a default; a method's position is counted after self."""
    positional = [arg.arg for arg in fn.args.posonlyargs + fn.args.args][bound:]
    first = len(positional) - len(fn.args.defaults)
    keyword_only = [arg.arg for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if default is not None]
    return [(name, first + i) for i, name in enumerate(positional[first:])] + [(name, None) for name in keyword_only]


def test_every_defaulted_parameter_is_passed():
    """A parameter with a default that no call sets is a constant: an option with one value in use."""
    calls = {}
    for tree in readers().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(callee(node), []).append(node)
    subclasses = {cls.name: {cls.name} for _, cls in library_classes()}
    for _, cls in library_classes():
        for base in cls.bases:
            for family in subclasses.values():
                if isinstance(base, ast.Name) and base.id in family:
                    family.add(cls.name)
    functions = [(path, None, node) for path, tree in modules().items() for node in tree.body]
    functions += [(path, cls, node) for path, cls in library_classes() for node in cls.body]
    unset = []
    for path, cls, fn in functions:
        if not isinstance(fn, ast.FunctionDef):
            continue
        bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
        # a constructor is called by its class's name, or a subclass's
        names = subclasses[cls.name] if fn.name == "__init__" else {fn.name}
        for name, position in defaulted_parameters(fn, bound):
            if (path.stem, fn.name, name) in ENTRY_POINTS:
                continue
            if not any(passes(call, name, position) for callee_name in names for call in calls.get(callee_name, ())):
                unset.append(f"{path.stem}.{fn.name}({name}=)")
    assert not unset, f"no task, criterion or tracer sets {unset}; make them constants"


def library_dataclasses() -> list[type]:
    loaded = [importlib.import_module(f"zenolab.{path.stem}") for path in modules()]
    return [
        cls
        for module in loaded
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
    named = [path.name for path, tree in modules().items() if path.name != "operators.py" and "_Arrowhead" in names_read(tree)]
    assert named == []


def test_every_reference_oracle_is_called_by_a_test():
    """A dense definition that no test calls checks nothing; delete it or call it.

    A call is the name followed by ``(`` in a test module's text: a regex over
    the text keeps this well under the cost of parsing every test module.
    """
    texts = (path.read_text(encoding="utf-8") for path in REFERENCE.parent.glob("test_*.py"))
    called = {name for text in texts for name in re.findall(r"(\w+)\(", text)}
    public = [node.name for node in parse(REFERENCE).body if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]
    assert [name for name in public if name not in called] == []
