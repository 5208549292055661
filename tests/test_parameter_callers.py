"""Every parameter with a default in the package has a caller that passes it.

A default that no call site ever overrides is a setting nobody uses: it
doubles the configurations the tests would have to cover and guards
branches that never run.  This test parses the package's modules and every
Python file under src/ and perfbench/ with ast, and fails on each
defaulted parameter that no call passes, by keyword or by position.  Calls
in tests/ do not count, so no parameter lives in the package for the tests
alone.
Calls are matched by the called name alone (a function, a method or an
attribute of that name), and a call that unpacks *args or **kwargs counts
as passing every positional or keyword parameter.

A second test holds the package to its own callers: every function and
method defined in src/timelens must be referenced in src/timelens outside
its own definition, as a name, an attribute or an ``__all__`` entry, so no
function lives in the package for the tests alone.  Dunder methods are
called by Python itself, and the functions perfbench traces
(``perfbench/spans.TRACED``) are pinned by the benchmark, so both pass.

A third test keeps test hooks out of the package: no module in
src/timelens calls the builtin ``setattr`` or ``delattr``, the tools that
swap a module's functions for a run.  ``object.__setattr__`` in a frozen
dataclass's ``__post_init__`` is an attribute call and passes.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "timelens"
CALLER_DIRS = ("src", "perfbench")


def _defaulted_parameters(tree: ast.Module):
    """(function name, parameter, call position or None, line) of each defaulted parameter."""
    methods = {
        id(fn)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list)
    }
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        args = fn.args
        positional = args.posonlyargs + args.args
        # a bound method's first parameter is not written at the call
        shift = 1 if id(fn) in methods else 0
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield fn.name, arg.arg, index - shift, fn.lineno
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None, fn.lineno


def _call_sites():
    """Called name -> list of (positional count, keyword names or None for **kwargs)."""
    calls: dict[str, list] = {}
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name is None:
                    continue
                n_positional = (
                    math.inf
                    if any(isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args)
                )
                keywords = {kw.arg for kw in node.keywords}
                calls.setdefault(name, []).append(
                    (n_positional, None if None in keywords else keywords)
                )
    return calls


def _passed(sites, parameter: str, position: int | None) -> bool:
    for n_positional, keywords in sites:
        if keywords is None or parameter in keywords:
            return True
        if position is not None and n_positional > position:
            return True
    return False


def test_every_defaulted_parameter_has_a_caller():
    calls = _call_sites()
    unused = []
    for module in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(module.read_text(encoding="utf-8"))
        for fn, parameter, position, line in _defaulted_parameters(tree):
            if not _passed(calls.get(fn, []), parameter, position):
                unused.append(f"{module.name}:{line} {fn}({parameter})")
    assert unused == [], "defaulted parameters no call passes: " + ", ".join(unused)


def _traced_names() -> set[str]:
    """Function names listed in perfbench/spans.TRACED."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "TRACED":
            return {elt.value for names in node.value.values for elt in names.elts}
    raise AssertionError("perfbench/spans.py defines no TRACED")


def _references(tree: ast.Module):
    """(name, line) of each name, attribute and __all__ entry in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Assign) and any(
            getattr(t, "id", None) == "__all__" for t in node.targets
        ):
            for elt in node.value.elts:
                yield elt.value, elt.lineno


def test_every_package_function_has_a_package_caller():
    trees = {
        module.name: ast.parse(module.read_text(encoding="utf-8"))
        for module in sorted(PACKAGE.glob("*.py"))
    }
    references: dict[str, list] = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            references.setdefault(name, []).append((module, line))
    exempt = _traced_names()
    uncalled = []
    for module, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if fn.name in exempt or (fn.name.startswith("__") and fn.name.endswith("__")):
                continue
            if not any(
                where != module or not fn.lineno <= line <= fn.end_lineno
                for where, line in references.get(fn.name, [])
            ):
                uncalled.append(f"{module}:{fn.lineno} {fn.name}")
    assert uncalled == [], "functions nothing in src/timelens refers to: " + ", ".join(uncalled)


def test_package_swaps_no_attributes():
    calls = [
        f"{module.name}:{node.lineno} {node.func.id}"
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("setattr", "delattr")
    ]
    assert calls == [], "builtin setattr/delattr calls in src/timelens: " + ", ".join(calls)
