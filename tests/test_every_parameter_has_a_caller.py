"""Every defaulted parameter of the public API is passed by some call.

A default that no caller overrides is a constant with extra steps: it widens
the signature, and the code it guards may never run.  One AST pass over
``src/repro`` collects each defaulted parameter of each public function or
method and of each class's ``__init__``; a second pass over the calls in
``src/``, ``benchmarks/``, ``examples/``, ``perfbench/`` and ``tests/``
marks a parameter as passed when a call to a callee of that name passes it
by keyword, fills its position, or unpacks ``*args``/``**kwargs``.  For
``__init__`` the callee name is the class name.  Dataclass fields are not
parameters here.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tests")


@dataclass(frozen=True)
class Defaulted:
    where: str
    callee: str
    name: str
    position: int | None  # index among the positional arguments a call fills

    def __str__(self) -> str:
        return f"{self.where} {self.callee}({self.name})"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_public(name: str) -> bool:
    return name == "__init__" or not name.startswith("_")


def _bound_offset(method: ast.FunctionDef) -> int:
    """How many leading parameters a call does not fill (``self``/``cls``)."""
    decorators = {d.id for d in method.decorator_list if isinstance(d, ast.Name)}
    return 0 if "staticmethod" in decorators else 1


def _defaulted(fn: ast.FunctionDef, callee: str, where: str, offset: int):
    args = fn.args
    positional = args.posonlyargs + args.args
    first_default = len(positional) - len(args.defaults)
    for index in range(first_default, len(positional)):
        yield Defaulted(where, callee, positional[index].arg, index - offset)
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield Defaulted(where, callee, arg.arg, None)


def collect_defaulted() -> list[Defaulted]:
    found: list[Defaulted] = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = _parse(path)
        rel = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and _is_public(node.name):
                found.extend(_defaulted(node, node.name, f"{rel}:{node.lineno}", 0))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef) or not _is_public(item.name):
                        continue
                    callee = node.name if item.name == "__init__" else item.name
                    where = f"{rel}:{item.lineno}"
                    found.extend(_defaulted(item, callee, where, _bound_offset(item)))
    return found


def _callee_name(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def collect_calls() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(_parse(path)):
                if isinstance(node, ast.Call):
                    name = _callee_name(node)
                    if name is not None:
                        calls[name].append(node)
    return calls


def _passes(call: ast.Call, param: Defaulted) -> bool:
    if any(kw.arg is None or kw.arg == param.name for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return param.position is not None and len(call.args) > param.position


def unpassed_parameters() -> list[Defaulted]:
    calls = collect_calls()
    return [
        param
        for param in collect_defaulted()
        if not any(_passes(call, param) for call in calls.get(param.callee, ()))
    ]


def test_every_defaulted_parameter_has_a_caller():
    unpassed = unpassed_parameters()
    assert not unpassed, (
        f"{len(unpassed)} defaulted parameter(s) that no call passes; make each "
        "a module constant or inline it:\n" + "\n".join(map(str, unpassed))
    )


def test_the_scan_sees_the_public_api():
    defaulted = collect_defaulted()
    # A scan that found nothing would pass the test above vacuously.
    assert len(defaulted) > 100
    assert any(d.callee == "GenDT" and d.name == "config" for d in defaulted)
