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

The same holds for a setting that only tests change: the program runs one
value and the tests keep the code of the others alive.  The second check
leaves ``tests/`` out of the callers and also scans the fields of each
``*Config`` dataclass; the few parameters that exist for tests are listed
in ``TEST_SEAMS`` with the reason each stays.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "examples", "perfbench", "tests")
#: Examples count as callers: CI runs them as checks of the public API.
PROGRAM_DIRS = ("src", "benchmarks", "examples", "perfbench")

#: Settings that only tests change and that stay, each with its reason.
TEST_SEAMS = {
    "generate_samples(rng)": "tests pass a seeded generator to pin the draws",
    "generate_expected(rng)": "tests pass a seeded generator to pin the draws",
    "CampaignRunner(fault_plan)": "the fault-injection seam of the serving tests",
    "CampaignRunner(clock)": "tests drive deadlines with a ManualClock",
    "CampaignRunner(sleep)": "tests make injected latency advance a ManualClock",
    "ManualClock(start_s)": "a test clock; tests start it where a case needs",
    "inject(window)": "FaultPlan.inject is the chaos tests' fault schedule",
    "inject(level)": "FaultPlan.inject is the chaos tests' fault schedule",
    "inject(times)": "FaultPlan.inject is the chaos tests' fault schedule",
    "inject(latency_s)": "FaultPlan.inject is the chaos tests' fault schedule",
    "main(argv)": "each entry point takes argv so tests can run it in-process",
    "Tensor(requires_grad)": "Parameter passes it through super().__init__",
    "LSTMGNNBaseline(max_cells)": "sizes the golden baseline pins in tests/golden",
    "MLPBaseline(max_cells)": "sizes the golden baseline pins in tests/golden",
    "MLPBaseline(hidden)": "sizes the golden baseline pins in tests/golden",
    "DoppelGANger(max_cells)": "sizes the golden baseline pins in tests/golden",
    "HandoverConfig.hysteresis_db": "the simulator's A3 rule, outside GenDT's settings; "
    "its tests run select_serving_cells on hand-built matrices at other values",
    "HandoverConfig.time_to_trigger_samples": "the simulator's A3 rule, outside GenDT's "
    "settings; its tests run select_serving_cells on hand-built matrices at other values",
}


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


def _walk(directories):
    for directory in directories:
        for path in sorted((ROOT / directory).rglob("*.py")):
            yield from ast.walk(_parse(path))


def collect_calls(directories=CALLER_DIRS) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for node in _walk(directories):
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


def unpassed_parameters(directories=CALLER_DIRS) -> list[Defaulted]:
    calls = collect_calls(directories)
    return [
        param
        for param in collect_defaulted()
        if not any(_passes(call, param) for call in calls.get(param.callee, ()))
    ]


def collect_config_fields() -> list[tuple[str, str, str]]:
    """``(where, class, field)`` for each field of each ``*Config`` dataclass."""
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(ROOT)
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and node.name.endswith("Config"):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        found.append((f"{rel}:{item.lineno}", node.name, item.target.id))
    return found


def written_names(directories) -> set[str]:
    """Names a keyword argument or a string dict key writes.

    Benchmarks gather config overrides in dicts and pass them on with
    ``**``, so a field is matched by name wherever it is written.  A name
    shared with another setting can hide a field; it cannot flag one.
    """
    names = set()
    for node in _walk(directories):
        if isinstance(node, ast.keyword) and node.arg is not None:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def settings_only_tests_change() -> list[str]:
    """Each defaulted parameter and config field that no program call sets."""
    unset = [
        str(param) for param in unpassed_parameters(PROGRAM_DIRS)
        if f"{param.callee}({param.name})" not in TEST_SEAMS
    ]
    written = written_names(PROGRAM_DIRS)
    unset += [
        f"{where} {cls}.{name}" for where, cls, name in collect_config_fields()
        if name not in written and f"{cls}.{name}" not in TEST_SEAMS
    ]
    return unset


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
    assert ("GenDTConfig", "hidden_size") in {(c, n) for _, c, n in collect_config_fields()}


def test_every_setting_has_a_caller_outside_the_tests():
    unset = settings_only_tests_change()
    assert not unset, (
        f"{len(unset)} setting(s) that only tests change; make each a module "
        "constant beside its reader, or name it in TEST_SEAMS with a reason:\n"
        + "\n".join(unset)
    )


def test_each_test_seam_is_still_a_setting():
    # A seam whose parameter or field is gone would keep an exception for nothing.
    settings = {f"{d.callee}({d.name})" for d in collect_defaulted()}
    settings |= {f"{cls}.{name}" for _, cls, name in collect_config_fields()}
    assert not set(TEST_SEAMS) - settings
