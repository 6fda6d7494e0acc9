"""The code paths DESIGN.md and README.md cite must exist.

DESIGN.md §3 maps each paper table and figure to its modules and benchmark;
an index that names renamed files or modules sends the reader nowhere.  Every
``benchmarks/....py`` path (with its ``::test`` node, if given) must name a
file and a test function in it, and every backticked ``repro....`` name must
import or resolve as an attribute of a module.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("DESIGN.md", "README.md")
BENCH_PATH = re.compile(r"(benchmarks/[\w/]+\.py(?:::\w+)?)")
REPRO_NAME = re.compile(r"`(repro(?:\.\w+)+)")


def _cited(pattern):
    return sorted(
        {(doc, match.group(1))
         for doc in DOCS
         for match in pattern.finditer((ROOT / doc).read_text())}
    )


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        try:
            for attribute in parts[split:]:
                obj = getattr(obj, attribute)
        except AttributeError:
            return False
        return True
    return False


def test_docs_cite_code():
    assert _cited(BENCH_PATH)
    assert _cited(REPRO_NAME)


@pytest.mark.parametrize("doc,cited", _cited(BENCH_PATH))
def test_benchmark_path_exists(doc, cited):
    path, _, node = cited.partition("::")
    file = ROOT / path
    assert file.is_file(), f"{doc} cites missing {path}"
    if node:
        tree = ast.parse(file.read_text())
        functions = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert node in functions, f"{doc} cites missing test {cited}"


@pytest.mark.parametrize("doc,name", _cited(REPRO_NAME))
def test_repro_name_resolves(doc, name):
    assert _resolves(name), f"{doc} cites {name}, which does not resolve"
