"""AST lint engine: file walking, rule dispatch, suppression, reporting.

The engine parses each Python file once, hands the tree to every registered
rule (see :mod:`repro.analysis.rules`), and filters the resulting
violations through per-line suppression comments of the form::

    risky_line()  # repro: noqa[RULE001]          suppress one rule
    risky_line()  # repro: noqa[RULE001,RULE002]  suppress several
    risky_line()  # repro: noqa                   suppress everything

Run it as ``python -m repro.cli lint src``; the exit code is 0 when the tree
is clean, 1 when violations were found, 2 on bad usage.  Files that do not
parse are reported as ``E999`` violations rather than crashing the run, so
one broken file cannot hide findings in the rest of the tree.
"""

from __future__ import annotations

import argparse
import ast
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

PathLike = Union[str, Path]

#: Matches a suppression comment anywhere in a line (case-insensitive tag).
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Violation:
    """One finding: a rule fired at ``path:line:col``."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-serializable form (for ``--format json`` and CI tooling)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Everything a rule needs to inspect one parsed file."""

    path: Path
    tree: ast.AST
    lines: List[str] = field(default_factory=list)

    @property
    def display_path(self) -> str:
        return str(self.path)

    def in_package(self, *parts: str) -> bool:
        """True when ``parts`` appears as a contiguous run of path components.

        Used by path-scoped rules, e.g. TEN001 exempts files inside
        ``repro/nn``: ``ctx.in_package("repro", "nn")``.
        """
        own = Path(self.path).parts
        n = len(parts)
        return any(own[i : i + n] == parts for i in range(len(own) - n + 1))

    def violation(self, rule: str, node: ast.AST, message: str) -> Violation:
        return Violation(
            rule=rule,
            path=self.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


def suppressed_rules(line_text: str) -> Optional[Set[str]]:
    """Parse a source line's suppression comment.

    Returns ``None`` when the line has no ``repro: noqa`` comment, an empty
    set for a blanket ``# repro: noqa``, or the set of named rule IDs.
    """
    match = _NOQA_RE.search(line_text)
    if match is None:
        return None
    rules = match.group("rules")
    if rules is None:
        return set()
    return {part.strip().upper() for part in rules.split(",") if part.strip()}


def _is_suppressed(violation: Violation, lines: Sequence[str]) -> bool:
    if not 1 <= violation.line <= len(lines):
        return False
    rules = suppressed_rules(lines[violation.line - 1])
    if rules is None:
        return False
    return not rules or violation.rule in rules


def lint_file(
    path: PathLike,
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint one file; returns its (unsuppressed) violations sorted by line."""
    from .rules import iter_rules

    path = Path(path)
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Violation(
                rule="E999",
                path=str(path),
                line=exc.lineno or 1,
                col=(exc.offset or 0) + 1,
                message=f"syntax error: {exc.msg}",
            )
        ]
    ctx = FileContext(path=path, tree=tree, lines=lines)
    violations: List[Violation] = []
    for rule in iter_rules(select):
        violations.extend(rule.check(ctx))
    violations = [v for v in violations if not _is_suppressed(v, lines)]
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def iter_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    seen: Dict[Path, None] = {}
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            for found in sorted(entry.rglob("*.py")):
                seen.setdefault(found, None)
        elif entry.suffix == ".py":
            seen.setdefault(entry, None)
        else:
            raise FileNotFoundError(f"not a Python file or directory: {entry}")
    return sorted(seen)


def lint_paths(
    paths: Sequence[PathLike],
    select: Optional[Iterable[str]] = None,
) -> List[Violation]:
    """Lint every ``.py`` file under ``paths``; returns all violations."""
    violations: List[Violation] = []
    for file_path in iter_python_files(paths):
        violations.extend(lint_file(file_path, select=select))
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.cli lint``."""
    from .rules import RULES

    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="project-specific AST lint engine (see repro/analysis/README.md)",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        default=None,
        metavar="RULES",
        help="comma-separated rule IDs to skip (applied after --select)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="violation output format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].summary}")
        return 0

    def parse_rule_list(raw: str, flag: str) -> Optional[List[str]]:
        rule_ids = [part.strip().upper() for part in raw.split(",") if part.strip()]
        unknown = [rule_id for rule_id in rule_ids if rule_id not in RULES]
        if unknown:
            print(f"unknown rule(s) in {flag}: {', '.join(unknown)}", file=sys.stderr)
            return None
        return rule_ids

    select = None
    if args.select is not None:
        select = parse_rule_list(args.select, "--select")
        if select is None:
            return 2
    if args.ignore is not None:
        ignored = parse_rule_list(args.ignore, "--ignore")
        if ignored is None:
            return 2
        select = [
            rule_id
            for rule_id in (select if select is not None else sorted(RULES))
            if rule_id not in ignored
        ]

    try:
        violations = lint_paths(args.paths, select=select)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.output_format == "json":
        print(json.dumps([v.to_dict() for v in violations], indent=2))
        return 1 if violations else 0
    for violation in violations:
        print(violation.format())
    if violations:
        counts: Dict[str, int] = {}
        for violation in violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        summary = ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        print(f"found {len(violations)} violation(s) ({summary})")
        return 1
    return 0
