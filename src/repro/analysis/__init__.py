"""Static-analysis subsystem: the project lint engine.

Machine-checked invariants for the reproduction — deterministic RNG
threading, honest exception handling, tape-safe tensor use — instead of
reviewer vigilance.  See ``repro/analysis/README.md`` for the rule table
and suppression syntax.

Programmatic use::

    from repro.analysis import lint_paths
    violations = lint_paths(["src"])     # [] when the tree is clean

CLI use: ``python -m repro.cli lint src``.
"""

from .engine import (
    FileContext,
    Violation,
    iter_python_files,
    lint_file,
    lint_paths,
    main,
    suppressed_rules,
)
from .rules import RULES, Rule, iter_rules, register

__all__ = [
    "FileContext",
    "Violation",
    "Rule",
    "RULES",
    "register",
    "iter_rules",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "suppressed_rules",
    "main",
]
