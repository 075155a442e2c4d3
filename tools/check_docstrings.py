#!/usr/bin/env python
"""Docstring-coverage gate for the public API surface.

The container has no ``interrogate`` wheel, so this is a dependency-free
equivalent: walk the AST of every module under the audited packages
(default: ``repro.api``, ``repro.cluster``, ``repro.consistency``,
``repro.faust.checkpoint``, ``repro.faust.membership``, ``repro.obs``,
``repro.perf``, ``repro.replica`` and ``repro.workloads`` — the surfaces
applications program against) and require a docstring on

* every module,
* every public class (name not starting with ``_``),
* every public function/method of a public scope (dunders exempt; an
  ``__init__``'s contract belongs in its class docstring).

``# pragma: no docstring`` on the ``def``/``class`` line exempts a
definition (none currently need it).  Exit status 0 iff coverage is 100%;
the missing definitions are listed otherwise.  Wired into CI (job
``tier1``) and into the tier-1 suite via
``tests/test_docstring_coverage.py``.

Usage::

    python tools/check_docstrings.py [package_dir ...]
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_TARGETS = [
    REPO_ROOT / "src" / "repro" / "api",
    REPO_ROOT / "src" / "repro" / "cluster",
    REPO_ROOT / "src" / "repro" / "consistency",
    REPO_ROOT / "src" / "repro" / "faust" / "checkpoint.py",
    REPO_ROOT / "src" / "repro" / "faust" / "membership.py",
    REPO_ROOT / "src" / "repro" / "obs",
    REPO_ROOT / "src" / "repro" / "perf",
    REPO_ROOT / "src" / "repro" / "replica",
    REPO_ROOT / "src" / "repro" / "workloads",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _exempt(source_lines: list[str], node: ast.AST) -> bool:
    line = source_lines[node.lineno - 1]
    return "pragma: no docstring" in line


def _walk_scope(
    node: ast.AST,
    qualname: str,
    source_lines: list[str],
    missing: list[str],
    total: list[int],
) -> None:
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _FUNC_NODES + (ast.ClassDef,)):
            name = child.name
            if not _is_public(name) or _exempt(source_lines, child):
                continue
            label = f"{qualname}.{name}"
            total[0] += 1
            if ast.get_docstring(child) is None:
                missing.append(label)
            if isinstance(child, ast.ClassDef):
                _walk_scope(child, label, source_lines, missing, total)


def audit_file(path: Path) -> tuple[int, list[str]]:
    """Count audited definitions and collect the ones missing docstrings."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    source_lines = source.splitlines()
    try:
        relative = path.relative_to(REPO_ROOT)
    except ValueError:  # audited file outside the repo (tests use tmp dirs)
        relative = Path(path.name)
    module = str(relative.with_suffix("")).replace("/", ".").removeprefix("src.")
    missing: list[str] = []
    total = [1]  # the module docstring itself
    if ast.get_docstring(tree) is None:
        missing.append(f"{module} (module docstring)")
    _walk_scope(tree, module, source_lines, missing, total)
    return total[0], missing


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit status."""
    args = sys.argv[1:] if argv is None else argv
    targets = [Path(arg).resolve() for arg in args] if args else DEFAULT_TARGETS
    audited = 0
    missing: list[str] = []
    for target in targets:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        for path in files:
            count, absent = audit_file(path)
            audited += count
            missing.extend(absent)
    covered = audited - len(missing)
    percent = 100.0 * covered / audited if audited else 100.0
    print(f"docstring coverage: {covered}/{audited} public definitions ({percent:.1f}%)")
    if missing:
        print("missing docstrings:")
        for label in missing:
            print(f"  - {label}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
