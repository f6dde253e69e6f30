"""Float-sum lint: golden-pinned modules add floats through ``ordered_sum``.

From Python 3.12 the builtin ``sum`` compensates rounding when it adds
floats, and ``statistics.fmean`` / ``math.fsum`` round differently from
left-to-right addition on every version, so a float sum that a golden
pins must go through :func:`repro.core.penalty.ordered_sum`.  This check
flags every call of the builtin ``sum``, ``fmean`` or ``fsum`` in
:data:`SCOPE`.  A call passes when it counts (``sum(1 for ...)``) or is
in :data:`ALLOWED`, whose entries each give the reason; an entry that no
longer matches a call is reported too.

Run it from the repository root (exit status 1 when it reports)::

    python -m tests.tools.float_sum_lint
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

#: Package-relative files and directories whose float sums goldens pin.
SCOPE = (
    "core",
    "simulation/kernel.py",
    "topology",
    "workloads",
    "analysis",
    "parallel/aggregate.py",
    "parallel/fleet.py",
    "parallel/tournament.py",
)

#: ``"<file>:<function>: <call>"`` of each call that may stay, and why
#: (the call's source with its whitespace runs collapsed to one space).
ALLOWED: Dict[str, str] = {
    "core/diagnosis.py:DiagnosisStats._diagnosed_count: sum( by_diag.get("
    "cause, 0) for by_diag in self.confusion.values() )": "integer counts",
    "core/diagnosis.py:DiagnosisStats._truth_count: "
    "sum(self.confusion.get(cause, {}).values())": "integer counts",
    "core/resilience.py:AuditLog.total: sum(self.counts.values())":
        "integer counts",
    "parallel/fleet.py:fleet_rollup_row: "
    'sum(col["links_design"] for col in per_dcn)': "integer link counts",
    'parallel/fleet.py:fleet_rollup_row: sum(col["onsets"] for col in ok)':
        "integer event counts",
    "parallel/fleet.py:fleet_rollup_row: "
    'sum(col["repairs_completed"] for col in ok)': "integer event counts",
}

_FLOAT_SUMS = {("statistics", "fmean"), ("math", "fsum")}


def _is_count(call: ast.Call) -> bool:
    """``sum(<int literal> for ...)``: a count, whatever it iterates."""
    arg = call.args[0] if call.args else None
    return (
        isinstance(arg, (ast.GeneratorExp, ast.ListComp))
        and isinstance(arg.elt, ast.Constant)
        and type(arg.elt.value) is int
    )


class _Finder(ast.NodeVisitor):
    def __init__(self, source: str) -> None:
        self.source = source
        self.scope: List[str] = []
        self.imported: Set[str] = set()  # local names of fmean / fsum
        self.found: List[Tuple[int, str]] = []

    def _nested(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _nested

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        for alias in node.names:
            if (node.module, alias.name) in _FLOAT_SUMS:
                self.imported.add(alias.asname or alias.name)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        flagged = (
            isinstance(func, ast.Name)
            and (func.id == "sum" or func.id in self.imported)
        ) or (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in _FLOAT_SUMS
        )
        if flagged and not (
            isinstance(func, ast.Name) and func.id == "sum" and _is_count(node)
        ):
            where = ".".join(self.scope) or "<module>"
            text = " ".join(ast.get_source_segment(self.source, node).split())
            self.found.append((node.lineno, f"{where}: {text}"))
        self.generic_visit(node)


def find_calls(source: str, path: str) -> Iterator[Tuple[int, str]]:
    """``(line, "<path>:<function>: <call>")`` of every flagged call."""
    finder = _Finder(source)
    finder.visit(ast.parse(source))
    for line, call in finder.found:
        yield line, f"{path}:{call}"


def _files(package: Path) -> Iterator[Path]:
    for entry in SCOPE:
        target = package / entry
        yield from sorted(target.rglob("*.py")) if target.is_dir() else [target]


def lint(package: Path) -> List[str]:
    """Problems in the ``repro`` package at ``package``: flagged calls not
    in :data:`ALLOWED`, then entries of it that match no call."""
    problems, seen = [], set()
    for path in _files(package):
        relative = path.relative_to(package).as_posix()
        for line, key in find_calls(path.read_text(encoding="utf-8"), relative):
            seen.add(key)
            if key not in ALLOWED:
                problems.append(
                    f"{relative}:{line}: float sum outside ordered_sum: {key}"
                )
    problems.extend(
        f"stale allowlist entry: {key}" for key in ALLOWED if key not in seen
    )
    return problems


def main() -> int:
    package = Path(__file__).resolve().parents[2] / "src" / "repro"
    problems = lint(package)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
