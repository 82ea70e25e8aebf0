"""Count the lines of each ``src/bloomemb`` module, by ``wc -l`` and as code.

A code line is not blank, not a ``#`` comment and not in a docstring (the
first statement of a module, class or function when it is a string).
Standard library only. Run from anywhere:

    python tools/code_lines.py [package_dir]

``package_dir`` defaults to this checkout's ``src/bloomemb``. Modules are
listed by code lines, most first, then the total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def docstring_lines(tree: ast.AST) -> set[int]:
    """The 1-based line numbers that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """``wc -l`` of the file and its code lines."""
    text = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(text))
    code = sum(1 for i, line in enumerate(text.splitlines(), 1)
               if line.strip() and not line.lstrip().startswith("#") and i not in docs)
    return text.count("\n"), code


def main(argv: list[str]) -> None:
    root = (Path(argv[0]) if argv
            else Path(__file__).resolve().parent.parent / "src" / "bloomemb")
    rows = sorted(((p.stem, *count(p)) for p in root.glob("*.py")),
                  key=lambda row: (-row[2], row[0]))
    print(f"{'module':<12} {'wc -l':>6} {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<12} {lines:>6,} {code:>6,}")
    print(f"{'total':<12} {sum(r[1] for r in rows):>6,} {sum(r[2] for r in rows):>6,}")


if __name__ == "__main__":
    main(sys.argv[1:])
