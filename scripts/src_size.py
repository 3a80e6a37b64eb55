#!/usr/bin/env python3
"""Size of the starprod package, module by module.

Prints, for each module of src/starprod and in total, its line count (as
``wc -l`` counts) and its code lines: the lines left once blank lines,
comment lines and docstrings (of the module, its classes and functions,
found with ``ast``) are taken out.

    python scripts/src_size.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starprod"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set:
    """Numbers of the lines that docstrings span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def module_size(text: str):
    """(lines, code lines) of one module's source text."""
    docs = docstring_lines(ast.parse(text))
    code = 0
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and number not in docs:
            code += 1
    return text.count("\n"), code


def main():
    total_lines = total_code = 0
    print(f"{'module':16s} {'lines':>6s} {'code':>6s}")
    for path in sorted(PACKAGE.glob("*.py")):
        lines, code = module_size(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{path.name:16s} {lines:6d} {code:6d}")
    print(f"{'total':16s} {total_lines:6d} {total_code:6d}")


if __name__ == "__main__":
    main()
