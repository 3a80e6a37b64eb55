#!/usr/bin/env python3
"""Size of the starprod package, module by module.

Prints, for each module of src/starprod and in total, its line count (as
``wc -l`` counts), its code lines: the lines left once blank lines,
comment lines and docstrings (of the module, its classes and functions,
found with ``ast``) are taken out, and its defaulted parameters: the
positional and keyword-only parameters with a default, over every function
and method, found with ``ast``.

    python scripts/src_size.py
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "starprod"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DOCUMENTED = (ast.Module, ast.ClassDef) + FUNCTIONS


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


def defaulted_parameters(text: str) -> int:
    """Parameters with a default, positional or keyword-only, over every
    function of one module's source text."""
    return sum(len(node.args.defaults)
               + sum(default is not None for default in node.args.kw_defaults)
               for node in ast.walk(ast.parse(text)) if isinstance(node, FUNCTIONS))


def main():
    totals = [0, 0, 0]
    print(f"{'module':16s} {'lines':>6s} {'code':>6s} {'defaults':>8s}")
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        sizes = (*module_size(text), defaulted_parameters(text))
        totals = [t + s for t, s in zip(totals, sizes)]
        print(f"{path.name:16s} {sizes[0]:6d} {sizes[1]:6d} {sizes[2]:8d}")
    print(f"{'total':16s} {totals[0]:6d} {totals[1]:6d} {totals[2]:8d}")


if __name__ == "__main__":
    main()
