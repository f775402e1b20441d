"""Print the line and code-line counts of every file under ``src/``, and their totals.

Code lines are those that are not blank, not a comment and not inside a
docstring (module, class or function docstrings, found through ``ast``).

    python3 scripts/code_lines.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def docstring_lines(tree):
    """Line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def count(path):
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    skip = docstring_lines(ast.parse(text))
    lines = text.splitlines()
    code = sum(1 for i, line in enumerate(lines, 1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


def main():
    total = code = 0
    for path in sorted(SRC.rglob("*.py")):
        t, c = count(path)
        total += t
        code += c
        print(f"{t:6d} {c:6d}  {path.relative_to(SRC)}")
    print(f"{total:6d} {code:6d}  total (lines, code lines)")


if __name__ == "__main__":
    main()
