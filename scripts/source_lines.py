"""Count the source lines of the slopelab package.

Prints two numbers for the Python files under ``src/slopelab/``: the
non-blank lines, and the code lines, which are the non-blank lines that
are neither comments nor part of a module, class or function docstring.

    python3 scripts/source_lines.py
"""

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _docstring_lines(tree):
    """The line numbers spanned by the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source):
    """(non-blank lines, code lines) of one module's source."""
    non_blank = {i for i, line in enumerate(source.splitlines(), 1) if line.strip()}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= _docstring_lines(ast.parse(source))
    return len(non_blank), len(code & non_blank)


def main():
    totals = [0, 0]
    for directory, _, names in sorted(os.walk(os.path.join(ROOT, "src", "slopelab"))):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as fh:
                    for i, n in enumerate(count(fh.read())):
                        totals[i] += n
    print(f"non-blank lines: {totals[0]}")
    print(f"code lines: {totals[1]}")


if __name__ == "__main__":
    main()
