"""Count the code lines of Python files: lines that hold code, not
counting blank lines, comments or docstrings.

A line counts when a token other than a comment or a layout token (line
break, indent, dedent) covers it; a token that spans lines, such as a
multi-line string, covers each of them.  The docstrings of the module and
of each class and function are then taken out, found with ast.

    python tests/code_lines.py src/nosell/cli.py

prints each file's count and, for more than one file, the total.
"""

import ast
import io
import sys
import tokenize

#: Tokens that hold no code.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: str) -> int:
    """The number of code lines of the Python file at ``path``."""
    with tokenize.open(path) as file:
        source = file.read()
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


if __name__ == "__main__":
    counts = [code_lines(path) for path in sys.argv[1:]]
    for path, count in zip(sys.argv[1:], counts):
        print(f"{count:6d} {path}")
    if len(counts) > 1:
        print(f"{sum(counts):6d} total")
