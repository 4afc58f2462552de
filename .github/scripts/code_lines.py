"""Count the code lines of ``src/decimesh``, per module and in total,
and the names its ``__all__`` exports.

A code line holds at least one token that is not a comment; blank
lines, comment lines and docstrings (found with ``ast``) do not count.
A statement that spans several lines counts each of them. The names
are read from ``__init__.py`` with ``ast``, without importing the
package.

Run from the repository root:

    python .github/scripts/code_lines.py [package directory]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree):
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text):
    docstrings = docstring_lines(ast.parse(text))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def exported_names(text):
    """The names of the module-level ``__all__`` list or tuple."""
    for node in ast.parse(text).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


def main(package="src/decimesh"):
    total = 0
    for path in sorted(Path(package).glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    init = Path(package) / "__init__.py"
    print(f"{len(exported_names(init.read_text(encoding='utf-8'))):6d}  names in __all__")


if __name__ == "__main__":
    main(*sys.argv[1:])
