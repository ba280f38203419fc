"""Count the code lines of the library, the tests and the benchmark.

A code line is a physical line that holds a token of code: docstrings,
comments and blank lines are left out. A docstring is the string that opens
a module, class or function body, found with ``ast``; the tokens come from
``tokenize``, so a line inside a multi-line string or bracket counts.
Standard library only. Run from the repository root:

    python tools/code_lines.py [--files]

It prints the count of ``src/proxcycle``, ``tests`` and ``bench``, and with
``--files`` each file's under it.
"""

import ast
import sys
import tokenize
from pathlib import Path

DIRECTORIES = ("src/proxcycle", "tests", "bench")
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    text = Path(path).read_text(encoding="utf-8")
    lines = set()
    with open(path, "rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type not in NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main(argv):
    for directory in DIRECTORIES:
        counts = {p: code_lines(p) for p in sorted(Path(directory).rglob("*.py"))}
        print(f"{directory}: {sum(counts.values())}")
        if "--files" in argv:
            for path, count in counts.items():
                print(f"    {path}: {count}")


if __name__ == "__main__":
    main(sys.argv[1:])
