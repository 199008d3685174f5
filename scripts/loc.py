#!/usr/bin/env python3
"""Count the code lines and docstring lines of each module of ``src/cohres``.

A code line is a physical line that holds a token other than a comment,
outside the module, class and function docstrings; a multi-line
expression counts each of its lines.  A docstring line is a line of one
of those docstrings.  Blank and comment-only lines count as neither.
Prints one row per module and a total, with a ``code doc`` column pair
per checkout given, so two checkouts (a parent and a change) print side
by side.  Standard library only.

Run from the repository root:

    python scripts/loc.py DIR [DIR ...]
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def count(source: str) -> tuple[int, int]:
    """``(code lines, docstring lines)`` of one module's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, HAS_DOCSTRING) and ast.get_docstring(node) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - doc), len(doc)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("dirs", nargs="+", metavar="DIR", help="a checkout's root")
    args = parser.parse_args(argv)
    counts = [
        {p.name: count(p.read_text(encoding="utf-8"))
         for p in sorted(Path(d, "src", "cohres").glob("*.py"))}
        for d in args.dirs
    ]
    names = sorted(set().union(*counts))
    width = max(len(n) for n in [*names, "module"])
    print(f"{'module':<{width}}" + "".join(f"  {'code':>6} {'doc':>6}" for _ in counts))
    for name in [*names, "total"]:
        cells = [
            (sum(c for c, _ in d.values()), sum(n for _, n in d.values())) if name == "total"
            else d.get(name, ("-", "-"))
            for d in counts
        ]
        print(f"{name:<{width}}" + "".join(f"  {c:>6} {n:>6}" for c, n in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
