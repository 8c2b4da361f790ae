"""Count code, docstring and comment lines per module of a package.

Standard library only:

    python3 tools/code_lines.py [DIR]

DIR defaults to ``src/logser``.  Each ``*.py`` file under it is read
with ``ast`` and ``tokenize``:

- a docstring line lies inside the docstring of a module, class or
  function, from its first line to its last;
- a code line holds a token other than a comment, outside docstrings;
  every line of a multi-line token counts;
- a comment line holds a comment and nothing else.

Blank lines count as none of the three.  One row is printed per module,
then the totals.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    out: set[int] = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            out.update(range(body[0].lineno, body[0].end_lineno + 1))
    return out


def count(path: Path) -> tuple[int, int, int]:
    """(code, docstring, comment) lines of one Python file."""
    source = path.read_bytes()
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    comments: set[int] = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type == tokenize.COMMENT:
                comments.add(tok.start[0])
            elif tok.type not in _LAYOUT:
                code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docs
    return len(code), len(docs), len(comments - code - docs)


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/logser")
    rows = [(p.relative_to(root).as_posix(), *count(p)) for p in sorted(root.rglob("*.py"))]
    width = max([len("total")] + [len(r[0]) for r in rows])
    print(f"{'module':<{width}}  {'code':>6}  {'doc':>6}  {'comment':>7}")
    for name, code, doc, comment in rows:
        print(f"{name:<{width}}  {code:>6}  {doc:>6}  {comment:>7}")
    totals = [sum(r[i] for r in rows) for i in (1, 2, 3)]
    print(f"{'total':<{width}}  {totals[0]:>6}  {totals[1]:>6}  {totals[2]:>7}")


if __name__ == "__main__":
    main(sys.argv[1:])
